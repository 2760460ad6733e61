"""Command-line front door.

Subcommands: apply, realize, verify, basis, project, hahn, spectrum.
Data goes to stdout, diagnostics to stderr. Exit codes: 0 success,
2 usage/parse problems, 3 mathematical failures (singularity, degeneracy,
identity violation). Identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import re
import sys
import threading
import warnings

from .errors import DslError, MathError
from .hahn import Q_VARIANTS, HahnParams, HahnVariant, spectrum, table_rows
from .maps import MAP_KINDS, b_projection, make_map
from .opcore import apply, realize
from .poly import Poly
from .qnum import QContext, rational
from . import dsl
from .verify import SUITES, run_suite

_NEGATIVE_RATIONAL = re.compile(r"-\d+/\d+")


def _add_common(sub, *, delta_default=None):
    sub.add_argument("--q", help="deformation parameter q as an exact rational, e.g. 1/2")
    sub.add_argument(
        "--delta",
        default=delta_default,
        help="shift parameter delta as an exact rational"
        + (" (default %s)" % delta_default if delta_default else ""),
    )
    sub.add_argument(
        "--degree",
        type=int,
        default=16,
        metavar="D",
        help="truncation degree D (default 16)",
    )
    sub.add_argument(
        "--format",
        choices=("text", "json", "csv"),
        default="text",
        help="output format (default text)",
    )


# Recording warnings swaps process-wide state, so contexts are built one at a
# time; a warning another thread raises in that short window is printed here.
_warnings_lock = threading.Lock()


def _context(args) -> "QContext | None":
    """The command's QContext, built once on first use (None without --q).
    The library's warning for q outside (-1, 1) becomes one stderr line."""
    if args.q is None:
        return None
    if getattr(args, "ctx", None) is None:
        with _warnings_lock, warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            args.ctx = QContext(rational(args.q))
        for w in caught:
            print("warning: %s" % w.message, file=sys.stderr)
    return args.ctx


def _parse_expr(args, text):
    return dsl.parse(text, q=_context(args), delta=args.delta)


def _parse_poly(args, text) -> Poly:
    return dsl.parse_poly(text, q=_context(args), delta=args.delta)


def _emit(fmt: str, data, text, csv=None):
    """Print data() as one line of json, or else the csv lines (falling back
    to the text lines when a command has no csv form)."""
    if fmt == "json":
        print(json.dumps(data(), sort_keys=True))
        return
    for line in text if fmt == "text" or csv is None else csv:
        print(line)


def _csv(p: Poly, sep: str = " ") -> str:
    """p's coefficients joined by sep for csv; the zero polynomial is 0."""
    return sep.join(p.coefficient_texts()) or "0"


def _emit_poly(p: Poly, fmt: str):
    """Emit p; its lines are lazy, so only the requested format renders it."""
    csv = (_csv(q, ",") for q in [p])
    _emit(fmt, p.to_json, (q.to_text() for q in [p]), csv)


def cmd_apply(args) -> int:
    e = _parse_expr(args, args.expr)
    if isinstance(e, Poly):
        print("error: first argument must be an operator expression", file=sys.stderr)
        return 2
    p = _parse_poly(args, args.poly)
    _emit_poly(apply(e, p, args.degree), args.format)
    return 0


def cmd_realize(args) -> int:
    e = _parse_expr(args, args.expr)
    if isinstance(e, Poly):
        print("error: argument must be an operator expression", file=sys.stderr)
        return 2
    lin = realize(e, args.degree)
    cols = list(enumerate(lin.columns))
    _emit(
        args.format,
        lin.to_json,
        ("x^%d -> %s" % (n, "overflow" if c is None else c.to_text()) for n, c in cols),
        ("%d,%s" % (n, "overflow" if c is None else _csv(c)) for n, c in cols),
    )
    return 0


def cmd_verify(args) -> int:
    ctx = _context(args)
    if ctx is None:
        print("error: verify requires --q", file=sys.stderr)
        return 2
    delta = rational(args.delta) if args.delta is not None else rational(1)
    checks = run_suite(args.suite, ctx, delta, args.degree)
    rows = [
        {"check": c.name, "ok": c.ok, "q": str(ctx.q), "delta": str(delta), "D": args.degree}
        for c in checks
    ]
    held = sum(r["ok"] for r in rows)
    text = [
        "%s %s (q=%s, delta=%s, D=%d)"
        % ("PASS" if r["ok"] else "FAIL", r["check"], r["q"], r["delta"], r["D"])
        for r in rows
    ]
    _emit(args.format, lambda: rows, text + ["%d/%d identities hold" % (held, len(rows))])
    return 0 if held == len(rows) else 3


def _make_map(args):
    q = rational(args.q) if args.q is not None else None
    if "q" in MAP_KINDS[args.map][0]:
        q = _context(args)
    delta = rational(args.delta) if args.delta is not None else None
    return make_map(args.map, q=q, delta=delta)


def cmd_basis(args) -> int:
    m = _make_map(args)
    rows = []
    for n in range(args.count + 1):
        p = m.basis_element(n)
        rows.append((n, p))
        if p.degree > args.degree:
            print("error: basis element %d exceeds degree %d" % (n, args.degree), file=sys.stderr)
            return 3
    _emit(
        args.format,
        lambda: {"map": m.to_json(), "elements": [p.to_json() for _, p in rows]},
        ("|%d> = %s" % (n, p.to_text()) for n, p in rows),
        ("%d,%s" % (n, _csv(p)) for n, p in rows),
    )
    return 0


def cmd_project(args) -> int:
    m = _make_map(args)
    f = _parse_poly(args, args.poly)
    _emit_poly(b_projection(f, m, args.degree), args.format)
    return 0


def _hahn_args(args):
    """Variant, parameters and q context (q variants only) of a Hahn command."""
    variant = HahnVariant(args.variant)
    params = HahnParams(
        rational(args.alpha),
        rational(args.beta),
        rational(args.N),
        delta=rational(args.delta),
        c1=rational(args.c1),
    )
    ctx = None
    if variant in Q_VARIANTS:
        if args.q is None:
            raise ValueError("%s requires --q" % variant.value)
        ctx = _context(args)
    return variant, params, ctx


def cmd_hahn(args) -> int:
    variant, params, ctx = _hahn_args(args)
    rows = table_rows(variant, params, args.kmax, args.degree, ctx)
    _emit(
        args.format,
        lambda: rows,
        (
            "k=%-3d lambda=%-12s residual=%-3s coeffs=[%s]"
            % (r["k"], r["eigenvalue"], r["residual"], ", ".join(r["coefficients"]))
            for r in rows
        ),
        ["variant,k,eigenvalue,coefficients,residual"]
        + [
            "%s,%d,%s,%s,%s"
            % (r["variant"], r["k"], r["eigenvalue"], " ".join(r["coefficients"]), r["residual"])
            for r in rows
        ],
    )
    bad = [r["k"] for r in rows if r["residual"] != "0"]
    if bad:
        print("error: nonzero residual at k=%s" % bad, file=sys.stderr)
        return 3
    return 0


def cmd_spectrum(args) -> int:
    variant, params, ctx = _hahn_args(args)
    rows = [
        {"k": k, "eigenvalue": str(spectrum(variant, params, k, ctx))}
        for k in range(args.kmax + 1)
    ]
    _emit(
        args.format,
        lambda: rows,
        ("k=%-3d lambda=%s" % (r["k"], r["eigenvalue"]) for r in rows),
        ["k,eigenvalue"] + ["%d,%s" % (r["k"], r["eigenvalue"]) for r in rows],
    )
    return 0


class _ArgumentParser(argparse.ArgumentParser):
    """Reads a negative rational such as -1/2 as a value, not as an option."""

    def _parse_optional(self, arg_string):
        if _NEGATIVE_RATIONAL.fullmatch(arg_string):
            return None
        return super()._parse_optional(arg_string)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on first use and shared by every later
    command in the process; parsing keeps no state between calls."""
    parser = _ArgumentParser(
        prog="qdeform",
        description="Exact operator calculus for commutation-relation-preserving "
        "deformations: Jackson calculus, adapted bases, deformed Hahn operators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("apply", help="apply an operator expression to a polynomial")
    p.add_argument("expr", help="operator expression, e.g. 'Dq' or 'inv(qb(B))*d'")
    p.add_argument("poly", help="polynomial, e.g. 'poly(x^3)' or 'x^3'")
    _add_common(p)
    p.set_defaults(func=cmd_apply)

    p = sub.add_parser("realize", help="tabulate an operator on x^0..x^D")
    p.add_argument("expr")
    _add_common(p)
    p.set_defaults(func=cmd_realize)

    p = sub.add_parser("verify", help="run a named identity suite")
    p.add_argument("suite", choices=[*SUITES, "all"])
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("basis", help="emit adapted-basis elements |0>..|n>")
    p.add_argument("map", choices=list(MAP_KINDS))
    p.add_argument("count", type=int, help="largest basis index to emit")
    _add_common(p)
    p.set_defaults(func=cmd_basis)

    p = sub.add_parser("project", help="project a polynomial through a map")
    p.add_argument("map", choices=list(MAP_KINDS))
    p.add_argument("poly")
    _add_common(p)
    p.set_defaults(func=cmd_project)

    for name, fn, extra in (
        ("hahn", cmd_hahn, True),
        ("spectrum", cmd_spectrum, False),
    ):
        p = sub.add_parser(
            name,
            help="eigenvalue/eigenpolynomial table" if extra else "eigenvalue table",
        )
        p.add_argument(
            "variant", choices=[v.value for v in HahnVariant]
        )
        p.add_argument("--alpha", required=True)
        p.add_argument("--beta", required=True)
        p.add_argument("--N", required=True)
        p.add_argument("--c1", default="-1", help="leading constant (default -1)")
        p.add_argument("--kmax", type=int, default=8)
        _add_common(p, delta_default="1")
        p.set_defaults(func=fn)

    return parser


# Commands running at once share one lift of the int-string digit limit: the
# first to start saves the caller's limit and lifts it, the last to finish
# puts it back.
_digits_lock = threading.Lock()
_digits_users = 0
_digits_saved = 0


@contextlib.contextmanager
def _no_digit_limit():
    global _digits_users, _digits_saved
    if not hasattr(sys, "get_int_max_str_digits"):  # no limit before 3.10.7
        yield
        return
    with _digits_lock:
        if _digits_users == 0:
            _digits_saved = sys.get_int_max_str_digits()
            sys.set_int_max_str_digits(0)
        _digits_users += 1
    try:
        yield
    finally:
        with _digits_lock:
            _digits_users -= 1
            if _digits_users == 0:
                sys.set_int_max_str_digits(_digits_saved)


def main(argv=None) -> int:
    """Run one command; returns its exit code.

    Exact values may run past Python's int-string digit limit, so the limit
    is lifted while the command runs and restored when the last concurrent
    command returns. The limit is process-wide: other threads run without it
    for that time.
    """
    with _no_digit_limit():
        return _run(argv)


def _run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    for flag in ("--degree", "--kmax", "count"):
        value = getattr(args, flag.lstrip("-"), 0)
        if value < 0:
            print("error: %s must be nonnegative, got %d" % (flag, value), file=sys.stderr)
            return 2
    try:
        return args.func(args)
    except DslError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except MathError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
