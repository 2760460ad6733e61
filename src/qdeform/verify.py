"""Named identity suites: each runs a family of exact checks on a degree
window and reports one pass/fail line per identity.

These back the CLI ``verify`` command; the test suite drives the same
functions, so the command-line reports and the pytest acceptance run can
never drift apart.

The suites share nothing but the memoized maps, so ``run_suite("all")``
runs them side by side on one process per usable CPU when the process can
fork and is single-threaded; otherwise it runs them one after another. The
checks, their order and any exception raised are the same either way.
"""

from __future__ import annotations

import json
import os
import random
import threading
from fractions import Fraction

from .hahn import HahnParams, isospectral_check
from .maps import (
    a_delta_expr,
    b_delta_expr,
    b_projection,
    compose,
    dq_expr,
    identity_map,
    intertwine_words,
    jackson_integral,
    mq_expr,
    phi_delta,
    phi_q,
    q_exponential,
    qcc_delta_check,
    quantum_average,
    rolle_check,
    s_expr,
    similarity_check,
    xq_expr,
)
from .opcore import (
    COORD,
    DERIV,
    DiagInv,
    LinOp,
    apply,
    commutator,
    dbracket_diag,
    op_prod,
    q_commutator,
    qnum_diag,
    realize_exact,
)
from .poly import Poly
from .qnum import QContext, Record

_SEED = 1729


class Check(Record):
    __slots__ = ("name", "ok", "detail")

    def __init__(self, name: str, ok: bool, detail: str = ""):
        super().__init__(name, ok, detail)


def random_poly(rng: random.Random, max_degree: int) -> Poly:
    """Coefficients a/b (|a| <= 9, 1 <= b <= 6) for x^0..x^n, with n drawn
    from 0..max_degree. The seeded suites below depend on this exact
    sequence of draws."""
    return Poly(
        [
            Fraction(rng.randint(-9, 9), rng.randint(1, 6))
            for _ in range(rng.randint(1, max_degree + 1))
        ]
    )


def _diag_range(D: int) -> LinOp:
    return LinOp.from_diagonal(D, [Fraction(n) for n in range(D + 1)])


def suite_ccr(ctx: QContext, delta, D: int):
    dq, xq = dq_expr(ctx), xq_expr(ctx)
    ad, bd = a_delta_expr(delta), b_delta_expr(delta)
    qd = compose(phi_q(ctx), phi_delta(delta))
    dq_ = compose(phi_delta(delta), phi_q(ctx))
    checks = [
        Check("[d, x] = 1", commutator(DERIV, COORD, D).is_identity()),
        Check("[Dq, xq] = 1", commutator(dq, xq, D).is_identity()),
        Check("[Ddelta, xdelta] = 1", commutator(ad, bd, D).is_identity()),
        Check(
            "[a_qd, b_qd] = 1",
            commutator(qd.image_a, qd.image_b, D).is_identity(),
        ),
        Check(
            "[a_dq, b_dq] = 1",
            commutator(dq_.image_a, dq_.image_b, D).is_identity(),
        ),
        Check("Dq annihilates constants", apply(dq, Poly.one(), D).is_zero),
        Check("Ddelta annihilates constants", apply(ad, Poly.one(), D).is_zero),
        Check(
            "xq*Dq = A (invariant of the deformation)",
            realize_exact(op_prod(xq, dq), D) == _diag_range(D),
        ),
    ]
    return checks


def suite_qccr(ctx: QContext, delta, D: int):
    dq = dq_expr(ctx)
    conj = op_prod(COORD, DiagInv(dbracket_diag(ctx, 1)))
    return [
        Check(
            "Dq*x - q*x*Dq = 1",
            q_commutator(dq, COORD, ctx.q, D).is_identity(),
        ),
        Check(
            "d*(x*qb(B)^-1) - q*(x*qb(B)^-1)*d = 1",
            q_commutator(DERIV, conj, ctx.q, D).is_identity(),
        ),
    ]


def suite_jackson(ctx: QContext, delta, D: int):
    dq, s, xq = dq_expr(ctx), s_expr(ctx), xq_expr(ctx)
    minus_p0 = LinOp(
        D, [Poly.zero()] + [Poly.monomial(n) for n in range(1, D + 1)]
    )
    rng = random.Random(_SEED)
    qnB = qnum_diag(ctx, 1)
    mq_inverts = all(
        quantum_average(apply(qnB, p, D), ctx) == p
        for p in (random_poly(rng, max(1, D - 1)) for _ in range(10))
    )
    integ = all(
        apply(dq, jackson_integral(p, ctx), D) == p
        for p in (random_poly(rng, max(1, D - 2)) for _ in range(10))
    )
    return [
        Check("Dq S = 1", realize_exact(op_prod(dq, s), D).is_identity()),
        Check(
            "S Dq = 1 - (degree-0 projector)",
            realize_exact(op_prod(s, dq), D) == minus_p0,
        ),
        Check(
            "Mq qn(B) = 1",
            realize_exact(op_prod(mq_expr(ctx), qnB), D).is_identity(),
        ),
        Check("xq = x d S", realize_exact(op_prod(COORD, DERIV, s), D) == realize_exact(xq, D)),
        Check("Dq(S p) = p on random p", integ),
        Check("Mq(B p) = p on random p", mq_inverts),
    ]


def suite_rolle(ctx: QContext, delta, D: int):
    rng = random.Random(_SEED)
    ok = all(
        rolle_check(random_poly(rng, max(1, min(12, D - 1))), ctx, D) for _ in range(30)
    )
    return [Check("quantum Rolle identity on 30 random polynomials", ok)]


def suite_intertwine(ctx: QContext, delta, D: int):
    rng = random.Random(_SEED)
    maps = [
        ("phi_q", phi_q(ctx)),
        ("phi_delta", phi_delta(delta)),
        ("phi_q.phi_delta", compose(phi_q(ctx), phi_delta(delta))),
        ("phi_delta.phi_q", compose(phi_delta(delta), phi_q(ctx))),
    ]
    checks = []
    for mname, m in maps:
        inputs = [random_poly(rng, max(1, D - 3)) for _ in range(10)]
        checks.append(Check("intertwining for %s" % mname, intertwine_words(m, inputs, D)))
    return checks


def suite_similarity(ctx: QContext, delta, D: int):
    return [Check("U-conjugation carries (d, x) to (Dq, xq)", similarity_check(ctx, D))]


def suite_qcc_delta(ctx: QContext, delta, D: int):
    return [
        Check(
            "a_d (b qb(B)^-1)_d - q (b qb(B)^-1)_d a_d = 1",
            qcc_delta_check(ctx, delta, D),
        ),
        Check(
            "delta = 0 degenerate form",
            qcc_delta_check(ctx, 0, D),
        ),
    ]


def suite_composition(ctx: QContext, delta, D: int):
    q = ctx.q
    qd = compose(phi_q(ctx), phi_delta(delta))
    dq = compose(phi_delta(delta), phi_q(ctx))
    two_qd = qd.basis_element(2)
    two_dq = dq.basis_element(2)
    expect_qd = Poly([0, -delta, Fraction(2, 1) / (1 + q)])
    expect_dq = (Poly.x() * (Poly.x() - Poly([delta]))).scale(Fraction(2, 1) / (1 + q))
    checks = [
        Check("|2>_qd = (2/(1+q)) b^2 - delta b", two_qd == expect_qd),
        Check("|2>_dq = (2/(1+q)) b(b-delta)", two_dq == expect_dq),
    ]
    if delta != 0:
        checks.append(Check("|2>_qd differs from |2>_dq", two_qd != two_dq))
    mq, md = phi_q(ctx), phi_delta(delta)
    funct = True
    for outer, inner, comp in ((mq, md, qd), (md, mq, dq)):
        for n in range(9):
            lhs = comp.basis_element(n)
            rhs = b_projection(inner.basis_element(n), outer, D)
            funct = funct and lhs == rhs
    checks.append(Check("induced map of a composition factorizes", funct))
    ident = identity_map()
    checks.append(
        Check(
            "compose(identity, m) acts like m",
            all(
                compose(ident, md).basis_element(n) == md.basis_element(n)
                for n in range(6)
            ),
        )
    )
    eq = q_exponential(ctx, 1, D)
    lhs = apply(dq_expr(ctx), eq, D)
    checks.append(
        Check(
            "Dq e_q = e_q up to truncation",
            lhs == eq.truncated(D - 1),
        )
    )
    return checks


def suite_hahn(ctx: QContext, delta, D: int):
    params = [HahnParams(0, 0, 5), HahnParams(Fraction(1, 2), Fraction(1, 3), 7)]
    report = isospectral_check(params, [ctx], min(8, D), D)
    return [
        Check(
            "%s %s%s" % (e["check"], e["params"], " q=" + e["q"] if "q" in e else ""),
            e["ok"],
        )
        for e in report["entries"]
    ]


SUITES = {
    "ccr": suite_ccr,
    "qccr": suite_qccr,
    "jackson": suite_jackson,
    "rolle": suite_rolle,
    "intertwine": suite_intertwine,
    "similarity": suite_similarity,
    "qcc-delta": suite_qcc_delta,
    "composition": suite_composition,
    "hahn": suite_hahn,
}


# The least D at which a suite's random inputs and fixed basis indices fit
# the truncation; suites not listed need D >= 0.
MIN_DEGREE = {"jackson": 2, "rolle": 1, "intertwine": 2, "composition": 8}


def run_suite(name: str, ctx: QContext, delta, D: int):
    """Run one suite (or 'all'); returns a list of Check results.

    A D below the suite's minimum (the largest one for 'all') is a
    ValueError that names the minimum, raised before any check runs.
    'all' runs the suites on one process per usable CPU (at most one per
    suite) when os.fork exists and this is the only live thread."""
    if name != "all" and name not in SUITES:
        raise ValueError(
            "unknown suite %r (choose from %s)" % (name, ", ".join([*SUITES, "all"]))
        )
    names = list(SUITES) if name == "all" else [name]
    least = max(MIN_DEGREE.get(key, 0) for key in names)
    if D < least:
        raise ValueError("suite %r needs degree D >= %d, got %d" % (name, least, D))
    workers = min(len(names), _usable_cpus()) - 1
    if workers > 0 and hasattr(os, "fork") and threading.active_count() == 1:
        return _run_forked(names, ctx, delta, D, workers)
    return _run_in_order(names, ctx, delta, D, {})


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_in_order(names, ctx, delta, D, done):
    """The checks of every suite in order, taking suite i's from done[i]
    where present and running it here otherwise."""
    out = []
    for i, key in enumerate(names):
        out.extend(done[i] if i in done else SUITES[key](ctx, delta, D))
    return out


def _claim(claims: int, names, ctx, delta, D, done) -> "tuple | None":
    """Run the suites whose indices this process reads off the claims pipe,
    one byte each, into done until the pipe is empty; stops at the first
    suite that raises and returns (its index, the exception)."""
    while True:
        byte = os.read(claims, 1)
        if not byte:
            return None
        i = byte[0]
        try:
            done[i] = SUITES[names[i]](ctx, delta, D)
        except Exception as exc:
            return i, exc


def _work(claims: int, out: int, names, ctx, delta, D):
    """A forked worker: claims suites, writes their checks to out as one
    line of json and leaves through os._exit, so it never returns into the
    caller or flushes the parent's buffers. A suite that raised is left out
    of the line, and the parent runs it again."""
    try:
        done = {}
        _claim(claims, names, ctx, delta, D, done)
        rows = [[i, [[c.name, c.ok, c.detail] for c in checks]] for i, checks in done.items()]
        data = json.dumps(rows).encode() + b"\n"
        while data:
            data = data[os.write(out, data):]
    finally:
        os._exit(0)


def _results(fd: int) -> dict:
    """Suite index -> checks from a worker's line; a worker that died before
    writing all of it gives none, and the parent runs its suites itself."""
    chunks = []
    while chunk := os.read(fd, 65536):
        chunks.append(chunk)
    try:
        rows = json.loads(b"".join(chunks))
    except ValueError:
        return {}
    return {i: [Check(*row) for row in checks] for i, checks in rows}


def _run_forked(names, ctx, delta, D, workers: int):
    """run_suite's checks from this process and up to `workers` forked
    ones, each claiming suites until none is left. Every worker is reaped
    before this returns or raises; it is killed first if this raises. The
    first suite in order that raised, wherever it ran, runs again here, so
    its exception propagates as it would from the serial loop."""
    try:
        # maps several suites read, built once here for every worker
        mq, md = phi_q(ctx), phi_delta(delta)
        compose(mq, md)
        compose(md, mq)
    except Exception:
        return _run_in_order(names, ctx, delta, D, {})
    claims, writer = os.pipe()
    os.write(writer, bytes(range(len(names))))
    os.close(writer)
    children = []  # (pid, read end of its result pipe)
    done, failed, collected = {}, None, False
    try:
        for _ in range(workers):
            fd, writer = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(fd)
                os.close(writer)
                break
            if pid == 0:
                _work(claims, writer, names, ctx, delta, D)
            os.close(writer)
            children.append((pid, fd))
        failed = _claim(claims, names, ctx, delta, D, done)
        if failed is None:
            for _, fd in children:
                done.update(_results(fd))
            collected = True
    finally:
        os.close(claims)
        if not collected and children:
            import signal  # only on this path, to keep the CLI's start-up lean

            for pid, _ in children:
                os.kill(pid, signal.SIGKILL)
        for pid, fd in children:
            os.close(fd)
            os.waitpid(pid, 0)
    if failed is not None:
        i, exc = failed
        _run_in_order(names[:i], ctx, delta, D, done)
        raise exc
    return _run_in_order(names, ctx, delta, D, done)
