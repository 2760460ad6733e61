"""Independent output oracles for the benchmark's CLI operations.

Every expected value is computed here from a closed form with ``Fraction``
and this file's own bracket, Stirling and hypergeometric helpers; nothing is
imported from ``qdeform``. A checker takes an operation's oracle spec, the
exit code and the captured stdout, and returns True only when both match.

Closed forms (q-number {n} = (1 - q^n)/(1 - q), double bracket
[[n]] = n/{n}, falling factorial [x]_n with step delta):

    phi_q        |n> = [[n]]! x^n
    phi_delta    |n> = [x]_n
    phi_delta_q  |n> = [[n]]! [x]_n
    phi_q_delta  |n> = sum_k s(n,k) delta^(n-k) [[k]]! x^k
    project      f = sum f_n x^n  ->  sum f_n |n>
    Hahn         eigenvalues lambda_k = c1 k^2/delta + c3 k (lambda~_k for
                 q_spectrum), monic eigenpolynomials, residual "0"; with
                 delta = 1 and c1 = -1 the coefficients are the monic
                 3F2(-k, k+alpha+beta+1, -x; beta+1, -N+1; 1) Hahn polynomials
    Dq*xq-xq*Dq  fixes x^n below the truncation degree
    verify       one PASS line per check of the suite, in the suite's order
                 (the check names are fixed below), and "n/n identities hold"
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from functools import lru_cache


# -- scalar helpers -----------------------------------------------------------


def qnumber(q: Fraction, n: int) -> Fraction:
    """{n} = (1 - q^n)/(1 - q), from the closed form rather than a recurrence."""
    return (1 - q**n) / (1 - q)


def dbracket(q: Fraction, n: int) -> Fraction:
    return Fraction(1) if n == 0 else n / qnumber(q, n)


@lru_cache(maxsize=None)
def dbracket_factorial(q: Fraction, n: int) -> Fraction:
    return Fraction(1) if n == 0 else dbracket_factorial(q, n - 1) * dbracket(q, n)


@lru_cache(maxsize=None)
def stirling_row(n: int) -> tuple:
    """s(n, 0..n): coefficients of x(x-1)...(x-n+1), by expanding the product."""
    row = [1]
    for i in range(n):
        nxt = [0] * (len(row) + 1)
        for k, c in enumerate(row):
            nxt[k + 1] += c
            nxt[k] -= i * c
        row = nxt
    return tuple(row)


def falling(delta: Fraction, n: int) -> list:
    """Monomial coefficients of [x]_n = x(x-delta)...(x-(n-1)delta)."""
    return [s * delta ** (n - k) for k, s in enumerate(stirling_row(n))]


def pochhammer(a: Fraction, j: int) -> Fraction:
    out = Fraction(1)
    for i in range(j):
        out *= a + i
    return out


def hahn_eigenvalue(variant: str, alpha, beta, q, k: int) -> Fraction:
    """lambda_k = c1 k^2/delta + c3 k, or lambda~_k for q_spectrum (c1 = -1,
    delta = 1, c3 = -alpha - beta - 1)."""
    c1, c3 = Fraction(-1), -alpha - beta - 1
    if variant != "q_spectrum":
        return c1 * k * k + c3 * k
    qk = qnumber(q, k)
    qk1 = qnumber(q, k - 1) if k >= 1 else Fraction(0)
    return c1 * qk * (qk1 + 1) + c3 * qk


@lru_cache(maxsize=None)
def hahn_3f2_monic(alpha, beta, N, k: int) -> tuple:
    """Monic coefficients, on [x]_j with step 1, of
    3F2(-k, k+alpha+beta+1, -x; beta+1, -N+1; 1), using (-x)_j = (-1)^j [x]_j."""
    c = [
        pochhammer(Fraction(-k), j)
        * pochhammer(k + alpha + beta + 1, j)
        * (-1) ** j
        / (pochhammer(beta + 1, j) * pochhammer(1 - N, j) * pochhammer(Fraction(1), j))
        for j in range(k + 1)
    ]
    return tuple(cj / c[k] for cj in c)


# -- polynomial helpers (coefficient lists, lowest degree first) ---------------


def trim(coeffs) -> list:
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return out


def add_into(acc: list, coeffs, scale=1) -> None:
    if len(acc) < len(coeffs):
        acc.extend([Fraction(0)] * (len(coeffs) - len(acc)))
    for i, c in enumerate(coeffs):
        acc[i] += scale * c


def poly_text(coeffs) -> str:
    """The CLI's canonical text form, highest degree first ("x^2-1/2*x")."""
    coeffs = trim(coeffs)
    if not coeffs:
        return "0"
    parts = []
    for n in range(len(coeffs) - 1, -1, -1):
        c = coeffs[n]
        if c == 0:
            continue
        base = "x" if n == 1 else "x^%d" % n
        if n == 0:
            term = str(c)
        elif c == 1:
            term = base
        elif c == -1:
            term = "-" + base
        else:
            term = "%s*%s" % (c, base)
        if parts and not term.startswith("-"):
            parts.append("+")
        parts.append(term)
    return "".join(parts)


def poly_emit(coeffs, fmt: str) -> str:
    """stdout of a polynomial result in one of the CLI's three formats."""
    coeffs = trim(coeffs)
    if fmt == "json":
        body = json.dumps({"basis": "monomial", "coeffs": [str(c) for c in coeffs]}, sort_keys=True)
    elif fmt == "csv":
        body = ",".join(str(c) for c in coeffs) if coeffs else "0"
    else:
        body = poly_text(coeffs)
    return body + "\n"


def basis_element(kind: str, q, delta, n: int) -> list:
    """|n> of an adapted basis, by the closed forms in the module docstring."""
    if kind == "phi_q":
        return [Fraction(0)] * n + [dbracket_factorial(q, n)]
    if kind == "phi_delta":
        return falling(delta, n)
    if kind == "phi_delta_q":
        return [dbracket_factorial(q, n) * c for c in falling(delta, n)]
    if kind == "phi_q_delta":
        return [c * dbracket_factorial(q, k) for k, c in enumerate(falling(delta, n))]
    raise ValueError("no oracle for map %r" % kind)


def apply_op(name: str, q, f) -> list:
    """Image of f under Dq, xq, S or Mq, term by term."""
    out = [Fraction(0)] * (len(f) + 1)
    for n, c in enumerate(f):
        if name == "Dq" and n:
            out[n - 1] += c * qnumber(q, n)
        elif name == "xq":
            out[n + 1] += c * dbracket(q, n + 1)
        elif name == "S":
            out[n + 1] += c / qnumber(q, n + 1)
        elif name == "Mq":
            out[n] += c / qnumber(q, n + 1)
    return out


# -- expected stdout and checkers --------------------------------------------


# Check names of each verify suite, in the order ``verify all`` runs them;
# "{q}" stands for q, "|2>_qd differs" is only checked when delta != 0.
VERIFY_CHECKS = {
    "ccr": ("[d, x] = 1", "[Dq, xq] = 1", "[Ddelta, xdelta] = 1", "[a_qd, b_qd] = 1",
            "[a_dq, b_dq] = 1", "Dq annihilates constants", "Ddelta annihilates constants",
            "xq*Dq = A (invariant of the deformation)"),
    "qccr": ("Dq*x - q*x*Dq = 1", "d*(x*qb(B)^-1) - q*(x*qb(B)^-1)*d = 1"),
    "jackson": ("Dq S = 1", "S Dq = 1 - (degree-0 projector)", "Mq qn(B) = 1", "xq = x d S",
                "Dq(S p) = p on random p", "Mq(B p) = p on random p"),
    "rolle": ("quantum Rolle identity on 30 random polynomials",),
    "intertwine": tuple("intertwining for %s" % m
                        for m in ("phi_q", "phi_delta", "phi_q.phi_delta", "phi_delta.phi_q")),
    "similarity": ("U-conjugation carries (d, x) to (Dq, xq)",),
    "qcc-delta": ("a_d (b qb(B)^-1)_d - q (b qb(B)^-1)_d a_d = 1", "delta = 0 degenerate form"),
    "composition": ("|2>_qd = (2/(1+q)) b^2 - delta b", "|2>_dq = (2/(1+q)) b(b-delta)",
                    "|2>_qd differs from |2>_dq", "induced map of a composition factorizes",
                    "compose(identity, m) acts like m", "Dq e_q = e_q up to truncation"),
    "hahn": tuple("%s-diagonal %s%s" % (variant, params, " q={q}" if variant.startswith("q-") else "")
                  for params in ("alpha=0,beta=0,N=5,delta=1,c1=-1",
                                 "alpha=1/2,beta=1/3,N=7,delta=1,c1=-1")
                  for variant in ("continuous", "three-point", "q-deformed", "q-spectrum")),
}


def verify_checks(suite: str, q, delta) -> list:
    suites = list(VERIFY_CHECKS) if suite == "all" else [suite]
    names = [name.replace("{q}", str(q)) for s in suites for name in VERIFY_CHECKS[s]]
    return [n for n in names if delta != 0 or n != "|2>_qd differs from |2>_dq"]


_HAHN_ROW = re.compile(r"^k=(\d+)\s+lambda=(\S+)\s+residual=(\S+)\s+coeffs=\[(.*)\]$")


def expected_stdout(spec: dict):
    """The exact stdout an operation must print, or None when the oracle
    checks properties of the output instead of its bytes."""
    return _expected(json.dumps(spec, sort_keys=True))


@lru_cache(maxsize=None)
def _expected(key: str):
    spec = json.loads(key)
    kind = spec["kind"]
    q = Fraction(spec["q"]) if "q" in spec else None
    delta = Fraction(spec["delta"]) if "delta" in spec else None
    if kind == "basis":
        return "".join(
            "|%d> = %s\n" % (n, poly_text(basis_element(spec["map"], q, delta, n)))
            for n in range(spec["count"] + 1)
        )
    if kind == "project":
        acc = []
        for n, c in enumerate(spec["f"]):
            add_into(acc, basis_element(spec["map"], q, delta, n), Fraction(c))
        return poly_emit(acc, spec.get("format", "text"))
    if kind == "apply":
        f = [Fraction(c) for c in spec["f"]]
        return poly_emit(apply_op(spec["op"], q, f), spec.get("format", "text"))
    if kind == "realize_ccr":
        D = spec["D"]
        lines = ["x^%d -> %s" % (n, poly_text([0] * n + [1])) for n in range(D)]
        return "\n".join(lines + ["x^%d -> overflow" % D]) + "\n"
    if kind == "verify":
        tail = " (q=%s, delta=%s, D=%d)\n" % (q, delta, spec["D"])
        names = verify_checks(spec["suite"], q, delta)
        return "".join("PASS " + n + tail for n in names) + "%d/%d identities hold\n" % (
            len(names), len(names))
    if kind == "spectrum":
        alpha, beta = Fraction(spec["alpha"]), Fraction(spec["beta"])
        return "".join(
            "k=%-3d lambda=%s\n" % (k, hahn_eigenvalue(spec["variant"], alpha, beta, q, k))
            for k in range(spec["kmax"] + 1)
        )
    return None


def _check_hahn(spec: dict, out: str) -> bool:
    variant = spec["variant"]
    alpha, beta, N = (Fraction(spec[k]) for k in ("alpha", "beta", "N"))
    q = Fraction(spec["q"]) if "q" in spec else None
    lines = out.splitlines()
    if len(lines) != spec["kmax"] + 1:
        return False
    for k, line in enumerate(lines):
        m = _HAHN_ROW.match(line)
        if not m or int(m.group(1)) != k or m.group(3) != "0":
            return False
        if Fraction(m.group(2)) != hahn_eigenvalue(variant, alpha, beta, q, k):
            return False
        coeffs = [Fraction(c) for c in m.group(4).split(", ")]
        if variant == "q_spectrum":
            if len(coeffs) != k + 1 or coeffs[k] != 1:
                return False
            continue
        expect = list(hahn_3f2_monic(alpha, beta, N, k))
        if variant == "q_deformed":
            expect = [c * dbracket_factorial(q, i) for i, c in enumerate(expect)]
        if coeffs != expect:
            return False
    return True


def check(spec: dict, rc, out: str) -> bool:
    """True when exit code and stdout both agree with the oracle."""
    if rc != 0:
        return False
    expected = expected_stdout(spec)
    if expected is not None:
        return out == expected
    if spec["kind"] == "hahn":
        return _check_hahn(spec, out)
    raise ValueError("no oracle for operation kind %r" % spec["kind"])


def perturb(out: str) -> str:
    """Negative control: the same stdout with its last digit changed."""
    for i in range(len(out) - 1, -1, -1):
        if out[i].isdigit():
            return out[:i] + str((int(out[i]) + 1) % 10) + out[i + 1 :]
    return out + "0"


def drop_line(out: str) -> str:
    """Negative control: the same stdout without its first line."""
    return out.split("\n", 1)[1] if "\n" in out else ""
