"""Seeded operation lists for the four workloads.

An operation is ``{"argv": [...], "spec": {...}}``: the argv goes to
``qdeform.cli.main`` unchanged, the spec tells ``oracles.check`` what the
output must be. The same (workload, seed) always yields the same list.

Within one list no two operations share a (q, delta) pair, so a
process-wide cache can only exploit reuse that already exists inside one
operation. Each list draws a fixed number of operations of each kind from
parameter pools of similar coefficient size, so that lists for different
seeds cost about the same.

Rational flags are passed as ``--q=-1/2``: the CLI's argparse reads
``--q -1/2`` as an unknown option and exits 2.
"""

from __future__ import annotations

import random
from fractions import Fraction

from oracles import hahn_eigenvalue, poly_text

WORKLOADS = ("verify", "basis", "hahn", "sweep")


def _fracs(dens):
    """Every q = a/b in (-1, 1), q != 0, in lowest terms with b in dens."""
    return [Fraction(a, b) for b in dens for a in range(1 - b, b)
            if a and Fraction(a, b).denominator == b]


SMALL_Q = _fracs(range(2, 6))
LARGE_Q = [s * Fraction(p, p + 1) for p in range(9, 13) for s in (1, -1)]
DELTAS = [Fraction(d) for d in ("1", "2", "1/2", "1/3", "3/2", "2/3", "3", "-1", "-1/2")]
BASIS_DELTAS = [Fraction(d) for d in ("1", "2", "1/2", "-1", "-2", "-1/2")]
HAHN_AB = [Fraction(a) for a in ("1/2", "1/3", "2/3", "3/2", "1/4", "3/4")]
SWEEP_Q = _fracs(range(2, 17))
SWEEP_DELTAS = sorted({s * Fraction(a, b) for a in range(1, 10) for b in range(1, 5) for s in (1, -1)})


def _rational_flags(**values):
    return ["--%s=%s" % (k, v) for k, v in values.items()]


def _random_poly(rng, degree, *, lead=None):
    """Small random coefficients up to the given degree, positive leading term
    (a leading '-' would be read by argparse as an option)."""
    coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(degree)]
    coeffs.append(lead if lead is not None else Fraction(rng.randint(1, 9), rng.randint(1, 6)))
    return coeffs


def _project(m, q, delta, f, D, fmt="text"):
    argv = ["project", m, poly_text(f), *_rational_flags(q=q, delta=delta), "--degree", str(D)]
    if fmt != "text":
        argv += ["--format", fmt]
    spec = {"kind": "project", "map": m, "q": str(q), "delta": str(delta),
            "f": [str(c) for c in f], "format": fmt}
    return {"argv": argv, "spec": spec}


def _basis(m, q, delta, count, D):
    argv = ["basis", m, str(count), *_rational_flags(q=q, delta=delta), "--degree", str(D)]
    spec = {"kind": "basis", "map": m, "q": str(q), "delta": str(delta), "count": count}
    return {"argv": argv, "spec": spec}


def _hahn(cmd, variant, alpha, beta, N, q, kmax, D):
    flags = {"alpha": alpha, "beta": beta, "N": N}
    if variant in ("q_deformed", "q_spectrum"):
        flags["q"] = q
    argv = [cmd, variant, *_rational_flags(**flags), "--kmax", str(kmax), "--degree", str(D)]
    spec = {"kind": cmd, "variant": variant, "kmax": kmax,
            **{k: str(v) for k, v in flags.items()}}
    return {"argv": argv, "spec": spec}


def _verify(suite, q, delta, D):
    argv = ["verify", suite, *_rational_flags(q=q, delta=delta), "--degree", str(D)]
    spec = {"kind": "verify", "suite": suite, "q": str(q), "delta": str(delta), "D": D}
    return {"argv": argv, "spec": spec}


def _distinct_spectrum(variant, alpha, beta, q, kmax):
    lam = [hahn_eigenvalue(variant, alpha, beta, q, k) for k in range(kmax + 1)]
    return len(set(lam)) == len(lam)


def gen_verify(rng):
    """`verify all --degree 16`: one small-denominator and one large-denominator q."""
    deltas = rng.sample(DELTAS, 2)
    qs = [rng.choice(SMALL_Q), rng.choice(LARGE_Q)]
    return [_verify("all", q, d, 16) for q, d in zip(qs, deltas)]


def gen_basis(rng):
    """`basis` and `project` for both composition orders at D = 40, with
    q = +-p/(p+1) for p = 9..12 in seeded order; every operation builds its
    own map, none repeats."""
    ps = rng.sample(range(9, 13), 4)
    qs = [rng.choice((1, -1)) * Fraction(p, p + 1) for p in ps]
    ds = rng.sample(BASIS_DELTAS, 4)
    ops = []
    for i, m in enumerate(("phi_delta_q", "phi_q_delta")):
        ops.append(_basis(m, qs[i], ds[i], 40, 40))
        f = _random_poly(rng, 40, lead=Fraction(1))
        ops.append(_project(m, qs[2 + i], ds[2 + i], f, 40))
    return ops


def gen_hahn(rng):
    """`hahn` tables for all five variants at kmax = D = 40."""
    ops = []
    for variant in ("three_point", "abstract", "continuous", "q_deformed", "q_spectrum"):
        alpha, beta = rng.sample(HAHN_AB, 2)
        N = Fraction(rng.randint(42, 60))
        q = rng.choice([q for q in LARGE_Q if q > 0])
        ops.append(_hahn("hahn", variant, alpha, beta, N, q, 40, 40))
    return ops


_SWEEP_PLAN = (
    # (kind, count); 150 light commands, D <= 12
    ("apply", 50), ("realize", 15), ("project", 10), ("basis", 10),
    ("spectrum", 20), ("hahn", 15), ("verify", 30),
)
# composed maps validate at degree 16 and dominate a light command's cost,
# so they are one in five of the map-based commands
_SWEEP_MAPS = ("phi_q", "phi_delta", "phi_q", "phi_delta", "phi_q_delta",
               "phi_q", "phi_delta", "phi_q", "phi_delta", "phi_delta_q")
_HAHN_VARIANTS = ("q_deformed", "q_spectrum", "three_point", "continuous", "abstract")
_FORMATS = ("text", "text", "json", "text", "csv")


def gen_sweep(rng):
    """About 150 light commands, each with its own small-denominator q; each
    map-building command also has its own delta."""
    deltas = rng.sample(SWEEP_DELTAS, len(SWEEP_DELTAS))
    positive = [q for q in SWEEP_Q if q > 0]
    rng.shuffle(positive)
    hahn_qs = positive[:35]
    other_qs = positive[35:] + [q for q in SWEEP_Q if q < 0]
    rng.shuffle(other_qs)
    ops = []
    for kind, count in _SWEEP_PLAN:
        for i in range(count):
            D = rng.randint(8, 12)
            if kind in ("spectrum", "hahn"):
                q = hahn_qs.pop()
                variant = _HAHN_VARIANTS[i % 5]
                while True:
                    alpha, beta = rng.sample(HAHN_AB, 2)
                    kmax = rng.randint(4, 8)
                    if _distinct_spectrum(variant, alpha, beta, q, kmax):
                        break
                N = Fraction(rng.randint(kmax + 2, 30))
                ops.append(_hahn(kind, variant, alpha, beta, N, q, kmax, D))
                continue
            q = other_qs.pop()
            delta = deltas.pop() if kind in ("project", "basis") else rng.choice(DELTAS)
            if kind == "apply":
                name = ("Dq", "xq", "S", "Mq")[i % 4]
                top = D if name in ("Dq", "Mq") else D - 1
                f = _random_poly(rng, rng.randint(1, top))
                fmt = _FORMATS[i % 5]
                argv = ["apply", name, poly_text(f), *_rational_flags(q=q), "--degree", str(D)]
                if fmt != "text":
                    argv += ["--format", fmt]
                ops.append({"argv": argv, "spec": {"kind": "apply", "op": name, "q": str(q),
                                                   "f": [str(c) for c in f], "format": fmt}})
            elif kind == "realize":
                argv = ["realize", "Dq*xq-xq*Dq", *_rational_flags(q=q), "--degree", str(D)]
                ops.append({"argv": argv, "spec": {"kind": "realize_ccr", "q": str(q), "D": D}})
            elif kind == "project":
                f = _random_poly(rng, rng.randint(1, D))
                ops.append(_project(_SWEEP_MAPS[i % 10], q, delta, f, D, _FORMATS[i % 5]))
            elif kind == "basis":
                ops.append(_basis(_SWEEP_MAPS[i % 10], q, delta, D, D))
            else:
                ops.append(_verify(("qccr", "jackson", "similarity")[i % 3], q, delta, D))
    rng.shuffle(ops)
    return ops


_GENERATORS = {"verify": gen_verify, "basis": gen_basis, "hahn": gen_hahn, "sweep": gen_sweep}


def operations(workload: str, seed: int) -> list:
    """The fixed operation list of one workload for one seed."""
    return _GENERATORS[workload](random.Random("%s:%d" % (workload, seed)))
