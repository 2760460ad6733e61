"""Acceptance gate: every criterion runs at its stated degree and tolerance
(exact equality throughout — tolerance zero) and prints one line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.
"""

import random
from fractions import Fraction

from qdeform.dsl import parse, pretty
from qdeform.errors import DslError
from qdeform.hahn import (
    HahnParams,
    HahnVariant,
    build,
    eigenpolynomials,
    eigenvalue,
    q_eigenvalue,
    residual,
)
from qdeform.maps import (
    compose,
    dq_expr,
    intertwine_check,
    mq_expr,
    phi_delta,
    phi_q,
    q_exponential,
    qcc_delta_check,
    rolle_check,
    s_expr,
    xq_expr,
)
from qdeform.opcore import (
    COORD,
    DERIV,
    DiagInv,
    IntPow,
    LinOp,
    apply,
    commutator,
    gamma_ratio_diag,
    op_prod,
    q_commutator,
    qnum_diag,
    realize,
    realize_exact,
)
from qdeform.poly import FallingFactorial, Poly
from qdeform.qnum import QContext
from qdeform.verify import random_poly

Q_GRID = (Fraction(1, 2), Fraction(-1, 2), Fraction(1, 3), Fraction(9, 10))
DELTA_GRID = (Fraction(1), Fraction(1, 2))


def ctx_for(q):
    return QContext(q)


def report(number, description, ok):
    print("%s criterion %02d: %s" % ("PASS" if ok else "FAIL", number, description))
    assert ok, "criterion %d failed: %s" % (number, description)


def rand_polys(count, max_degree, seed=20010331):
    rng = random.Random(seed)
    return [random_poly(rng, max_degree) for _ in range(count)]


def test_criterion_01_ccr_preservation():
    D = 32
    ok = True
    for q in Q_GRID:
        ctx = ctx_for(q)
        ok &= commutator(dq_expr(ctx), xq_expr(ctx), D).is_identity()
        for delta in DELTA_GRID:
            md = phi_delta(delta)
            ok &= commutator(md.image_a, md.image_b, D).is_identity()
            for order in (
                compose(phi_q(ctx), md),
                compose(md, phi_q(ctx)),
            ):
                ok &= commutator(order.image_a, order.image_b, D).is_identity()
    report(1, "CCR preserved by both pairs and both composition orders (D=32, exact)", ok)


def test_criterion_02_q_ccr():
    D = 32
    ok = all(
        q_commutator(dq_expr(ctx_for(q)), COORD, q, D).is_identity() for q in Q_GRID
    )
    report(2, "Dq x - q x Dq = 1 on the q grid (D=32, exact)", ok)


def test_criterion_03_invariance_of_A():
    D = 32
    want = LinOp.from_diagonal(D, [Fraction(n) for n in range(D + 1)])
    ok = all(
        realize_exact(op_prod(xq_expr(ctx_for(q)), dq_expr(ctx_for(q))), D) == want
        for q in Q_GRID
    )
    report(3, "xq Dq = x d = A exactly (D=32)", ok)


def test_criterion_04_jackson_calculus():
    D = 32
    ok = True
    for q in Q_GRID:
        ctx = ctx_for(q)
        dq, s = dq_expr(ctx), s_expr(ctx)
        ok &= realize_exact(op_prod(dq, s), D).is_identity()
        s_dq = realize_exact(op_prod(s, dq), D)
        ok &= s_dq == LinOp(D, [Poly.zero()] + [Poly.monomial(n) for n in range(1, D + 1)])
        ok &= realize_exact(op_prod(mq_expr(ctx), qnum_diag(ctx, 1)), D).is_identity()
    report(
        4,
        "Dq S = 1, S Dq = 1 minus the degree-0 projector, Mq {B} = 1 (D=32)",
        ok,
    )


def test_criterion_05_quantum_rolle():
    ok = True
    for q in Q_GRID:
        ctx = ctx_for(q)
        for f in rand_polys(100, 12):
            ok &= rolle_check(f, ctx, 14)
    report(5, "quantum Rolle identity on 100 random polynomials per q", ok)


def test_criterion_06_adapted_bases():
    D = 16
    ok = True
    for q in Q_GRID:
        ctx = ctx_for(q)
        for delta in DELTA_GRID:
            mq, md = phi_q(ctx), phi_delta(delta)
            m_dq = compose(md, mq)
            for n in range(13):
                falling = Poly.one()
                for j in range(n):
                    falling = falling * Poly([-j * delta, 1])
                ok &= mq.basis_element(n) == Poly.monomial(n, ctx.dbracket_factorial(n))
                ok &= md.basis_element(n) == falling
                ok &= m_dq.basis_element(n) == falling.scale(ctx.dbracket_factorial(n))
            two = Fraction(2) / (1 + q)
            m_qd = compose(mq, md)
            ok &= m_qd.basis_element(2) == Poly([0, -delta, two])
            ok &= m_dq.basis_element(2) == Poly([0, -delta * two, two])
    report(6, "adapted bases match closed forms for n <= 12 and the worked |2> values", ok)


def test_criterion_07_intertwining():
    D = 16
    words = (DERIV, COORD, op_prod(COORD, DERIV), IntPow(DERIV, 2))
    q, delta = Fraction(1, 2), Fraction(1)
    ctx = ctx_for(q)
    maps = (
        phi_q(ctx),
        phi_delta(delta),
        compose(phi_q(ctx), phi_delta(delta)),
        compose(phi_delta(delta), phi_q(ctx)),
    )
    ok = True
    for f in rand_polys(50, 12):
        for m in maps:
            for g in words:
                ok &= intertwine_check(g, f, m, D)
    report(7, "G-intertwining for 50 random f, four words, both maps and both compositions", ok)


def test_criterion_08_q_exponential():
    D = 24
    ok = True
    for q in Q_GRID:
        ctx = ctx_for(q)
        for lam in (Fraction(1), Fraction(2), Fraction(-1, 2)):
            eq = q_exponential(ctx, lam, D)
            ok &= apply(dq_expr(ctx), eq, D) == eq.truncated(D - 1).scale(lam)
    report(8, "Dq e_q(lam x) = lam e_q(lam x) through degree 23 (D=24)", ok)


def test_criterion_09_similarity():
    D = 24
    ok = True
    for q in Q_GRID:
        ctx = ctx_for(q)
        u = gamma_ratio_diag(ctx)
        u_inv = DiagInv(u)
        ok &= realize_exact(op_prod(u_inv, DERIV, u), D) == realize_exact(dq_expr(ctx), D)
        ok &= realize_exact(op_prod(u_inv, COORD, u), D) == realize_exact(xq_expr(ctx), D)
        # u(n) = {1}...{n}/n!, as an in-test product
        u_n = [Fraction(1)]
        for n in range(1, D + 1):
            u_n.append(u_n[-1] * ctx.qnumber(n) / n)
        ok &= realize(u, D).diagonal() == tuple(u_n)
    report(9, "U^-1 d U = Dq and U^-1 x U = xq on the safe window (D=24)", ok)


def test_criterion_10_qcc():
    D = 12
    ok = True
    for q in Q_GRID:
        ctx = ctx_for(q)
        for delta in DELTA_GRID:
            ok &= qcc_delta_check(ctx, delta, D)
    report(10, "a_d QCC relation holds across the q, delta grid (D=12)", ok)


def test_criterion_11_hahn_suite():
    kmax, D = 12, 20
    paramsets = (
        HahnParams(0, 0, 5),
        HahnParams(Fraction(1, 2), Fraction(1, 3), 7),
        HahnParams(1, 2, 10),
    )
    rng = random.Random(20010331)
    ok = True
    for params in paramsets:
        tp = build(HahnVariant.THREE_POINT, params)
        ab = build(HahnVariant.ABSTRACT, params)
        # random inputs of degree <= 10, plus x^10 so the top degree is always hit
        for p in [random_poly(rng, 10) for _ in range(10)] + [Poly.monomial(10)]:
            ok &= apply(tp, p, 14) == apply(ab, p, 14)  # (a)
        lam = [eigenvalue(params, k) for k in range(kmax + 1)]
        cont_lin = realize_exact(build(HahnVariant.CONTINUOUS, params), D)
        ok &= list(cont_lin.diagonal()[: kmax + 1]) == lam  # (b)
        cont = eigenpolynomials(HahnVariant.CONTINUOUS, params, kmax, D)
        for k, h in enumerate(cont):
            ok &= residual(HahnVariant.CONTINUOUS, params, h, k).is_zero  # (d)
            # same gamma_i reinterpreted against the falling basis
            three = Poly(h.coeffs, FallingFactorial(params.delta))
            ok &= residual(HahnVariant.THREE_POINT, params, three, k).is_zero
        for q in Q_GRID:
            ctx = ctx_for(q)
            qdef_lin = realize_exact(build(HahnVariant.Q_DEFORMED, params, ctx), D)
            ok &= list(qdef_lin.diagonal()[: kmax + 1]) == lam  # (b)
            lam_q = [q_eigenvalue(params, ctx, k) for k in range(kmax + 1)]
            qspec_lin = realize_exact(build(HahnVariant.Q_SPECTRUM, params, ctx), D)
            ok &= list(qspec_lin.diagonal()[: kmax + 1]) == lam_q  # (c)
            qdef = eigenpolynomials(HahnVariant.Q_DEFORMED, params, kmax, D, ctx)
            for k, h in enumerate(qdef):
                ok &= residual(HahnVariant.Q_DEFORMED, params, h, k, ctx).is_zero  # (d)
                reweighted = Poly(
                    [g * ctx.dbracket_factorial(i) for i, g in enumerate(cont[k].coeffs)]
                )
                ok &= h == reweighted  # (e)
            if 0 < q < 1:
                qspec = eigenpolynomials(HahnVariant.Q_SPECTRUM, params, kmax, D, ctx)
                for k, h in enumerate(qspec):
                    ok &= residual(HahnVariant.Q_SPECTRUM, params, h, k, ctx).is_zero  # (d)
    report(11, "Hahn family: stencil/word agreement, spectra, zero residuals, reweighting (kmax=12, D=20)", ok)


def _random_dsl_text(rng, depth):
    leaves = ["x", "d", "A", "B", "Dq", "xq", "S", "Mq", "U", "Ddelta", "xdelta",
              "qn(A)", "qb(B)", "inv(qb(B))", "inv(B)", "1/2", "3", "-2/3",
              "exp(-d)", "exp(1/2*Ddelta)"]
    if depth == 0:
        return rng.choice(leaves)
    kind = rng.randrange(5)
    if kind == 0:
        return "(%s+%s)" % (_random_dsl_text(rng, depth - 1), _random_dsl_text(rng, depth - 1))
    if kind == 1:
        return "(%s-%s)" % (_random_dsl_text(rng, depth - 1), _random_dsl_text(rng, depth - 1))
    if kind == 2:
        return "%s*%s" % (_random_dsl_text(rng, depth - 1), _random_dsl_text(rng, depth - 1))
    if kind == 3:
        return "(%s)^%d" % (_random_dsl_text(rng, depth - 1), rng.randrange(3))
    return "-%s" % _random_dsl_text(rng, depth - 1)


def test_criterion_12_parser():
    q, delta = Fraction(1, 2), Fraction(1)
    ok = True

    e = parse("Dq*x - 1/2*x*Dq", q=q)
    ok &= realize_exact(e, 12).is_identity()
    ok &= realize_exact(parse("inv(qb(B))*d", q=q), 12) == realize_exact(dq_expr(ctx_for(q)), 12)
    lin = realize_exact(parse("x*d"), 8)
    ok &= lin == LinOp.from_diagonal(8, range(9))

    rng = random.Random(20010331)
    for _ in range(100):
        text = _random_dsl_text(rng, rng.randint(1, 6))
        e1 = parse(text, q=q, delta=delta)
        out = pretty(e1)
        e2 = parse(out, q=q, delta=delta)
        ok &= realize_exact(e1, 6) == realize_exact(e2, 6)
        ok &= pretty(e2) == out

    corpus = ["", "(((", "x x", "1//2", "poly()", "qb()", "^", "x^-1", "%", "\x00",
              "poly(poly(1))", "exp(", "9" * 60, "x*" * 30 + "x", "unknown(x)"]
    for text in corpus:
        try:
            parse(text, q=q, delta=delta)
        except DslError:
            pass
    report(12, "parser: 100 round trips, documented identity strings, fuzz corpus clean", ok)
