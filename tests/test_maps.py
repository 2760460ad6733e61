from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DELTA_GRID, Q_GRID, small_rationals
from qdeform.errors import MapConstructionError, UnsupportedBasisOperationError
from qdeform.maps import (
    CHECK_DEGREE,
    MAP_KINDS,
    DeformMap,
    a_delta_expr,
    b_delta_expr,
    adapted_basis,
    b_projection,
    compose,
    dq_expr,
    eigenfunction_series,
    fb_map,
    identity_map,
    intertwine_check,
    jackson_integral,
    make_map,
    map_from_json,
    mq_expr,
    phi_delta,
    phi_q,
    phi_q_prime,
    q_exponential,
    qcc_delta_check,
    quantum_average,
    rolle_check,
    s_expr,
    similarity_U,
    similarity_check,
    taylor_exponential,
    xq_expr,
)
from qdeform.opcore import (
    COORD,
    DERIV,
    A_DIAG,
    DiagFn,
    DiagInv,
    ExpOp,
    IDENT,
    IntPow,
    acts_equally,
    apply,
    commutator,
    dbracket_diag,
    op_prod,
    op_sum,
    q_commutator,
    realize_exact,
    scaled,
)
from qdeform.poly import Poly
from qdeform.qnum import QContext, stirling_first
from qdeform.verify import random_poly


def ctx_for(q):
    return QContext(q)


def step_raising(j):
    """x g(A) with g(n) = 1 below j and 2 from j on: with d it breaks the
    relation first on x^j, where [d, x g(A)] x^j = (j + 2) x^j."""
    return op_prod(COORD, DiagFn("g", lambda n: Fraction(1 if n < j else 2)))


def weighted_step_raising(j):
    """x [[B]]^(-1) g(A) at q = 1/2, g as in step_raising: with d it closes
    d b - (1/2) b d = 1 below x^j and breaks it first on x^j."""
    ctx = ctx_for(Fraction(1, 2))
    return op_prod(COORD, DiagInv(dbracket_diag(ctx, 1)), DiagFn("g", lambda n: Fraction(1 if n < j else 2)))


def falling_poly(n, delta):
    acc = Poly.one()
    for j in range(n):
        acc = acc * Poly([-j * Fraction(delta), 1])
    return acc


class TestConstruction:
    def test_phi_q_lowering_action(self):
        m = phi_q(Fraction(1, 2))
        assert apply(m.image_a, Poly.monomial(3), 8) == Poly.monomial(2, Fraction(7, 4))

    def test_phi_delta_first_elements(self):
        m = phi_delta(1)
        assert adapted_basis(m, 1, 8) == Poly.x()
        assert apply(m.image_b, Poly.x(), 8) == Poly.x() * Poly([-1, 1])

    def test_identity(self):
        m = identity_map()
        assert m.image_a == DERIV
        assert m.image_b == COORD

    def test_every_map_satisfies_its_relation(self):
        for q in Q_GRID:
            for delta in DELTA_GRID:
                for m in (
                    phi_q(q),
                    phi_delta(delta),
                    phi_q_prime(q),
                    compose(phi_q(q), phi_delta(delta)),
                    compose(phi_delta(delta), phi_q(q)),
                ):
                    # the relation verified at construction, re-run wider
                    assert q_commutator(m.image_a, m.image_b, m.relation_q, 20).is_identity()
                    assert apply(m.image_a, Poly.one(), 20).is_zero

    def test_bad_images_rejected(self):
        with pytest.raises(MapConstructionError, match="raising image failed to raise degree at step 1$"):
            DeformMap("broken", "broken", DERIV, op_prod(COORD, COORD))
        with pytest.raises(MapConstructionError, match=r"lowering law fails on basis element 1: a\|1> is 2, not 1$"):
            DeformMap("broken", "broken", scaled(2, DERIV), COORD)

    @pytest.mark.parametrize("j, element", [(10, 11), (CHECK_DEGREE, CHECK_DEGREE + 1)])
    def test_step_inside_the_window_rejected(self, j, element):
        # |element> = 2 x^element, so a|element> = 2 element x^(element-1)
        e = element
        msg = r"lowering law fails on basis element %d: a\|%d> is %d\*x\^%d, not %d\*x\^%d$" % (e, e, 2 * e, e - 1, e, e - 1)
        with pytest.raises(MapConstructionError, match=msg):
            DeformMap("step", "step", DERIV, step_raising(j))

    def test_step_past_the_window_accepted(self):
        # the certified window is degrees 0..CHECK_DEGREE; the step breaks
        # the relation only on the degree just past it
        m = DeformMap("step", "step", DERIV, step_raising(CHECK_DEGREE + 1))
        assert commutator(m.image_a, m.image_b, CHECK_DEGREE).is_identity()
        assert not commutator(m.image_a, m.image_b, CHECK_DEGREE + 1).is_identity()

    def test_counit_violation_rejected(self):
        # a -> a + 1 fails to annihilate constants but keeps the CCR
        with pytest.raises(MapConstructionError, match="lowering image does not annihilate constants$"):
            DeformMap("broken", "broken", op_sum(DERIV, IDENT), COORD)

    def test_lowering_law_failure_names_both_values(self):
        # with w = 1/2, a|2> must be {2}_w |1> = 3/2 x, but d x^2 = 2 x
        with pytest.raises(
            MapConstructionError,
            match=r"^t: lowering law fails on basis element 2: a\|2> is 2\*x, not 3/2\*x$",
        ):
            DeformMap("t", "t", DERIV, COORD, relation_q=Fraction(1, 2))

    @pytest.mark.parametrize("j, element", [(10, 11), (CHECK_DEGREE, CHECK_DEGREE + 1)])
    def test_weighted_step_inside_the_window_rejected(self, j, element):
        with pytest.raises(MapConstructionError, match=r"^w: lowering law fails on basis element %d: " % element):
            DeformMap("w", "w", DERIV, weighted_step_raising(j), relation_q=Fraction(1, 2))

    def test_weighted_step_past_the_window_accepted(self):
        half = Fraction(1, 2)
        m = DeformMap("w", "w", DERIV, weighted_step_raising(CHECK_DEGREE + 1), relation_q=half)
        assert q_commutator(m.image_a, m.image_b, half, CHECK_DEGREE).is_identity()
        assert not q_commutator(m.image_a, m.image_b, half, CHECK_DEGREE + 1).is_identity()

    def test_wrong_weight_rejected(self):
        # the pair closes the relation at w = 1/2: a|2> = {2}_(1/2) |1>, not {2}_(1/3) |1>
        with pytest.raises(MapConstructionError, match=r"^w: lowering law fails on basis element 2: a\|2> is 3/2\*x, not 4/3\*x$"):
            DeformMap("w", "w", DERIV, weighted_step_raising(100), relation_q=Fraction(1, 3))

    def test_ccr_maps_are_certified_through_their_basis(self, monkeypatch, fresh_memo):
        # no construction realizes a commutator: every map, the q-weighted
        # phi_q_prime included, is certified through its basis
        from qdeform import opcore

        calls = []
        weighted = opcore._weighted_commutator
        monkeypatch.setattr(opcore, "_weighted_commutator", lambda *args: calls.append(args) or weighted(*args))
        q, delta = Fraction(5, 11), Fraction(3, 7)
        built = [
            phi_q(q),
            phi_delta(delta),
            compose(phi_q(q), phi_delta(delta)),
            compose(phi_delta(delta), phi_q(q)),
            phi_q_prime(q),
        ]
        with pytest.raises(MapConstructionError, match="does not annihilate constants$"):
            DeformMap("broken", "broken", op_sum(DERIV, IDENT), COORD)
        assert calls == []
        assert [len(m._basis) for m in built] == [CHECK_DEGREE + 2] * 4 + [1]
        # the non-CCR map keeps only |0>; its basis stays closed to callers
        with pytest.raises(UnsupportedBasisOperationError):
            built[-1].basis_element(1)
        # the patch is live: a realized commutator goes through it
        q_commutator(DERIV, COORD, q, 2)
        assert len(calls) == 1

    def test_delta_zero_degenerates_to_identity(self):
        m = phi_delta(0)
        assert acts_equally(m.image_a, DERIV, 10)
        assert acts_equally(m.image_b, COORD, 10)


class TestPreservesDegree:
    def test_derived_flag_on_the_named_kinds(self):
        q, delta = Fraction(1, 2), Fraction(1, 2)
        f = lambda n: Fraction(n + 1)
        for m in (identity_map(), phi_q(q), phi_delta(0), compose(phi_q(q), phi_q(q)), fb_map("f", f)):
            assert m.preserves_degree, m.label
        for m in (
            phi_delta(delta),
            phi_q_prime(q),
            compose(phi_q(q), phi_delta(delta)),
            compose(phi_delta(delta), phi_q(q)),
        ):
            assert not m.preserves_degree, m.label

    def test_flag_is_not_a_constructor_parameter(self):
        with pytest.raises(TypeError):
            DeformMap("pd", "pd", DERIV, COORD, preserves_degree=False)
        m = DeformMap("id", "id", DERIV, COORD)
        with pytest.raises(AttributeError):
            m.preserves_degree = False

    def test_direct_identity_images_carry_a_unchanged(self):
        from qdeform.dsl import pretty

        m = DeformMap("id", "id", DERIV, COORD)
        assert m.image(A_DIAG) is A_DIAG
        assert pretty(m.image(op_prod(A_DIAG, DERIV))) == "A*d"

    def test_direct_shift_images_intertwine_a(self):
        # the shift images do not preserve the degree, so A moves into
        # their adapted basis and still intertwines
        m = DeformMap("pd", "pd", a_delta_expr(1), b_delta_expr(1), delta=1)
        assert not m.preserves_degree
        assert intertwine_check(A_DIAG, Poly([1, 2, 3]), m, 6)
        assert intertwine_check(A_DIAG, Poly([1, 2, 3]), phi_delta(1), 6)


class TestAdaptedBases:
    def test_jackson_basis_closed_form(self):
        for q in Q_GRID:
            ctx = ctx_for(q)
            m = phi_q(ctx)
            for n in range(13):
                expect = Poly.monomial(n, ctx.dbracket_factorial(n))
                assert adapted_basis(m, n, 16) == expect

    def test_shift_basis_closed_form(self):
        for delta in DELTA_GRID:
            m = phi_delta(delta)
            for n in range(13):
                assert adapted_basis(m, n, 16) == falling_poly(n, delta)

    def test_composition_delta_q_closed_form(self):
        for q in Q_GRID:
            ctx = ctx_for(q)
            for delta in DELTA_GRID:
                m = compose(phi_delta(delta), phi_q(ctx))
                for n in range(10):
                    expect = falling_poly(n, delta).scale(ctx.dbracket_factorial(n))
                    assert adapted_basis(m, n, 16) == expect

    def test_composition_q_delta_closed_form(self):
        # |n> = sum_k s(n,k) delta^(n-k) [[k]]! b^k
        for q in Q_GRID:
            ctx = ctx_for(q)
            for delta in DELTA_GRID:
                m = compose(phi_q(ctx), phi_delta(delta))
                for n in range(1, 10):
                    coeffs = [Fraction(0)] * (n + 1)
                    for k in range(1, n + 1):
                        coeffs[k] = (
                            stirling_first(n, k)
                            * delta ** (n - k)
                            * ctx.dbracket_factorial(k)
                        )
                    assert adapted_basis(m, n, 16) == Poly(coeffs)

    def test_worked_examples(self):
        q = Fraction(1, 2)
        delta = Fraction(1)
        m_qd = compose(phi_q(q), phi_delta(delta))
        m_dq = compose(phi_delta(delta), phi_q(q))
        two = Fraction(2) / (1 + q)
        assert adapted_basis(m_qd, 2, 8) == Poly([0, -delta, two])
        assert adapted_basis(m_dq, 2, 8) == (
            Poly.x() * Poly([-delta, 1])
        ).scale(two)
        assert adapted_basis(m_qd, 2, 8) != adapted_basis(m_dq, 2, 8)

    def test_ladder_laws(self):
        for m in (phi_q(Fraction(1, 3)), phi_delta(Fraction(1, 2))):
            for n in range(8):
                ket = adapted_basis(m, n, 12)
                up = apply(m.image_b, ket, 12)
                assert up == adapted_basis(m, n + 1, 12)
                down = apply(m.image_a, ket, 12)
                assert down == adapted_basis(m, n - 1, 12).scale(n) if n else down.is_zero

    def test_adapted_basis_view(self):
        m = phi_delta(1)
        assert [adapted_basis(m, n, 6) for n in range(7)] == [falling_poly(n, 1) for n in range(7)]
        with pytest.raises(ValueError):
            adapted_basis(m, 7, 6)

    def test_negative_index_is_rejected(self):
        m = phi_delta(Fraction(1, 2))
        m.basis_element(3)  # a cached |3> must not answer for index -1
        with pytest.raises(ValueError, match="basis index -1 is negative"):
            m.basis_element(-1)
        with pytest.raises(ValueError, match="basis index -2 is negative"):
            adapted_basis(m, -2, 5)

    def test_non_ccr_map_has_no_adapted_basis(self):
        with pytest.raises(UnsupportedBasisOperationError):
            adapted_basis(phi_q_prime(Fraction(1, 2)), 2, 8)


class TestComposition:
    def test_images_match_paper_forms(self):
        q, delta = Fraction(1, 2), Fraction(1)
        ctx = ctx_for(q)
        m = compose(phi_q(ctx), phi_delta(delta))
        # delta^-1 (e^(delta Dq) - 1) and xq e^(-delta Dq), built by hand
        dq = dq_expr(ctx)
        a_manual = scaled(1 / delta, op_sum(ExpOp(scaled(delta, dq)), scaled(-1, IDENT)))
        b_manual = op_prod(xq_expr(ctx), ExpOp(scaled(-delta, dq)))
        assert acts_equally(m.image_a, a_manual, 12)
        assert acts_equally(m.image_b, b_manual, 12)

    def test_identity_composition(self):
        for inner in (phi_q(Fraction(1, 2)), phi_delta(1)):
            m = compose(identity_map(), inner)
            assert acts_equally(m.image_a, inner.image_a, 10)
            assert acts_equally(m.image_b, inner.image_b, 10)

    def test_induced_map_factorizes(self):
        q, delta = Fraction(1, 2), Fraction(1)
        mq, md = phi_q(ctx_for(q)), phi_delta(delta)
        for outer, inner in ((mq, md), (md, mq)):
            comp = compose(outer, inner)
            for n in range(9):
                via_comp = adapted_basis(comp, n, 12)
                via_projection = b_projection(adapted_basis(inner, n, 12), outer, 12)
                assert via_comp == via_projection

    def test_composed_map_still_ccr(self):
        m = compose(phi_delta(Fraction(1, 2)), phi_q(Fraction(9, 10)))
        assert commutator(m.image_a, m.image_b, 14).is_identity()

    def test_spectral_route_cross_check(self):
        # Explicit B_delta = 1 + x(1 - e^(-delta d))/delta realizes exactly
        # like the adapted-basis diagonal with spectrum n+1, and the adapted
        # basis diagonalizes it with integer eigenvalues.
        delta = Fraction(1)
        md = phi_delta(delta)
        explicit = op_sum(
            IDENT,
            scaled(
                1 / delta,
                op_prod(COORD, op_sum(IDENT, scaled(-1, ExpOp(scaled(-delta, DERIV))))),
            ),
        )
        spectral = DiagFn("B@delta", lambda n: Fraction(n + 1), owner=md)
        assert realize_exact(explicit, 8) == realize_exact(spectral, 8)
        for n in range(8):
            ket = adapted_basis(md, n, 10)
            assert apply(explicit, ket, 10) == ket.scale(n + 1)

    def test_composing_through_composed_map(self):
        # triple composition exercises substitution of basis-diagonal nodes
        q, delta = Fraction(1, 2), Fraction(1)
        inner = compose(phi_delta(delta), phi_q(ctx_for(q)))
        outer = phi_delta(Fraction(1, 2))
        m = compose(outer, inner)
        assert commutator(m.image_a, m.image_b, 10).is_identity()

    def test_substituted_diagonals_print_their_basis(self):
        # a monomial diagonal moves into the map's adapted basis, a basis
        # diagonal into the composed map's; an inverse stays an inverse
        from qdeform.dsl import pretty

        ctx = ctx_for(Fraction(1, 2))
        dq_ = compose(phi_delta(1), phi_q(ctx))
        assert pretty(phi_delta(1).image(dq_expr(ctx))) == "inv(qb(B)@phi_delta[1])*(exp(d)-1)"
        assert pretty(dq_.image_b) == "x*exp(-d)*qb(B)@phi_delta[1]"
        assert pretty(phi_q(ctx).image(dq_.image_a)) == (
            "inv(qb(B)@phi_delta[1]@phi_q[1/2].phi_delta[1])*(exp(inv(qb(B))*d)-1)"
        )


class TestProjection:
    def test_q_exponential(self):
        for q in Q_GRID:
            ctx = ctx_for(q)
            m = phi_q(ctx)
            for lam in (Fraction(1), Fraction(2), Fraction(-1, 2)):
                D = 12
                projected = b_projection(taylor_exponential(lam, D), m, D)
                assert projected == q_exponential(ctx, lam, D)

    def test_delta_exponential(self):
        delta = Fraction(1)
        m = phi_delta(delta)
        D = 10
        projected = b_projection(taylor_exponential(1, D), m, D)
        expect = Poly.zero()
        for n in range(D + 1):
            expect = expect + falling_poly(n, delta).scale(Fraction(1, factorial(n)))
        assert projected == expect

    def test_matches_fraction_sum_on_large_denominators(self):
        m = compose(phi_delta(Fraction(1, 2)), phi_q(Fraction(9, 10)))
        f = Poly([Fraction(k - 7, 3 * k + 2) for k in range(21)])
        expect = [Fraction(0)] * 21
        for n, c in enumerate(f.coeffs):
            for i, b in enumerate(m.basis_element(n).coeffs):
                expect[i] += c * b
        assert b_projection(f, m, 20) == Poly(expect)
        assert b_projection(Poly.zero(), m, 20) == Poly.zero()

    def test_coordinate_fixed(self):
        for m in (
            identity_map(),
            phi_q(Fraction(1, 2)),
            phi_delta(1),
            compose(phi_q(Fraction(1, 2)), phi_delta(1)),
        ):
            assert b_projection(Poly.x(), m, 8) == Poly.x()

    @given(
        a=small_rationals,
        b=small_rationals,
        n1=st.integers(min_value=0, max_value=6),
        n2=st.integers(min_value=0, max_value=6),
    )
    @settings(max_examples=30)
    def test_linearity(self, a, b, n1, n2):
        m = phi_delta(Fraction(1, 2))
        f = Poly.monomial(n1, a) + Poly.monomial(n2, b)
        lhs = b_projection(f, m, 8)
        rhs = b_projection(Poly.monomial(n1, a), m, 8) + b_projection(
            Poly.monomial(n2, b), m, 8
        )
        assert lhs == rhs


class TestIntertwining:
    def test_derivative_on_monomials(self):
        ctx = ctx_for(Fraction(1, 2))
        m = phi_q(ctx)
        for n in range(1, 8):
            assert intertwine_check(DERIV, Poly.monomial(n), m, 12)

    def test_identity_word(self):
        assert intertwine_check(IDENT, Poly([1, 2, 3]), phi_delta(1), 10)

    def test_random_polynomials_all_maps(self, rng):
        q, delta = Fraction(1, 3), Fraction(1, 2)
        ctx = ctx_for(q)
        maps = [
            phi_q(ctx),
            phi_delta(delta),
            compose(phi_q(ctx), phi_delta(delta)),
            compose(phi_delta(delta), phi_q(ctx)),
        ]
        words = [DERIV, COORD, op_prod(COORD, DERIV), IntPow(DERIV, 2)]
        for m in maps:
            for _ in range(8):
                f = random_poly(rng, 10)
                for g in words:
                    assert intertwine_check(g, f, m, 14)


class TestJacksonCalculus:
    def test_integral_examples(self):
        ctx = ctx_for(Fraction(1, 2))
        assert jackson_integral(Poly.one(), ctx) == Poly.x()
        assert jackson_integral(Poly.x(), ctx) == Poly.monomial(2, Fraction(2, 3))

    def test_derivative_inverts_integral(self, rng):
        for q in Q_GRID:
            ctx = ctx_for(q)
            dq = dq_expr(ctx)
            for _ in range(30):
                p = random_poly(rng, 10)
                assert apply(dq, jackson_integral(p, ctx), 12) == p
            assert jackson_integral(Poly.zero(), ctx).is_zero

    def test_integral_is_the_geometric_series(self):
        # Partial sums of (1-q) sum_k q^k x f(q^k x) against the closed form
        q = Fraction(1, 2)
        ctx = ctx_for(q)
        K = 12
        for n in range(6):
            f = Poly.monomial(n)
            partial = Poly.zero()
            for k in range(K + 1):
                partial = partial + (Poly.x() * f.qscale(q**k)).scale(q**k * (1 - q))
            closed = jackson_integral(f, ctx).scale(1 - q ** ((K + 1) * (n + 1)))
            assert partial == closed

    def test_average_examples(self):
        ctx = ctx_for(Fraction(1, 2))
        assert quantum_average(Poly.one(), ctx) == Poly.one()
        assert quantum_average(Poly.monomial(2), ctx) == Poly.monomial(2, Fraction(4, 7))

    def test_average_inverts_qnumber_of_B(self, rng):
        # (1/x)S has eigenvalues 1/{n+1}: it inverts {B}, the q-number of B
        # (only at q -> 1 does it invert B itself)
        from qdeform.opcore import qnum_diag

        ctx = ctx_for(Fraction(1, 3))
        qnB = qnum_diag(ctx, 1)
        for _ in range(20):
            p = random_poly(rng, 10)
            assert quantum_average(apply(qnB, p, 12), ctx) == p
        D = 10
        assert realize_exact(op_prod(mq_expr(ctx), qnB), D).is_identity()

    def test_s_as_expression_matches(self, rng):
        ctx = ctx_for(Fraction(1, 2))
        for _ in range(10):
            p = random_poly(rng, 8)
            assert apply(s_expr(ctx), p, 10) == jackson_integral(p, ctx)


def classical_average(p: Poly) -> Poly:
    # (1/x) integral_0^x p: x^n -> x^n/(n+1); the q->1 twin used as oracle
    return Poly([c / (n + 1) for n, c in enumerate(p.coeffs)])


class TestRolle:
    def test_constant(self):
        ctx = ctx_for(Fraction(1, 2))
        assert rolle_check(Poly.one(), ctx, 8)

    def test_monomials_give_brackets(self):
        ctx = ctx_for(Fraction(1, 3))
        for n in range(7):
            p = Poly.monomial(n)
            lhs = apply(xq_expr(ctx), p, 8)
            assert lhs == Poly.monomial(n + 1, ctx.dbracket(n + 1))
            assert rolle_check(p, ctx, 8)

    def test_random(self, rng):
        for q in (Fraction(1, 2), Fraction(-1, 3)):
            ctx = ctx_for(q)
            for _ in range(30):
                assert rolle_check(random_poly(rng, 12), ctx, 14)

    def test_classical_twin(self, rng):
        # f = <f> + <x f'> with classical averaging
        for _ in range(20):
            f = random_poly(rng, 10)
            xfp = Poly.x() * f.derivative()
            assert classical_average(f) + classical_average(xfp) == f


class TestSimilarity:
    def test_diagonal_values(self):
        ctx = ctx_for(Fraction(1, 2))
        u = similarity_U(ctx, 6)
        assert u.diagonal()[0] == 1
        assert u.diagonal()[1] == 1
        assert u.diagonal()[2] == Fraction(3, 4)

    def test_conjugation_on_square(self):
        ctx = ctx_for(Fraction(1, 2))
        from qdeform.opcore import DiagInv, gamma_ratio_diag

        route = op_prod(DiagInv(gamma_ratio_diag(ctx)), DERIV, gamma_ratio_diag(ctx))
        assert apply(route, Poly.monomial(2), 6) == Poly.monomial(1, ctx.qnumber(2))

    def test_full_check(self):
        for q in Q_GRID:
            assert similarity_check(ctx_for(q), 12)


class TestQCC:
    def test_grid(self):
        for q in Q_GRID:
            ctx = ctx_for(q)
            for delta in DELTA_GRID:
                assert qcc_delta_check(ctx, delta, 10)

    def test_delta_zero(self):
        assert qcc_delta_check(ctx_for(Fraction(1, 2)), 0, 10)

    def test_q_zero(self):
        assert qcc_delta_check(QContext(0), 1, 10)

    def test_low_degree_expansion_cross_check(self):
        # The conjugate acts on the adapted basis as |n> -> |n+1>/[[n+1]]
        q, delta = Fraction(1, 2), Fraction(1)
        ctx = ctx_for(q)
        md = phi_delta(delta)
        conj = md.image(phi_q_prime(ctx).image_b)
        for n in range(4):
            ket = adapted_basis(md, n, 8)
            expect = adapted_basis(md, n + 1, 8).scale(1 / ctx.dbracket(n + 1))
            assert apply(conj, ket, 8) == expect


class TestEigenfunctionSeries:
    def test_q_exponential_eigen_property(self):
        D = 16
        for q in Q_GRID:
            ctx = ctx_for(q)
            for lam in (Fraction(1), Fraction(-1, 2)):
                eq = q_exponential(ctx, lam, D)
                lhs = apply(dq_expr(ctx), eq, D)
                assert lhs == eq.truncated(D - 1).scale(lam)

    def test_general_family_law(self):
        # a = f(B)^-1 a with f(n) = n + 2: the series sum f(n)!/n! x^n has
        # eigenvalue 1 up to truncation
        f = lambda n: Fraction(n + 2)
        m = fb_map("f-shift", f)
        D = 12
        series = eigenfunction_series(f, D)
        lhs = apply(m.image_a, series, D)
        assert lhs == series.truncated(D - 1)

    def test_f_is_called_at_one_to_D_only(self):
        # coefficient n needs f(1)...f(n), so f past D is never evaluated
        D, calls = 8, []

        def f(n):
            calls.append(n)
            if n > D:
                raise ValueError("f is undefined past %d" % D)
            return Fraction(n + 2)

        series = eigenfunction_series(f, D, Fraction(-1, 3))
        assert calls == list(range(1, D + 1))
        # f(1)...f(n) / n! = (n+2)!/(2 n!)
        expect = [Fraction(factorial(n + 2), 2 * factorial(n)) * Fraction(-1, 3) ** n for n in range(D + 1)]
        assert series == Poly(expect)

    def test_family_contains_jackson(self):
        ctx = ctx_for(Fraction(1, 2))
        m = fb_map("jackson", ctx.dbracket, q=ctx.q)
        assert acts_equally(m.image_a, dq_expr(ctx), 10)
        assert acts_equally(m.image_b, xq_expr(ctx), 10)
        assert eigenfunction_series(ctx.dbracket, 10) == q_exponential(ctx, 1, 10)


class TestSerialization:
    def test_round_trip(self):
        m = compose(phi_q(Fraction(1, 2)), phi_delta(Fraction(1, 2)))
        data = m.to_json()
        assert data == {
            "map": "compose",
            "outer": {"map": "phi_q", "q": "1/2"},
            "inner": {"map": "phi_delta", "delta": "1/2"},
        }
        again = map_from_json(data)
        assert acts_equally(again.image_a, m.image_a, 8)
        assert acts_equally(again.image_b, m.image_b, 8)

    def test_make_map_names(self):
        assert make_map("identity").kind == "identity"
        assert make_map("phi_q", q=Fraction(1, 2)).q == Fraction(1, 2)
        assert make_map("phi_delta_q", q=Fraction(1, 3), delta=1).kind == "compose"
        with pytest.raises(ValueError):
            make_map("phi_q")
        with pytest.raises(ValueError):
            make_map("nonsense", q=1)


class TestConcurrency:
    def test_parallel_basis_reads_match_sequential(self):
        import threading

        reference = [
            adapted_basis(phi_delta(1), n, 24) for n in range(17)
        ]
        m = phi_delta(1)
        results = {}
        errors = []

        def worker(tag, order):
            try:
                results[tag] = [m.basis_element(n) for n in order]
            except Exception as exc:  # pragma: no cover - diagnostic only
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i, list(range(16, -1, -1)) if i % 2 else list(range(17))))
            for i in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        for order_result in results.values():
            assert sorted(order_result, key=lambda p: p.degree) == reference


class TestSharedMaps:
    def test_public_attributes_are_read_only(self):
        m = phi_q(Fraction(1, 2))
        for name, value in (("q", Fraction(1, 3)), ("label", "x"), ("image_a", DERIV),
                            ("kind", "phi_delta"), ("outer", None)):
            with pytest.raises(AttributeError):
                setattr(m, name, value)
        with pytest.raises(AttributeError):
            del m.image_b
        with pytest.raises(AttributeError):
            m.extra = 1
        with pytest.raises(AttributeError):
            del m._key
        assert m.q == Fraction(1, 2) and m.label == "phi_q[1/2]"

    def test_maps_compare_by_identity(self):
        a, b = (DeformMap("id", "id", DERIV, COORD) for _ in range(2))
        assert a == a and a != b and hash(a) != hash(b)
        assert len({a, b, a}) == 2

    def test_named_constructors_share_one_instance(self):
        half = Fraction(1, 2)
        assert phi_q(half) is phi_q(QContext(half))
        assert phi_q(half) is make_map("phi_q", q="1/2")
        assert phi_delta(1) is phi_delta(Fraction(1))
        assert phi_q_prime(half) is phi_q_prime(QContext(half))
        assert identity_map() is make_map("identity")
        assert compose(phi_q(half), phi_delta(1)) is make_map("phi_q_delta", q=half, delta=1)
        m = compose(phi_delta(1), phi_q(half))
        assert map_from_json(m.to_json()) is m

    def test_unkeyed_maps_are_fresh(self):
        f = lambda n: Fraction(n + 1)
        assert fb_map("f", f) is not fb_map("f", f)
        direct = DeformMap("identity", "identity", DERIV, COORD)
        assert direct is not identity_map()
        assert compose(phi_q(Fraction(1, 2)), direct) is not compose(phi_q(Fraction(1, 2)), direct)

    def test_validated_once(self, monkeypatch, fresh_memo):
        calls = []
        validate = DeformMap._validate
        monkeypatch.setattr(DeformMap, "_validate", lambda self, D: calls.append(self.label) or validate(self, D))
        q, delta = Fraction(5, 11), Fraction(3, 7)
        first = compose(phi_delta(delta), phi_q(q))
        assert calls == ["phi_delta[3/7]", "phi_q[5/11]", "phi_delta[3/7].phi_q[5/11]"]
        # a hit does no substitution either
        images = []
        image = DeformMap.image
        monkeypatch.setattr(DeformMap, "image", lambda self, e: images.append(e) or image(self, e))
        assert compose(phi_delta(delta), phi_q(q)) is first
        assert len(calls) == 3 and images == []

    def test_memo_is_bounded(self, fresh_memo):
        maps = fresh_memo
        built = [phi_delta(Fraction(1, n)) for n in range(2, 2 + 2 * maps._MEMO_SIZE)]
        assert len(maps._memo) <= maps._MEMO_SIZE
        assert phi_delta(Fraction(1, 2)) is not built[0]  # evicted, rebuilt
        assert phi_delta(Fraction(1, 2)).label == built[0].label

    def test_concurrent_builds_agree(self, fresh_memo):
        import sys
        import threading

        q, delta = Fraction(7, 13), Fraction(2, 9)
        barrier = threading.Barrier(4)
        results, errors = [None] * 4, []

        def worker(i):
            try:
                barrier.wait(timeout=30)
                m = compose(phi_delta(delta), phi_q(q))
                results[i] = (m, [m.basis_element(n) for n in range(13)])
            except Exception as exc:  # pragma: no cover - diagnostic only
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the builders as finely as possible
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        assert len({id(m) for m, _ in results}) == 1
        reference = results[0][1]
        assert all(basis == reference for _, basis in results)
        assert reference[2] == (Poly.x() * (Poly.x() - Poly([delta]))).scale(Fraction(2) / (1 + q))


class TestMapKinds:
    # written out, so the table is checked against the messages it replaced
    NEEDS = {
        "identity": (),
        "phi_q": ("q",),
        "phi_delta": ("delta",),
        "phi_q_prime": ("q",),
        "phi_q_delta": ("q", "delta"),
        "phi_delta_q": ("q", "delta"),
    }
    MISSING = {
        "phi_q": "phi_q requires q",
        "phi_delta": "phi_delta requires delta",
        "phi_q_prime": "phi_q_prime requires q",
        "phi_q_delta": "phi_q_delta requires q and delta",
        "phi_delta_q": "phi_delta_q requires q and delta",
    }

    def test_kinds_in_order(self):
        assert list(MAP_KINDS) == list(self.NEEDS)

    @pytest.mark.parametrize("kind", list(MAP_KINDS))
    def test_each_missing_parameter_is_named(self, kind):
        given = {"q": Fraction(1, 2), "delta": Fraction(1, 3)}
        needs = self.NEEDS[kind]
        assert make_map(kind, **{p: given[p] for p in needs}).kind in (kind, "compose")
        for left_out in needs:
            with pytest.raises(ValueError) as err:
                make_map(kind, **{p: given[p] for p in needs if p != left_out})
            assert str(err.value) == self.MISSING[kind]
        if needs:
            with pytest.raises(ValueError) as err:
                make_map(kind)
            assert str(err.value) == self.MISSING[kind]

    def test_unknown_kind(self):
        with pytest.raises(ValueError) as err:
            make_map("x", q=Fraction(1, 2))
        assert str(err.value) == "unknown map kind 'x'"
        assert make_map("phi-q", q=Fraction(1, 2)) is phi_q(Fraction(1, 2))
