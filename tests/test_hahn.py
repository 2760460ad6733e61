from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qdeform.hahn
from qdeform.errors import DegenerateSpectrumError, MathError
from qdeform.hahn import (
    HahnParams,
    HahnVariant,
    build,
    eigenpolynomials,
    eigenvalue,
    isospectral_check,
    q_eigenvalue,
    residual,
    spectrum,
    table_rows,
)
from qdeform.maps import b_projection, phi_q
from qdeform.opcore import DERIV, IntPow, apply, op_sum, realize_exact
from qdeform.poly import FallingFactorial, Poly
from qdeform.qnum import QContext
from qdeform.verify import random_poly

PARAMS = HahnParams(0, 0, 5)
PARAM_SETS = (
    HahnParams(0, 0, 5),
    HahnParams(Fraction(1, 2), Fraction(1, 3), 7),
    HahnParams(1, 2, 10),
)


def ctx_for(q):
    return QContext(q)


class TestParams:
    def test_derived_constants(self):
        p = HahnParams(Fraction(1, 2), Fraction(1, 3), 7)
        assert p.c2 == 7 - 2 - Fraction(1, 3)
        assert p.c3 == -Fraction(1, 2) - Fraction(1, 3) - 1
        assert p.c4 == (Fraction(1, 3) + 1) * 6

    def test_defaults(self):
        assert PARAMS.delta == 1
        assert PARAMS.c1 == -1

    def test_delta_zero_rejected(self):
        with pytest.raises(ValueError):
            HahnParams(0, 0, 5, delta=0)


class TestSpectrum:
    def test_k_zero(self):
        ctx = ctx_for(Fraction(1, 2))
        for v in HahnVariant:
            assert spectrum(v, PARAMS, 0, ctx) == 0

    def test_hand_value(self):
        # c1=-1, delta=1, alpha=beta=0 so c3=-1: lambda_2 = -4 - 2
        assert eigenvalue(PARAMS, 2) == -6

    def test_q_spectrum_closed_form(self):
        ctx = ctx_for(Fraction(1, 2))
        p = PARAMS
        for k in range(8):
            qk = ctx.qnumber(k)
            qk1 = ctx.qnumber(k - 1) if k else Fraction(0)
            assert q_eigenvalue(p, ctx, k) == p.c1 / p.delta * qk * (qk1 + 1) + p.c3 * qk

    def test_q_spectrum_distinct_for_positive_q(self):
        for q in (Fraction(1, 2), Fraction(1, 3), Fraction(9, 10)):
            ctx = ctx_for(q)
            vals = [q_eigenvalue(PARAMS, ctx, k) for k in range(16)]
            assert len(set(vals)) == len(vals)

    def test_reduction_to_classical(self):
        # replacing {k} by k in the deformed formula reproduces lambda_k
        p = PARAMS
        for k in range(10):
            substituted = p.c1 / p.delta * k * ((k - 1 if k else 0) + 1) + p.c3 * k
            assert substituted == eigenvalue(p, k)


class TestBuild:
    def test_continuous_on_square_by_hand(self):
        # alpha=beta=0, N=5: H = -x^2 d^3 + (2-x)x d^2 + (4-2x) d;
        # on x^2: (2-x)(2x) + (4-2x)(2x) = -6x^2 + 12x
        h = build(HahnVariant.CONTINUOUS, PARAMS)
        assert apply(h, Poly.monomial(2), 6) == Poly([0, 12, -6])
        assert apply(h, Poly.monomial(2), 6).coefficient(2) == eigenvalue(PARAMS, 2)

    def test_constants_are_killed(self):
        ctx = ctx_for(Fraction(1, 2))
        for v in HahnVariant:
            need_q = v in (HahnVariant.Q_DEFORMED, HahnVariant.Q_SPECTRUM)
            op = build(v, PARAMS, ctx if need_q else None)
            assert apply(op, Poly.one(), 6).is_zero

    def test_three_point_matches_abstract(self, rng):
        for params in PARAM_SETS:
            tp = build(HahnVariant.THREE_POINT, params)
            ab = build(HahnVariant.ABSTRACT, params)
            for _ in range(25):
                p = random_poly(rng, 10)
                assert apply(tp, p, 14) == apply(ab, p, 14)

    def test_three_point_stencil_action(self):
        # direct stencil evaluation as an oracle for the operator expression
        params = PARAMS
        d = params.delta
        c1, c2, c3, c4 = params.c1, params.c2, params.c3, params.c4
        tp = build(HahnVariant.THREE_POINT, params)
        for coeffs in ((0, 1, 2), (3, 0, 0, 1), (1, 1, 1, 1, 1)):
            f = Poly(coeffs)
            x = Poly.x()
            plus = Poly([c4 * d**2]) + x.scale(c2 * d) + (x * x).scale(c1)
            mid = Poly([c4 * d**2]) + x.scale(-d * (c1 - 2 * c2 + c3 * d)) + (x * x).scale(2 * c1)
            minus = x.scale(d * (c1 - c2 + c3 * d)) + (x * x).scale(-c1)
            stencil = (
                plus * f.shift(d) - mid * f - minus * f.shift(-d)
            ).scale(d**-3)
            assert apply(tp, f, 12) == stencil

    def test_q_variants_require_context(self):
        with pytest.raises(ValueError):
            build(HahnVariant.Q_DEFORMED, PARAMS)
        with pytest.raises(ValueError):
            spectrum(HahnVariant.Q_SPECTRUM, PARAMS, 2)

    def test_all_variants_lower_triangular(self):
        ctx = ctx_for(Fraction(1, 2))
        for v in HahnVariant:
            need_q = v in (HahnVariant.Q_DEFORMED, HahnVariant.Q_SPECTRUM)
            lin = realize_exact(build(v, PARAMS, ctx if need_q else None), 10)
            assert lin.band[1] <= 0


class TestEigenpolynomials:
    def test_k_zero_constant(self):
        ctx = ctx_for(Fraction(1, 2))
        for v in HahnVariant:
            need_q = v in (HahnVariant.Q_DEFORMED, HahnVariant.Q_SPECTRUM)
            polys = eigenpolynomials(v, PARAMS, 0, 8, ctx if need_q else None)
            assert polys[0].coeffs == (Fraction(1),)

    def test_k_one_two_by_two_solve(self):
        # (H - lambda_1)(x + g0) = 0 with H x = lambda_1 x + c4:
        # g0 = c4/(lambda_1 - lambda_0)
        for params in PARAM_SETS:
            h = eigenpolynomials(HahnVariant.CONTINUOUS, params, 1, 8)[1]
            expect = params.c4 / (eigenvalue(params, 1) - eigenvalue(params, 0))
            assert h == Poly([expect, 1])

    def test_residuals_vanish_everywhere(self):
        ctx = ctx_for(Fraction(1, 2))
        for params in PARAM_SETS:
            for v in HahnVariant:
                need_q = v in (HahnVariant.Q_DEFORMED, HahnVariant.Q_SPECTRUM)
                c = ctx if need_q else None
                polys = eigenpolynomials(v, params, 8, 14, c)
                for k, h in enumerate(polys):
                    assert residual(v, params, h, k, c).is_zero

    def test_three_point_basis_tag(self):
        params = HahnParams(0, 0, 5, delta=Fraction(1, 2))
        polys = eigenpolynomials(HahnVariant.THREE_POINT, params, 3, 8)
        assert all(p.basis == FallingFactorial(Fraction(1, 2)) for p in polys)

    def test_monic_normalization(self):
        ctx = ctx_for(Fraction(1, 3))
        for v in (HahnVariant.CONTINUOUS, HahnVariant.THREE_POINT, HahnVariant.Q_SPECTRUM):
            need_q = v is HahnVariant.Q_SPECTRUM
            polys = eigenpolynomials(v, PARAMS, 5, 10, ctx if need_q else None)
            for k, h in enumerate(polys):
                assert h.coefficient(k) == 1

    def test_q_deformed_is_projection_of_continuous(self):
        # Sum gamma_i [[i]]! x^i is exactly the Jackson-map projection of
        # Sum gamma_i x^i, tying the operator family to the adapted bases
        ctx = ctx_for(Fraction(1, 2))
        m = phi_q(ctx)
        cont = eigenpolynomials(HahnVariant.CONTINUOUS, PARAMS, 6, 12)
        qdef = eigenpolynomials(HahnVariant.Q_DEFORMED, PARAMS, 6, 12, ctx)
        for hk, hq in zip(cont, qdef):
            assert b_projection(hk, m, 12) == hq

    def test_degenerate_spectrum_error(self):
        # alpha = -4, beta = 0: c3 = 3, lambda_k = -k^2 + 3k collides at 1, 2
        bad = HahnParams(-4, 0, 5)
        assert eigenvalue(bad, 1) == eigenvalue(bad, 2)
        with pytest.raises(DegenerateSpectrumError) as err:
            eigenpolynomials(HahnVariant.CONTINUOUS, bad, 4, 8)
        assert err.value.indices == (1, 2)

    def test_kmax_bound(self):
        with pytest.raises(ValueError):
            eigenpolynomials(HahnVariant.CONTINUOUS, PARAMS, 9, 8)


class TestIsospectral:
    def test_report(self):
        report = isospectral_check(
            PARAM_SETS[:2], [Fraction(1, 2), Fraction(9, 10)], 8, 12
        )
        assert report["ok"]
        checks = {e["check"] for e in report["entries"]}
        assert checks == {
            "continuous-diagonal",
            "three-point-diagonal",
            "q-deformed-diagonal",
            "q-spectrum-diagonal",
        }

    def test_kmax_bound(self):
        # D bounds kmax, as in eigenpolynomials
        with pytest.raises(ValueError, match="kmax exceeds the truncation degree"):
            isospectral_check([HahnParams(0, 0, 5)], [Fraction(1, 2)], 9, 8)

    def test_realizes_through_kmax_only(self, monkeypatch):
        degrees = []
        realize = qdeform.hahn.realize_exact
        monkeypatch.setattr(
            qdeform.hahn, "realize_exact", lambda e, D: degrees.append(D) or realize(e, D)
        )
        report = isospectral_check(PARAM_SETS[:2], [Fraction(1, 2)], 5, 12)
        assert report["ok"]
        assert degrees == [5] * 8

    def test_diagonals_match_closed_forms(self):
        ctx = ctx_for(Fraction(1, 2))
        D = 12
        cont = realize_exact(build(HahnVariant.CONTINUOUS, PARAMS), D)
        qdef = realize_exact(build(HahnVariant.Q_DEFORMED, PARAMS, ctx), D)
        qspec = realize_exact(build(HahnVariant.Q_SPECTRUM, PARAMS, ctx), D)
        for k in range(D + 1):
            assert cont.diagonal()[k] == eigenvalue(PARAMS, k)
            assert qdef.diagonal()[k] == eigenvalue(PARAMS, k)
            assert qspec.diagonal()[k] == q_eigenvalue(PARAMS, ctx, k)


class TestTable:
    def test_rows(self):
        rows = table_rows(HahnVariant.CONTINUOUS, PARAMS, 3, 8)
        assert [r["k"] for r in rows] == [0, 1, 2, 3]
        assert rows[0]["coefficients"] == ["1"]
        assert rows[2]["eigenvalue"] == "-6"
        assert all(r["residual"] == "0" for r in rows)
        assert all(r["variant"] == "continuous" for r in rows)

    def test_operator_built_once_per_table(self, monkeypatch):
        # one build for the eigenpolynomial solve, one for every residual
        built = []
        orig = qdeform.hahn.build
        monkeypatch.setattr(qdeform.hahn, "build", lambda *a: built.append(a) or orig(*a))
        rows = table_rows(HahnVariant.Q_DEFORMED, PARAMS, 6, 8, ctx_for(Fraction(1, 2)))
        assert all(r["residual"] == "0" for r in rows)
        assert len(built) == 2


def _pochhammer(a, j):
    out = Fraction(1)
    for i in range(j):
        out *= a + i
    return out


def monic_hahn_falling(k, alpha, beta, N):
    """Monic Q_k(x; beta, alpha, N-1) = 3F2(-k, k+alpha+beta+1, -x; beta+1, -N+1; 1)
    (Koekoek-Lesky-Swarttouw 2010, 9.5) in the falling basis [x]_j, using
    (-x)_j = (-1)^j [x]_j."""
    coeffs = [
        _pochhammer(-k, j) * _pochhammer(k + alpha + beta + 1, j) * (-1) ** j
        / (_pochhammer(beta + 1, j) * _pochhammer(1 - N, j) * factorial(j))
        for j in range(k + 1)
    ]
    return [c / coeffs[k] for c in coeffs]


class TestIndependentOracle:
    @given(
        alpha=st.fractions(min_value=0, max_value=3, max_denominator=5),
        beta=st.fractions(min_value=0, max_value=3, max_denominator=5),
        N=st.integers(min_value=2, max_value=12),
    )
    @settings(max_examples=25)
    def test_three_point_is_monic_hahn(self, alpha, beta, N):
        params = HahnParams(alpha, beta, N)
        kmax = min(N - 1, 6)
        polys = eigenpolynomials(HahnVariant.THREE_POINT, params, kmax, kmax)
        for k, h in enumerate(polys):
            assert h.basis == FallingFactorial(1)
            assert list(h.coeffs) == monic_hahn_falling(k, alpha, beta, N)

    def test_hand_example(self):
        # Q_2(x; 0, 0, 4) = 1 - 3x/2 + x(x-1)/2, monic: [x]_2 - 3x + 2
        assert monic_hahn_falling(2, 0, 0, 5) == [2, -3, 1]


class TestDiagonalGate:
    def test_mismatch_raises_math_error(self, monkeypatch):
        monkeypatch.setattr(qdeform.hahn, "eigenvalue", lambda params, k: Fraction(k))
        with pytest.raises(MathError):
            eigenpolynomials(HahnVariant.CONTINUOUS, PARAMS, 3, 8)


class TestBandGate:
    """The eigenpolynomial solve assumes band (-1, 0) on monomials and must
    refuse a source operator that leaves it."""

    @pytest.mark.parametrize("variant", [HahnVariant.CONTINUOUS, HahnVariant.Q_SPECTRUM])
    def test_extra_lowering_term_names_its_column(self, monkeypatch, variant):
        source = qdeform.hahn.build
        monkeypatch.setattr(
            qdeform.hahn,
            "build",
            lambda v, params, ctx=None: op_sum(source(v, params, ctx), IntPow(DERIV, 2)),
        )
        ctx = ctx_for(Fraction(1, 2)) if variant == HahnVariant.Q_SPECTRUM else None
        with pytest.raises(MathError, match=r"^realized column 2 lies outside the band"):
            eigenpolynomials(variant, PARAMS, 3, 8, ctx)
