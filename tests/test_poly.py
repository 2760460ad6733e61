import functools
import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import monomial_polys, small_rationals
from qdeform.errors import BasisMismatchError, UnsupportedBasisOperationError
from qdeform.maps import compose, phi_delta, phi_q
from qdeform.poly import MONOMIAL, FallingFactorial, Poly
from qdeform.qnum import stirling_first, stirling_second
from qdeform.verify import random_poly


def falling_product_oracle(n, delta):
    """[x]_n built by repeated multiplication, independent of Stirling numbers."""
    acc = Poly.one()
    for j in range(n):
        acc = acc * Poly([-j * Fraction(delta), 1])
    return acc


class TestRing:
    def test_difference_of_squares(self):
        x = Poly.x()
        assert (x + Poly.one()) * (x - Poly.one()) == Poly([-1, 0, 1])

    def test_scale_to_zero(self):
        assert Poly([0, 0, 1]).scale(0).is_zero

    def test_cancellation_trims(self):
        assert Poly([0, 1, 1]) + Poly([0, -1]) == Poly.monomial(2)
        assert Poly([0, 1, 1]).degree == 2

    def test_trailing_zeros_never_stored(self):
        assert Poly([1, 0, 0]) == Poly([1])
        assert Poly([]).degree == -1

    @given(p=monomial_polys, r=monomial_polys, s=monomial_polys)
    def test_distributive(self, p, r, s):
        assert p * (r + s) == p * r + p * s


class TestShift:
    def test_square(self):
        assert Poly.monomial(2).shift(1) == Poly([1, 2, 1])

    def test_linear(self):
        assert Poly.x().shift(Fraction(1, 3)) == Poly([Fraction(1, 3), 1])

    def test_cube_negative(self):
        # frozen from the evaluation oracle below: (x-1)^3
        assert Poly.monomial(3).shift(-1) == Poly([-1, 3, -3, 1])

    @given(p=monomial_polys, h=small_rationals, t=small_rationals)
    def test_evaluation_oracle(self, p, h, t):
        assert p.shift(h)(t) == p(t + h)

    @given(p=monomial_polys, h1=small_rationals, h2=small_rationals)
    def test_group_action(self, p, h1, h2):
        assert p.shift(h1 + h2) == p.shift(h1).shift(h2)

    def test_identity_shift(self):
        p = Poly([1, 2, 3])
        assert p.shift(0) == p
        assert p.shift(2).shift(-2) == p


class TestQScale:
    def test_single_term(self):
        assert Poly.monomial(2).qscale(Fraction(1, 2)) == Poly([0, 0, Fraction(1, 4)])

    def test_q_one(self):
        p = Poly([1, -2, 3])
        assert p.qscale(1) == p

    def test_affine(self):
        assert Poly([1, 1]).qscale(Fraction(1, 3)) == Poly([1, Fraction(1, 3)])

    @given(p=monomial_polys, q1=small_rationals, q2=small_rationals)
    def test_composition(self, p, q1, q2):
        assert p.qscale(q1).qscale(q2) == p.qscale(q1 * q2)

    @given(p=monomial_polys, q=small_rationals, t=small_rationals)
    def test_evaluation_oracle(self, p, q, t):
        assert p.qscale(q)(t) == p(q * t)


class TestBasisConversion:
    def test_falling_square(self):
        # [x]_2 with delta = 1 expands to x^2 - x
        elt = Poly.falling_element(2, 1)
        assert elt.to_monomial() == Poly([0, -1, 1])

    def test_low_degrees_fixed(self):
        for delta in (Fraction(1), Fraction(1, 2)):
            for coeffs in ((1,), (0, 1)):
                p = Poly(coeffs)
                assert p.to_falling(delta).coeffs == p.coeffs
                assert Poly(coeffs, FallingFactorial(delta)).to_monomial().coeffs == coeffs

    def test_elements_match_product_oracle(self):
        for delta in (Fraction(1), Fraction(-1, 2), Fraction(3)):
            for n in range(9):
                elt = Poly.falling_element(n, delta)
                assert elt.to_monomial() == falling_product_oracle(n, delta)

    def test_round_trip_50_random(self, rng):
        for p in [random_poly(rng, 12) for _ in range(50)] + [Poly.zero()]:
            for delta in (Fraction(1), Fraction(1, 2)):
                assert p.to_falling(delta).to_monomial() == p

    @given(p=monomial_polys, delta=small_rationals)
    def test_round_trip_property(self, p, delta):
        assert p.to_falling(delta).to_monomial() == p

    def test_conversions_are_unit_triangular(self):
        delta = Fraction(1, 2)
        for n in range(8):
            down = Poly.falling_element(n, delta).to_monomial()
            up = Poly.monomial(n).to_falling(delta)
            assert down.degree == up.degree == n
            assert down.coefficient(n) == up.coefficient(n) == 1

    def test_delta_zero_is_monomial_relabelling(self):
        p = Poly([3, -1, 2])
        assert p.to_falling(0).coeffs == p.coeffs
        assert p.to_falling(0).to_monomial() == p

    def test_cross_delta_conversion(self):
        p = Poly([1, 2, 3]).to_falling(1)
        again = p.to_falling(Fraction(1, 2))
        assert again.basis == FallingFactorial(Fraction(1, 2))
        assert again.to_monomial() == Poly([1, 2, 3])


class TestEval:
    def test_monomial_basis(self):
        assert Poly([-1, 0, 1])(3) == 8

    def test_zero(self):
        assert Poly.zero()(Fraction(5, 7)) == 0
        assert Poly.zero(FallingFactorial(1))(2) == 0

    def test_falling_product_form(self):
        # [x]_3 at x = 2 with delta 1: 2*1*0
        assert Poly.falling_element(3, 1)(2) == 0
        assert Poly.falling_element(3, 1)(4) == 4 * 3 * 2

    @given(p=monomial_polys, delta=small_rationals, t=small_rationals)
    def test_commutes_with_conversion(self, p, delta, t):
        assert p.to_falling(delta)(t) == p(t)


class TestErrors:
    def test_add_mismatched_basis(self):
        with pytest.raises(BasisMismatchError):
            Poly([1]) + Poly([1], FallingFactorial(1))

    def test_add_mismatched_delta(self):
        with pytest.raises(BasisMismatchError):
            Poly([1], FallingFactorial(1)) + Poly([1], FallingFactorial(2))

    def test_falling_multiply_unsupported(self):
        f = Poly([0, 1], FallingFactorial(1))
        with pytest.raises(UnsupportedBasisOperationError):
            f * f

    def test_falling_shift_unsupported(self):
        with pytest.raises(UnsupportedBasisOperationError):
            Poly([0, 1], FallingFactorial(1)).shift(1)

    def test_falling_qscale_unsupported(self):
        with pytest.raises(UnsupportedBasisOperationError):
            Poly([0, 1], FallingFactorial(1)).qscale(Fraction(1, 2))


class TestTextAndJson:
    def test_text_forms(self):
        assert Poly([-1, 0, 1]).to_text() == "x^2-1"
        assert Poly([0, 0, Fraction(7, 4)]).to_text() == "7/4*x^2"
        assert Poly.zero().to_text() == "0"
        assert Poly([0, -1], FallingFactorial(1)).to_text() == "-[x]_1"

    def test_json_round_trip_monomial(self):
        p = Poly([Fraction(1, 2), 0, -3])
        data = p.to_json()
        assert data == {"basis": "monomial", "coeffs": ["1/2", "0", "-3"]}
        assert Poly.from_json(data) == p

    def test_json_round_trip_falling(self):
        p = Poly([1, Fraction(-2, 3)], FallingFactorial(Fraction(1, 2)))
        data = p.to_json()
        assert data["basis"] == {"falling": {"delta": "1/2"}}
        assert Poly.from_json(data) == p


# ---------------------------------------------------------------------------
# Kernel oracles: the integer kernels against a per-coefficient Fraction
# reference of the same algorithms, on small and on large denominators.
# ---------------------------------------------------------------------------


def ref_trim(cs):
    cs = [Fraction(c) for c in cs]
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def ref_add(a, b, sign=1):
    n = max(len(a), len(b))
    a, b = list(a) + [0] * (n - len(a)), list(b) + [0] * (n - len(b))
    return ref_trim(x + sign * y for x, y in zip(a, b))


def ref_scale(a, c):
    return ref_trim(c * x for x in a)


def ref_mul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return ref_trim(out)


def ref_shift(a, h):
    out = [Fraction(0)] * len(a)
    for n, c in enumerate(a):
        for k in range(n + 1):
            out[k] += c * math.comb(n, k) * h ** (n - k)
    return ref_trim(out)


def ref_conjugated_shift(a, h, g):
    """U^-1 shift(h) U, u(n) = g[0] ... g[n-1]: scale, shift, unscale."""
    u = [Fraction(1)]
    for v in g:
        u.append(u[-1] * v)
    shifted = ref_shift([c * u[n] for n, c in enumerate(a)], h)
    return ref_trim(c / u[k] for k, c in enumerate(shifted))


def step_pairs(steps):
    """Fraction steps as the (num, den) pairs _conjugated_shift takes."""
    return [(s.numerator, s.denominator) for s in steps]


def ref_qscale(a, q):
    return ref_trim(c * q**n for n, c in enumerate(a))


def ref_derivative(a):
    return ref_trim(n * c for n, c in enumerate(a))[1:] if len(a) > 1 else []


def ref_restep(a, stirling, delta):
    out = [Fraction(0)] * len(a)
    for n, c in enumerate(a):
        for k in range(n + 1):
            out[k] += c * stirling(n, k) * delta ** (n - k)
    return ref_trim(out)


def ref_evaluate(a, t, delta=None):
    acc, prod = Fraction(0), Fraction(1)
    for n, c in enumerate(a):
        if n:
            prod *= t if delta is None else t - (n - 1) * delta
        acc += c * prod
    return acc


def assert_canonical(p):
    """The stored pair is canonical and the public view is lowest-terms."""
    num, den = p._num, p._den
    assert den > 0
    assert math.gcd(den, *num) == 1
    assert not num or num[-1] != 0
    if not num:
        assert den == 1
    assert all(isinstance(c, Fraction) for c in p.coeffs)
    assert not p.coeffs or p.coeffs[-1] != 0


def assert_matches(p, ref_coeffs, basis=None):
    assert_canonical(p)
    assert list(p.coeffs) == ref_trim(ref_coeffs)
    if basis is not None:
        assert p.basis == basis


# Negative numerators and denominators up to 10^12.
big_rationals = st.builds(
    Fraction, st.integers(-(10**9), 10**9), st.integers(1, 10**12)
)
nonzero_big_rationals = big_rationals.filter(bool)


@functools.lru_cache(maxsize=None)
def _adapted(n):
    """|n> of phi_delta.phi_q at q = 9/10, delta = 1/2: coefficients with
    denominators of hundreds of bits."""
    return compose(phi_delta(Fraction(1, 2)), phi_q(Fraction(9, 10))).basis_element(n)


kernel_polys = st.one_of(
    monomial_polys,
    st.lists(big_rationals, max_size=9).map(Poly),
    st.integers(0, 24).map(_adapted),
)


class TestKernelOracles:
    @given(p=kernel_polys, r=kernel_polys)
    def test_add_sub_neg(self, p, r):
        a, b = list(p.coeffs), list(r.coeffs)
        assert_matches(p + r, ref_add(a, b))
        assert_matches(p - r, ref_add(a, b, -1))
        assert_matches(-p, [-c for c in a])
        assert_matches(p - p, [])

    @given(p=kernel_polys, c=st.one_of(big_rationals, st.sampled_from([0, -1, Fraction(-7, 3)])))
    def test_scale(self, p, c):
        assert_matches(p.scale(c), ref_scale(p.coeffs, c))
        assert_matches(c * p, ref_scale(p.coeffs, c))

    @given(p=kernel_polys, r=kernel_polys)
    def test_mul(self, p, r):
        assert_matches(p * r, ref_mul(p.coeffs, r.coeffs))

    @given(p=kernel_polys, h=big_rationals)
    def test_shift(self, p, h):
        assert_matches(p.shift(h), ref_shift(p.coeffs, h))

    @given(
        p=kernel_polys,
        h=big_rationals,
        g=st.lists(nonzero_big_rationals, min_size=24, max_size=24),
    )
    def test_conjugated_shift(self, p, h, g):
        g = g[: max(p.degree, 0)]
        out = p._conjugated_shift(step_pairs(h * v for v in g))
        assert_matches(out, ref_conjugated_shift(p.coeffs, h, g))

    @given(p=kernel_polys, q=big_rationals)
    def test_qscale(self, p, q):
        assert_matches(p.qscale(q), ref_qscale(p.coeffs, q))

    @given(p=kernel_polys, degree=st.integers(-1, 12))
    def test_derivative_and_truncated(self, p, degree):
        assert_matches(p.derivative(), ref_derivative(p.coeffs))
        assert_matches(p.truncated(degree), p.coeffs[: degree + 1])

    @given(p=kernel_polys, delta=st.one_of(big_rationals, st.just(Fraction(0))))
    def test_basis_conversions(self, p, delta):
        tag = FallingFactorial(delta)
        down = p.to_falling(delta)
        assert_matches(down, ref_restep(p.coeffs, stirling_second, delta), tag)
        up = Poly(p.coeffs, tag).to_monomial()
        assert_matches(up, ref_restep(p.coeffs, stirling_first, delta), MONOMIAL)

    @given(p=kernel_polys, t=big_rationals, delta=big_rationals)
    def test_evaluate(self, p, t, delta):
        assert p(t) == ref_evaluate(p.coeffs, t)
        assert Poly(p.coeffs, FallingFactorial(delta))(t) == ref_evaluate(p.coeffs, t, delta)

    @given(p=kernel_polys, r=kernel_polys, c=nonzero_big_rationals)
    def test_same_polynomial_two_ways(self, p, r, c):
        ways = [
            Poly(list(p.coeffs) + [0, 0]),
            (p + r) - r,
            p.scale(c).scale(1 / c),
            Poly.from_json(p.to_json()),
        ]
        for w in ways:
            assert_canonical(w)
            assert w == p and hash(w) == hash(p)

    @given(p=kernel_polys, degree=st.integers(-10, 30))
    def test_truncated_at_any_degree(self, p, degree):
        assert_matches(p.truncated(degree), p.coeffs[: max(degree + 1, 0)])

    @given(
        terms=st.lists(
            st.tuples(st.one_of(big_rationals, st.integers(-9, 9)), kernel_polys), max_size=4
        ),
        div=st.integers(-(10**6), 10**6).filter(bool),
    )
    def test_lincomb(self, terms, div):
        ref = []
        for c, p in terms:
            ref = ref_add(ref, ref_scale(p.coeffs, c))
        assert_matches(Poly._lincomb(terms, div), [Fraction(x, div) for x in ref])

    def test_adapted_basis_is_canonical(self):
        for n in range(25):
            assert_canonical(_adapted(n))
        # the denominators really are large
        assert _adapted(24)._den.bit_length() > 200


class TestTruncatedBelowZero:
    @pytest.mark.parametrize("degree", [-1, -2, -3, -10])
    def test_gives_zero_in_the_same_basis(self, degree):
        falling = FallingFactorial(Fraction(1, 2))
        for p in (Poly([1, 2, 3]), Poly([Fraction(1, 3), 5], falling), Poly.zero()):
            t = p.truncated(degree)
            assert_canonical(t)
            assert t.is_zero and t == Poly.zero(p.basis)

    def test_degree_zero_keeps_the_constant(self):
        assert Poly([1, 2, 3]).truncated(0) == Poly.one()


class TestConstructors:
    @given(
        n=st.integers(0, 12),
        c=st.one_of(
            st.integers(-(10**6), 10**6), big_rationals, st.sampled_from([0, Fraction(0)])
        ),
    )
    def test_monomial_matches_general_constructor(self, n, c):
        p, ref = Poly.monomial(n, c), Poly([0] * n + [c])
        assert_canonical(p)
        assert (p._num, p._den) == (ref._num, ref._den)
        assert p == ref and p.coeffs == ref.coeffs and p(3) == ref(3)

    def test_named_polynomials(self):
        falling = FallingFactorial(Fraction(1, 2))
        pairs = [
            (Poly.zero(), Poly([])),
            (Poly.zero(falling), Poly([], falling)),
            (Poly.one(), Poly([1])),
            (Poly.x(), Poly([0, 1])),
            (Poly.falling_element(3, Fraction(1, 2)), Poly([0, 0, 0, 1], falling)),
        ]
        for p, ref in pairs:
            assert_canonical(p)
            assert (p._num, p._den, p.basis) == (ref._num, ref._den, ref.basis)


class TestKernelOracleControls:
    """The oracle comparison above must be able to fail."""

    def test_wrong_shift_direction_is_caught(self):
        p, h = _adapted(7), Fraction(-5, 12)
        assert_matches(p.shift(h), ref_shift(p.coeffs, h))
        with pytest.raises(AssertionError):
            assert_matches(p.shift(h), ref_shift(p.coeffs, -h))

    def test_shifted_conjugation_is_caught(self):
        p, h = _adapted(7), Fraction(-5, 12)
        g = [Fraction(k + 2, 3) for k in range(8)]
        out = p._conjugated_shift(step_pairs(h * v for v in g[:7]))
        assert_matches(out, ref_conjugated_shift(p.coeffs, h, g[:7]))
        with pytest.raises(AssertionError):
            assert_matches(out, ref_conjugated_shift(p.coeffs, h, g[1:]))

    def test_skipped_normalization_is_caught(self, monkeypatch):
        def trim_only(num, den):
            while num and not num[-1]:
                num.pop()
            return (num, den) if num else ([], 1)

        p, r = Poly([Fraction(1, 6), Fraction(1, 3)]), Poly([Fraction(1, 3), Fraction(1, 6)])
        assert_matches(p + r, [Fraction(1, 2), Fraction(1, 2)])
        monkeypatch.setattr(Poly, "_canonical", staticmethod(trim_only))
        with pytest.raises(AssertionError):
            assert_matches(p + r, [Fraction(1, 2), Fraction(1, 2)])
        assert p + r != Poly([Fraction(1, 2), Fraction(1, 2)])
