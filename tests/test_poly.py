from fractions import Fraction

import pytest
from hypothesis import given

from conftest import monomial_polys, small_rationals
from qdeform.errors import BasisMismatchError, UnsupportedBasisOperationError
from qdeform.poly import FallingFactorial, Poly
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
