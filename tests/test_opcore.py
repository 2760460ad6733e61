import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import Q_GRID, monomial_polys, small_rationals
from qdeform import opcore
from qdeform.cli import main
from qdeform.dsl import Token, parse
from qdeform.errors import (
    DegreeOverflowError,
    EmptyWindowError,
    NonterminatingExponentialError,
    SingularOperatorError,
    UnsupportedStarError,
)
from qdeform.hahn import HahnParams
from qdeform.maps import identity_map
from qdeform.opcore import (
    A_DIAG,
    B_DIAG,
    COORD,
    Coord,
    DERIV,
    Deriv,
    DiagFn,
    DiagInv,
    ExpOp,
    IDENT,
    Ident,
    IntPow,
    LinOp,
    OpProd,
    OpSum,
    Scaled,
    apply,
    commutator,
    dbracket_diag,
    gamma_ratio_diag,
    op_prod,
    op_sum,
    q_commutator,
    qnum_diag,
    realize,
    realize_exact,
    scaled,
    star,
    working_degree,
)
from qdeform.poly import FallingFactorial, Monomial, Poly
from qdeform.qnum import QContext
from qdeform.verify import Check
from test_dsl import _combine, ast_texts


def ctx_for(q):
    return QContext(q)


def shifts_by(image: Poly, p: Poly, h) -> bool:
    """Evaluation oracle for exp(h d): image(t) == p(t + h) at n + 1 distinct
    rational points, n the larger degree, which fixes the polynomial exactly."""
    n = max(image.degree, p.degree)
    points = [Fraction(2 * k - n, 3) for k in range(n + 1)]
    return all(image.evaluate(t) == p.evaluate(t + h) for t in points)


class TestEmptySumAndProduct:
    @pytest.mark.parametrize("e, text, value", [(op_sum(), "0", 0), (op_prod(), "1", 1)])
    def test_print_reparse_and_substitute(self, e, text, value):
        from qdeform.dsl import pretty
        from qdeform.maps import phi_q

        p = Poly([1, Fraction(-2, 3), 5])
        assert pretty(e) == text and parse(text) == e
        assert apply(e, p, 4) == p.scale(value)
        for image in (star(e), phi_q(Fraction(1, 2)).image(e)):
            assert apply(image, p, 4) == p.scale(value)


class TestApply:
    def test_derivative(self):
        assert apply(DERIV, Poly.monomial(3), 8) == Poly.monomial(2, 3)

    def test_diag_qnumber(self):
        ctx = ctx_for(Fraction(1, 2))
        img = apply(qnum_diag(ctx), Poly.monomial(3), 8)
        assert img == Poly.monomial(3, Fraction(7, 4))
        assert img.coefficient(3) == ctx.qnumber(3)

    def test_exp_is_shift(self):
        e = ExpOp(scaled(-1, DERIV))
        p = Poly.monomial(2)
        assert apply(e, p, 8) == Poly([1, -2, 1])
        assert shifts_by(apply(e, p, 8), p, -1)

    def test_exp_series_path_matches_evaluation(self):
        # h*(d+d) is not of the form h*d, so it takes the power-series path
        h = Fraction(-3, 5)
        p = Poly([Fraction(1, 3), -2, 0, Fraction(5, 7), 1])
        assert shifts_by(apply(ExpOp(scaled(h, op_sum(DERIV, DERIV))), p, 8), p, 2 * h)
        assert shifts_by(apply(ExpOp(scaled(h, DERIV)), p, 8), p, h)
        assert shifts_by(apply(ExpOp(DERIV), p, 8), p, 1)

    def test_exp_oracle_rejects_wrong_step(self):
        # negative control: the evaluation oracle must catch a perturbed h
        h = Fraction(1, 2)
        p = Poly([1, -1, 0, 2])
        for e in (ExpOp(scaled(h, DERIV)), ExpOp(scaled(h / 2, op_sum(DERIV, DERIV)))):
            image = apply(e, p, 8)
            assert shifts_by(image, p, h)
            assert not shifts_by(image, p, h + Fraction(1, 7))

    def test_degree_operator(self):
        for n in range(6):
            assert apply(op_prod(COORD, DERIV), Poly.monomial(n), 8) == Poly.monomial(n, n)

    def test_identity_and_scalars(self):
        p = Poly([1, 2])
        assert apply(IDENT, p, 4) == p
        assert apply(scaled(Fraction(3, 2), IDENT), p, 4) == p.scale(Fraction(3, 2))

    @given(p=monomial_polys, r=monomial_polys, a=small_rationals, b=small_rationals)
    @settings(max_examples=50)
    def test_linearity(self, p, r, a, b):
        ctx = ctx_for(Fraction(1, 3))
        e = op_sum(op_prod(dbracket_diag(ctx, 1), DERIV), scaled(2, COORD))
        D = max(p.degree, r.degree, 0) + 2
        combined = apply(e, p.scale(a) + r.scale(b), D)
        assert combined == apply(e, p, D).scale(a) + apply(e, r, D).scale(b)

    def test_nodes_have_no_arithmetic_operators(self):
        # expressions are built by op_sum, op_prod, scaled and IntPow only
        for build in (lambda: COORD + DERIV, lambda: 2 * COORD, lambda: -DERIV, lambda: COORD**2):
            with pytest.raises(TypeError):
                build()


class TestExpTermination:
    def test_lowering_terminates_quickly(self):
        # strictly lowering: at most deg(p)+1 nonzero terms
        p = Poly([1, 1, 1, 1])
        out = apply(ExpOp(scaled(Fraction(1, 2), DERIV)), p, 10)
        assert shifts_by(out, p, Fraction(1, 2))

    def test_degree_preserving_raises(self):
        with pytest.raises(NonterminatingExponentialError):
            apply(ExpOp(A_DIAG), Poly.monomial(1), 6)

    def test_raising_requires_truncation_flag(self):
        with pytest.raises(NonterminatingExponentialError):
            apply(ExpOp(COORD), Poly.one(), 6)



def fast_path_diagonals(ctx):
    """Monomial-basis diagonals G for which exp(h G d) is the conjugated
    Taylor shift: plain and inverted, with and without a zero at degree 0."""
    return {
        "inv(qb(B))": DiagInv(dbracket_diag(ctx, 1)),
        "qb(B)": dbracket_diag(ctx, 1),
        "U": gamma_ratio_diag(ctx),
        "qn(B)": qnum_diag(ctx, 1),
        "inv(qn(B))": DiagInv(qnum_diag(ctx, 1)),
        "qn(A)": qnum_diag(ctx),
        "A": A_DIAG,
    }


def series_form(h, g):
    """exp(h/2 G d + h/2 G d): the same operator as exp(h G d), in a form that
    only the power-series path evaluates."""
    half = scaled(h / 2, op_prod(g, DERIV))
    return ExpOp(op_sum(half, half))


FAST_PATH_STEPS = (Fraction(1, 2), Fraction(-3, 7), Fraction(2))
FAST_PATH_Q = (Fraction(1, 2), Fraction(9, 10), Fraction(-9, 10))


class TestConjugatedShift:
    """exp(h G d) = U^-1 exp(h d) U with u(n) = g(0) ... g(n-1), against the
    power series of the same operator."""

    @given(
        name=st.sampled_from(sorted(fast_path_diagonals(QContext(Fraction(1, 2))))),
        h=st.sampled_from(FAST_PATH_STEPS),
        q=st.sampled_from(FAST_PATH_Q),
        p=monomial_polys,
    )
    @settings(max_examples=150)
    def test_matches_series(self, name, h, q, p):
        g = fast_path_diagonals(QContext(q))[name]
        fast = ExpOp(scaled(h, op_prod(g, DERIV)))
        series = series_form(h, g)
        assert opcore._shift_steps(fast.arg, p.degree) is not None
        assert opcore._shift_steps(series.arg, p.degree) is None
        D = max(p.degree, 0)
        assert apply(fast, p, D) == apply(series, p, D)

    @staticmethod
    def shifts_by_factors(first):
        """For each diagonal, q and h: whether the conjugated shift whose
        step k is h times the factor eigenpairs returns at degree first + k
        reproduces the series on a fixed p."""
        p = Poly([1, -2, Fraction(1, 3), 0, 5, Fraction(-7, 2)])
        for q in FAST_PATH_Q:
            for name, g in fast_path_diagonals(QContext(q)).items():
                for h in FAST_PATH_STEPS:
                    factors = g.eigenpairs([1] * (p.degree + first))[first:]
                    steps = [h * Fraction(*v) for v in factors]
                    shifted = p._conjugated_shift([(s.numerator, s.denominator) for s in steps])
                    yield (q, name, h), shifted == apply(series_form(h, g), p, p.degree)

    def test_unshifted_factors_reproduce_the_series(self):
        # the factors come already inverted for an inverse node
        for case, same in self.shifts_by_factors(0):
            assert same, case

    def test_shifted_product_fails_the_oracle(self):
        # negative control: u(n) = g(1) ... g(n), each factor one degree high
        for case, same in self.shifts_by_factors(1):
            assert not same, case

    def test_written_forms_take_the_fast_path(self):
        q, p = Fraction(9, 10), Poly([1, 2, 3, 4, 5])
        g = DiagInv(dbracket_diag(QContext(q), 1))
        expect = apply(series_form(Fraction(-1, 2), g), p, 4)
        for text in ("exp(-1/2*inv(qb(B))*d)", "exp(-1/2*Dq)", "exp(inv(qb(B))*(-1/2)*d)"):
            e = parse(text, q=q)
            assert opcore._shift_steps(e.arg, p.degree) is not None, text
            assert apply(e, p, 4) == expect, text
        assert apply(parse("exp(2*d)"), p, 4) == p.shift(2)

    def test_singular_inverse_falls_back_to_series(self):
        e = ExpOp(op_prod(DiagInv(A_DIAG), DERIV))
        assert opcore._shift_steps(e.arg, 3) is None
        with pytest.raises(SingularOperatorError, match="^inv\\(A\\) hit eigenvalue 0 at occupied degree 0$"):
            apply(e, Poly.monomial(3), 3)

    def test_undefined_eigenvalue_falls_back_to_series(self):
        # g(k) = {k - 1} is undefined at k = 0, which the series never reaches
        # on x^3: its second term already vanishes at {0} = 0
        g = qnum_diag(QContext(Fraction(1, 2)), -1)
        h = Fraction(1, 3)
        e = ExpOp(scaled(h, op_prod(g, DERIV)))
        assert opcore._shift_steps(e.arg, 3) is None
        assert apply(e, Poly.monomial(3), 3) == Poly([0, 0, 3 * h, 1])

    @pytest.mark.parametrize(
        "argv, err",
        [
            (["exp(inv(A)*d)", "x^3"], "error: inv(A) hit eigenvalue 0 at occupied degree 0\n"),
            (
                ["exp(inv(qn(A))*d)", "x^2", "--q=1/2"],
                "error: inv(qn(A)) hit eigenvalue 0 at occupied degree 0\n",
            ),
        ],
    )
    def test_cli_singular_exponential(self, capsys, argv, err):
        assert main(["apply", *argv]) == 3
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", err)


class TestPowerStopsAtZero:
    @pytest.fixture
    def visits(self, monkeypatch):
        """Counts node-action calls of every node kind, the recursive ones
        included."""
        count = [0]

        def counting(inner):
            def counted(*args):
                count[0] += 1
                return inner(*args)

            return counted

        for kind in opcore.Op.__subclasses__():
            monkeypatch.setattr(kind, "act", counting(kind.act))
        return count

    def test_lowered_to_zero(self, visits):
        assert apply(IntPow(DERIV, 100000), Poly.monomial(3), 3).is_zero
        assert visits[0] <= 10

    def test_zero_input(self, visits):
        assert apply(IntPow(COORD, 100000), Poly.zero(), 0).is_zero
        assert visits[0] == 1


class TestOverflow:
    def test_coordinate_overflow(self):
        with pytest.raises(DegreeOverflowError):
            apply(COORD, Poly.monomial(4), 4)

    def test_input_too_big(self):
        with pytest.raises(ValueError):
            apply(DERIV, Poly.monomial(5), 4)

    @pytest.mark.parametrize("tabulate", [realize, realize_exact])
    def test_negative_truncation(self, tabulate):
        with pytest.raises(ValueError, match="truncation degree must be nonnegative"):
            tabulate(DERIV, -1)


class TestDiagInv:
    def test_requires_a_diagonal_operand(self):
        with pytest.raises(ValueError):
            DiagInv(COORD)

    def test_rejects_an_inverted_operand(self):
        with pytest.raises(ValueError):
            DiagInv(DiagInv(A_DIAG))


class TestSingular:
    def test_inverse_hits_zero(self):
        ctx = ctx_for(Fraction(1, 2))
        inv = DiagInv(qnum_diag(ctx))  # {A} vanishes at degree 0
        with pytest.raises(SingularOperatorError):
            apply(inv, Poly.one(), 4)

    def test_safe_on_image_of_x(self):
        ctx = ctx_for(Fraction(1, 2))
        s = op_prod(DiagInv(qnum_diag(ctx)), COORD)
        assert apply(s, Poly.one(), 4) == Poly.x()


class TestDiagonalEvaluation:
    """A diagonal's callable is called at the occupied degrees only, from the
    lowest up, once each."""

    @pytest.mark.parametrize("inverse", [False, True])
    def test_user_callable_sees_occupied_degrees(self, inverse):
        calls = []
        g = DiagFn("g", lambda n: calls.append(n) or Fraction(n + 2, 3), inverse=inverse)
        p = Poly([0, 5, 0, 0, Fraction(1, 2), 0, 0, 0, 0, 0, 0, 7])
        out = apply(g, p, 11)
        assert calls == [1, 4, 11]
        vals = [Fraction(n + 2, 3) for n in range(12)]
        expected = [c / v if inverse else c * v for c, v in zip(p.coeffs, vals)]
        assert out == Poly(expected)

    def test_callable_count_through_a_product(self):
        calls = []
        g = DiagFn("g", lambda n: calls.append(n) or Fraction(n + 1))
        apply(op_prod(g, COORD, g), Poly.monomial(3), 4)
        assert calls == [3, 4]

    def test_table_diagonal_reads_only_occupied_entries(self):
        # {A - 2} is undefined at degrees 0 and 1, which x^2 + x^5 leaves empty
        ctx = ctx_for(Fraction(1, 2))
        out = apply(qnum_diag(ctx, -2), Poly([0, 0, 1, 0, 0, 1]), 5)
        assert out == Poly([0, 0, 0, 0, 0, ctx.qnumber(3)])
        with pytest.raises(ValueError, match="^index -1 is negative$"):
            apply(qnum_diag(ctx, -2), Poly([0, 1, 1]), 5)
        with pytest.raises(ValueError, match="^index -4 is negative$"):
            apply(qnum_diag(ctx, -5), Poly([0, 1]), 5)

    def test_similarity_diagonal_is_one_below_index_zero(self):
        ctx = ctx_for(Fraction(1, 2))
        out = apply(gamma_ratio_diag(ctx, -1), Poly([2, 0, 3]), 2)
        assert out == Poly([2, 0, 3 * Fraction(*ctx.gamma_ratio_pairs(1)[1])])


class TestRealize:
    def test_derivative_columns(self):
        lin = realize(DERIV, 3)
        assert list(lin.columns) == [
            Poly.zero(),
            Poly.one(),
            Poly.monomial(1, 2),
            Poly.monomial(2, 3),
        ]

    def test_coordinate_marks_top(self):
        lin = realize(COORD, 3)
        assert lin.columns[0] == Poly.x()
        assert [n for n, col in enumerate(lin.columns) if col is None] == [3]

    def test_degree_diag(self):
        lin = realize(A_DIAG, 5)
        assert lin == LinOp.from_diagonal(5, range(6))
        assert lin.diagonal() == tuple(Fraction(n) for n in range(6))

    def test_exp_shift_matrix(self):
        delta = Fraction(1, 3)
        lin = realize(ExpOp(scaled(-delta, DERIV)), 6)
        for n in range(7):
            assert shifts_by(lin.columns[n], Poly.monomial(n), -delta)

    def test_realize_exact_keeps_boundary(self):
        # x*d has a raising intermediate but exact results fit
        lin = realize_exact(op_prod(DERIV, COORD), 4)
        assert None not in lin.columns
        assert lin.diagonal() == tuple(Fraction(n + 1) for n in range(5))

    def test_band(self):
        assert realize(COORD, 4).band == (1, 1)
        assert realize(DERIV, 4).band == (-1, -1)
        assert realize(A_DIAG, 4).band == (0, 0)

    def test_product_homomorphism(self):
        ctx = ctx_for(Fraction(1, 2))
        e1 = dbracket_diag(ctx, 1)
        e2 = op_prod(COORD, DERIV)
        D = 6
        lin1, lin2 = realize(e1, D), realize(e2, D)
        product = realize(op_prod(e1, e2), D)
        assert None not in product.columns
        # column n of lin1 lin2 is lin1 applied to column n of lin2
        assert product.columns == tuple(
            sum((lin1.columns[k].scale(c) for k, c in enumerate(col.coeffs)), Poly.zero())
            for col in lin2.columns
        )

    def test_json(self):
        data = realize(COORD, 2).to_json()
        assert data["D"] == 2
        assert data["band"] == [1, 1]
        assert data["columns"][2] is None
        assert data["columns"][0] == {"basis": "monomial", "coeffs": ["0", "1"]}


def walked_realization(e, D, exact):
    """realize (exact False) or realize_exact (exact True) of e as the
    column-by-column walk gives it: the list of columns, None for a marked
    one, or (type, message) of the error it raises."""
    try:
        Dw = working_degree(D, e) if exact else D
        cols = []
        for n in range(D + 1):
            try:
                img = apply(e, Poly.monomial(n), Dw)
            except DegreeOverflowError:
                if exact:
                    raise
                img = None
            cols.append(img if img is None or img.degree <= D else None)
        return cols
    except Exception as exc:
        return type(exc), str(exc)


def table_sizes(ctx):
    """How far each pair table of ctx has grown."""
    return len(ctx._qnum), len(ctx._dbr), len(ctx._fact[0])


def realization(e, D, exact):
    try:
        return list((realize_exact if exact else realize)(e, D).columns)
    except Exception as exc:
        return type(exc), str(exc)


# Banded texts: x, d, scalars and the diagonals that read a Table.
_banded_leaves = st.sampled_from(
    ["x", "d", "A", "B", "Dq", "xq", "S", "Mq", "U", "inv(B)", "inv(A)", "0"]
) | st.fractions(min_value=-3, max_value=3, max_denominator=4).map(str)
banded_texts = st.recursive(_banded_leaves, _combine, max_leaves=6)

_CTX = ctx_for(Fraction(1, 2))
# inv of g(n) = n - 1, with g = 5 below index 0: only column 1 is singular
_INV_A_MINUS_1 = DiagInv(DiagFn("A-1", opcore.Table(opcore._degrees, -1, (5, 1))))
BANDED_CASES = [
    (op_prod(COORD, A_DIAG), 0),
    (op_prod(COORD, A_DIAG), 3),
    (op_prod(DiagInv(A_DIAG), COORD, COORD), 4),
    (op_prod(COORD, DiagInv(A_DIAG)), 0),
    (op_prod(COORD, DiagInv(A_DIAG)), 3),
    (qnum_diag(_CTX, -1), 3),
    (DiagInv(qnum_diag(_CTX, -1)), 3),
    (gamma_ratio_diag(_CTX, -1), 3),
    (IntPow(op_prod(COORD, DERIV), 2), 4),
    (op_prod(IntPow(COORD, 2), DERIV), 3),
    (op_prod(DiagInv(A_DIAG), IntPow(DERIV, 4)), 3),
    (op_prod(DiagInv(A_DIAG), DERIV), 3),
    (op_prod(DiagInv(A_DIAG), IntPow(op_sum(op_prod(COORD, DERIV), scaled(-1, A_DIAG)), 3)), 3),
    (IntPow(op_sum(COORD, IDENT), 3), 2),
    (IntPow(op_sum(op_prod(DiagInv(A_DIAG), B_DIAG), IDENT), 3), 3),
    (op_prod(DiagInv(A_DIAG), _INV_A_MINUS_1), 3),
    (op_prod(qnum_diag(_CTX, -1), _INV_A_MINUS_1), 3),
]


class TestBandedTabulation:
    """realize and realize_exact tabulate a banded expression once per node;
    every column, mark and error equals the column-by-column walk's."""

    @pytest.mark.parametrize("e, D", BANDED_CASES, ids=[
        "%s@%d" % (e.text, D) for e, D in BANDED_CASES
    ])
    @pytest.mark.parametrize("exact", [False, True], ids=["realize", "realize_exact"])
    def test_hand_cases(self, e, D, exact):
        assert opcore._banded(e)
        assert realization(e, D, exact) == walked_realization(e, D, exact)

    @given(text=banded_texts, D=st.integers(0, 7), q=st.sampled_from(Q_GRID),
           exact=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_banded_texts(self, text, D, q, exact):
        e = parse(text, q=q)
        assert opcore._banded(e)
        assert realization(e, D, exact) == walked_realization(e, D, exact)

    @given(text=ast_texts, D=st.integers(0, 6), exact=st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_dsl_texts(self, text, D, exact):
        e = parse(text, q=Fraction(1, 2), delta=Fraction(1))
        assert realization(e, D, exact) == walked_realization(e, D, exact)

    def test_zero_column_records_nothing(self):
        assert realize(op_prod(COORD, A_DIAG), 0).columns == (Poly.zero(),)

    def test_errors_are_raised_in_column_order(self):
        # column 1 fails at the first node, column 0 only at the second
        with pytest.raises(SingularOperatorError, match="inv\\(A\\) hit eigenvalue 0 at occupied degree 0$"):
            realize(op_prod(DiagInv(A_DIAG), _INV_A_MINUS_1), 3)

    def test_an_error_ends_the_block_pass_and_the_walk_raises_it(self):
        # column 0 meets inv(A)'s zero in the first round: the block pass
        # ends at that node after one table read, for columns 0..3, and the
        # walk reads the table once more, for column 0, before it raises
        # the same error; a power that went on past the error would read
        # the table again
        calls = []

        def degrees(m):
            calls.append(m)
            return [(k, 1) for k in range(m + 1)]

        e = IntPow(op_prod(DiagInv(A_DIAG), DiagFn("g", opcore.Table(degrees, 1))), 50)
        for realization_of in (realize, realize_exact):
            calls.clear()
            with pytest.raises(SingularOperatorError, match="inv\\(A\\) hit eigenvalue 0 at occupied degree 0$"):
                realization_of(e, 3)
            assert calls == [4, 1]

    @given(text=banded_texts, D=st.integers(0, 7), q=st.sampled_from(Q_GRID),
           exact=st.booleans())
    @example(text="x*d*S", D=11, q=Fraction(1, 2), exact=False)
    @example(text="Mq*xq", D=11, q=Fraction(1, 2), exact=False)
    @example(text="x*A+Dq", D=3, q=Fraction(1, 2), exact=False)
    @settings(max_examples=300, deadline=None)
    def test_block_pass_alone_realizes_what_the_walk_does_not_reject(self, text, D, q, exact):
        # where the walk raises nothing, the block pass alone gives the
        # realization, and on a fresh QContext it grows every pair table
        # exactly as far as the walk does
        walk_ctx, block_ctx = QContext(q), QContext(q)
        walked = walked_realization(parse(text, q=walk_ctx), D, exact)
        e = parse(text, q=block_ctx)
        with mock.patch.object(opcore, "apply", wraps=opcore.apply) as walk:
            assert realization(e, D, exact) == walked
        if isinstance(walked, list):
            assert walk.call_count == 0
            assert table_sizes(block_ctx) == table_sizes(walk_ctx)

    def test_only_table_diagonals_are_banded(self):
        assert opcore._banded(parse("Dq*xq-xq*Dq", q=Fraction(1, 2)))
        assert not opcore._banded(parse("qn(A)", q=Fraction(1, 2)))
        assert not opcore._banded(parse("x*exp(d)"))
        assert not opcore._banded(DiagFn("g", Fraction))


# Each immutable value class but LinOp and DeformMap (see their own
# read-only tests): constructor arguments, and a field change that gives an
# unequal value.
VALUES = [
    (Monomial, (), {}),
    (FallingFactorial, (Fraction(1, 2),), {"delta": 2}),
    (Coord, (), {}),
    (Deriv, (), {}),
    (Ident, (), {}),
    (Scaled, (Fraction(2), COORD), {"c": Fraction(3)}),
    (OpSum, ((COORD, DERIV),), {"terms": (DERIV, COORD)}),
    (OpProd, ((COORD, DERIV),), {"factors": (DERIV, COORD)}),
    (IntPow, (COORD, 2), {"n": 3}),
    (DiagFn, ("g", Fraction, True, identity_map()), {"owner": None}),
    (ExpOp, (DERIV,), {"arg": COORD}),
    (HahnParams, (0, 0, 5), {"c1": 2}),
    (Token, ("name", "x", 1, 1), {"col": 2}),
    (Check, ("c", True), {"ok": False}),
]


class TestValueContract:
    @pytest.mark.parametrize("kind, args, change", VALUES, ids=[v[0].__name__ for v in VALUES])
    def test_frozen_and_compared_by_fields(self, kind, args, change):
        a, b = kind(*args), kind(*args)
        assert a is not b and a == b and hash(a) == hash(b)
        for name in kind.__slots__ + ("extra",):
            with pytest.raises(AttributeError):
                setattr(a, name, None)
            with pytest.raises(AttributeError):
                delattr(a, name)
        assert a == b and a.replace() == a
        if change:
            assert a.replace(**change) != a

    def test_constructors_still_check_their_fields(self):
        with pytest.raises(ValueError, match="natural exponents"):
            IntPow(COORD, -1)
        with pytest.raises(ValueError, match="natural exponents"):
            IntPow(COORD, 2).replace(n=-1)
        for n in (1.5, Fraction(2), "2"):
            with pytest.raises(ValueError, match="natural exponents"):
                IntPow(COORD, n)
        with pytest.raises(ValueError, match="delta must be nonzero"):
            HahnParams(0, 0, 5, delta=0)
        with pytest.raises(TypeError):
            COORD.replace(extra=1)
        assert FallingFactorial("1/2") == FallingFactorial(Fraction(1, 2))
        assert HahnParams("1/2", 0, 5).alpha == Fraction(1, 2)

    def test_diaginv_keeps_the_owner(self):
        m = identity_map()
        inv = DiagInv(DiagFn("g", lambda n: Fraction(n + 1), owner=m))
        assert inv.inverse and inv.owner is m and inv.name == "g"

    def test_repr(self):
        assert repr(op_prod(COORD, DERIV)) == "<OpProd x*d>"
        assert repr(FallingFactorial(2)) == "FallingFactorial(delta=Fraction(2, 1))"
        assert repr(Monomial()) == "Monomial()"


class TestLinOp:
    def test_subtract(self):
        lin, diag = realize(A_DIAG, 3), LinOp.from_diagonal(3, [0, 1, 2, 3])
        assert lin == diag
        assert all((a - b).is_zero for a, b in zip(lin.columns, diag.columns))
        assert lin != LinOp.from_diagonal(3, [0, 1, 2, 4])

    def test_column_past_the_space_is_rejected(self):
        with pytest.raises(ValueError) as err:
            LinOp(2, [Poly.monomial(3)] * 3)
        assert str(err.value) == "column outside the degree-2 monomial space"


class TestCommutators:
    def test_heisenberg(self):
        assert commutator(DERIV, COORD, 12).is_identity()

    def test_degree_shifts_coordinate(self):
        # [A, x] = x: A x^(n+1) - x n x^n = x^(n+1)
        lin = commutator(A_DIAG, COORD, 8)
        expect = realize_exact(COORD, 8)
        assert lin == expect

    def test_jackson_pair(self):
        for q in Q_GRID:
            ctx = ctx_for(q)
            dq = op_prod(DiagInv(dbracket_diag(ctx, 1)), DERIV)
            xq = op_prod(COORD, dbracket_diag(ctx, 1))
            assert commutator(dq, xq, 16).is_identity()

    def test_q_commutator_jackson(self):
        for q in Q_GRID:
            ctx = ctx_for(q)
            dq = op_prod(DiagInv(dbracket_diag(ctx, 1)), DERIV)
            assert q_commutator(dq, COORD, q, 16).is_identity()

    def test_q_commutator_at_one_is_commutator(self):
        assert q_commutator(DERIV, COORD, 1, 8) == commutator(DERIV, COORD, 8)

    def test_conjugate_pair_relation(self):
        # d (x [[B]]^-1) - q (x [[B]]^-1) d = 1
        for q in Q_GRID:
            ctx = ctx_for(q)
            conj = op_prod(COORD, DiagInv(dbracket_diag(ctx, 1)))
            assert q_commutator(DERIV, conj, q, 12).is_identity()

    def test_empty_window(self):
        # [d, x^3] = 3x^2 has band +2: at D=1 every column overflows
        with pytest.raises(EmptyWindowError):
            commutator(DERIV, IntPow(COORD, 3), 1)

    def test_unbounded_degree_growth_is_refused(self):
        # exp(x) raises the degree without bound, so no working degree exists
        for realized in (lambda: realize_exact(ExpOp(COORD), 3), lambda: commutator(ExpOp(COORD), DERIV, 3)):
            with pytest.raises(NonterminatingExponentialError) as err:
                realized()
            assert str(err.value) == "cannot bound the degree growth of this operator"


def reference_q_commutator(e1, e2, w, D):
    """Columns of e1 e2 - w e2 e1 from the two products applied factor by
    factor at one working degree, None above D; None in place of the
    columns when no degree survives."""
    Dw = working_degree(D, op_prod(e1, e2), op_prod(e2, e1))
    cols = []
    for n in range(D + 1):
        xn = Poly.monomial(n)
        ab = apply(e1, apply(e2, xn, Dw), Dw)
        ba = apply(e2, apply(e1, xn, Dw), Dw)
        diff = ab - ba.scale(w)
        cols.append(diff if diff.degree <= D else None)
    return None if all(c is None for c in cols) else cols


_HALF = ctx_for(Fraction(1, 2))
commutator_words = st.lists(
    st.sampled_from(
        [
            COORD,
            DERIV,
            B_DIAG,
            DiagInv(qnum_diag(_HALF, 1)),
            ExpOp(scaled(Fraction(1, 2), DERIV)),
            ExpOp(scaled(-1, DERIV)),
        ]
    ),
    min_size=1,
    max_size=4,
).map(lambda fs: op_prod(*fs))


class TestCommutatorOracle:
    @given(
        e1=commutator_words,
        e2=commutator_words,
        w=st.sampled_from([Fraction(1), Fraction(1, 2), Fraction(-9, 10)]),
        D=st.integers(min_value=0, max_value=7),
    )
    @settings(max_examples=80)
    def test_columns_match_the_factorwise_products(self, e1, e2, w, D):
        expect = reference_q_commutator(e1, e2, w, D)
        if expect is None:
            with pytest.raises(EmptyWindowError):
                q_commutator(e1, e2, w, D)
        else:
            assert list(q_commutator(e1, e2, w, D).columns) == expect


words = st.lists(
    st.sampled_from([COORD, DERIV]), min_size=1, max_size=5
).map(lambda fs: op_prod(*fs) if len(fs) > 1 else fs[0])


class TestStar:
    def test_generators(self):
        assert star(DERIV) == COORD
        assert star(COORD) == DERIV

    def test_degree_word_is_fixed(self):
        e = op_prod(COORD, DERIV)
        assert realize_exact(star(e), 8) == realize_exact(e, 8)

    @given(w=words)
    @settings(max_examples=40)
    def test_involution(self, w):
        assert star(star(w)) == w

    @given(w1=words, w2=words)
    @settings(max_examples=40)
    def test_antihomomorphism(self, w1, w2):
        D = 12
        lhs = star(op_prod(w1, w2))
        rhs = op_prod(star(w2), star(w1))
        assert realize_exact(lhs, D) == realize_exact(rhs, D)

    def test_scalars_untouched(self):
        e = scaled(Fraction(-2, 3), op_prod(COORD, COORD, DERIV))
        s = star(e)
        assert s.c == Fraction(-2, 3)

    def test_exponential_of_word(self):
        assert star(ExpOp(scaled(-2, DERIV))) == ExpOp(scaled(-2, COORD))

    def test_diag_unsupported(self):
        # the message shows the node's canonical text, never a memory address
        with pytest.raises(UnsupportedStarError, match=r"^star is undefined on <DiagFn A>$"):
            star(A_DIAG)


class TestBounds:
    def test_degree_raise_bound(self):
        assert COORD.bounds[0] == 1
        assert DERIV.bounds[0] == -1
        assert op_prod(COORD, COORD, DERIV).bounds[0] == 1
        assert IntPow(COORD, 3).bounds[0] == 3
        assert ExpOp(DERIV).bounds[0] == 0
        assert ExpOp(COORD).bounds[0] == math.inf

    def test_peak_raise(self):
        assert op_prod(DERIV, IntPow(COORD, 2)).bounds[1] == 2
        assert op_prod(IntPow(COORD, 2), DERIV).bounds[1] == 1
        assert ExpOp(scaled(-1, DERIV)).bounds[1] == 0


def ref_basis_apply(vals, basis, inverse, p):
    """The elimination the dual rows replace: read the component along
    basis[n] at the remainder's top degree n, remove it, repeat; then weight
    each component by vals[n] (divide when inverse). Plain Fractions."""
    rem = list(p.coeffs)
    out = [Fraction(0)] * len(rem)
    while True:
        while rem and rem[-1] == 0:
            rem.pop()
        if not rem:
            return Poly(out)
        n = len(rem) - 1
        bn = basis[n].coeffs
        c = rem[n] / bn[n]
        w = c / vals[n] if inverse else c * vals[n]
        for i, b in enumerate(bn):
            rem[i] -= c * b
            out[i] += w * b


nonzero_rationals = small_rationals.filter(bool)


@st.composite
def owned_cases(draw, maps):
    """(map, eigenvalues, p): phi_delta or one of its composites with phi_q,
    whose adapted bases are not monomial; nonzero eigenvalues; p of degree
    at most N, the zero polynomial included."""
    kind = draw(st.sampled_from(["phi_delta", "phi_q_delta", "phi_delta_q"]))
    m = maps.make_map(kind, q=draw(st.sampled_from(Q_GRID)), delta=draw(nonzero_rationals))
    N = draw(st.integers(0, 6))
    vals = draw(st.lists(nonzero_rationals, min_size=N + 1, max_size=N + 1))
    return m, vals, Poly(draw(st.lists(small_rationals, max_size=N + 1)))


def shifted_map():
    """The CCR pair (d, x - 1), whose adapted basis is (x - 1)^n."""
    from qdeform.maps import DeformMap

    return DeformMap("shifted", DERIV, op_sum(COORD, scaled(-1, IDENT)))


class TestBasisDiag:
    @given(data=st.data(), inverse=st.booleans())
    @settings(max_examples=30, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_matches_top_down_elimination(self, fresh_memo, data, inverse):
        m, vals, p = data.draw(owned_cases(fresh_memo))
        bd = DiagFn("g", vals.__getitem__, inverse=inverse, owner=m)
        basis = [m.basis_element(n) for n in range(len(vals))]
        assert apply(bd, p, len(vals) - 1) == ref_basis_apply(vals, basis, inverse, p)

    def test_zero_polynomial(self, fresh_memo):
        m = fresh_memo.phi_delta(Fraction(1, 3))
        for inverse in (False, True):
            bd = DiagFn("g", lambda n: Fraction(0), inverse=inverse, owner=m)
            assert apply(bd, Poly.zero(), 2) == Poly.zero()

    def test_rows_are_kept_on_the_owner(self, fresh_memo):
        m = fresh_memo.phi_delta(Fraction(1, 3))
        vals = [Fraction(n + 1, 2) for n in range(10)]
        bd = DiagFn("g", vals.__getitem__, owner=m)
        basis = [m.basis_element(n) for n in range(10)]
        p = Poly([Fraction(k - 4, k + 1) for k in range(8)])
        assert apply(bd, p, 9) == ref_basis_apply(vals, basis, False, p)
        rows = list(m._dual_rows)
        assert len(rows) == 8
        assert apply(bd, p.truncated(5), 9) == ref_basis_apply(vals, basis, False, p.truncated(5))
        assert m._dual_rows == rows  # read, not rebuilt
        q = Poly([1, 0, 0, 0, 0, 0, 0, 0, 0, Fraction(2, 3)])
        assert apply(DiagInv(bd), q, 9) == ref_basis_apply(vals, basis, True, q)
        assert len(m._dual_rows) == 10 and m._dual_rows[:8] == rows

    def test_perturbed_dual_row_is_caught(self, fresh_memo):
        m = fresh_memo.phi_delta(Fraction(1, 3))
        vals = [Fraction(n + 1) for n in range(4)]
        bd = DiagFn("g", vals.__getitem__, owner=m)
        basis = [m.basis_element(n) for n in range(4)]
        p = Poly([1, -2, 3, Fraction(1, 2)])
        expected = ref_basis_apply(vals, basis, False, p)
        assert apply(bd, p, 3) == expected
        m._dual_rows[2] = m._dual_rows[2] + Poly.monomial(1, Fraction(1, 5))
        assert apply(bd, p, 3) != expected

    def test_concurrent_applications_share_one_set_of_rows(self, fresh_memo):
        import sys
        import threading

        m = fresh_memo.phi_delta(Fraction(2, 7))
        vals = [Fraction(n + 3, n + 1) for n in range(14)]
        bd = DiagFn("g", vals.__getitem__, owner=m)
        basis = [m.basis_element(n) for n in range(14)]
        polys = [Poly([Fraction(k + i, 2 * k + 1) for k in range(i + 1)]) for i in range(14)]
        expected = [ref_basis_apply(vals, basis, False, p) for p in polys]
        barrier = threading.Barrier(4)
        results, errors = [None] * 4, []

        def worker(i):
            try:
                barrier.wait(timeout=30)
                order = list(range(14))[:: -1 if i % 2 else 1]
                results[i] = {n: apply(bd, polys[n], 13) for n in order}
            except Exception as exc:  # pragma: no cover - diagnostic only
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and not errors
        assert all([r[n] for n in range(14)] == expected for r in results)
        # the rows one thread builds on an unshared copy of the map
        alone = fresh_memo.DeformMap("copy", m.image_a, m.image_b)
        alone.components(Poly.monomial(13))
        assert m._dual_rows == alone._dual_rows

    def test_singular_inverse_names_the_lowest_zero(self, fresh_memo):
        # weights are taken from the lowest component up
        m = fresh_memo.phi_delta(Fraction(1, 2))
        basis = [m.basis_element(n) for n in range(6)]
        g = DiagFn("g", lambda n: Fraction(n % 2), owner=m)
        with pytest.raises(SingularOperatorError) as err:
            apply(DiagInv(g), basis[4] + basis[2].scale(3), 5)
        assert str(err.value) == "inv(g) hit eigenvalue 0 at occupied degree 2"
        # zero eigenvalues at unoccupied degrees are harmless
        p = basis[3] + basis[1].scale(3)
        assert apply(DiagInv(g), p, 5) == p

    def test_monomial_basis_reduces_to_diagfn(self, fresh_memo):
        bd = DiagFn("n+1", lambda n: Fraction(n + 1), owner=fresh_memo.identity_map())
        assert realize_exact(bd, 6) == realize_exact(B_DIAG, 6)

    def test_nontrivial_basis(self):
        # basis (x - 1)^n: components found by triangular elimination
        m = shifted_map()
        basis = [Poly.one()]
        for n in range(1, 8):
            basis.append(basis[-1] * Poly([-1, 1]))
        assert [m.basis_element(n) for n in range(8)] == basis
        bd = DiagFn("shifted", lambda n: Fraction(2) ** n, owner=m)
        p = basis[3] + basis[1].scale(5)
        out = apply(bd, p, 8)
        assert out == basis[3].scale(8) + basis[1].scale(10)

    def test_inverse(self):
        m = shifted_map()
        bd = DiagFn("g", lambda n: Fraction(n + 1), owner=m)
        p = m.basis_element(2).scale(3)
        assert apply(DiagInv(bd), p, 4) == m.basis_element(2)


class TestRealizationMemo:
    """realize_exact builds one immutable LinOp per call."""

    def test_shared_linop_is_read_only(self, fresh_memo):
        lin = realize_exact(op_prod(DERIV, COORD), 4)
        with pytest.raises(AttributeError):
            lin.D = 3
        with pytest.raises(AttributeError):
            lin.columns = ()
        with pytest.raises(AttributeError):
            del lin.columns
        again = realize_exact(op_prod(DERIV, COORD), 4)
        assert again.D == 4 and again is not lin
        assert again == lin and hash(again) == hash(lin)
        with pytest.raises(ValueError, match="expected 5 columns, got 4"):
            LinOp(4, lin.columns[:4])

    def test_maps_with_different_f_never_share(self, fresh_memo):
        square = fresh_memo.fb_map("f", lambda n: Fraction(n * n))
        cube = fresh_memo.fb_map("f", lambda n: Fraction(n**3))
        assert realize_exact(square.image_b, 6) != realize_exact(cube.image_b, 6)
        # the same f twice still gives fresh maps, whose realizations agree
        f = lambda n: Fraction(n + 2)
        a, b = fresh_memo.fb_map("f", f), fresh_memo.fb_map("f", f)
        ra, rb = realize_exact(a.image_b, 6), realize_exact(b.image_b, 6)
        assert ra == rb and ra is not rb

    def test_concurrent_calls_agree(self, fresh_memo):
        import sys
        import threading

        ctx = ctx_for(Fraction(7, 13))
        qb = dbracket_diag(ctx, 1)
        e = op_sum(op_prod(DiagInv(qb), DERIV, COORD, qb), scaled(-1, op_prod(COORD, qb, DERIV)))
        reference = realize_exact(e, 14)
        barrier = threading.Barrier(4)
        results, errors = [None] * 4, []

        def worker(i):
            try:
                barrier.wait(timeout=30)
                results[i] = realize_exact(e, 14)
            except Exception as exc:  # pragma: no cover - diagnostic only
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and not errors
        assert all(r == reference for r in results)


class TestPseudodifferentialForm:
    def test_qnumber_diag_equals_qpow_combination(self):
        # {A} = (1 - q^A)/(1 - q), the two spectral routes agree
        for q in Q_GRID:
            ctx = ctx_for(q)
            lhs = qnum_diag(ctx)
            qpow = DiagFn("q^A", lambda n: q**n)
            rhs = scaled(1 / (1 - q), op_sum(IDENT, scaled(-1, qpow)))
            assert realize_exact(lhs, 16) == realize_exact(rhs, 16)
