import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdeform.dsl import MAX_NESTING, _Parser, _read_literal, _tokenize, parse, parse_poly, pretty
from qdeform.errors import DslError, MathError, ParseError, SemanticError
from qdeform.maps import dq_expr, s_expr, xq_expr
from qdeform.opcore import (
    A_DIAG,
    B_DIAG,
    COORD,
    DERIV,
    ExpOp,
    IntPow,
    LinOp,
    apply,
    op_prod,
    op_sum,
    realize_exact,
    scaled,
)
from qdeform.poly import Poly
from qdeform.qnum import QContext

Q = Fraction(1, 2)
DELTA = Fraction(1)


def ctx_for(q=Q):
    return QContext(q)


class TestDocumentedIdentities:
    def test_q_heisenberg_relation(self):
        e = parse("Dq*x - 1/2*x*Dq", q=Q)
        assert realize_exact(e, 12).is_identity()

    def test_jackson_derivative_definition(self):
        e = parse("inv(qb(B))*d", q=Q)
        assert realize_exact(e, 12) == realize_exact(dq_expr(ctx_for()), 12)

    def test_degree_operator(self):
        lin = realize_exact(parse("x*d"), 8)
        assert lin == LinOp.from_diagonal(8, range(9))
        assert lin.diagonal() == tuple(Fraction(n) for n in range(9))


class TestAtoms:
    def test_generators(self):
        assert parse("x") == COORD
        assert parse("d") == DERIV
        assert parse("A") == A_DIAG
        assert parse("B") == B_DIAG

    def test_jackson_atoms(self):
        ctx = ctx_for()
        assert realize_exact(parse("Dq", q=Q), 10) == realize_exact(dq_expr(ctx), 10)
        assert realize_exact(parse("xq", q=Q), 10) == realize_exact(xq_expr(ctx), 10)
        assert realize_exact(parse("S", q=Q), 10) == realize_exact(s_expr(ctx), 10)

    def test_averaging_atom(self):
        out = apply(parse("Mq", q=Q), Poly.monomial(2), 6)
        assert out == Poly.monomial(2, Fraction(4, 7))  # 1/{3} at q = 1/2

    def test_similarity_atom(self):
        out = apply(parse("U", q=Q), Poly.monomial(2), 6)
        assert out == Poly.monomial(2, Fraction(3, 4))

    def test_shift_atoms(self):
        e = parse("Ddelta", delta=DELTA)
        assert apply(e, Poly.monomial(2), 6) == Poly([1, 2])  # (x+1)^2 - x^2
        e = parse("xdelta", delta=DELTA)
        assert apply(e, Poly.x(), 6) == Poly.x() * Poly([-1, 1])

    def test_rational_literals(self):
        assert apply(parse("3/2"), Poly.one(), 4) == Poly([Fraction(3, 2)])
        assert apply(parse("7"), Poly.x(), 4) == Poly.monomial(1, 7)


class TestPrecedence:
    def test_power_binds_tighter_than_product(self):
        p = Poly.monomial(3)
        assert apply(parse("x*d^2"), p, 8) == Poly.monomial(2, 6)
        assert apply(parse("(x*d)^2"), p, 8) == Poly.monomial(3, 9)

    def test_product_binds_tighter_than_sum(self):
        p = Poly.monomial(2)
        lhs = apply(parse("x+d*x"), p, 8)
        rhs = apply(parse("(x+d)*x"), p, 8)
        assert lhs == Poly([0, 0, 3, 1])
        assert rhs == Poly([0, 0, 3, 0, 1])

    def test_unary_minus(self):
        assert realize_exact(parse("-x^2"), 6) == realize_exact(scaled(-1, IntPow(COORD, 2)), 6)
        assert realize_exact(parse("(-x)^2"), 6) == realize_exact(IntPow(COORD, 2), 6)

    def test_subtraction_left_associative(self):
        assert realize_exact(parse("x-d-x"), 6) == realize_exact(scaled(-1, DERIV), 6)

    def test_product_order_is_kept(self):
        # noncommutative: d*x - x*d = 1
        assert realize_exact(parse("d*x-x*d"), 8).is_identity()


class TestPolyLiterals:
    def test_basic(self):
        assert parse("poly(x^3)") == Poly.monomial(3)
        assert parse("poly(1)") == Poly.one()
        assert parse("poly(x^3-3*x^2+3*x-1)") == Poly([-1, 3, -3, 1])

    def test_rational_coefficients(self):
        assert parse("poly(1/2*x + 1/3)") == Poly([Fraction(1, 3), Fraction(1, 2)])

    def test_products_expand(self):
        assert parse("poly((x+1)*(x-1))") == Poly([-1, 0, 1])

    def test_round_trip(self):
        p = Poly([Fraction(1, 2), 0, -3])
        assert parse(pretty(p)) == p

    def test_operator_atoms_rejected(self):
        with pytest.raises(SemanticError):
            parse("poly(d)")

    def test_not_nested(self):
        with pytest.raises(ParseError):
            parse("x + poly(x)")


def parsed_literal(text):
    """What the full parser makes of text as a polynomial literal: the Poly,
    or (type, message) of its error."""
    try:
        return _Parser(text, None, None).parse_input(True)
    except Exception as exc:
        return type(exc), str(exc)


# polynomials in the workloads' coefficient range: numerators up to 9 in
# size over denominators up to 6, degree up to 12
_workload_polys = st.lists(
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)), min_size=0, max_size=13
).map(Poly)
_literal_text = st.lists(
    st.sampled_from(list("0123456789x*^/+-() ") + ["poly", "poly(", "x^", "*x^", "1/"]),
    max_size=16,
).map("".join)


class TestLiteralReader:
    """parse_poly reads the canonical literal directly; the reader agrees
    with the parser wherever it accepts, and declines everything else."""

    @given(p=_workload_polys, wrapped=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_reads_printed_polynomials_as_the_parser_does(self, p, wrapped):
        text = ("poly(%s)" if wrapped else "%s") % p.to_text()
        assert _read_literal(text) == parsed_literal(text) == p

    @given(text=_literal_text)
    @settings(max_examples=500, deadline=None)
    def test_never_accepts_what_the_parser_would_not_return(self, text):
        read = _read_literal(text)
        assert read is None or read == parsed_literal(text)

    @pytest.mark.parametrize("text, poly", [
        ("x^2-1", Poly([-1, 0, 1])),
        ("poly(-1/2*x^3+x)", Poly([0, 1, 0, Fraction(-1, 2)])),
        ("x+x-3*x^0", Poly([-3, 2])),
        ("0*x^9+0", Poly.zero()),
        ("2/4*x^0007", Poly.monomial(7, Fraction(1, 2))),
        ("x^9999", Poly.monomial(9999)),
    ])
    def test_accepted(self, text, poly):
        assert _read_literal(text) == poly == parsed_literal(text)

    @pytest.mark.parametrize("text", [
        " x", "x ", "x + 1", "poly( x)", "+x", "--x", "-+x", "x*x", "x^2*3", "2x", "x2",
        "1/0", "x^0/2", "x^12345", "2*x^", "1/", "x^-1", "poly()", "poly(x))", "poly(x)+1",
        "(x)", "", "1//2", "\u0663",
    ])
    def test_declined(self, text):
        assert _read_literal(text) is None

    def test_parameter_errors_are_the_parsers(self):
        with pytest.raises(TypeError, match="expected an exact rational, got 0.5"):
            parse_poly("x", q=0.5)
        with pytest.raises(TypeError, match="expected an exact rational, got 0.5"):
            parse_poly("x x", q=0.5)


class TestErrors:
    @pytest.mark.parametrize(
        "text",
        ["x +", "(x", "x)", "qb(x)", "inv(x)", "qn(d)", "^2", "x^d", "1/0", "%", "x**d"],
    )
    def test_malformed_inputs_raise_located_errors(self, text):
        with pytest.raises(DslError) as err:
            parse(text, q=Q, delta=DELTA)
        assert re.match(r"^\d+:\d+: ", str(err.value))

    def test_unknown_identifier(self):
        with pytest.raises(ParseError) as err:
            parse("foo + x")
        assert "foo" in str(err.value)

    def test_unbound_parameters(self):
        with pytest.raises(SemanticError):
            parse("Dq")
        with pytest.raises(SemanticError):
            parse("Ddelta", q=Q)

    def test_position_tracks_lines(self):
        with pytest.raises(ParseError) as err:
            parse("x*\n%")
        assert str(err.value).startswith("2:1:")

    @pytest.mark.parametrize(
        "text, where, ch",
        [("x^²", "1:3", "²"), ("2²*x", "1:2", "²"), ("x^٣", "1:3", "٣"),
         ("xé", "1:2", "é"), ("x +\u00a0d", "1:4", "\u00a0"), ("d*\nµ", "2:1", "µ")],
    )
    def test_non_ascii_is_a_located_parse_error(self, text, where, ch):
        # digits, letters and blanks outside ASCII are not the grammar's,
        # also inside a number or name run
        with pytest.raises(ParseError) as err:
            parse(text, q=Q)
        assert str(err.value) == "%s: unexpected character %r" % (where, ch)

    def test_non_ascii_exits_2_from_the_cli(self, capsys):
        from qdeform.cli import main

        assert main(["apply", "x^²", "x"]) == 2
        assert capsys.readouterr() == ("", "error: 1:3: unexpected character '²'\n")

    def test_non_integer_spectrum_surfaces_at_use(self):
        e = parse("qb(inv(B))", q=Q)  # spectrum 1/(n+1) is not integral
        with pytest.raises(MathError):
            apply(e, Poly.x(), 4)


# --- generator-based round trip ---------------------------------------------

_diag_leaf = st.sampled_from(["A", "B", "2", "0"])
_diag_exprs = st.recursive(
    _diag_leaf, lambda c: st.tuples(c, c).map(lambda ab: "(%s+%s)" % ab), max_leaves=3
)
_safe_inv = st.sampled_from(["B", "qb(B)", "qn(B)", "qb(A)", "U"])
_lowering = st.sampled_from(["d", "Dq", "Ddelta"])
_scalar = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(
    lambda f: f != 0
)

_leaves = (
    st.sampled_from(["x", "d", "A", "B", "Dq", "xq", "S", "Mq", "U", "Ddelta", "xdelta"])
    | _scalar.map(str)
    | _diag_exprs.map(lambda d: "qn(%s)" % d)
    | _diag_exprs.map(lambda d: "qb(%s)" % d)
    | _safe_inv.map(lambda d: "inv(%s)" % d)
    | st.tuples(_scalar, _lowering).map(lambda p: "exp(%s*%s)" % p)
)


def _combine(children):
    return (
        st.tuples(children, children).map(lambda ab: "(%s+%s)" % ab)
        | st.tuples(children, children).map(lambda ab: "(%s-%s)" % ab)
        | st.tuples(children, children).map(lambda ab: "%s*%s" % ab)
        | st.tuples(children, st.integers(0, 2)).map(lambda p: "(%s)^%d" % p)
        | children.map(lambda a: "-%s" % a)
    )


ast_texts = st.recursive(_leaves, _combine, max_leaves=6)


class TestRoundTrip:
    @given(text=ast_texts)
    @settings(max_examples=100, deadline=None)
    def test_parse_pretty_parse(self, text):
        e = parse(text, q=Q, delta=DELTA)
        out = pretty(e)
        e2 = parse(out, q=Q, delta=DELTA)
        assert realize_exact(e, 6) == realize_exact(e2, 6)
        assert pretty(e2) == out

    def test_structural_examples(self):
        for text in ("x^2*d", "x*d", "A+B*qn(A)", "inv(qb(B))*d", "exp(-d)"):
            e = parse(text, q=Q)
            assert pretty(parse(pretty(e), q=Q)) == pretty(e)

    def test_diagfn_prints_by_name(self):
        assert pretty(parse("qn(A)", q=Q)) == "qn(A)"
        assert pretty(parse("qb(B)", q=Q)) == "qb(B)"


# The exact text pretty() gives, pinned case by case: round trips only show
# that printing is idempotent, and no CLI golden prints these shapes.
_XD = op_prod(COORD, DERIV)
_XPD = op_sum(COORD, DERIV)
PRINTED = [
    (parse("x"), "x"),
    (parse("d"), "d"),
    (parse("1"), "1"),
    (parse("A"), "A"),
    (parse("B"), "B"),
    (parse("U", q=Q), "U"),
    (parse("qn(A)", q=Q), "qn(A)"),
    (parse("qb(B)", q=Q), "qb(B)"),
    (scaled(-1, COORD), "-x"),
    (scaled(-1, _XD), "-(x*d)"),
    (scaled(-1, _XPD), "-(x+d)"),
    (scaled(-2, COORD), "-2*x"),
    (scaled(Fraction(-3, 2), _XD), "-3/2*(x*d)"),
    (scaled(-2, _XPD), "-2*(x+d)"),
    (scaled(2, _XD), "2*(x*d)"),
    (op_sum(COORD, scaled(-1, DERIV), scaled(-3, A_DIAG)), "x-d-3*A"),
    (IntPow(_XPD, 2), "(x+d)^2"),
    (IntPow(_XD, 3), "(x*d)^3"),
    (IntPow(scaled(2, COORD), 2), "(2*x)^2"),
    (IntPow(scaled(-1, COORD), 2), "(-x)^2"),
    (IntPow(A_DIAG, 2), "A^2"),
    (IntPow(IntPow(COORD, 2), 3), "x^2^3"),
    (op_prod(COORD, _XPD, DERIV), "x*(x+d)*d"),
    (op_prod(scaled(2, COORD), DERIV), "2*x*d"),
    (op_prod(COORD, scaled(-1, DERIV)), "x*(-d)"),
    (ExpOp(scaled(Fraction(1, 2), op_prod(COORD, ExpOp(scaled(-1, DERIV))))), "exp(1/2*(x*exp(-d)))"),
    (parse("inv(A)"), "inv(A)"),
    (parse("inv(A+B)"), "inv(A+B)"),
    (parse("3/4"), "3/4"),
    (parse("-3/4"), "-3/4"),
]


class TestPrintedText:
    @pytest.mark.parametrize("e, text", PRINTED, ids=[t for _, t in PRINTED])
    def test_exact_text(self, e, text):
        assert pretty(e) == text


class TestFuzz:
    CORPUS = [
        "", " ", "((((", "x x", "1//2", "poly()", "exp()", "qb()", "-", "*x",
        "x^-2", "x^(2)", "9" * 40, "x" + "*" * 10, "inv(inv(inv(B)))",
        "poly(poly(x))", "\x00", "Dq Dq", "exp(x", "x\n\n\n+", "qn(qn(A))",
    ]

    @pytest.mark.parametrize("text", CORPUS)
    def test_corpus_never_crashes(self, text):
        try:
            parse(text, q=Q, delta=DELTA)
        except DslError:
            pass

    @given(text=st.text(alphabet="xdABSU qbinvexpoly()+-*/^0123456789_\n", max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_generated_text_never_crashes(self, text):
        try:
            parse(text, q=Q, delta=DELTA)
        except DslError:
            pass


# The DSL's own characters, every ASCII whitespace character, and a few
# characters the scanner must reject.
_DSL_CHARS = "xdABSUMqbinvexpolyDelta_0123456789+-*^/()"
_ASCII_SPACE = "".join(c for c in map(chr, range(128)) if c.isspace())
_REJECTED = "é٣%\x00"


def _line_col(text, i):
    """The 1-based line:col of offset i in text."""
    return text.count("\n", 0, i) + 1, i - text.rfind("\n", 0, i)


class TestScanner:
    @given(text=st.text(alphabet=_DSL_CHARS + _ASCII_SPACE + _REJECTED, max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_tokens_point_at_their_text(self, text):
        bad = next((i for i, c in enumerate(text) if c in _REJECTED), None)
        if bad is not None:
            with pytest.raises(ParseError) as err:
                _tokenize(text)
            assert (err.value.line, err.value.col) == _line_col(text, bad)
            assert str(err.value).endswith("unexpected character %r" % text[bad])
            return
        offsets = {_line_col(text, i): i for i in range(len(text))}
        *tokens, end = _tokenize(text)
        covered = set()
        for tok in tokens:
            start = offsets[(tok.line, tok.col)]
            if tok.kind == "num":
                run = re.match(r"[0-9]+", text[start:]).group()
                assert int(run) == tok.value
            elif tok.kind == "name":
                run = re.match(r"[A-Za-z_][A-Za-z0-9_]*", text[start:]).group()
                assert tok.value == run
            else:
                run = tok.value
                assert tok.kind == run and text[start] == run
            assert covered.isdisjoint(range(start, start + len(run)))
            covered.update(range(start, start + len(run)))
        assert all(text[i] in _ASCII_SPACE for i in range(len(text)) if i not in covered)
        assert (end.kind, end.value) == ("end", None)
        assert (end.line, end.col) == _line_col(text, len(text))


# One shape per kind of nesting, each `levels` deep along one path.
_NESTED = {
    "groups": lambda n: "(" * n + "d" + ")" * n,
    "exp calls": lambda n: "exp(" * n + "d" + ")" * n,
    "inv calls": lambda n: "inv(" * n + "B" + ")" * n,
    "unclosed calls": lambda n: "exp(" * n,
    "unary minus": lambda n: "(" + "-" * (n - 1) + "x)",
    "powers": lambda n: "d" + "^1" * n,
    "powers of a group": lambda n: "(d" + "^1" * (n // 2) + ")" + "^1" * (n - 1 - n // 2),
    "powers of powers": lambda n: "exp(" + "d" + "^1" * (n - 2) + ")^1",
}


class TestNestingLimit:
    @pytest.mark.parametrize("shape", list(_NESTED))
    @pytest.mark.parametrize("levels", [MAX_NESTING + 1, 3000])
    def test_too_deep_is_a_located_parse_error(self, shape, levels):
        with pytest.raises(ParseError) as err:
            parse(_NESTED[shape](levels), q=Q)
        assert re.fullmatch(r"1:\d+: nesting deeper than 100 levels", str(err.value))

    @pytest.mark.parametrize("shape", [s for s in _NESTED if s != "unclosed calls"])
    def test_at_the_limit_parses_and_evaluates(self, shape):
        e = parse(_NESTED[shape](MAX_NESTING), q=Q)
        try:
            apply(e, Poly.x(), 4)
        except MathError:  # exp(exp(d)) does not terminate; a clean error is fine
            pass
        assert pretty(e)

    @pytest.mark.parametrize("shape", list(_NESTED))
    @pytest.mark.parametrize("levels", [MAX_NESTING, MAX_NESTING + 1, 3000])
    def test_cli_exit_codes(self, capsys, shape, levels):
        from qdeform.cli import main

        code = main(["apply", _NESTED[shape](levels), "x", "--q", "1/2"])
        out, err = capsys.readouterr()
        if levels > MAX_NESTING or shape == "unclosed calls":
            assert (code, out) == (2, "")
            assert err.startswith("error: 1:") and err.count("\n") == 1
        else:  # exit 3 is exp(exp(d)), which does not terminate
            assert (code, err.count("\n")) in ((0, 0), (3, 1))
