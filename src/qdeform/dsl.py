"""Surface syntax for operator expressions and polynomial literals.

Grammar (EBNF; ASCII only, whitespace insensitive):

    input    = "poly" "(" expr ")" | expr ;
    expr     = term { ("+" | "-") term } ;
    term     = factor { "*" factor } ;
    factor   = [ "-" ] power ;
    power    = primary { "^" natural } ;
    primary  = rational | name | call | "(" expr ")" ;
    call     = ("qb" | "qn" | "inv" | "exp") "(" expr ")" ;
    rational = natural [ "/" natural ] ;
    name     = "x" | "d" | "Dq" | "xq" | "Ddelta" | "xdelta"
             | "A" | "B" | "S" | "Mq" | "U" ;

"^" binds tighter than "*", which binds tighter than "+"/"-"; "*" is the
noncommutative operator product and is left-associative. ``qb``/``qn``/
``inv`` demand a diagonal argument, checked while parsing so errors carry
positions ("line:col: message"). ``poly(...)`` admits only x and rationals
and is only legal as the entire input; ``parse_poly`` reads such a literal
with or without the ``poly(...)`` around it. The canonical literal that
``Poly.to_text`` prints ("-1/2*x^3+x-3") is read straight into a ``Poly``
without tokens or an AST; any other text goes through the parser, with
the same results and errors.

``pretty`` prints an expression through its nodes' own canonical text
(see ``opcore.Op``), a form whose reparse acts identically on every
monomial; printing a parse is idempotent on the text.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .errors import ParseError, SemanticError, SingularOperatorError
from .maps import a_delta_expr, b_delta_expr, dq_expr, mq_expr, s_expr, xq_expr
from .opcore import (
    A_DIAG,
    B_DIAG,
    COORD,
    Coord,
    DERIV,
    DiagFn,
    DiagInv,
    ExpOp,
    IDENT,
    Ident,
    IntPow,
    OpExpr,
    apply,
    built_from,
    gamma_ratio_diag,
    op_prod,
    op_sum,
    scaled,
    working_degree,
)
from .poly import MONOMIAL, Poly
from .qnum import QContext, Record, rational

# Groups, calls and unary minus each open one level, and a "^" opens one below
# the deepest level its primary reached. No path may cross more levels, which
# keeps parsing and evaluation clear of Python's recursion limit.
MAX_NESTING = 100

_CALLS = ("qb", "qn", "inv", "exp")
_ATOMS = {"x": COORD, "d": DERIV, "A": A_DIAG, "B": B_DIAG}
_Q_ATOMS = {"Mq": mq_expr, "Dq": dq_expr, "xq": xq_expr, "S": s_expr, "U": gamma_ratio_diag}
_DELTA_ATOMS = {"Ddelta": a_delta_expr, "xdelta": b_delta_expr}


class Token(Record):
    """kind is "num", "name", "end" or one of + - * ^ / ( ), at line:col."""

    __slots__ = ("kind", "value", "line", "col")


def _describe(kind: str) -> str:
    if kind == "num":
        return "a number"
    if kind == "name":
        return "a name"
    if kind == "end":
        return "end of input"
    return "'%s'" % kind


# One alternative per token kind, tried in order; any other character is
# an error. Whitespace is ASCII only, as str.isspace() has it.
_TOKEN = re.compile(
    r"(?P<newline>\n)|(?P<space>[ \t\r\x0b\x0c\x1c-\x1f]+)|(?P<num>[0-9]+)"
    r"|(?P<name>[A-Za-z_]\w*)|(?P<op>[-+*^/()])|(?P<other>.)",
    re.ASCII | re.DOTALL,
)


def _tokenize(text: str):
    tokens = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(text):
        kind, value, col = m.lastgroup, m.group(), m.start() - line_start + 1
        if kind == "newline":
            line, line_start = line + 1, m.end()
        elif kind == "num":
            tokens.append(Token("num", int(value), line, col))
        elif kind == "name":
            tokens.append(Token("name", value, line, col))
        elif kind == "op":
            tokens.append(Token(value, value, line, col))
        elif kind == "other":
            raise ParseError("unexpected character %r" % value, line, col)
    tokens.append(Token("end", None, line, len(text) - line_start + 1))
    return tokens


def _bind(q, delta):
    """q as a QContext or rational and delta as a rational, each None when
    absent."""
    q = q if q is None or isinstance(q, QContext) else rational(q)
    return q, rational(delta) if delta is not None else None


class _Parser:
    def __init__(self, text: str, q, delta):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.deepest = 0  # deepest level reached in the current power's primary
        self._q, self._delta = _bind(q, delta)

    # -- token plumbing -------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(
                "expected %s, found %s" % (_describe(kind), _describe(tok.kind)),
                tok.line,
                tok.col,
            )
        return self.advance()

    def nest(self, tok: Token, depth: int) -> int:
        """The level tok opens below `depth`; past MAX_NESTING, a ParseError."""
        if depth >= MAX_NESTING:
            raise ParseError("nesting deeper than %d levels" % MAX_NESTING, tok.line, tok.col)
        self.deepest = max(self.deepest, depth + 1)
        return depth + 1

    # -- parameter plumbing ----------------------------------------------

    def ctx(self, tok: Token) -> QContext:
        if self._q is None:
            raise SemanticError(
                "%r requires the q parameter" % tok.value, tok.line, tok.col
            )
        if not isinstance(self._q, QContext):
            self._q = QContext(self._q)
        return self._q

    def delta(self, tok: Token) -> Fraction:
        if self._delta is None:
            raise SemanticError(
                "%r requires the delta parameter" % tok.value, tok.line, tok.col
            )
        return self._delta

    # -- grammar ----------------------------------------------------------

    def parse_input(self, literal: bool) -> OpExpr | Poly:
        """The entire input: an expression or a poly(...) literal, or when
        literal, a polynomial literal that may also be bare."""
        tok = self.peek()
        wrapped = tok.kind == "name" and tok.value == "poly"
        if wrapped:
            self.advance()
            self.expect("(")
        inner_tok = self.peek()
        e = self.parse_expr(0)
        if wrapped:
            self.expect(")")
        literal = literal or wrapped
        end = self.peek()
        if end.kind != "end":
            what = "trailing input after poly literal" if literal else "trailing input"
            raise ParseError(what, end.line, end.col)
        if not literal:
            return e
        if not built_from(e, lambda n: isinstance(n, (Coord, Ident))):
            raise SemanticError(
                "poly literals admit only x and rationals", inner_tok.line, inner_tok.col
            )
        return apply(e, Poly.one(), working_degree(0, e))

    def parse_expr(self, depth: int) -> OpExpr:
        terms = [self.parse_term(depth)]
        while self.peek().kind in ("+", "-"):
            op = self.advance()
            t = self.parse_term(depth)
            terms.append(t if op.kind == "+" else scaled(-1, t))
        return op_sum(*terms)

    def parse_term(self, depth: int) -> OpExpr:
        factors = [self.parse_factor(depth)]
        while self.peek().kind == "*":
            self.advance()
            factors.append(self.parse_factor(depth))
        return op_prod(*factors)

    def parse_factor(self, depth: int) -> OpExpr:
        if self.peek().kind == "-":
            return scaled(-1, self.parse_factor(self.nest(self.advance(), depth)))
        return self.parse_power(depth)

    def parse_power(self, depth: int) -> OpExpr:
        outer, self.deepest = self.deepest, depth
        base = self.parse_primary(depth)
        while self.peek().kind == "^":
            self.nest(self.advance(), self.deepest)
            exp = self.expect("num")
            base = IntPow(base, exp.value)
        self.deepest = max(outer, self.deepest)
        return base

    def parse_primary(self, depth: int) -> OpExpr:
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            value = Fraction(tok.value)
            if self.peek().kind == "/":
                self.advance()
                den = self.expect("num")
                if den.value == 0:
                    raise ParseError("zero denominator", den.line, den.col)
                value = Fraction(tok.value, den.value)
            return scaled(value, IDENT)
        if tok.kind == "(":
            self.advance()
            e = self.parse_expr(self.nest(tok, depth))
            self.expect(")")
            return e
        if tok.kind == "name":
            self.advance()
            if tok.value in _CALLS:
                self.expect("(")
                arg = self.parse_expr(self.nest(tok, depth))
                self.expect(")")
                return self._build_call(tok, arg)
            if tok.value == "poly":
                raise ParseError(
                    "poly(...) is only allowed as the entire input", tok.line, tok.col
                )
            return self._build_atom(tok)
        raise ParseError("expected an expression", tok.line, tok.col)

    # -- atom and call semantics -------------------------------------------

    def _build_atom(self, tok: Token) -> OpExpr:
        name = tok.value
        if name in _ATOMS:
            return _ATOMS[name]
        if name in _Q_ATOMS:
            return _Q_ATOMS[name](self.ctx(tok))
        if name in _DELTA_ATOMS:
            return _DELTA_ATOMS[name](self.delta(tok))
        raise ParseError("unknown identifier %r" % name, tok.line, tok.col)

    def _build_call(self, tok: Token, arg: OpExpr) -> OpExpr:
        name = tok.value
        if name == "exp":
            return ExpOp(arg)
        if not built_from(arg, lambda n: isinstance(n, (DiagFn, Ident))):
            raise SemanticError(
                "%s() requires a diagonal argument" % name, tok.line, tok.col
            )
        spec = _spectrum(arg)
        if name == "inv":
            plain = isinstance(arg, DiagFn) and not arg.inverse
            return DiagInv(arg if plain else DiagFn(pretty(arg), spec))
        ctx = self.ctx(tok)
        outer = ctx.qnumber if name == "qn" else ctx.dbracket
        label = "%s(%s)" % (name, pretty(arg))

        def fn(n):
            v = spec(n)
            if v.denominator != 1 or v < 0:
                raise SingularOperatorError(
                    "%s needs a nonnegative integer spectrum; got %s at degree %d"
                    % (label, v, n)
                )
            return outer(int(v))

        return DiagFn(label, fn)


def _spectrum(e: OpExpr):
    """Eigenvalue at degree n of a diagonal expression: the x^n coefficient
    of its action on x^n."""
    return lambda n: apply(e, Poly.monomial(n), n).coefficient(n)


def parse(text: str, *, q=None, delta=None):
    """Parse an operator expression or a poly(...) literal.

    q and delta bind the parameterized atoms. q is a rational or a prebuilt
    QContext; a rational becomes a QContext only when a q-atom or a qb/qn
    call appears. Raises ParseError/SemanticError with "line:col:"
    positions; never anything else on malformed text.
    """
    return _Parser(text, q, delta).parse_input(False)


def parse_poly(text: str, *, q=None, delta=None) -> Poly:
    """Parse a polynomial literal, bare ("x^2-1") or wrapped in poly(...);
    q, delta and the errors are as in parse, with positions in text as
    given. The canonical form (see _read_literal) is read directly, and
    any other text by the parser."""
    p = _read_literal(text)
    if p is None:
        return _Parser(text, q, delta).parse_input(True)
    _bind(q, delta)  # the parser's errors for malformed parameters
    return p


# A term of the canonical literal that Poly.to_text prints, signed: c, c*x,
# c*x^k, x or x^k, for c = n or n/m in ASCII digits and k of at most four.
_LITERAL_TERM = re.compile(
    r"([-+]?)(?:([0-9]+)(?:/([0-9]+))?(?:\*(x)(?:\^([0-9]{1,4}))?)?|(x)(?:\^([0-9]{1,4}))?)"
)


def _read_literal(text: str) -> Poly | None:
    """The polynomial of a canonical literal, with no whitespace, optionally
    wrapped in poly(...): a first term unsigned or with "-", later terms
    with "+" or "-", terms of one degree summed. None for any other text,
    which includes every text the parser rejects."""
    body = text[5:-1] if text.startswith("poly(") and text.endswith(")") else text
    if not body:
        return None
    terms, pos = [], 0
    while pos < len(body):
        m = _LITERAL_TERM.match(body, pos)
        if m is None:
            return None
        sign, num, den, cx, ck, x, xk = m.groups()
        if (sign == "+") if not pos else not sign:
            return None
        a = int(num) if num else 1
        b = int(den) if den else 1
        if not b:
            return None
        k = ck or xk
        degree = int(k) if k else 1 if cx or x else 0
        terms.append((degree, -a if sign == "-" else a, b))
        pos = m.end()
    den = math.lcm(*[b for _, _, b in terms])
    out = [0] * (max([k for k, _, _ in terms]) + 1)
    for k, a, b in terms:
        out[k] += a * (den // b)
    return Poly._make(out, den)


# ---------------------------------------------------------------------------
# Printer
# ---------------------------------------------------------------------------


def pretty(e: OpExpr | Poly) -> str:
    """Canonical text. Reparsing acts identically on all monomials; printing
    is idempotent. Diagonal nodes print their names, so display-only nodes
    (adapted-basis diagonals) yield text outside the grammar."""
    if isinstance(e, Poly):
        if e.basis != MONOMIAL:
            raise ValueError("falling-basis polynomials have no literal form")
        return "poly(%s)" % e.to_text()
    return e.text
