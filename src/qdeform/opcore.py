"""Operator expressions over the Heisenberg pair (x, d/dx) and their exact
action on truncated polynomial spaces.

An ``OpExpr`` is a small immutable AST: the two generators, sums, scalar
multiples, ordered products (leftmost factor acts last), integer powers,
terminating exponentials, and diagonal nodes. ``DiagFn`` is the one
diagonal node kind, a function g of the degree operator that scales the
n-th basis element by g(n), or divides by it when inverted. On monomials
it houses A = x d/dx, B = 1+A, {A}, [[B]] and the similarity diagonal;
in a map's adapted basis it is g of the deformed degree operator, which
is how such functions are evaluated spectrally. The
standard diagonals read g from a ``Table`` of (num, den) int pairs (a
QContext's tables, or the degrees themselves); any other callable is
adapted at its node. Either way g is evaluated at the occupied degrees of
the input only, and only through ``DiagFn.eigenpairs``, which gives the
factor of each such degree, already inverted for an inverse node.

Each node kind owns its action, degree bounds, children and canonical text
(see ``Op``); ``apply``, the bounds, ``substitute`` and ``dsl.pretty`` walk
the AST through them alone.

Evaluation is by action, not by symbolic rewriting: vacuum-ordering
semantics coincide with left action on polynomials, and action is exact and
terminating. ``apply`` works at an explicit truncation degree D and raises
on overflow, so identity checks are never silently corrupted. ``realize``
tabulates the action as a degree-banded matrix; ``realize_exact`` inflates
the working degree by the expression's peak degree-raise so boundary
columns come out exact, and commutators are realized through it. Both
tabulate an expression of x, d, scalars and Table diagonals by visiting
each node once for all columns, which computes the columns and the
overflow marks alone. If it meets any other error, they apply the
expression to each x^n in turn, as they do anything else, and that walk
raises the error at its column.

An exponential exp(h G d), G a monomial-basis diagonal after d, is applied
without its series: G d = U^-1 d U for the diagonal U with
u(n+1)/u(n) = g(n), the similarity rule that carries d to the Jackson
derivative, so exp(h G d) is the Taylor shift conjugated by U. When G is
inverted with a zero eigenvalue below the input's degree, or g cannot be
evaluated there, the series runs instead, and raises where it always has.

A diagonal in a map's adapted basis leaves the change of coordinates to
that map, its owner: it asks the owner for the components of its input,
weights them, and has the owner recombine them. Every node kind and
``LinOp`` is a ``qnum.Record``: assigning or deleting a field raises
AttributeError, equal fields compare and hash equal, and a node's repr is
its canonical text. Concurrent use is safe.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from fractions import Fraction

from .errors import (
    DegreeOverflowError,
    EmptyWindowError,
    MathError,
    NonterminatingExponentialError,
    SingularOperatorError,
    UnsupportedBasisOperationError,
    UnsupportedStarError,
)
from .poly import MONOMIAL, Poly
from .qnum import QContext, Record, rational, reciprocal

# How tightly a node's text binds, loosest first: "^" binds tighter than
# "*", which binds tighter than "+"/"-" (a leading minus binds loosest).
_SUM, _PROD, _POW, _ATOM = 0, 1, 2, 3


class Op(Record):
    """Base of the node kinds. Each kind defines act(p, D), the exact image
    of p on the degree-<=D space; bounds, (net, peak) as an upper bound on
    the total degree shift and the largest intermediate raise along the
    action path (math.inf for exponentials of raising operators); children,
    () for a leaf, with rebuild(children) giving the same kind over new
    ones; and text, its canonical DSL form, with binding, how tightly that
    text binds. Nodes are built by op_sum, op_prod, scaled and IntPow."""

    __slots__ = ()

    children = ()
    binding = _ATOM

    def text_at(self, level: int) -> str:
        """text, parenthesized when it binds looser than level."""
        return "(%s)" % self.text if self.binding < level else self.text

    def __repr__(self):
        return "<%s %s>" % (type(self).__name__, self.text)


class Coord(Op):
    """Multiplication by the coordinate: p(x) -> x p(x)."""

    __slots__ = ()
    bounds = (1, 1)
    text = "x"

    def act(self, p: Poly, D: int) -> Poly:
        if p.degree + 1 > D:
            raise DegreeOverflowError("x raises degree %d past truncation %d" % (p.degree, D))
        return p._times_x()


class Deriv(Op):
    """Differentiation: p(x) -> p'(x)."""

    __slots__ = ()
    bounds = (-1, 0)
    text = "d"

    def act(self, p: Poly, D: int) -> Poly:
        return p.derivative()


class Ident(Op):
    """The identity operator."""

    __slots__ = ()
    bounds = (0, 0)
    text = "1"

    def act(self, p: Poly, D: int) -> Poly:
        return p


class Scaled(Op):
    __slots__ = ("c", "op")

    children = property(lambda self: (self.op,))
    bounds = property(lambda self: self.op.bounds)

    def rebuild(self, children):
        return scaled(self.c, *children)

    def act(self, p: Poly, D: int) -> Poly:
        return self.op.act(p, D).scale(self.c)

    @property
    def binding(self):
        if self.c < 0:
            return _SUM
        return _ATOM if isinstance(self.op, Ident) else _PROD

    @property
    def text(self):
        if isinstance(self.op, Ident):
            return str(self.c)
        if self.c == -1:
            return "-" + self.op.text_at(_POW)
        return "%s*%s" % (self.c, self.op.text_at(_POW))


class OpSum(Op):
    __slots__ = ("terms",)

    binding = _SUM
    children = property(lambda self: self.terms)

    def rebuild(self, children):
        return op_sum(*children)

    def act(self, p: Poly, D: int) -> Poly:
        # a scaled term's coefficient goes straight into the combination
        return Poly._lincomb(
            (t.c, t.op.act(p, D)) if isinstance(t, Scaled) else (1, t.act(p, D))
            for t in self.terms
        )

    @property
    def bounds(self):
        folds = [t.bounds for t in self.terms]
        return max((n for n, _ in folds), default=0), max((p for _, p in folds), default=0)

    @property
    def text(self):
        texts = [t.text for t in self.terms]
        return "".join(texts[:1] + [t if t.startswith("-") else "+" + t for t in texts[1:]])


class OpProd(Op):
    """Ordered product; the leftmost factor acts last."""

    __slots__ = ("factors",)

    binding = _PROD
    children = property(lambda self: self.factors)

    def rebuild(self, children):
        return op_prod(*children)

    def act(self, p: Poly, D: int) -> Poly:
        for f in reversed(self.factors):
            p = f.act(p, D)
        return p

    @property
    def bounds(self):
        net = peak = 0
        for f in reversed(self.factors):
            n, p = f.bounds
            peak = max(peak, net + p)
            net += n
        return net, peak

    @property
    def text(self):
        return "*".join(f.text_at(_PROD) for f in self.factors)


class IntPow(Op):
    __slots__ = ("base", "n")

    binding = _POW
    children = property(lambda self: (self.base,))

    def __init__(self, base: OpExpr, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("operator powers take natural exponents")
        super().__init__(base, n)

    def rebuild(self, children):
        return IntPow(*children, self.n)

    def act(self, p: Poly, D: int) -> Poly:
        for _ in range(self.n):
            if p.is_zero:
                break
            p = self.base.act(p, D)
        return p

    @property
    def bounds(self):
        if not self.n:
            return 0, 0
        n, p = self.base.bounds
        return self.n * n, p + (self.n - 1) * max(n, 0)

    @property
    def text(self):
        return "%s^%d" % (self.base.text_at(_POW), self.n)


class DiagFn(Op):
    """g of a degree operator: the n-th basis element is scaled by fn(n),
    or divided by it when inverse; fn must be total on the occupied
    degrees, where alone it is evaluated. fn is a callable returning an int
    or Fraction, or a ``Table`` of int pairs. owner None means the
    monomials, x^n -> fn(n) x^n; otherwise owner is the DeformMap whose
    adapted basis |n> the node is diagonal in, which changes coordinates to
    that basis and back."""

    __slots__ = ("name", "fn", "inverse", "owner")

    bounds = (0, 0)

    def __init__(self, name: str, fn: Callable[[int], Fraction], inverse=False, owner=None):
        super().__init__(name, fn, inverse, owner)

    def act(self, p: Poly, D: int) -> Poly:
        owner = self.owner
        c = p if owner is None else owner.components(p)
        c = c._diag(self.eigenpairs(c._num))
        return c if owner is None else owner.combine(c)

    def eigenpairs(self, num):
        """The factor by which the node multiplies degree n, for each n <
        len(num): the (num, den) pair, den > 0, of fn(n), or of 1/fn(n) for
        an inverse. Only the entries at nonzero num[n] are evaluated, from
        the lowest up; the others are placeholders. A Table's undefined
        entry raises its ValueError first; then an inverse raises
        SingularOperatorError at the lowest such entry that is 0, and a
        callable is not called past it."""
        fn = self.fn
        if isinstance(fn, Table):
            vals = fn.pairs_at(num)
        else:
            vals = [(0, 1)] * len(num)
            for n, c in enumerate(num):
                if c:
                    g = fn(n)
                    vals[n] = (g.numerator, g.denominator)
                    if self.inverse and not g:
                        break  # the lowest zero, raised below
        if not self.inverse:
            return vals
        for n, c in enumerate(num):
            if c and not vals[n][0]:
                raise SingularOperatorError(
                    "inv(%s) hit eigenvalue 0 at occupied degree %d" % (self.name, n)
                )
        return reciprocal(vals)

    @property
    def text(self):
        return "inv(%s)" % self.name if self.inverse else self.name


class Table(Record):
    """The eigenvalues of a standard diagonal, g(n) = entry n + shift of a
    pair table: pairs(m) is a sequence of (num, den) pairs in lowest terms,
    den > 0, for the indexes 0..m at least (a QContext table, or the
    degrees themselves). Below index 0, g is the pair below, or undefined
    when below is None."""

    __slots__ = ("pairs", "shift", "below")

    def __init__(self, pairs: Callable[[int], tuple], shift: int = 0, below=None):
        super().__init__(pairs, shift, below)

    def pairs_at(self, num):
        """The pairs of g(n) for n < len(num), read without a per-entry call;
        an undefined entry raises ValueError where num[n] is nonzero and is
        a placeholder elsewhere."""
        s, size = self.shift, len(num)
        if s >= 0:
            return self.pairs(size - 1 + s)[s : s + size]
        low = min(-s, size)  # the degrees below index 0
        if self.below is None and any(num[:low]):
            raise ValueError("index %d is negative" % (next(n for n in range(low) if num[n]) + s))
        return [self.below or (0, 1)] * low + list(self.pairs(size - 1 + s)[: size - low])


def DiagInv(d: OpExpr) -> DiagFn:
    """Inverse of a diagonal node; singular if a zero eigenvalue is occupied."""
    if not isinstance(d, DiagFn) or d.inverse:
        raise ValueError("DiagInv requires a diagonal operand")
    return d.replace(inverse=True)


class ExpOp(Op):
    """Operator exponential. exp(h G d), G a monomial-basis diagonal with
    eigenvalues g (g = 1 for exp(h d)), is the Taylor shift p(x) -> p(x + h)
    conjugated by the diagonal U with u(n) = g(0) ... g(n-1); any other
    argument, or an inverted G with g(k) = 0 below the input's degree, is
    evaluated as a terminating power series."""

    __slots__ = ("arg",)

    children = property(lambda self: (self.arg,))

    def rebuild(self, children):
        return ExpOp(*children)

    def act(self, p: Poly, D: int) -> Poly:
        steps = _shift_steps(self.arg, p.degree)
        if steps is not None:
            return p._conjugated_shift(steps)
        acc = term = p
        k = 0
        while not term.is_zero:
            k += 1
            if k > D + 1:
                raise NonterminatingExponentialError(
                    "exp() series still nonzero after %d terms at truncation %d"
                    % (D + 1, D)
                )
            try:
                term = self.arg.act(term, D).scale(Fraction(1, k))
            except DegreeOverflowError as exc:
                raise NonterminatingExponentialError(
                    "exp() of a degree-raising operator; use a series constructor"
                ) from exc
            acc = acc + term
        return acc

    @property
    def bounds(self):
        n, p = self.arg.bounds
        return (math.inf, math.inf) if n > 0 else (0, max(0, p))

    @property
    def text(self):
        return "exp(%s)" % self.arg.text


OpExpr = Op

COORD = Coord()
DERIV = Deriv()
IDENT = Ident()


def scaled(c, e: OpExpr) -> OpExpr:
    c = rational(c)
    if isinstance(e, Scaled):
        c = c * e.c
        e = e.op
    if c == 1:
        return e
    return Scaled(c, e)


def _flat(kind, parts) -> OpExpr:
    """A node of kind over parts, each part of that kind giving its children;
    no parts give the empty sum 0 or the empty product 1."""
    flat = [c for part in parts for c in (part.children if isinstance(part, kind) else (part,))]
    if not flat:
        return IDENT if kind is OpProd else scaled(0, IDENT)
    return flat[0] if len(flat) == 1 else kind(tuple(flat))


def op_sum(*terms) -> OpExpr:
    return _flat(OpSum, terms)


def op_prod(*factors) -> OpExpr:
    return _flat(OpProd, factors)


# ---------------------------------------------------------------------------
# Action on polynomials
# ---------------------------------------------------------------------------


def apply(e: OpExpr, p: Poly, D: int) -> Poly:
    """Exact image of p under e on the degree-<=D space.

    Raises DegreeOverflowError when a result would exceed D,
    SingularOperatorError on an occupied zero eigenvalue of an inverted
    diagonal, and NonterminatingExponentialError when an exponential's
    series cannot terminate.
    """
    if p.basis != MONOMIAL:
        raise UnsupportedBasisOperationError(
            "operators act on monomial-basis polynomials; convert first"
        )
    _require_natural(D)
    if p.degree > D:
        raise ValueError("input degree %d exceeds truncation %d" % (p.degree, D))
    return e.act(p, D)


def _require_natural(D: int):
    if D < 0:
        raise ValueError("truncation degree must be nonnegative")


def _shift_steps(arg, N):
    """The steps h g(k), k < N, of exp(arg) as the conjugated Taylor shift
    (see ExpOp), g(k) being the factor G gives degree k (see
    DiagFn.eigenpairs), each a (num, den) pair in lowest terms with den > 0;
    scalar factors may stand anywhere before d. None when arg is not h G d
    or h d, or when g cannot be evaluated or inverted below N."""
    h = Fraction(1)
    if isinstance(arg, Scaled):
        h, arg = arg.c, arg.op
    factors = arg.factors if isinstance(arg, OpProd) else (arg,)
    if not isinstance(factors[-1], Deriv):
        return None
    g = None
    for f in factors[:-1]:
        if isinstance(f, Scaled) and isinstance(f.op, Ident):
            h *= f.c
        elif isinstance(f, DiagFn) and f.owner is None and g is None:
            g = f
        else:
            return None
    c, e = h.numerator, h.denominator
    if g is None:
        return [(c, e)] * N
    try:
        vals = g.eigenpairs([1] * N)  # every degree below N takes a step
    except (MathError, ArithmeticError, ValueError):
        return None
    steps = []
    for a, b in vals:
        # h (a/b), cross-reduced as Fraction multiplies
        g1, g2 = math.gcd(c, b), math.gcd(a, e)
        steps.append(((c // g1) * (a // g2), (e // g2) * (b // g1)))
    return steps


def working_degree(D: int, *exprs) -> int:
    """Truncation at which every expr acts on inputs of degree <= D without
    overflow: D plus the largest peak raise among them (see Op.bounds)."""
    margin = max((e.bounds[1] for e in exprs), default=0)
    if margin == math.inf:
        raise NonterminatingExponentialError(
            "cannot bound the degree growth of this operator"
        )
    return D + max(0, int(margin))


# ---------------------------------------------------------------------------
# Finite realizations
# ---------------------------------------------------------------------------


class LinOp(Record):
    """Realization of an operator on the degree-<=D space: column n is the
    image of x^n, or None where the image overflowed the truncation."""

    __slots__ = ("D", "columns")

    def __init__(self, D: int, columns):
        columns = tuple(columns)
        if len(columns) != D + 1:
            raise ValueError("expected %d columns, got %d" % (D + 1, len(columns)))
        for col in columns:
            if col is None:
                continue
            if col.basis != MONOMIAL or col.degree > D:
                raise ValueError("column outside the degree-%d monomial space" % D)
        super().__init__(D, columns)

    @classmethod
    def from_diagonal(cls, D: int, values) -> "LinOp":
        values = list(values)
        return cls(D, [Poly.monomial(n, values[n]) for n in range(D + 1)])

    @property
    def band(self):
        offsets = [
            (next(i for i, c in enumerate(col._num) if c) - n, col.degree - n)
            for n, col in enumerate(self.columns)
            if col is not None and col._num
        ]
        if not offsets:
            return (0, 0)
        return min(lo for lo, _ in offsets), max(hi for _, hi in offsets)

    def is_identity(self) -> bool:
        """True when every non-marked column is x^n (and at least one is)."""
        seen = False
        for n, col in enumerate(self.columns):
            if col is None:
                continue
            seen = True
            if col != Poly.monomial(n):
                return False
        return seen

    def diagonal(self):
        """Entry (n, n) per column, None where overflow-marked."""
        return tuple(
            None if col is None else col.coefficient(n)
            for n, col in enumerate(self.columns)
        )

    def __repr__(self):
        marked = sum(1 for c in self.columns if c is None)
        return "LinOp(D=%d, band=%s, marked=%d)" % (self.D, self.band, marked)

    def to_json(self) -> dict:
        return {
            "D": self.D,
            "columns": [None if c is None else c.to_json() for c in self.columns],
            "band": list(self.band),
        }


def realize(e: OpExpr, D: int) -> LinOp:
    """Tabulate e column by column; overflowing columns are marked None."""
    _require_natural(D)
    return LinOp(D, _images(e, D + 1, D, marks=True))


def realize_exact(e: OpExpr, D: int) -> LinOp:
    """Like realize, but works at an inflated internal truncation so that a
    column is marked only when its exact image genuinely leaves degree D."""
    _require_natural(D)
    cols = _images(e, D + 1, working_degree(D, e), marks=False)
    return LinOp(D, [img if img.degree <= D else None for img in cols])


def _images(e: OpExpr, size: int, D: int, marks: bool) -> list:
    """The image of x^n under e at truncation D for n < size, as applying e
    to each x^n in turn gives it: with marks, a column whose image
    overflows is None; any other error is raised at its column. A banded e
    (see _Band) is tabulated once per node; if that meets an error other
    than a mark, it is dropped and the walk below raises the error at its
    column."""
    if _banded(e):
        try:
            return _Band(size, D, marks).images(e)
        except (MathError, ValueError):
            pass
    cols = []
    for n in range(size):
        try:
            cols.append(apply(e, Poly.monomial(n), D))
        except DegreeOverflowError:
            if not marks:
                raise
            cols.append(None)
    return cols


def built_from(e: OpExpr, leaf) -> bool:
    """True when e combines only nodes for which leaf(node) holds by
    scaling, sums, products and powers."""
    if isinstance(e, (Scaled, OpSum, OpProd, IntPow)):
        return all(built_from(c, leaf) for c in e.children)
    return leaf(e)


def _banded(e: OpExpr) -> bool:
    """True when e is built from x, d, 1 and the monomial-basis diagonals
    that read a Table: then column n of e is a sum of terms c_s(n) x^(n+s),
    which _Band tabulates."""
    return built_from(e, lambda node: type(node) in (Coord, Deriv, Ident) or (
        type(node) is DiagFn and node.owner is None and type(node.fn) is Table
    ))


class _Band:
    """Tabulation of a banded expression (see _banded) on the columns x^n,
    n < size, at truncation D, visiting each node once for all of them. A
    state maps an offset s to the coefficients c_s(n) of x^(n+s), one per
    column, each a (num, den) int pair with den > 0, or 0; the pairs are
    reduced only when a column is read out. Each node mirrors its act on
    the success path only. With marks, a column that x raises past D is
    marked and zero from there on, as the walk stops it there; any other
    error is raised as soon as a node meets it, for _images to hand to
    the walk."""

    def __init__(self, size: int, D: int, marks: bool):
        self.size, self.D, self.marks = size, D, marks
        self.marked = set()

    def images(self, e: OpExpr) -> list:
        """The image of each column under e, None where marked."""
        state = self.run(e, {0: [(1, 1)] * self.size})
        out = []
        for n in range(self.size):
            if n in self.marked:
                out.append(None)
                continue
            terms = [(n + s, c) for s, row in state.items() if (c := row[n])]
            num = [0] * (max([m for m, _ in terms], default=-1) + 1)
            den = math.lcm(*[b for _, (_, b) in terms])
            for m, (a, b) in terms:
                num[m] = a * (den // b)
            out.append(Poly._make(num, den))
        return out

    def unmark(self, *states):
        """Zero the marked columns in every row of states, in place: no
        other column reads a marked column's entries, so no row needs
        them."""
        for state in states:
            for row in state.values():
                for n in self.marked:
                    row[n] = 0

    def run(self, e: OpExpr, state: dict) -> dict:
        kind = type(e)
        if kind is OpProd:
            for f in reversed(e.factors):
                state = self.run(f, state)
            return state
        if kind is DiagFn:
            return self.diag(e, state)
        if kind is Coord:
            return self.coord(state)
        if kind is Deriv:
            # x^m -> m x^(m-1)
            return {
                s - 1: [c and (m := n + s) and (c[0] * m, c[1]) for n, c in enumerate(row)]
                for s, row in state.items()
            }
        if kind is Scaled:
            state = self.run(e.op, state)
            a, b = e.c.numerator, e.c.denominator
            if not a:
                return {}
            return {s: [c and (c[0] * a, c[1] * b) for c in row] for s, row in state.items()}
        if kind is OpSum:
            out = {}
            for t in e.terms:
                for s, row in self.run(t, state).items():
                    out[s] = _add_rows(out[s], row) if s in out else row
                # the walk stops a column at its mark: the later terms never
                # see it, and the earlier ones are dropped
                self.unmark(state, out)
            return out
        if kind is IntPow:
            for _ in range(e.n):
                if not any(any(row) for row in state.values()):
                    break
                state = self.run(e.base, state)
            return state
        return state  # Ident

    def coord(self, state: dict) -> dict:
        """x, which marks a column whose degree would pass D, or with no
        marks raises DegreeOverflowError."""
        D = self.D
        over = {n for s, row in state.items() for n in range(max(0, D - s), self.size) if row[n]}
        if over:
            if not self.marks:
                raise DegreeOverflowError("x raises a column past truncation %d" % D)
            self.marked |= over
            self.unmark(state)
        return {s + 1: row for s, row in state.items()}

    def diag(self, e: DiagFn, state: dict) -> dict:
        """A diagonal that reads a Table, evaluated at the degrees that some
        column occupies."""
        occupied = {n + s for s, row in state.items() for n, c in enumerate(row) if c}
        if not occupied:
            return state
        vals = e.eigenpairs([m in occupied for m in range(max(occupied) + 1)])
        return {
            s: [c and (v := vals[n + s])[0] and (c[0] * v[0], c[1] * v[1])
                for n, c in enumerate(row)]
            for s, row in state.items()
        }


def _add_rows(u: list, v: list) -> list:
    """The entrywise sum of two rows of pairs."""
    out = []
    for x, y in zip(u, v):
        if not x:
            out.append(y)
        elif not y:
            out.append(x)
        else:
            (a, b), (c, d) = x, y
            g = math.gcd(b, d)
            num = a * (d // g) + c * (b // g)
            out.append(num and (num, b * (d // g)))
    return out


def _weighted_commutator(e1, e2, w, D):
    lin = realize_exact(op_sum(op_prod(e1, e2), scaled(-w, op_prod(e2, e1))), D)
    if all(c is None for c in lin.columns):
        raise EmptyWindowError("no degree survives the band-safety restriction")
    return lin


def commutator(e1: OpExpr, e2: OpExpr, D: int) -> LinOp:
    """[e1, e2] = e1 e2 - e2 e1 realized on the safe degree window."""
    return _weighted_commutator(e1, e2, Fraction(1), D)


def q_commutator(e1: OpExpr, e2: OpExpr, q, D: int) -> LinOp:
    """e1 e2 - q e2 e1 realized on the safe degree window."""
    return _weighted_commutator(e1, e2, rational(q), D)


# ---------------------------------------------------------------------------
# The *-involution
# ---------------------------------------------------------------------------


def substitute(e: OpExpr, leaf, *, reverse: bool = False) -> OpExpr:
    """Rebuild every node of e that has children around leaf(node) for each
    leaf; reverse flips every product."""
    if not e.children:
        return leaf(e)
    children = [substitute(c, leaf, reverse=reverse) for c in e.children]
    if reverse and isinstance(e, OpProd):
        children.reverse()
    return e.rebuild(children)


_STARRED = {COORD: DERIV, DERIV: COORD, IDENT: IDENT}


def _star_leaf(e: OpExpr) -> OpExpr:
    if e not in _STARRED:
        raise UnsupportedStarError("star is undefined on %r" % (e,))
    return _STARRED[e]


def star(e: OpExpr) -> OpExpr:
    """Antihomomorphism swapping the generators: x* = d, d* = x.

    Scalars are rational, so conjugating them is the identity. Defined on
    words (and exponentials of words); diagonal nodes have no structural
    image and raise.
    """
    return substitute(e, _star_leaf, reverse=True)


# ---------------------------------------------------------------------------
# Standard diagonal nodes
# ---------------------------------------------------------------------------

def _degrees(m: int) -> list:
    """The pairs of 0..m."""
    return [(k, 1) for k in range(m + 1)]


#: A = x d/dx: x^n -> n x^n.
A_DIAG = DiagFn("A", Table(_degrees))

#: B = 1 + A: x^n -> (n+1) x^n.
B_DIAG = DiagFn("B", Table(_degrees, 1))


def _shift_name(base: str, shift: int) -> str:
    if shift == 0:
        return "%s(A)" % base
    if shift == 1:
        return "%s(B)" % base
    return "%s(A%+d)" % (base, shift)


def qnum_diag(ctx: QContext, shift: int = 0) -> DiagFn:
    """{A + shift}: x^n -> {n + shift} x^n."""
    return DiagFn(_shift_name("qn", shift), Table(ctx.qnumber_pairs, shift))


def dbracket_diag(ctx: QContext, shift: int = 0) -> DiagFn:
    """[[A + shift]]: x^n -> [[n + shift]] x^n."""
    return DiagFn(_shift_name("qb", shift), Table(ctx.dbracket_pairs, shift))


def gamma_ratio_diag(ctx: QContext, shift: int = 0) -> DiagFn:
    """U(A + shift) with u(n) = {n}!/n!; u is taken as 1 below index 0,
    which is never an occupied degree in its uses."""
    name = "U" if shift == 0 else "U(A%+d)" % shift
    return DiagFn(name, Table(ctx.gamma_ratio_pairs, shift, (1, 1)))
