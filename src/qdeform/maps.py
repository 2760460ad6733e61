"""Commutation-relation-preserving deformation maps and their calculus.

A ``DeformMap`` substitutes new realizations for the generator pair: it
carries the image of the lowering generator (``image_a``) and of the
raising generator (``image_b``) as operator expressions, together with the
defining relation they satisfy,

    image_a image_b - relation_q * image_b image_a = 1,

with relation_q = 1 for the ordinary commutation relation. Every
constructor checks the counit (the lowering image annihilates constants)
and then certifies this relation on a finite degree window through the
weighted ladder laws of the adapted basis |n> = b^n 1, which the map then
keeps. Whether the map preserves the degree operator is read off the same
certified basis.

The module provides:

* the Jackson pair (q-derivative and its conjugate coordinate),
* the shift pair (forward difference and its conjugate),
* the one-sided q-map that deforms only the raising generator,
* the generic f(B)-family containing the Jackson pair,
* composition by generator substitution, with functions of the deformed
  degree operator evaluated spectrally in the adapted basis,
* adapted bases, projections onto functions of the raising generator, and
  the intertwining check,
* Jackson integration, quantum averaging, the quantum Rolle identity, the
  diagonal similarity transform, and the deformed conjugacy check for the
  shift pair.

``MAP_KINDS`` lists the named kinds that ``make_map`` and the CLI build.
The named constructors (``identity_map``, ``phi_q``, ``phi_delta``,
``phi_q_prime``, ``compose``, and through them ``make_map`` and
``map_from_json``) return one shared map per structural key: (kind, q,
delta), and for a composition (outer key, inner key). A map is validated
once, on degrees 0..``CHECK_DEGREE``, when first built, and its
adapted-basis cache is shared with every later caller. The memo is a small
LRU; two threads building the same key get the same map, and no thread
sees a partly built one. ``fb_map`` (a user callable has no structural key)
and ``DeformMap(...)`` itself always build a fresh map. The key names the
map: ``to_json`` writes it, ``map_from_json`` reads it back to the shared
map, and a fresh map, or a composition with one, has no wire form.

Maps are ``qnum.Record`` values that compare by identity: assigning or
deleting any attribute raises AttributeError, and the memo key is not a
constructor parameter. A map owns the change of coordinates to its adapted
basis, which its spectral diagonals ask for: ``components`` reads a
polynomial's components off dual rows (row k is x^k in the basis), and
``combine`` sums them against the basis. The basis and the dual rows grow
in place under the map's lock with deterministic entries, so concurrent
reads see values identical to a single-threaded run; a cached basis
element is read without the lock.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Callable
from fractions import Fraction

from .errors import (
    MapConstructionError,
    UnsupportedBasisOperationError,
    UnsupportedCompositionError,
)
from .opcore import (
    COORD,
    DERIV,
    DiagFn,
    DiagInv,
    ExpOp,
    IDENT,
    IntPow,
    OpExpr,
    apply,
    dbracket_diag,
    gamma_ratio_diag,
    op_prod,
    op_sum,
    q_commutator,
    qnum_diag,
    realize_exact,
    scaled,
    substitute,
    working_degree,
)
from .poly import MONOMIAL, Poly
from .qnum import QContext, Record, rational, reciprocal, wire_field

CHECK_DEGREE = 16


# ---------------------------------------------------------------------------
# Generator realizations from the Jackson calculus
# ---------------------------------------------------------------------------


def dq_expr(ctx: QContext) -> OpExpr:
    """Jackson derivative [[B]]^(-1) d; acts as x^n -> {n} x^(n-1)."""
    return op_prod(DiagInv(dbracket_diag(ctx, 1)), DERIV)


def xq_expr(ctx: QContext) -> OpExpr:
    """Conjugate coordinate x [[B]]; acts as x^n -> [[n+1]] x^(n+1)."""
    return op_prod(COORD, dbracket_diag(ctx, 1))


def s_expr(ctx: QContext) -> OpExpr:
    """Jackson integral {A}^(-1) x; acts as x^n -> x^(n+1)/{n+1}."""
    return op_prod(DiagInv(qnum_diag(ctx, 0)), COORD)


def mq_expr(ctx: QContext) -> OpExpr:
    """Quantum averaging (1/x) S; diagonal with 1/{n+1}, i.e. the inverse of
    {B} (which tends to B as q -> 1)."""
    return DiagInv(qnum_diag(ctx, 1))


def a_delta_expr(delta) -> OpExpr:
    """Forward difference (e^(delta d) - 1)/delta; at delta = 0, d itself."""
    delta = rational(delta)
    if delta == 0:
        return DERIV
    return scaled(1 / delta, op_sum(ExpOp(scaled(delta, DERIV)), scaled(-1, IDENT)))


def b_delta_expr(delta) -> OpExpr:
    """Conjugate coordinate x e^(-delta d); at delta = 0, x itself."""
    delta = rational(delta)
    if delta == 0:
        return COORD
    return op_prod(COORD, ExpOp(scaled(-delta, DERIV)))


# ---------------------------------------------------------------------------
# Deformation maps
# ---------------------------------------------------------------------------


class DeformMap(Record):
    """A named substitution on the generator pair.

    ``relation_q`` is the weight in the defining relation of the image
    pair; 1 means the ordinary commutation relation. ``preserves_degree``
    is derived at construction, never passed: it records that the image
    pair reproduces the degree operator exactly on monomials (true for the
    identity and the whole f(B)-family), which is what allows diagonal
    nodes to pass through substitution unchanged. Maps compare by identity.
    """

    # Never set by a caller: preserves_degree (by _validate, from the certified
    # basis), _key (by _shared, on the one instance of a named map), and |n>
    # and x^k in the adapted basis (_basis, _dual_rows, grown under _basis_lock).
    __slots__ = ("label", "image_a", "image_b", "relation_q", "preserves_degree", "_key",
                 "_basis", "_dual_rows", "_basis_lock")

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, label: str, image_a: OpExpr, image_b: OpExpr, *, relation_q=1):
        super().__init__(
            label, image_a, image_b, rational(relation_q),
            False, None, [Poly.one()], [], threading.Lock(),
        )
        self._validate(CHECK_DEGREE)

    @property
    def is_ccr(self) -> bool:
        return self.relation_q == 1

    def _validate(self, D: int):
        """Check the counit, then the defining relation on degrees 0..D.

        With w = relation_q and {n}_w = 1 + w + ... + w^(n-1) (n at w = 1),
        a map whose lowering image a kills constants is certified by the
        ladder laws of its adapted basis:
        1. |n> = b^n 1, which _extend builds up to |D+1>;
        2. _extend checks deg |n> = n and a|n> = {n}_w |n-1> for 1 <= n <= D+1;
        3. so (ab - w ba)|n> = ({n+1}_w - w{n}_w)|n> = |n> for n <= D (a|0> = 0);
        4. |0..D> span the degree-<=D space, so ab - w ba = 1 there.
        Every map must raise the degree by exactly one. The map
        preserves the degree operator when it is CCR and each certified |n>
        is a single monomial, for then ba|n> = n|n> = A|n>; later basis
        growth is not read, so the answer does not depend on call order.
        A non-CCR map then keeps only |0>: basis_element and components refuse
        it, so nothing could read the rest.
        """
        if not apply(self.image_a, Poly.one(), D).is_zero:
            raise MapConstructionError(
                "%s: lowering image does not annihilate constants" % self.label
            )
        with self._basis_lock:
            self._extend(D + 1)
            monomial = all(not any(ket._num[:-1]) for ket in self._basis)
            if not self.is_ccr:
                del self._basis[1:]
        object.__setattr__(self, "preserves_degree", self.is_ccr and monomial)

    # -- adapted basis --------------------------------------------------

    def basis_element(self, n: int) -> Poly:
        """|n> = (image of b)^n applied to 1; lazily extended and cached.

        Offered for CCR maps only, where A is diagonal with spectrum n in
        this basis; the lowering law a|n> = n|n-1> is re-verified on every
        extension, as construction verified it on |0..CHECK_DEGREE+1>.
        """
        if not self.is_ccr:
            raise UnsupportedBasisOperationError(
                "%s: adapted bases require a CCR-preserving map" % self.label
            )
        if n < 0:
            raise ValueError("basis index %d is negative" % n)
        if len(self._basis) > n:
            return self._basis[n]
        with self._basis_lock:
            self._extend(n)
        return self._basis[n]

    def _extend(self, n: int):
        # raising images lift degree by exactly one, but intermediates may
        # peak higher; one truncation gives every step headroom for both
        Dw = working_degree(n, self.image_b, self.image_a)
        w = self.relation_q
        while len(self._basis) <= n:
            k = len(self._basis)
            nxt = apply(self.image_b, self._basis[-1], Dw)
            if nxt.degree != k:
                raise MapConstructionError(
                    "%s: raising image failed to raise degree at step %d" % (self.label, k)
                )
            lowered = apply(self.image_a, nxt, Dw)
            # a|k> = {k}_w |k-1>, with {k}_w = k at w = 1
            expected = self._basis[-1].scale(k if w == 1 else (1 - w**k) / (1 - w))
            if lowered != expected:
                msg = "%s: lowering law fails on basis element %d: a|%d> is %s, not %s"
                raise MapConstructionError(
                    msg % (self.label, k, k, lowered.to_text(), expected.to_text())
                )
            self._basis.append(nxt)

    def components(self, p: Poly) -> Poly:
        """The components of p along |0..deg p> as a Poly's coefficients,
        sum_k p_k row_k. Row k, x^k in the adapted basis, is built once and
        kept: |k> = num_k / den_k has exact degree k (_extend checks it),
        so x^k = (den_k |k> - sum_(j<k) num_k[j] x^j) / num_k[k]."""
        rows = self._dual_rows
        if len(rows) <= p.degree:
            self.basis_element(p.degree)  # first: the lock is not reentrant
            with self._basis_lock:
                for k in range(len(rows), p.degree + 1):
                    ket = self._basis[k]
                    terms = [(-c, rows[j]) for j, c in enumerate(ket._num[:k])]
                    terms.append((ket._den, Poly.monomial(k)))
                    rows.append(Poly._lincomb(terms, ket._num[k]))
        return Poly._lincomb(zip(p._num, rows), p._den)

    def combine(self, c: Poly) -> Poly:
        """sum_n c_n |n>: the monomial-basis polynomial whose components
        along the adapted basis are the coefficients of c."""
        if c._num:
            self.basis_element(c.degree)  # checked, and |0..deg c> built
        return Poly._lincomb(zip(c._num, self._basis), c._den)

    # -- generator substitution ------------------------------------------

    def image(self, e: OpExpr) -> OpExpr:
        """Substitute this map's generator images throughout an expression."""
        return substitute(e, self._image_leaf)

    def _image_leaf(self, e: OpExpr) -> OpExpr:
        if not isinstance(e, DiagFn):
            generators = {COORD: self.image_b, DERIV: self.image_a, IDENT: IDENT}
            if e not in generators:
                raise UnsupportedCompositionError("cannot substitute into %r" % (e,))
            return generators[e]
        if e.owner is not None:
            owner = compose(self, e.owner)
        elif self.preserves_degree:
            return e
        elif self.is_ccr:
            # g(A) becomes g of the deformed degree operator, which is
            # diagonal in this map's adapted basis with spectrum n.
            owner = self
        else:
            raise UnsupportedCompositionError(
                "%s: cannot carry %s through a non-CCR map" % (self.label, e.name)
            )
        return e.replace(name="%s@%s" % (e.name, owner.label), owner=owner)

    def to_json(self) -> dict:
        """The wire form of the memo key, which only a shared map has."""
        if self._key is None:
            raise ValueError("%s has no wire form: it is not a named map" % self.label)
        return _key_json(self._key)

    def __repr__(self):
        return "DeformMap(%s)" % self.label


def _key_json(key: tuple) -> dict:
    """{"map": kind} with the parameters given for the key (kind, q, delta),
    or the nested compose form for (outer key, inner key)."""
    if len(key) == 2:
        return {"map": "compose", "outer": _key_json(key[0]), "inner": _key_json(key[1])}
    kind, q, delta = key
    data = {"map": kind}
    if q is not None:
        data["q"] = str(q)
    if delta is not None:
        data["delta"] = str(delta)
    return data


# Named maps are shared: one validated instance per structural key, kept in
# a small LRU so a process that sweeps many (q, delta) holds few bases. 16 is
# twice the largest working set, the 8 maps of one `verify all`.
_MEMO_SIZE = 16
_memo: "OrderedDict[tuple, DeformMap]" = OrderedDict()
_memo_lock = threading.Lock()


def _shared(key: tuple | None, build: Callable[[], DeformMap]) -> DeformMap:
    """The one map for key, made by build() and validated on first use; a
    hit does no work beyond the lookup, and key None always builds afresh.
    The build runs outside the lock (it may build other shared maps) and
    only the finished map is published; racing builders all return the
    first one published."""
    if key is None:
        return build()
    with _memo_lock:
        m = _memo.get(key)
        if m is not None:
            _memo.move_to_end(key)
            return m
    m = build()
    object.__setattr__(m, "_key", key)
    with _memo_lock:
        m = _memo.setdefault(key, m)
        if len(_memo) > _MEMO_SIZE:
            _memo.popitem(last=False)
    return m


def _named(kind: str, q, delta, images: Callable[[], tuple], **kw) -> DeformMap:
    """The shared map of a named kind, keyed (kind, q, delta) and labelled
    kind[parameter]; images() gives the image pair when the map is built."""

    def build():
        param = q if delta is None else delta
        label = kind if param is None else "%s[%s]" % (kind, param)
        return DeformMap(label, *images(), **kw)

    return _shared((kind, q, delta), build)


def identity_map() -> DeformMap:
    return _named("identity", None, None, lambda: (DERIV, COORD))


def fb_map(name: str, f: Callable[[int], Fraction]) -> DeformMap:
    """The general family a -> f(B)^(-1) a, b -> b f(B), for f nonzero on
    positive integers. The degree operator is preserved exactly, so these
    maps commute with all diagonal bookkeeping. f has no structural key, so
    every call builds and validates a fresh map, which has no wire form."""
    diag = DiagFn("f(B)", lambda n: f(n + 1))
    return DeformMap(name, op_prod(DiagInv(diag), DERIV), op_prod(COORD, diag))


def phi_q(q) -> DeformMap:
    """The Jackson map: a -> [[B]]^(-1) a, b -> b [[B]]."""
    ctx = q if isinstance(q, QContext) else QContext(q)
    return _named("phi_q", ctx.q, None, lambda: (dq_expr(ctx), xq_expr(ctx)))


def phi_delta(delta) -> DeformMap:
    """The shift map: a -> (e^(delta a) - 1)/delta, b -> b e^(-delta a).

    delta = 0 is the undeformed limit and yields the identity images.
    """
    delta = rational(delta)
    return _named("phi_delta", None, delta, lambda: (a_delta_expr(delta), b_delta_expr(delta)))


def phi_q_prime(q) -> DeformMap:
    """The one-sided q-map: a -> a, b -> b [[B]]^(-1).

    The image pair satisfies the q-weighted relation a b' - q b' a = 1
    rather than the plain commutation relation.
    """
    ctx = q if isinstance(q, QContext) else QContext(q)
    return _named(
        "phi_q_prime",
        ctx.q,
        None,
        lambda: (DERIV, op_prod(COORD, DiagInv(dbracket_diag(ctx, 1)))),
        relation_q=ctx.q,
    )


def compose(outer: DeformMap, inner: DeformMap) -> DeformMap:
    """Generator substitution: the composed image of g is outer's image of
    inner's image expression. The outer map must preserve the CCR (and the
    counit), since functions of the degree operator are pushed through it
    spectrally. Shared when both factors are; otherwise built fresh."""
    if not outer.is_ccr:
        raise UnsupportedCompositionError(
            "outer map %s does not preserve the CCR" % outer.label
        )
    shared = outer._key is not None and inner._key is not None
    return _shared(
        (outer._key, inner._key) if shared else None,
        lambda: DeformMap(
            "%s.%s" % (outer.label, inner.label),
            outer.image(inner.image_a),
            outer.image(inner.image_b),
            relation_q=inner.relation_q,
        ),
    )


# Each named map kind, in the order the CLI lists them: the parameters its
# constructor takes, all required, and the constructor.
MAP_KINDS = {
    "identity": ((), identity_map),
    "phi_q": (("q",), phi_q),
    "phi_delta": (("delta",), phi_delta),
    "phi_q_prime": (("q",), phi_q_prime),
    "phi_q_delta": (("q", "delta"), lambda q, delta: compose(phi_q(q), phi_delta(delta))),
    "phi_delta_q": (("q", "delta"), lambda q, delta: compose(phi_delta(delta), phi_q(q))),
}


def make_map(kind: str, *, q=None, delta=None) -> DeformMap:
    """String-dispatch constructor used by the CLI and serialization."""
    kind = kind.replace("-", "_")
    if kind not in MAP_KINDS:
        raise ValueError("unknown map kind %r" % kind)
    needs, build = MAP_KINDS[kind]
    args = [{"q": q, "delta": delta}[name] for name in needs]
    if any(a is None for a in args):
        raise ValueError("%s requires %s" % (kind, " and ".join(needs)))
    return build(*args)


def map_from_json(data: dict) -> DeformMap:
    kind = wire_field(data, "map", "map", _wire_name)
    if kind == "compose":
        return compose(*[map_from_json(wire_field(data, f, kind)) for f in ("outer", "inner")])
    q, delta = (wire_field(data, f, kind, _wire_parameter) if f in data else None for f in ("q", "delta"))
    return make_map(kind, q=q, delta=delta)


def _wire_name(value) -> str:
    if not isinstance(value, str):
        raise TypeError("a map kind is a string")
    return value


def _wire_parameter(value):
    """A wire-format q or delta: an int or "p/q" string, or null for none."""
    return None if value is None else rational(value)


# ---------------------------------------------------------------------------
# Adapted bases and projections
# ---------------------------------------------------------------------------


def b_projection(f: Poly, m: DeformMap, D: int) -> Poly:
    """Projection of f onto functions of the deformed raising generator:
    monomial coefficients of f reweight the adapted basis, sum_n f_n |n>.

    f must be given by monomial coefficients, truncated at degree <= D.
    """
    if f.basis != MONOMIAL:
        raise UnsupportedBasisOperationError("projection input must be monomial-basis")
    if f.degree > D:
        raise ValueError("series degree %d exceeds truncation %d" % (f.degree, D))
    return m.combine(f)


def intertwine_check(G: OpExpr, f: Poly, m: DeformMap, D: int) -> bool:
    """Exact check that deforming then acting equals acting then deforming."""
    lhs = apply(m.image(G), b_projection(f, m, D), D)
    rhs = b_projection(apply(G, f, D), m, D)
    return lhs == rhs


def intertwine_words(m: DeformMap, inputs, D: int) -> bool:
    """intertwine_check for the words d, x, x*d and d^2, in that order, on
    each input f in turn; False at the first word and input that fail.

    The verdict and every value compared are those of intertwine_check, but
    each f is projected once, to Pf, and the lowering image a is applied to
    Pf once, to u: the left sides are u, b Pf, b u and a u."""

    def left_sides(f):
        pf = b_projection(f, m, D)
        u = apply(m.image_a, pf, D)
        yield DERIV, u
        yield COORD, apply(m.image_b, pf, D)
        yield op_prod(COORD, DERIV), apply(m.image_b, u, D)
        yield IntPow(DERIV, 2), apply(m.image_a, u, D)

    return all(
        lhs == b_projection(apply(G, f, D), m, D) for f in inputs for G, lhs in left_sides(f)
    )


# ---------------------------------------------------------------------------
# Jackson calculus on polynomials
# ---------------------------------------------------------------------------


def jackson_integral(p: Poly, ctx: QContext) -> Poly:
    """x^n -> x^(n+1)/{n+1}; the right inverse of the Jackson derivative."""
    if p.basis != MONOMIAL:
        raise UnsupportedBasisOperationError("Jackson integral needs monomial basis")
    return quantum_average(p, ctx)._times_x()


def quantum_average(p: Poly, ctx: QContext) -> Poly:
    """x^n -> x^n/{n+1}; equals (1/x) S and inverts B."""
    if p.basis != MONOMIAL:
        raise UnsupportedBasisOperationError("quantum average needs monomial basis")
    return p._diag(reciprocal(ctx.qnumber_pairs(p.degree + 1)[1 : p.degree + 2]))


def rolle_check(f: Poly, ctx: QContext, D: int) -> bool:
    """Quantum Rolle identity: the conjugate coordinate acting on f equals
    x times (quantum average of f plus quantum average of x f')."""
    xq = xq_expr(ctx)
    lhs = apply(xq, f, working_degree(D, xq))
    xfprime = Poly.x() * f.derivative() if not f.is_zero else Poly.zero()
    tilde = quantum_average(f, ctx) + quantum_average(xfprime, ctx)
    rhs = Poly.x() * tilde
    return lhs == rhs


# ---------------------------------------------------------------------------
# Similarity transform
# ---------------------------------------------------------------------------


def similarity_check(ctx: QContext, D: int) -> bool:
    """U^(-1) d U equals the Jackson derivative and U^(-1) x U its conjugate
    coordinate, exactly on the safe window; also the one-step shift identity
    U(A)^(-1) U(A-1) x = [[A]] x."""
    u = gamma_ratio_diag(ctx)
    u_inv = DiagInv(u)
    du = op_prod(u_inv, DERIV, u)
    xu = op_prod(u_inv, COORD, u)
    ok_d = realize_exact(du, D) == realize_exact(dq_expr(ctx), D)
    ok_x = realize_exact(xu, D) == realize_exact(xq_expr(ctx), D)
    shift = op_prod(u_inv, gamma_ratio_diag(ctx, -1), COORD)
    xq_alt = op_prod(dbracket_diag(ctx, 0), COORD)
    ok_shift = realize_exact(shift, D) == realize_exact(xq_alt, D)
    return ok_d and ok_x and ok_shift


# ---------------------------------------------------------------------------
# Deformed conjugacy of the shift pair
# ---------------------------------------------------------------------------


def qcc_delta_check(ctx: QContext, delta, D: int) -> bool:
    """The shift image of the one-sided q-map closes the q-weighted relation
    with the forward difference: a_d X - q X a_d = 1 for X the shift image
    of b [[B]]^(-1). X is evaluated spectrally in the shift map's adapted
    basis; delta = 0 degenerates to the undeformed relation."""
    prime = phi_q_prime(ctx)
    shift_map = phi_delta(delta)
    conj = shift_map.image(prime.image_b)
    a_d = shift_map.image_a
    return q_commutator(a_d, conj, ctx.q, D).is_identity()


# ---------------------------------------------------------------------------
# Eigenfunction series
# ---------------------------------------------------------------------------


def q_exponential(ctx: QContext, lam, D: int) -> Poly:
    """Truncated q-exponential sum_(n<=D) (lam x)^n / ({1}...{n}), the
    projection of the classical exponential under the Jackson map: the
    eigenfunction series with f(n) = [[n]], since [[n]]/n = 1/{n}."""
    return eigenfunction_series(ctx.dbracket, D, lam)


def eigenfunction_series(f: Callable[[int], Fraction], D: int, lam=1) -> Poly:
    """Formal eigenfunction sum_n (f(1)...f(n)/n!) (lam x)^n of the lowered
    generator of the f(B)-family, truncated at D (eigenvalue lam); f is
    called at 1..D only."""
    lam = rational(lam)
    out = [Fraction(1)] * (D >= 0)
    for n in range(1, D + 1):
        out.append(out[-1] * lam * (f(n) * Fraction(1, n)))
    return Poly(out)
