"""Dense exact polynomials in two bases: powers and falling factorials.

A ``Poly`` stores integer numerators over one common denominator, tagged
with its basis: coefficient n is ``num[n] / den``. The pair is canonical:
no trailing zero numerator, ``den > 0``, ``gcd(den, *num) == 1``, and the
zero polynomial is ``([], 1)``. Equal polynomials therefore have equal
pairs, and ``==`` and ``hash`` compare them directly. The numerators are a
list that no operation mutates after construction, not a tuple: CPython
keeps freed tuples of up to 20 items on free lists, and the many short
numerator tuples the kernels free raised peak memory by about 1 MB on a
``verify all`` run.

Every kernel is an integer loop over the numerators followed by one
reduction to canonical form, in the spirit of Bareiss's fraction-free
elimination (Math. Comp. 22:565, 1968). A diagonal kernel takes its
eigenvalues as (num, den) int pairs, and a conjugated shift its steps.
``Fraction`` appears only at the public boundary: the constructor,
``coeffs`` (a computed view), ``coefficient`` and ``evaluate``. Text and
JSON rendering build one only for a nonzero coefficient, so a sparse
polynomial renders at the cost of its occupied degrees.

The monomial basis supports the full ring structure plus the two
functional transforms that realize finite differences (``shift``:
p(x) -> p(x+h), ``qscale``: p(x) -> p(qx)). The falling-factorial basis
stores its step delta inside the tag, so mixing two deltas is an error
rather than silent corruption. Conversions between the bases go through
Stirling numbers and are mutually inverse, triangular with unit diagonal.

No operation changes a polynomial after construction, and all operations
are pure; the basis tags are immutable ``Record`` values.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import BasisMismatchError, UnsupportedBasisOperationError
from .qnum import Record, rational, stirling_first, stirling_second


class Monomial(Record):
    """Basis tag: coefficient n multiplies x^n."""

    __slots__ = ()


class FallingFactorial(Record):
    """Basis tag: coefficient n multiplies [x]_n = x(x-d)(x-2d)...(x-(n-1)d)."""

    __slots__ = ("delta",)

    def __init__(self, delta):
        super().__init__(rational(delta))


MONOMIAL = Monomial()


def _scaled_down(num, b):
    """num[n] * b^(N-n) for N = len(num) - 1: the numerators of
    b^N p(y/b), an integer polynomial in y."""
    out = list(num)
    bp = 1
    for n in range(len(out) - 2, -1, -1):
        bp *= b
        out[n] *= bp
    return out


def _scale_up(out, b):
    """out[k] *= b^k in place, undoing the substitution x = y/b."""
    bp = 1
    for k in range(1, len(out)):
        bp *= b
        out[k] *= bp
    return out


class Poly:
    """Dense univariate polynomial over exact rationals."""

    __slots__ = ("_num", "_den", "basis")

    def __init__(self, coeffs=(), basis=MONOMIAL):
        fracs = [rational(c) for c in coeffs]
        den = math.lcm(*[f.denominator for f in fracs])
        self._num, self._den = self._canonical(
            [f.numerator * (den // f.denominator) for f in fracs], den
        )
        self.basis = basis

    @staticmethod
    def _canonical(num, den):
        """(numerators, denominator) of the polynomial num/den in canonical
        form; num is a fresh list, trimmed in place."""
        while num and not num[-1]:
            num.pop()
        if not num:
            return num, 1
        g = math.gcd(den, *num)
        if den < 0:
            g = -g
        if g != 1:
            num = [c // g for c in num]
            den //= g
        return num, den

    @classmethod
    def _make(cls, num, den=1, basis=MONOMIAL, *, reduced=False):
        """Trusted constructor: the polynomial num[n]/den for a fresh list num
        of ints, which the new Poly owns, and den != 0. ``reduced`` says the
        pair is already canonical."""
        p = object.__new__(cls)
        p._num, p._den = (num, den) if reduced else cls._canonical(num, den)
        p.basis = basis
        return p

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, basis=MONOMIAL):
        return cls._make([], 1, basis, reduced=True)

    @classmethod
    def one(cls, basis=MONOMIAL):
        return cls._make([1], 1, basis, reduced=True)

    @classmethod
    def x(cls):
        return cls._make([0, 1], 1, reduced=True)

    @classmethod
    def monomial(cls, n, coeff=1):
        """coeff * x^n."""
        c = coeff if isinstance(coeff, int) else rational(coeff)
        if not c:
            return cls.zero()
        return cls._make([0] * n + [c.numerator], c.denominator, reduced=True)

    @classmethod
    def falling_element(cls, n, delta):
        """[x]_n as a falling-basis polynomial."""
        return cls._make([0] * n + [1], 1, FallingFactorial(delta), reduced=True)

    # -- structure ----------------------------------------------------

    @property
    def coeffs(self) -> tuple:
        """The coefficients as lowest-terms Fractions, computed on each access."""
        den = self._den
        return tuple(Fraction(c, den) for c in self._num)

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self._num) - 1

    @property
    def is_zero(self) -> bool:
        return not self._num

    def coefficient(self, n: int) -> Fraction:
        if 0 <= n < len(self._num):
            return Fraction(self._num[n], self._den)
        return Fraction(0)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return (
            self._num == other._num
            and self._den == other._den
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((tuple(self._num), self._den, self.basis))

    def __repr__(self):
        return "Poly(%s)" % self.to_text()

    # -- ring operations ----------------------------------------------

    def _require_same_basis(self, other):
        if self.basis != other.basis:
            raise BasisMismatchError(
                "basis mismatch: %r vs %r" % (self.basis, other.basis)
            )

    def _combine(self, other, sign):
        """self + sign * other over the least common denominator."""
        self._require_same_basis(other)
        if not other._num:
            return self
        if not self._num:
            return other if sign > 0 else -other
        da, db = self._den, other._den
        g = math.gcd(da, db)
        fa, fb = db // g, sign * (da // g)
        a, b = self._num, other._num
        out = [x * fa + y * fb for x, y in zip(a, b)]
        if len(a) > len(b):
            out.extend(x * fa for x in a[len(b):])
        else:
            out.extend(y * fb for y in b[len(a):])
        return Poly._make(out, da * fa, self.basis)

    def __add__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self._combine(other, 1)

    def __sub__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self._combine(other, -1)

    def __neg__(self):
        return Poly._make([-c for c in self._num], self._den, self.basis, reduced=True)

    def scale(self, c) -> "Poly":
        c = rational(c)
        a, b = c.numerator, c.denominator
        if not a or not self._num:
            return Poly.zero(self.basis)
        # num/den and a/b are each in lowest terms, so the product's only
        # common factors are gcd(a, den) and gcd(b, content of num)
        g_a = math.gcd(a, self._den)
        g_b = math.gcd(b, *self._num)
        a //= g_a
        out = [x // g_b * a for x in self._num] if g_b != 1 else [x * a for x in self._num]
        return Poly._make(out, self._den // g_a * (b // g_b), self.basis, reduced=True)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Poly):
            return NotImplemented
        self._require_same_basis(other)
        if self.basis != MONOMIAL:
            raise UnsupportedBasisOperationError(
                "product is only defined in the monomial basis"
            )
        if self.is_zero or other.is_zero:
            return Poly.zero()
        b = other._num
        out = [0] * (len(self._num) + len(b) - 1)
        for i, x in enumerate(self._num):
            if not x:
                continue
            for j, y in enumerate(b, i):
                out[j] += x * y
        return Poly._make(out, self._den * other._den)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    # -- functional transforms (monomial basis only) --------------------

    def _require_monomial(self, what):
        if self.basis != MONOMIAL:
            raise UnsupportedBasisOperationError(
                "%s is only defined in the monomial basis" % what
            )

    def shift(self, h) -> "Poly":
        """p(x) -> p(x + h), as an integer Taylor shift."""
        self._require_monomial("shift")
        h = rational(h)
        return self._conjugated_shift([(h.numerator, h.denominator)] * self.degree)

    def _conjugated_shift(self, steps) -> "Poly":
        """U^-1 exp(h d) U p for a diagonal U, given steps[k] = h u(k+1)/u(k)
        as an int pair (a_k, b_k), b_k > 0, for every k below the degree;
        steps all h is the Taylor shift.

        Horner's scheme for the shift, c[k] += h c[k+1], conjugated by U is
        c[k] += steps[k] c[k+1], so U itself is never formed. For
        steps[k] = a_k/b_k, coefficient n is first scaled by
        w_n = b_n b_(n+1) ... b_(N-1), which makes every step the integer
        update e[k] += a_k e[k+1]; coefficient k of the result is then
        e[k] b_0 ... b_(k-1) over den w_0, reduced once.
        """
        top = len(self._num) - 1
        if top < 1:
            return self
        a = [s for s, _ in steps]
        b = [d for _, d in steps]
        e = list(self._num)
        w = 1
        for n in range(top - 1, -1, -1):
            w *= b[n]
            e[n] *= w
        for i in range(top):
            for k in range(top - 1, i - 1, -1):
                e[k] += a[k] * e[k + 1]
        bp = 1
        for k in range(1, top + 1):
            bp *= b[k - 1]
            e[k] *= bp
        return Poly._make(e, self._den * w)

    def qscale(self, q) -> "Poly":
        """p(x) -> p(qx): degree-n coefficient picks up q^n."""
        self._require_monomial("qscale")
        q = rational(q)
        a, b = q.numerator, q.denominator
        return self._diag([(a**n, b**n) for n in range(len(self._num))])

    def derivative(self) -> "Poly":
        self._require_monomial("derivative")
        return Poly._make([n * c for n, c in enumerate(self._num)][1:], self._den)

    def truncated(self, degree: int) -> "Poly":
        """Drop all coefficients above the given degree; below 0, zero."""
        return Poly._make(self._num[: max(degree + 1, 0)], self._den, self.basis)

    # -- fraction-free kernels for operator action (monomial basis) -------

    @classmethod
    def _lincomb(cls, terms, div=1) -> "Poly":
        """(sum c * p) / div over the (c, p) pairs of monomial-basis terms,
        with int or Fraction c and a nonzero int div, over one common
        denominator and reduced once."""
        parts = [(c.numerator, c.denominator * p._den, p._num) for c, p in terms if c and p._num]
        den = math.lcm(*[d for _, d, _ in parts])
        out = [0] * max([len(num) for _, _, num in parts], default=0)
        for a, d, num in parts:
            f = a * (den // d)
            for i, x in enumerate(num):
                out[i] += f * x
        return cls._make(out, den * div)

    def _times_x(self) -> "Poly":
        """x * p in the monomial basis."""
        if not self._num:
            return self
        return Poly._make([0] + self._num, self._den, reduced=True)

    def _diag(self, vals, invert=False) -> "Poly":
        """x^n -> (a/b) x^n, or x^n -> (b/a) x^n when invert, for the int pair
        (a, b) = vals[n] with b > 0; the pairs at zero coefficients are not
        read. Inverting a = 0 raises ZeroDivisionError(n) at the lowest
        such occupied degree n."""
        terms = []
        for n, c in enumerate(self._num):
            if not c:
                continue
            a, b = vals[n]
            if not invert:
                terms.append((n, c * a, b))
            elif a > 0:
                terms.append((n, c * b, a))
            elif a:
                terms.append((n, -c * b, -a))
            else:
                raise ZeroDivisionError(n)
        lcm = math.lcm(*[b for _, _, b in terms])
        out = [0] * len(self._num)
        for n, x, b in terms:
            out[n] = x * (lcm // b)
        return Poly._make(out, self._den * lcm)

    # -- basis conversions ----------------------------------------------

    def _restep(self, stirling, delta, basis) -> "Poly":
        """sum_n c_n sum_k stirling(n, k) delta^(n-k) e_k: the change of basis
        that both conversions share. For delta = a/b the inner sums run over
        b^(N-n)-scaled numerators, so delta^(n-k) is a^(n-k) and coefficient
        k is put over den * b^(N-k)."""
        a, b = delta.numerator, delta.denominator
        c = _scaled_down(self._num, b)
        out = [0] * len(c)
        for n, cn in enumerate(c):
            if not cn:
                continue
            ap = cn
            for k in range(n, -1, -1):
                s = stirling(n, k)
                if s:
                    out[k] += s * ap
                ap *= a
        return Poly._make(_scale_up(out, b), self._den * b ** max(len(c) - 1, 0), basis)

    def to_monomial(self) -> "Poly":
        """Expand falling-factorial elements via signed Stirling numbers:
        [x]_n = sum_k s(n,k) delta^(n-k) x^k."""
        if self.basis == MONOMIAL:
            return self
        return self._restep(stirling_first, self.basis.delta, MONOMIAL)

    def to_falling(self, delta) -> "Poly":
        """Inverse conversion, via Stirling numbers of the second kind."""
        delta = rational(delta)
        target = FallingFactorial(delta)
        if self.basis == target:
            return self
        if self.basis != MONOMIAL:
            return self.to_monomial().to_falling(delta)
        return self._restep(stirling_second, delta, target)

    # -- evaluation -----------------------------------------------------

    def evaluate(self, x0) -> Fraction:
        if self.basis != MONOMIAL:
            return self.to_monomial().evaluate(x0)
        x0 = rational(x0)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x0 + c
        return acc

    __call__ = evaluate

    # -- rendering and serialization --------------------------------------

    def to_text(self) -> str:
        """Compact canonical text, highest degree first ("x^2-1/2*x")."""
        if self.is_zero:
            return "0"
        num, den = self._num, self._den
        parts = []
        for n in range(len(num) - 1, -1, -1):
            a = num[n]
            if not a:
                continue
            if self.basis == MONOMIAL:
                base = "x" if n == 1 else "x^%d" % n
            else:
                base = "[x]_%d" % n
            if n == 0:
                term = str(Fraction(a, den))
            elif a == den:
                term = base
            elif a == -den:
                term = "-" + base
            else:
                term = "%s*%s" % (Fraction(a, den), base)
            if parts and not term.startswith("-"):
                parts.append("+")
            parts.append(term)
        return "".join(parts)

    def coefficient_texts(self) -> list:
        """Each coefficient in the "p/q" wire format, "0" for a zero one."""
        den = self._den
        return [str(Fraction(a, den)) if a else "0" for a in self._num]

    def to_json(self) -> dict:
        if self.basis == MONOMIAL:
            basis = "monomial"
        else:
            basis = {"falling": {"delta": str(self.basis.delta)}}
        return {"basis": basis, "coeffs": self.coefficient_texts()}

    @classmethod
    def from_json(cls, data: dict) -> "Poly":
        basis = data["basis"]
        if basis == "monomial":
            tag = MONOMIAL
        else:
            tag = FallingFactorial(rational(basis["falling"]["delta"]))
        return cls([rational(c) for c in data["coeffs"]], tag)
