"""Exact q-arithmetic: q-numbers, double brackets, factorials, Stirling numbers.

Nothing here ever rounds. A ``QContext`` fixes the deformation parameter q
and memoizes the derived combinatorial quantities:

    {n}    = (1 - q^n)/(1 - q)       q-number of n, {0} = 0
    [[n]]  = n/{n}                   double bracket, [[0]] = 1
    [[n]]! = [[1]]...[[n]]           double-bracket factorial, [[0]]! = 1
    u(n)   = 1/[[n]]!                diagonal of the similarity transform

It keeps them only as tables of (num, den) int pairs in lowest terms,
which the operator kernels read without building a ``Fraction`` per value;
the public accessors (``qnumber``, ``dbracket``, ...) build the
``fractions.Fraction`` of the stored pair. The tables only grow, by
rebinding new tuples, and every function is pure, so values can be shared
freely across threads.
``Record`` is the base of the package's immutable value classes.
"""

from __future__ import annotations

import math
import warnings
from fractions import Fraction


def rational(value) -> Fraction:
    """Coerce ints, "p/q" strings and Fractions to Fraction.

    Floats are rejected: they would silently break exactness. A zero
    denominator is a ValueError, like any other malformed string.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError("zero denominator in %r" % value) from None
    raise TypeError("expected an exact rational, got %r" % (value,))


def reciprocal(pairs) -> list:
    """The (num, den) pair, den > 0, of 1/(a/b) for each pair (a, b) with
    b > 0, the one place a pair is inverted; a zero pair (0, 1) stays as
    it is. It takes the whole sequence: a call per pair costs more than
    the inversion."""
    return [(b, a) if a > 0 else (-b, -a) if a else (0, 1) for a, b in pairs]


def wire_field(data: dict, name: str, what: str, read=None):
    """data[name] of a wire-format object, passed through read when given.
    Data that is not an object, a missing field, and a value that read
    rejects with TypeError or ValueError are each a ValueError that names
    what is being read."""
    if not isinstance(data, dict):
        raise ValueError("%s wire data must be an object, got %r" % (what, data))
    if name not in data:
        raise ValueError("%s wire data has no %r field" % (what, name))
    value = data[name]
    if read is None:
        return value
    try:
        return read(value)
    except (TypeError, ValueError):
        raise ValueError("%s wire data has a malformed %r field: %r" % (what, name, value)) from None


class Record:
    """Immutable value whose fields are its ``__slots__``, given in order to
    the constructor; a subclass with defaults or checks has its own
    ``__init__``, which passes the final values on. Records of one class
    compare and hash field by field, and ``replace`` runs the checks again."""

    __slots__ = ()
    _setters = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # each field's slot setter, bound once: __setattr__ refuses every
        # assignment, so the constructor stores through the descriptors
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    def __init__(self, *values):
        setters = self._setters
        if len(values) != len(setters):
            raise TypeError("%s takes %d fields" % (type(self).__name__, len(setters)))
        for set_field, value in zip(setters, values):
            set_field(self, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def replace(self, **changes):
        """A copy with the named fields changed."""
        return type(self)(*[changes.pop(n, getattr(self, n)) for n in self.__slots__], **changes)

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value=None):
        raise AttributeError("%s is immutable: cannot change %s" % (type(self).__name__, name))

    __delattr__ = __setattr__

    def __repr__(self):
        fields = ", ".join("%s=%r" % (n, getattr(self, n)) for n in self.__slots__)
        return "%s(%s)" % (type(self).__name__, fields)


class QContext:
    """Deformation parameter q plus memoized q-combinatorics.

    Requires q != 1 and q != -1: for rational q, -1 is the only value at
    which some {n} vanishes. Values of q outside -1 < q < 1 are accepted
    but trigger a warning, since the usual convergence picture for the
    Jackson integral no longer applies there.

    Each table is a tuple of (num, den) int pairs in lowest terms with
    den > 0, entry n for index n; the kernels read them directly. With
    q = a/b and P_1 = 1, P_(n+1) = b^n + a P_n, the q-number is
    {n} = P_n / b^(n-1), already in lowest terms since P_n = a^(n-1) mod b,
    and [[n]] = n b^(n-1) / P_n once gcd(n, P_n) is divided out. The
    Fraction accessors build their value from the stored pair.

    The tables grow on demand to the largest index asked for. Growth builds
    new tuples and rebinds them, so a reader always holds a complete table
    and concurrent use needs no lock; racing growers compute identical
    values.
    """

    __slots__ = ("q", "_qnum", "_dbr", "_fact")

    def __init__(self, q):
        q = rational(q)
        if q == 1:
            raise ValueError("q = 1 is the undeformed point; q must differ from 1")
        if q == -1:
            raise ValueError("{2} = 0 at q = -1; q must differ from -1")
        if not -1 < q < 1:
            warnings.warn(
                "q = %s lies outside -1 < q < 1; identities remain exact but "
                "the Jackson-integral series has no convergent reading" % q,
                stacklevel=2,
            )
        self.q = q
        self._qnum = ((0, 1), (1, 1))
        self._dbr = ((1, 1),)
        # ([[n]]!, u(n)) rebound as one pair so the two always agree in length
        self._fact = (((1, 1),), ((1, 1),))

    def qnumber_pairs(self, n: int) -> tuple:
        """The pairs of {0}..{n} (at least), grown if needed."""
        t = self._qnum
        if len(t) <= n:
            a, b = self.q.numerator, self.q.denominator
            grown = list(t)
            p, d = grown[-1]
            while len(grown) <= n:
                # {k+1} = 1 + q{k}: P_(k+1) = b^k + a P_k over b^k
                p, d = b * d + a * p, b * d
                grown.append((p, d))
            t = self._qnum = tuple(grown)
        return t

    def dbracket_pairs(self, n: int) -> tuple:
        """The pairs of [[0]]..[[n]] (at least), grown if needed."""
        t = self._dbr
        if len(t) <= n:
            qnum = self.qnumber_pairs(n)
            grown = list(t)
            for k in range(len(grown), n + 1):
                p, d = qnum[k]
                g = math.gcd(k, p)
                if p < 0:
                    g = -g
                grown.append((k // g * d, p // g))
            t = self._dbr = tuple(grown)
        return t

    def _factorials(self, n: int) -> tuple:
        """The pair tables ([[k]]!, u(k)) for k = 0..n (at least), grown if
        needed; u(k) is the reciprocal of [[k]]!."""
        t = self._fact
        if len(t[0]) <= n:
            dbr = self.dbracket_pairs(n)
            dbfact, gamma = (list(table) for table in t)
            for k in range(len(dbfact), n + 1):
                # [[k]]! = [[k-1]]! [[k]], cross-reduced as Fraction multiplies
                (p, d), (pk, dk) = dbfact[-1], dbr[k]
                g1, g2 = math.gcd(p, dk), math.gcd(pk, d)
                p, d = (p // g1) * (pk // g2), (d // g2) * (dk // g1)
                dbfact.append((p, d))
            gamma += reciprocal(dbfact[len(gamma):])
            t = self._fact = (tuple(dbfact), tuple(gamma))
        return t

    def gamma_ratio_pairs(self, n: int) -> tuple:
        """The pairs of u(0)..u(n) (at least), grown if needed."""
        return self._factorials(n)[1]

    def qnumber(self, n: int) -> Fraction:
        """{n} = (1 - q^n)/(1 - q)."""
        return _fraction(self.qnumber_pairs, n)

    def dbracket(self, n: int) -> Fraction:
        """[[n]] = n/{n}, with [[0]] = 1."""
        return _fraction(self.dbracket_pairs, n)

    def dbracket_factorial(self, n: int) -> Fraction:
        """[[n]]! = [[1]][[2]]...[[n]], with [[0]]! = 1."""
        return _fraction(lambda m: self._factorials(m)[0], n)

    def __repr__(self):
        return "QContext(q=%s)" % self.q


def _fraction(pairs, n: int) -> Fraction:
    """Entry n of the pair table pairs(n) as a Fraction."""
    if n < 0:
        raise ValueError("index %d is negative" % n)
    return Fraction(*pairs(n)[n])


# The rows of s(n, k) (False) and S(n, k) (True) built so far; like the
# QContext tables they grow by rebinding a new tuple.
_stirling_rows = {False: ((1,),), True: ((1,),)}


def _stirling_row(second: bool, n: int) -> tuple:
    """Row n of s(n, k), or of S(n, k) when second; both kinds follow
    T(m, k) = T(m-1, k-1) + w T(m-1, k), with weight w = -(m-1) or k."""
    rows = _stirling_rows[second]
    if len(rows) <= n:
        grown = list(rows)
        for m in range(len(grown), n + 1):
            prev = grown[-1] + (0,)
            grown.append(tuple(
                (prev[k - 1] if k else 0) + (k if second else 1 - m) * prev[k]
                for k in range(m + 1)
            ))
        rows = _stirling_rows[second] = tuple(grown)
    return rows[n]


def stirling_first(n: int, k: int) -> int:
    """Signed Stirling number of the first kind s(n, k).

    Expansion coefficients of falling factorials in powers:
    x(x-1)...(x-n+1) = sum_k s(n,k) x^k.
    """
    if not 0 <= k <= n:
        raise ValueError("stirling_first requires 0 <= k <= n, got n=%d k=%d" % (n, k))
    return _stirling_row(False, n)[k]


def stirling_second(n: int, k: int) -> int:
    """Stirling number of the second kind S(n, k) (inverse triangle to s)."""
    if not 0 <= k <= n:
        raise ValueError("stirling_second requires 0 <= k <= n, got n=%d k=%d" % (n, k))
    return _stirling_row(True, n)[k]
