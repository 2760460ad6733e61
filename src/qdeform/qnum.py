"""Exact q-arithmetic: q-numbers, double brackets, factorials, Stirling numbers.

All scalars are ``fractions.Fraction``; nothing here ever rounds. A
``QContext`` fixes the deformation parameter q and memoizes the derived
combinatorial quantities:

    {n}   = (1 - q^n)/(1 - q)        q-number of n, {0} = 0
    [[n]] = n/{n}                    double bracket, [[0]] = 1
    {n}!, [[n]]!                     the associated factorials
    u(n)  = {n}!/n!                  diagonal of the similarity transform

Contexts are immutable after construction and every function is pure, so
values can be shared freely across threads. ``Record`` is the base of the
package's immutable value classes.
"""

from __future__ import annotations

import math
import warnings
from fractions import Fraction
from functools import lru_cache

#: The ground field. Exact, arbitrary precision, always in lowest terms
#: with positive denominator; ``str()`` yields the "p/q" wire format.
Rational = Fraction


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


class Record:
    """Immutable value whose fields are its ``__slots__``, given in order to
    the constructor; a subclass with defaults or checks has its own
    ``__init__``, which passes the final values on. Records of one class
    compare and hash field by field, and ``replace`` runs the checks again."""

    __slots__ = ()

    def __init__(self, *values):
        names = self.__slots__
        if len(values) != len(names):
            raise TypeError("%s takes %d fields" % (type(self).__name__, len(names)))
        for name, value in zip(names, values):
            object.__setattr__(self, name, value)

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
        self._qnum = (Fraction(0),)
        self._dbr = (Fraction(1),)
        # ({n}!, [[n]]!) rebound as one pair so the two always agree in length
        self._fact = ((Fraction(1),), (Fraction(1),))

    def _qnums(self, n: int) -> tuple:
        """The table {0}..{n} (at least), grown if needed."""
        if n < 0:
            raise ValueError("index %d is negative" % n)
        t = self._qnum
        if len(t) <= n:
            grown = list(t)
            while len(grown) <= n:
                grown.append(1 + self.q * grown[-1])  # {n+1} = 1 + q{n}
            t = self._qnum = tuple(grown)
        return t

    def _dbrackets(self, n: int) -> tuple:
        """The table [[0]]..[[n]] (at least), grown if needed."""
        if n < 0:
            raise ValueError("index %d is negative" % n)
        t = self._dbr
        if len(t) <= n:
            qnum = self._qnums(n)
            grown = list(t)
            for k in range(len(grown), n + 1):
                grown.append(k / qnum[k])
            t = self._dbr = tuple(grown)
        return t

    def _factorials(self, n: int) -> tuple:
        """The tables ({k}!, [[k]]!) for k = 0..n (at least), grown if needed."""
        qnum = self._qnums(n)
        dbr = self._dbrackets(n)
        t = self._fact
        if len(t[0]) <= n:
            qfact, dbfact = list(t[0]), list(t[1])
            for k in range(len(qfact), n + 1):
                qfact.append(qfact[-1] * qnum[k])
                dbfact.append(dbfact[-1] * dbr[k])
            t = self._fact = (tuple(qfact), tuple(dbfact))
        return t

    def qnumber(self, n: int) -> Fraction:
        """{n} = (1 - q^n)/(1 - q)."""
        return self._qnums(n)[n]

    def dbracket(self, n: int) -> Fraction:
        """[[n]] = n/{n}, with [[0]] = 1."""
        return self._dbrackets(n)[n]

    def qfactorial(self, n: int) -> Fraction:
        """{n}! = {1}{2}...{n}, empty product at n = 0."""
        return self._factorials(n)[0][n]

    def dbracket_factorial(self, n: int) -> Fraction:
        """[[n]]! = [[1]][[2]]...[[n]], with [[0]]! = 1."""
        return self._factorials(n)[1][n]

    def gamma_ratio(self, n: int) -> Fraction:
        """u(n) = Gamma_q(n+1)/Gamma(n+1) = {n}!/n!."""
        return self.qfactorial(n) / math.factorial(n)

    def __repr__(self):
        return "QContext(q=%s)" % self.q


@lru_cache(maxsize=None)
def _stirling_row(second: bool, n: int) -> tuple:
    """Row n of s(n, k), or of S(n, k) when second; both kinds follow
    T(n, k) = T(n-1, k-1) + w T(n-1, k), with weight w = -(n-1) or k."""
    if n == 0:
        return (1,)
    prev = _stirling_row(second, n - 1) + (0,)
    return tuple(
        (prev[k - 1] if k else 0) + (k if second else 1 - n) * prev[k] for k in range(n + 1)
    )


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
