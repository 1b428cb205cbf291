"""Exact scalar arithmetic for metric computations.

Every metric in this package takes rational values except the l2 product
metric, whose distances are square roots of rationals.  ``Root`` represents
such a value exactly by its square; comparisons against rational scales and
mesh bounds compare squares, so no verifier decision ever goes through
floating point.
"""

from __future__ import annotations

import math
from fractions import Fraction

Rational = (int, Fraction)


def scalar(x):
    """The normal form of an exact scalar: an int when the value is integral,
    else a Fraction.  Takes ints, Fractions, strings like '3/4' or '2.5', and
    finite floats, each exactly."""
    if isinstance(x, bool):
        raise TypeError("bool is not a scalar")
    if isinstance(x, int):
        return x
    if isinstance(x, float) and not math.isfinite(x):
        raise ValueError(f"non-finite scalar: {x!r}")
    if not isinstance(x, (Fraction, str, float)):
        raise TypeError(f"cannot interpret {x!r} as an exact scalar")
    f = Fraction(x)
    return f.numerator if f.denominator == 1 else f


class Root:
    """sqrt(sq) for a non-negative rational sq that is not a perfect square.

    Built only through :func:`root_of`, which returns a plain rational for
    perfect squares, so a live Root is always irrational and never equal to
    a rational.  sq is in the normal form of :func:`scalar`.
    """

    __slots__ = ("sq",)

    def __init__(self, sq):
        self.sq = sq

    def __repr__(self):
        return f"sqrt({self.sq})"

    def __float__(self):
        n, d = self.sq.numerator, self.sq.denominator
        try:
            return math.sqrt(n / d)
        except OverflowError:
            # sq is beyond floats but its root may not be; like float(int),
            # this raises OverflowError only when the root is beyond floats too
            return float(math.isqrt(n // d))

    def __hash__(self):
        return hash(("Root", self.sq))

    def __eq__(self, other):
        if isinstance(other, Root):
            return self.sq == other.sq
        if isinstance(other, Rational):
            return False  # non-perfect square is irrational
        return NotImplemented

    def _cmp(self, other):
        # -1/0/1 for self vs other by squares; NotImplemented for a non-scalar
        if isinstance(other, Root):
            o = other.sq
        elif isinstance(other, Rational):
            if other < 0:
                return 1
            o = other * other
        else:
            return NotImplemented
        return (self.sq > o) - (self.sq < o)

    def __lt__(self, other):
        c = self._cmp(other)
        return c if c is NotImplemented else c < 0

    def __le__(self, other):
        c = self._cmp(other)
        return c if c is NotImplemented else c <= 0

    def __gt__(self, other):
        c = self._cmp(other)
        return c if c is NotImplemented else c > 0

    def __ge__(self, other):
        c = self._cmp(other)
        return c if c is NotImplemented else c >= 0


def root_of(sq):
    """Exact sqrt of a non-negative rational: rational if perfect square, else Root."""
    sq = scalar(sq)
    if sq < 0:
        raise ValueError("root_of needs a non-negative argument")
    rn, rd = math.isqrt(sq.numerator), math.isqrt(sq.denominator)
    if rn * rn != sq.numerator or rd * rd != sq.denominator:
        return Root(sq)
    return rn if rd == 1 else Fraction(rn, rd)


def sq_value(x) -> Fraction | int:
    """The exact square of a scalar (int, Fraction, or Root), int-normalized."""
    if isinstance(x, int):
        return x * x
    if isinstance(x, Fraction):
        v = x * x
        return int(v) if v.denominator == 1 else v
    if isinstance(x, Root):
        return x.sq
    raise TypeError(f"not a scalar: {x!r}")


def hyp(a, b):
    """Exact sqrt(a^2 + b^2); the l2 combination of two scalars."""
    if isinstance(a, int) and isinstance(b, int):
        return root_of(a * a + b * b)
    return root_of(sq_value(a) + sq_value(b))


def triangle_le(a, b, c) -> bool:
    """Exact test a <= b + c for non-negative scalars, Roots allowed."""
    if not isinstance(a, Root) and not isinstance(b, Root) and not isinstance(c, Root):
        return a <= b + c
    return triangle_le_sq(sq_value(a), sq_value(b), sq_value(c))


def triangle_le_sq(A, B, C) -> bool:
    """Exact test sqrt(A) <= sqrt(B) + sqrt(C) for non-negative rationals:
    with t = A - B - C, it holds iff t <= 0 or t^2 <= 4BC."""
    t = A - B - C
    if t <= 0:
        return True
    return t * t <= 4 * B * C


def ceil_scalar(x) -> int:
    """Smallest integer >= x, exact for Roots."""
    if isinstance(x, Rational):
        return math.ceil(x)
    if isinstance(x, Root):
        n = math.isqrt(math.floor(x.sq))
        while n * n < x.sq:
            n += 1
        return n
    raise TypeError(f"not a scalar: {x!r}")
