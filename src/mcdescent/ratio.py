"""Exact rational scalars.

Q is the one rational type of the package: a subclass of the stdlib
fractions.Fraction that adds no state (``__slots__ = ()``). It is a
subclass, not a new type, so that str, ordering, hashing, pickling and
string parsing are Fraction's own, and a Q compares and hashes equal to
the Fraction and int of the same value.

What it changes is the cost of arithmetic. Fraction's operators dispatch
through generic wrappers, read the public numerator/denominator
properties and build every result through the normalising constructor.
When both operands are Q, or one is Q and the other an int, on either
side, Q's own operators (+, -, *, /, unary -, abs, ** with an int
exponent, == and bool) read the two slots directly, reduce with the same
gcd steps as Fraction's _add, _mul and _div, and store the already
normalised result into a bare instance, with a shorter path when both
denominators are 1. Results are therefore the same (numerator,
denominator) pairs Fraction computes, and of type Q. Any other operand
(a Fraction, a float, a bool) goes to the Fraction method unchanged.

The tensor layer (dgla, mcgauge, sampling, semicosimplicial) carries a
coefficient as an int when it is integral (narrow) and as a Q otherwise,
so integer arithmetic runs in C; each true division there has a Q operand.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

_new = object.__new__


class Q(Fraction):
    __slots__ = ()

    def __new__(cls, numerator=0, denominator=None):
        if denominator is None and type(numerator) is int:
            self = _new(cls)
            self._numerator = numerator
            self._denominator = 1
            return self
        return Fraction.__new__(cls, numerator, denominator)

    __hash__ = Fraction.__hash__

    def __add__(a, b):
        tb = type(b)
        if tb is Q:
            na, da = a._numerator, a._denominator
            nb, db = b._numerator, b._denominator
            r = _new(Q)
            if da == 1 and db == 1:
                r._numerator = na + nb
                r._denominator = 1
                return r
            g = gcd(da, db)
            if g == 1:
                r._numerator = na * db + da * nb
                r._denominator = da * db
                return r
            s = da // g
            t = na * (db // g) + nb * s
            g2 = gcd(t, g)
            if g2 == 1:
                r._numerator = t
                r._denominator = s * db
            else:
                r._numerator = t // g2
                r._denominator = s * (db // g2)
            return r
        if tb is int:
            r = _new(Q)
            r._numerator = a._numerator + a._denominator * b
            r._denominator = a._denominator
            return r
        return Fraction.__add__(a, b)

    def __radd__(b, a):
        if type(a) is int:
            r = _new(Q)
            r._numerator = a * b._denominator + b._numerator
            r._denominator = b._denominator
            return r
        return Fraction.__radd__(b, a)

    def __sub__(a, b):
        tb = type(b)
        if tb is Q:
            na, da = a._numerator, a._denominator
            nb, db = b._numerator, b._denominator
            r = _new(Q)
            if da == 1 and db == 1:
                r._numerator = na - nb
                r._denominator = 1
                return r
            g = gcd(da, db)
            if g == 1:
                r._numerator = na * db - da * nb
                r._denominator = da * db
                return r
            s = da // g
            t = na * (db // g) - nb * s
            g2 = gcd(t, g)
            if g2 == 1:
                r._numerator = t
                r._denominator = s * db
            else:
                r._numerator = t // g2
                r._denominator = s * (db // g2)
            return r
        if tb is int:
            r = _new(Q)
            r._numerator = a._numerator - a._denominator * b
            r._denominator = a._denominator
            return r
        return Fraction.__sub__(a, b)

    def __rsub__(b, a):
        if type(a) is int:
            r = _new(Q)
            r._numerator = a * b._denominator - b._numerator
            r._denominator = b._denominator
            return r
        return Fraction.__rsub__(b, a)

    def __mul__(a, b):
        tb = type(b)
        if tb is Q:
            na, da = a._numerator, a._denominator
            nb, db = b._numerator, b._denominator
            r = _new(Q)
            if da == 1 and db == 1:
                r._numerator = na * nb
                r._denominator = 1
                return r
            g1 = gcd(na, db)
            if g1 > 1:
                na //= g1
                db //= g1
            g2 = gcd(nb, da)
            if g2 > 1:
                nb //= g2
                da //= g2
            r._numerator = na * nb
            r._denominator = db * da
            return r
        if tb is int:
            n, d = a._numerator, a._denominator
            if d != 1:
                g = gcd(b, d)
                if g > 1:
                    b //= g
                    d //= g
            r = _new(Q)
            r._numerator = n * b
            r._denominator = d
            return r
        return Fraction.__mul__(a, b)

    def __rmul__(b, a):
        if type(a) is int:
            n, d = b._numerator, b._denominator
            if d != 1:
                g = gcd(a, d)
                if g > 1:
                    a //= g
                    d //= g
            r = _new(Q)
            r._numerator = a * n
            r._denominator = d
            return r
        return Fraction.__rmul__(b, a)

    def __truediv__(a, b):
        tb = type(b)
        if tb is Q:
            if b._numerator:
                return _quot(a._numerator, a._denominator, b._numerator, b._denominator)
        elif tb is int:
            if b:
                return _quot(a._numerator, a._denominator, b, 1)
        return Fraction.__truediv__(a, b)

    def __rtruediv__(b, a):
        if type(a) is int and b._numerator:
            return _quot(a, 1, b._numerator, b._denominator)
        return Fraction.__rtruediv__(b, a)

    def __neg__(a):
        r = _new(Q)
        r._numerator = -a._numerator
        r._denominator = a._denominator
        return r

    def __abs__(a):
        r = _new(Q)
        r._numerator = abs(a._numerator)
        r._denominator = a._denominator
        return r

    def __pow__(a, b):
        if type(b) is int:
            n, d = a._numerator, a._denominator
            if b < 0:
                if not n:
                    return Fraction.__pow__(a, b)  # raises ZeroDivisionError
                n, d, b = d, n, -b
                if d < 0:
                    n, d = -n, -d
            r = _new(Q)
            r._numerator = n**b
            r._denominator = d**b
            return r
        return Fraction.__pow__(a, b)

    def __eq__(a, b):
        tb = type(b)
        if tb is Q:
            return a._numerator == b._numerator and a._denominator == b._denominator
        if tb is int:
            return a._numerator == b and a._denominator == 1
        return Fraction.__eq__(a, b)

    def __bool__(a):
        return a._numerator != 0


def _quot(na: int, da: int, nb: int, db: int) -> Q:
    """(na/da) / (nb/db) for nb != 0, as Fraction._div."""
    g1 = gcd(na, nb)
    if g1 > 1:
        na //= g1
        nb //= g1
    g2 = gcd(db, da)
    if g2 > 1:
        da //= g2
        db //= g2
    n, d = na * db, nb * da
    if d < 0:
        n, d = -n, -d
    r = _new(Q)
    r._numerator = n
    r._denominator = d
    return r


ZERO = Q(0)
ONE = Q(1)


def rat(value, den=None):
    """Coerce to an exact rational.

    Accepts ints, existing rationals, and strings like "3/4" or "-7".
    Floats are rejected: every number in this package must be exact. A Q
    comes back as it is, not re-created.
    """
    if type(value) is Q and den is None:
        return value
    if den is not None:
        return Q(value) / Q(den)
    if isinstance(value, float):
        raise TypeError("floats are not exact; pass an int, rational or string")
    if isinstance(value, str):
        s = value.strip()
        if "/" in s:
            num, _, d = s.partition("/")
            return Q(int(num.strip())) / Q(int(d.strip()))
        return Q(int(s))
    return Q(value)


def narrow(c):
    """A Q as an int when it is integral; anything else as it is."""
    return c._numerator if type(c) is Q and c._denominator == 1 else c


def neg_one_pow(n: int) -> int:
    """(-1)**n as an exact int, valid for negative n as well (where the
    builtin power would produce a float)."""
    return -1 if n % 2 else 1
