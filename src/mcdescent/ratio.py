"""Exact rational scalars.

Uses gmpy2's mpq when available (noticeably faster on the deep Artin bases),
falling back to the stdlib Fraction. Both types share the arithmetic and
string interfaces this package relies on, so everything downstream just
imports Q and rat().
"""

from __future__ import annotations

try:  # pragma: no cover - which branch runs depends on the environment
    from gmpy2 import mpq as Q

    _IMPL = "gmpy2"
except ImportError:  # pragma: no cover
    from fractions import Fraction as Q

    _IMPL = "fractions"

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


def neg_one_pow(n: int) -> int:
    """(-1)**n as an exact int, valid for negative n as well (where the
    builtin power would produce a float)."""
    return -1 if n % 2 else 1
