"""Exact rationals: Q against the stdlib Fraction it subclasses."""

import ast
import copy
import math
import operator
import pathlib
import pickle
import random
from fractions import Fraction

import pytest

from mcdescent.io import InputError, num_from_json
from mcdescent.ratio import Q, rat

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "mcdescent"

BINARY = [operator.add, operator.sub, operator.mul, operator.truediv]


def operands(seed: int, count: int) -> list:
    """Seeded ints and Fractions: 0, +-1, small and large ints, and
    fractions whose large parts share factors before normalising."""
    rng = random.Random(seed)
    out = [0, 1, -1, 2, -3, 7, 2**70, -(3**45), Fraction(1, 2), Fraction(-2, 3)]
    while len(out) < count:
        kind = rng.randrange(4)
        if kind == 0:
            out.append(rng.randint(-(10**6), 10**6))
        elif kind == 1:
            out.append(Fraction(rng.randint(-50, 50), rng.randint(1, 50)))
        else:
            g = rng.choice((1, 6, 2**40, 3**30 * 5))
            num = g * rng.randint(-(10**15), 10**15)
            den = g * rng.randint(1, 10**15)
            out.append(Fraction(num, den))
    return out


def check_result(got, want):
    assert type(got) is Q
    assert got == want and want == got
    assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
    assert got.denominator > 0
    assert math.gcd(got.numerator, got.denominator) == 1
    assert str(got) == str(want)
    assert hash(got) == hash(want)


def test_operations_agree_with_fraction():
    xs = operands(9, 40)
    for x in xs:
        for y in xs:
            fx, fy = Fraction(x), Fraction(y)
            pairs = [(Q(fx), Q(fy))]  # Q/Q
            if type(y) is int:
                pairs.append((Q(fx), y))  # Q/int
            if type(x) is int:
                pairs.append((x, Q(fy)))  # int/Q
            for a, b in pairs:
                for op in BINARY:
                    if op is operator.truediv and fy == 0:
                        with pytest.raises(ZeroDivisionError):
                            op(a, b)
                        continue
                    check_result(op(a, b), op(fx, fy))
                assert (a == b) is (fx == fy)
                assert (a != b) is (fx != fy)
                assert (a < b) is (fx < fy)
        q = Q(Fraction(x))
        check_result(-q, -Fraction(x))
        check_result(abs(q), abs(Fraction(x)))
        assert bool(q) is bool(x)
        for k in (0, 1, 2, 3, -1, -2):
            if k < 0 and x == 0:
                continue
            check_result(q**k, Fraction(x) ** k)


def test_other_operands_fall_back_to_fraction():
    a = Q(1, 2)
    assert a + 0.25 == 0.75 and type(a + 0.25) is float
    assert a * Fraction(2, 3) == Fraction(1, 3)
    assert a == 0.5 and a != 0.25
    assert a**Q(2) == Fraction(1, 4)


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        Q(1, 2) / Q(0)
    with pytest.raises(ZeroDivisionError):
        Q(1, 2) / 0
    with pytest.raises(ZeroDivisionError):
        3 / Q(0)
    with pytest.raises(ZeroDivisionError):
        Q(0) ** -1


def test_pickle_and_copy_round_trip():
    for v in (Q(0), Q(-7), Q(2**80, 3**50), Q(-5, 12)):
        for back in (pickle.loads(pickle.dumps(v)), copy.copy(v), copy.deepcopy(v)):
            assert type(back) is Q and back == v and hash(back) == hash(v)


def test_rat_coerces_exactly():
    assert rat("3/6") == Q(1, 2) and type(rat("3/6")) is Q
    assert rat(" -7 ") == -7 and type(rat("-7")) is Q
    assert rat(4, 6) == Q(2, 3) and type(rat(4, 6)) is Q
    q = Q(5, 7)
    assert rat(q) is q
    with pytest.raises(TypeError):
        rat(0.5)
    with pytest.raises(ZeroDivisionError):
        rat("3/0")
    with pytest.raises(InputError, match="not a rational literal"):
        num_from_json("3/0", "$.x")


def test_only_ratio_imports_fractions():
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names |= {a.name for a in node.names}
            elif isinstance(node, ast.ImportFrom):
                names.add(node.module)
        if path.name != "ratio.py":
            assert "fractions" not in names, path.name
