"""Monomial-quotient Artin rings: bases, products, filtration."""

import random

import pytest

from mcdescent.artin import (
    ArtinAlgebra,
    ArtinError,
    ArtinMorphism,
    base_change,
    builtin_artin,
    builtin_artin_names,
    dual_numbers,
    fat_point,
    mono_mul_raw,
    square_zero,
    truncated_poly,
)
from mcdescent.ratio import Q


def test_dual_numbers_shape():
    A = dual_numbers()
    assert A.dim == 2
    assert A.basis == [(0,), (1,)]
    assert A.nu == 2
    assert A.is_square_zero()
    assert A.mono_mul((1,), (1,)) is None


def test_truncated_poly_frozen():
    A = truncated_poly(4)
    assert A.basis == [(0,), (1,), (2,), (3,)]
    assert A.nu == 4
    assert not A.is_square_zero()
    assert A.mono_mul((1,), (2,)) == (3,)
    assert A.mono_mul((2,), (2,)) is None
    assert A.monomials_of_level(2) == [(2,)]


def test_fat_point_frozen():
    A = fat_point()
    # basis sorted by (degree, lex): 1, x, y, xy
    assert A.basis == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert A.nu == 3
    assert A.mono_mul((1, 0), (0, 1)) == (1, 1)
    assert A.mono_mul((1, 0), (1, 0)) is None
    assert A.mono_str((1, 1)) == "x*y"


def test_square_zero_builder():
    A = square_zero(3)
    assert A.dim == 4
    assert A.is_square_zero()
    for a in A.maximal_basis:
        for b in A.maximal_basis:
            assert A.mono_mul(a, b) is None


def test_cofiniteness_enforced():
    with pytest.raises(ArtinError):
        ArtinAlgebra(2, [(2, 0)])  # no pure power of the second variable
    with pytest.raises(ArtinError):
        ArtinAlgebra(1, [(0,)])  # 1 = 0


def test_relation_minimalisation():
    A = ArtinAlgebra(2, [(2, 0), (0, 2), (3, 0), (2, 1)])
    assert (3, 0) not in A.relations
    assert (2, 1) not in A.relations
    assert sorted(A.relations) == [(0, 2), (2, 0)]


def test_mixed_monomial_ideal():
    # Q[x,y]/(x^3, y^2, x*y): basis 1, x, y, x^2
    A = ArtinAlgebra(2, [(3, 0), (0, 2), (1, 1)])
    assert A.basis == [(0, 0), (0, 1), (1, 0), (2, 0)]
    assert A.nu == 3
    assert A.mono_mul((1, 0), (1, 0)) == (2, 0)
    assert A.mono_mul((1, 0), (0, 1)) is None


@pytest.mark.parametrize(
    "A",
    [builtin_artin(n) for n in builtin_artin_names()]
    + [ArtinAlgebra(2, [(3, 0), (0, 2), (1, 1)])],
    ids=lambda A: A.label or "mixed",
)
def test_product_table_is_raw_product_mod_ideal(A):
    for a in A.basis:
        for b in A.basis:
            p = mono_mul_raw(a, b)
            assert A.mono_mul(a, b) == (None if A.in_ideal(p) else p)


def test_mono_mul_is_defined_on_basis_monomials_only():
    A = dual_numbers()
    with pytest.raises(KeyError):
        A.mono_mul((2,), (0,))


def test_element_arithmetic():
    A = truncated_poly(3)
    a = A.elem({(1,): 1, (2,): "1/2"})
    b = A.elem({(0,): 1, (1,): -1})
    ab = A.mul(a, b)
    # (t + t^2/2)(1 - t) = t - t^2/2 mod t^3
    assert ab == {(1,): Q(1), (2,): Q(-1, 2)}
    assert A.add(a, b) == {(0,): Q(1), (2,): Q(1, 2)}
    with pytest.raises(ArtinError):
        A.elem({(5,): 1})


def test_level_additivity_random():
    rng = random.Random(5)
    A = ArtinAlgebra(2, [(3, 0), (0, 3), (2, 2)])
    for _ in range(100):
        a = rng.choice(A.basis)
        b = rng.choice(A.basis)
        p = A.mono_mul(a, b)
        if p is not None:
            assert A.level(p) == A.level(a) + A.level(b)
            assert p in A.index


def test_nilpotency_index_meaning():
    for name in builtin_artin_names():
        A = builtin_artin(name)
        # some product of nu-1 maximal-ideal monomials survives, none of nu
        assert any(A.level(m) == A.nu - 1 for m in A.maximal_basis)
        assert all(A.level(m) < A.nu for m in A.basis)


def test_builtin_lookup():
    assert builtin_artin("dual").dim == 2
    with pytest.raises(ArtinError):
        builtin_artin("nope")


def test_morphism_kills_high_powers():
    A = truncated_poly(3)
    B = dual_numbers()
    f = ArtinMorphism(A, B, [{(1,): 1}])
    assert f.apply({(1,): 1}) == {(1,): Q(1)}
    assert f.apply({(2,): 1}) == {}


def test_morphism_merges_generators():
    C = fat_point()
    D = dual_numbers()
    g = ArtinMorphism(C, D, [{(1,): 1}, {(1,): 1}])
    assert g.apply({(1, 0): 1, (0, 1): -1}) == {}
    assert g.apply({(1, 0): 1}) == {(1,): Q(1)}


def test_identity_morphism_fixes_elements():
    for name in builtin_artin_names():
        A = builtin_artin(name)
        i = ArtinMorphism.identity(A)
        rng = random.Random(5)
        for _ in range(5):
            u = {m: rng.randint(-3, 3) for m in A.maximal_basis}
            assert i.apply(u) == A.elem(u)


def test_morphism_rejects_non_local_and_broken_relations():
    A = truncated_poly(3)
    B = dual_numbers()
    with pytest.raises(ArtinError):
        ArtinMorphism(A, B, [{(0,): 1}])
    with pytest.raises(ArtinError):
        # eps^2 = 0 in the source but t^2 is nonzero in the target
        ArtinMorphism(B, A, [{(1,): 1}])


def test_base_change_of_composite_is_composite_of_base_changes():
    rng = random.Random(6)
    A = truncated_poly(4)
    Bv = fat_point()
    C = dual_numbers()
    f = ArtinMorphism(A, Bv, [{(1, 0): 1, (0, 1): 2}])
    g = ArtinMorphism(Bv, C, [{(1,): 1}, {(1,): -1}])
    gf = g.compose(f)
    for _ in range(20):
        u = {m: rng.randint(-4, 4) for m in A.maximal_basis if rng.random() < 0.7}
        assert base_change(gf, u) == base_change(g, base_change(f, u))


def test_base_change_is_multiplicative():
    rng = random.Random(7)
    A = truncated_poly(4)
    B = truncated_poly(3)
    f = ArtinMorphism(A, B, [{(1,): 1, (2,): 1}])
    for _ in range(20):
        u = {m: rng.randint(-3, 3) for m in A.maximal_basis if rng.random() < 0.7}
        v = {m: rng.randint(-3, 3) for m in A.maximal_basis if rng.random() < 0.7}
        lhs = f.apply(A.mul(A.elem(u), A.elem(v)))
        rhs = B.mul(f.apply(u), f.apply(v))
        assert lhs == rhs
