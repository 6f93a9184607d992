"""Graded Lie structure: validation, tensor elements, substitution."""

import random
from itertools import combinations, permutations, product
from math import lcm

import pytest

from mcdescent.artin import builtin_artin, builtin_artin_names, mono_mul_raw, truncated_poly
from mcdescent.builders import acyclic_complex, cover_conjugated, random_chain_auto, two_step_complex
from mcdescent.dgla import (
    Dgla,
    DglaError,
    DglaMap,
    TensorCtx,
    _repeated_choice,
    abelian_dgla,
    direct_sum,
    sl2,
)
from mcdescent.forms import f_const, f_sub, f_var
from mcdescent.io import builtin_input_names, dgla_from_json, load_builtin
from mcdescent.linalg import ChainComplexQ, Mat
from mcdescent.pipeline import end_dgla_of_complex, vector_complex
from mcdescent.ratio import Q, neg_one_pow, rat

from dense_views import dense_rows


def two_term() -> Dgla:
    # x in degree 0 acting on y in degree 1 by [x, y] = y, d = 0
    br = {
        (0, 0, 1, 0): [(0, 1)],
    }
    return Dgla({0: 1, 1: 1}, {}, br)


def test_sl2_validates():
    L = sl2()
    L.validate()
    assert L.total_dim == 3
    assert L.bracket_basis(0, 1, 0, 0) == ((0, Q(2)),)
    assert L.cohomology(0)[0] == 3  # zero differential


def test_antisymmetry_violation_caught():
    br = {(0, 0, 0, 1): [(0, 1)], (0, 1, 0, 0): [(0, 1)]}
    L = Dgla({0: 2}, {}, br)
    with pytest.raises(DglaError, match="antisym"):
        L.validate()


def test_jacobi_violation_caught():
    # tampered sl2: [h, e] = e instead of 2e
    L = Dgla({0: 3}, {}, {(0, 1, 0, 0): [(0, 1)], (0, 1, 0, 2): [(2, -2)], (0, 0, 0, 2): [(1, 1)]})
    with pytest.raises(DglaError, match="Jacobi"):
        L.validate()


def test_leibniz_violation_caught():
    # d(a) = c but [c, b] is not d[a, b] = 0
    br = {(0, 0, 0, 1): [], (1, 0, 0, 1): [(0, 1)]}
    L = Dgla({0: 2, 1: 1}, {0: [[1, 0]]}, br)
    with pytest.raises(DglaError, match="Leibniz"):
        L.validate()


def test_d_squared_violation_caught():
    L = abelian_dgla({0: 1, 1: 1, 2: 1}, {0: [[1]], 1: [[1]]})
    with pytest.raises(DglaError, match="d\\^2"):
        L.validate()


def test_derived_antisymmetry_fill():
    L = two_term()
    # [y, x] was not given; must be -(-1)^{0*1}[x, y] = -y
    assert L.bracket_basis(1, 0, 0, 0) == ((0, Q(-1)),)


def test_a_callable_bracket_is_tabulated_and_checked_at_first_use():
    """A bracket that lands outside its target degree is refused at the
    first bracket, whether the table is given as a dict or as a function
    that returns it; construction builds no table."""
    outside = {(0, 0, 0, 0): [(2, 1)]}
    for bracket in (outside, lambda: outside):
        L = Dgla({0: 1}, {}, bracket)
        assert "_br" not in vars(L)
        with pytest.raises(DglaError, match="bracket lands on index 2"):
            L.bracket_basis(0, 0, 0, 0)


def test_the_complex_of_a_dgla_is_built_once():
    L = end_dgla_of_complex(vector_complex(ChainComplexQ({0: 1, 1: 1}, {0: [[1]]})))[0]
    assert L.complex() is L.complex()
    assert L.cohomology(0) == L.complex().cohomology(0)


def rand_elem(ctx, rng, total_deg, nterms=3, min_level=1):
    A = ctx.artin
    L = ctx.dgla
    out = ctx.zero()
    nv = ctx.nforms
    for _ in range(nterms):
        deg_choices = [d for d in L.degrees() if 0 <= total_deg - d <= nv]
        if not deg_choices:
            return out
        d = rng.choice(deg_choices)
        k = total_deg - d
        S = tuple(sorted(rng.sample(range(nv), k))) if nv else ()
        idx = rng.randrange(L.dim(d))
        monos = [m for m in A.basis if sum(m) >= min_level] if A else [()]
        am = rng.choice(monos)
        pm = tuple(rng.randint(0, 2) for _ in range(nv))
        out = out.add(ctx.term(d, idx, rng.randint(-3, 3), am, pm, S))
    return out


def test_elem_bracket_graded_antisymmetric():
    rng = random.Random(21)
    L = sl2()
    A = truncated_poly(3)
    ctx = TensorCtx(L, A, ("t", "s"))
    for _ in range(25):
        dx = rng.choice([0, 1, 2])
        dy = rng.choice([0, 1, 2])
        x = rand_elem(ctx, rng, dx)
        y = rand_elem(ctx, rng, dy)
        lhs = x.bracket(y)
        rhs = y.bracket(x).scale(-((-1) ** (dx * dy)))
        assert lhs.eq(rhs)


def test_elem_d_squared_and_leibniz():
    rng = random.Random(22)
    L = two_term()
    A = truncated_poly(3)
    ctx = TensorCtx(L, A, ("t",))
    for _ in range(25):
        dx = rng.choice([0, 1])
        dy = rng.choice([0, 1])
        x = rand_elem(ctx, rng, dx)
        y = rand_elem(ctx, rng, dy)
        assert x.d().d().is_zero()
        lhs = x.bracket(y).d()
        rhs = x.d().bracket(y).add(x.bracket(y.d()).scale((-1) ** dx))
        assert lhs.eq(rhs)


def test_elem_jacobi():
    rng = random.Random(23)
    L = sl2()
    A = truncated_poly(4)
    ctx = TensorCtx(L, A, ("t",))
    for _ in range(15):
        degs = [rng.choice([0, 1]) for _ in range(3)]
        x, y, z = (rand_elem(ctx, rng, dg, nterms=2) for dg in degs)
        lhs = x.bracket(y.bracket(z))
        rhs = x.bracket(y).bracket(z).add(
            y.bracket(x.bracket(z)).scale((-1) ** (degs[0] * degs[1]))
        )
        assert lhs.eq(rhs)


def naive_bracket(x, y) -> dict:
    """Reference bracket, one term pair at a time:
    [l a w, l' a' w'] = (-1)^{|w| |l'|} [l, l'] (a a') (w ^ w')."""
    L, A = x.ctx.dgla, x.ctx.artin
    out = {}
    for (d1, i1, a1, p1, S1), c1 in x.terms.items():
        for (d2, i2, a2, p2, S2), c2 in y.terms.items():
            am = mono_mul_raw(a1, a2)
            if A.in_ideal(am) or set(S1) & set(S2):
                continue
            seq = S1 + S2
            swaps = sum(1 for a in range(len(seq)) for b in range(a) if seq[b] > seq[a])
            sign = -1 if (swaps + len(S1) * d2) % 2 else 1
            pm = tuple(u + v for u, v in zip(p1, p2))
            for k, c in L.bracket_basis(d1, i1, d2, i2):
                key = (d1 + d2, k, am, pm, tuple(sorted(seq)))
                out[key] = out.get(key, 0) + sign * c1 * c2 * c
    return {k: v for k, v in out.items() if v != 0}


@pytest.mark.parametrize("ring", ["t4", "fat2", "sqz2"])
def test_slot_grouped_bracket_matches_term_by_term(ring):
    # End(Q -> Q^2) has degrees -1, 0, 1, so Koszul signs (-1)^{|w| |l'|}
    # meet odd Lie degrees; three form variables give odd masks and shuffles
    L, _ = end_dgla_of_complex(vector_complex(ChainComplexQ({0: 1, 1: 2}, {0: [[1], [2]]})))
    A = builtin_artin(ring)
    ctx = TensorCtx(L, A, ("t", "s", "u"))
    rng = random.Random(ring)

    def rand_term():
        d = rng.choice(L.degrees())
        return ctx.term(
            d,
            rng.randrange(L.dim(d)),
            Q(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3)),
            rng.choice(A.basis),
            tuple(rng.randint(0, 1) for _ in range(3)),
            tuple(sorted(rng.sample(range(3), rng.randint(0, 2)))),
        )

    for _ in range(30):
        x = ctx.zero()
        y = ctx.zero()
        for _ in range(rng.randint(1, 6)):
            x = x.add(rand_term())
        for _ in range(rng.randint(1, 6)):
            y = y.add(rand_term())
        assert x.bracket(y).terms == naive_bracket(x, y)


def test_subst_commutes_with_d():
    # pullbacks are maps of complexes: subst(d x) = d(subst x)
    rng = random.Random(24)
    L = sl2()
    A = truncated_poly(3)
    ctx = TensorCtx(L, A, ("t", "s"))
    # substitute t := 1 - u, s := u*v into new variables (u, v)
    images = [
        f_sub(f_const(1, 2), f_var(0, 2)),
        {((1, 1), ()): Q(1)},
    ]
    for _ in range(20):
        x = rand_elem(ctx, rng, rng.choice([0, 1, 2]))
        lhs = x.d().form_subst(images, ("u", "v"))
        rhs = x.form_subst(images, ("u", "v")).d()
        assert lhs.eq(rhs)


def test_subs_values_kills_differentials():
    L = sl2()
    A = truncated_poly(3)
    ctx = TensorCtx(L, A, ("t",))
    x = ctx.term(0, 0, 1, (1,), (1,), (0,))  # e * t(1) * t dt
    at0 = x.subs_values({0: 0})
    assert at0.is_zero()
    y = ctx.term(0, 0, 1, (1,), (2,), ())  # e * t(1) * t^2
    assert y.subs_values({0: "1/2"}).eq(
        TensorCtx(L, A, ()).term(0, 0, "1/4", (1,))
    )


def zero_free(e) -> bool:
    return all(c != 0 for c in e.terms.values())


def test_operations_keep_elements_zero_free():
    # inputs built to cancel: a result holds no zero coefficient, so a
    # cancelled result is the empty element
    L, _ = end_dgla_of_complex(vector_complex(ChainComplexQ({0: 1, 1: 2}, {0: [[1], [2]]})))
    A = truncated_poly(3)
    ctx = TensorCtx(L, A, ("t", "s"))
    rng = random.Random(27)
    for _ in range(30):
        x = rand_elem(ctx, rng, rng.choice([0, 1]), nterms=5)
        y = rand_elem(ctx, rng, rng.choice([0, 1]), nterms=5)
        x0 = rand_elem(ctx, rng, 0, nterms=5)
        cancelled = [
            x.sub(x), x.add(x.neg()), x.d().d(), x.scale(0), x0.bracket(x0),
            x.add(y).sub(y).sub(x),
        ]
        for e in cancelled:
            assert e.is_zero() and e.terms == {}
        results = [
            x.add(y), x.sub(y), x.neg(), x.scale(Q(-2, 3)), x.scale(1), x.d(),
            x.bracket(y), x.form_subst([f_var(0, 1), f_var(0, 1)], ("u",)),
            x.subs_values({0: 1}), x.subs_values({1: 0, 0: Q(1, 2)}),
        ]
        assert all(zero_free(e) for e in results)

    # l t - l s pulled back along t, s := u, u, or evaluated at t = s = 1
    l_t = ctx.term(0, 0, 1, (1,), (1, 0))
    l_s = ctx.term(0, 0, 1, (1,), (0, 1))
    diag = [f_var(0, 1), f_var(0, 1)]
    assert l_t.sub(l_s).form_subst(diag, ("u",)).terms == {}
    assert l_t.sub(l_s).subs_values({0: 1, 1: 1}).terms == {}
    assert ctx.term(0, 0, 1, (1,), (2, 0), (0,)).subs_values({0: 3}).terms == {}

    # two basis vectors with the same image under a dgLa map
    fold = DglaMap(abelian_dgla({0: 2}), abelian_dgla({0: 1}), {0: [[1, 1]]})
    actx = TensorCtx(fold.source, A, ("t",))
    a = actx.term(0, 0, 2, (1,), (1,)).sub(actx.term(0, 1, 2, (1,), (1,)))
    assert zero_free(a) and len(a.terms) == 2
    assert a.map_lie(fold).terms == {}
    assert zero_free(a.add(actx.term(0, 0, 1, (2,))).map_lie(fold))


def test_subs_values_matches_form_subst_in_term_order():
    # direct evaluation gives the general substitution's terms, in its order
    rng = random.Random(28)
    L = sl2()
    ctx = TensorCtx(L, truncated_poly(3), ("t", "s", "u"))
    for _ in range(40):
        x = rand_elem(ctx, rng, rng.choice([0, 1, 2]), nterms=8)
        chosen = rng.sample(range(3), rng.randint(1, 3))
        values = {i: rng.choice([0, 1, -1, Q(1, 2), Q(-2, 3), "3"]) for i in chosen}
        keep = [i for i in range(3) if i not in values]
        images = [
            f_const(rat(values[i]), len(keep)) if i in values
            else f_var(keep.index(i), len(keep))
            for i in range(3)
        ]
        want = x.form_subst(images, [ctx.form_vars[i] for i in keep])
        got = x.subs_values(values)
        assert got.ctx == want.ctx
        assert list(got.terms.items()) == list(want.terms.items())


def test_lie_vector_roundtrip():
    L = sl2()
    A = truncated_poly(3)
    ctx = TensorCtx(L, A, ("t",))
    v = (Q(1), Q(-2), Q(3))
    x = ctx.zero()
    for i, c in enumerate(v):
        x = x.add(ctx.term(0, i, c, amono=(2,), pmono=(1,), dmask=()))
    assert x.terms == {(0, i, (2,), (1,), ()): c for i, c in enumerate(v)}


def test_direct_sum_structure():
    L1 = sl2()
    L2 = two_term()
    total, injs, projs = direct_sum([L1, L2])
    assert total.dim(0) == 4 and total.dim(1) == 1
    total.validate(mode="full")
    for inj in injs:
        inj.validate()
    # proj . inj = identity on each part
    for pi, (inj, prj) in enumerate(zip(injs, projs)):
        comp = prj.compose(inj)
        assert comp.eq(DglaMap.identity([L1, L2][pi]))
    # brackets across summands vanish
    ctx = TensorCtx(total, truncated_poly(3))
    a = ctx.term(0, 0, 1, (1,))  # from sl2
    b = ctx.term(0, 3, 1, (1,))  # x from the second part
    assert a.bracket(b).is_zero()


def test_map_lie_on_elements():
    L = sl2()
    total, injs, _ = direct_sum([L, L])
    ctx = TensorCtx(L, truncated_poly(3), ("t",))
    x = ctx.term(0, 1, 2, (1,), (1,), ())
    pushed = x.map_lie(injs[1])
    assert pushed.terms == {(0, 4, (1,), (1,), ()): Q(2)}
    # maps of dgLas commute with d and brackets on elements
    y = ctx.term(0, 0, 1, (1,))
    assert x.bracket(y).map_lie(injs[1]).eq(
        pushed.bracket(y.map_lie(injs[1]))
    )


def test_map_validate_checks_pairs_with_an_empty_source_bracket():
    # every bracket of the abelian source is empty, yet [e, f] = h
    src = abelian_dgla({0: 2})
    with pytest.raises(DglaError, match="Lie homomorphism"):
        DglaMap(src, sl2(), {0: Mat.from_rows([[1, 0], [0, 0], [0, 1]])}).validate()
    DglaMap(src, sl2(), {0: Mat.from_rows([[1, 2], [0, 0], [0, 0]])}).validate()


def test_map_validate_checks_commuting_with_d():
    src = abelian_dgla({0: 1, 1: 1}, {0: [[1]]})
    tgt = abelian_dgla({0: 1, 1: 1})
    ident = {0: Mat.identity(1), 1: Mat.identity(1)}
    with pytest.raises(DglaError, match="commute with d"):
        DglaMap(src, tgt, ident).validate()
    DglaMap(src, src, ident).validate()


def test_validate_sample_mode_runs():
    sl2().validate(mode="sample", seed=3)


def pair_sweep_violation(f: DglaMap):
    """Reference check of a DglaMap: d-compatibility, then f[x, y] against
    [f x, f y] on every pair of source basis elements in basis order. The
    message of the first violation, or None."""
    src, tgt = f.source, f.target
    for d in src.degrees():
        if tgt.diff(d) @ f.mat(d) != f.mat(d + 1) @ src.diff(d):
            return f"map does not commute with d at degree {d}"
    for d1, i in src.basis_keys():
        for d2, j in src.basis_keys():
            n = tgt.dim(d1 + d2)
            lhs = [Q(0)] * n
            for k, c in src.bracket_basis(d1, i, d2, j):
                for r in range(n):
                    lhs[r] += c * f.mat(d1 + d2).entry(r, k)
            rhs = [Q(0)] * n
            for r1 in range(tgt.dim(d1)):
                a = f.mat(d1).entry(r1, i)
                for r2 in range(tgt.dim(d2)):
                    b = f.mat(d2).entry(r2, j)
                    for k, c in tgt.bracket_basis(d1, r1, d2, r2):
                        rhs[k] += a * b * c
            if lhs != rhs:
                return f"map is not a Lie homomorphism on ({d1},{i}), ({d2},{j})"
    return None


def _random_vec(rng, basis, n):
    v = [Q(0)] * n
    for b in basis:
        c = rng.choice((-2, -1, 1, 2))
        v = [x + c * y for x, y in zip(v, b)]
    return v


def _perturbed_cofaces(rng, face: DglaMap, count: int):
    """Seeded perturbations f + E of one coface at one degree d. E = u v^T
    with d u = 0 in the target and v killing the image of d in the source
    keeps f a chain map, so only the bracket check can fail; every third
    perturbation adds to one entry instead, which mostly breaks d."""
    src, tgt = face.source, face.target
    degs = [d for d in src.degrees() if tgt.dim(d)]
    for n in range(count if degs else 0):
        d = rng.choice(degs)
        mats = {e: face.mat(e).copy() for e in set(src.dims) | set(tgt.dims)}
        m = mats[d]
        if n % 3 == 2:
            r, c = rng.randrange(m.rows), rng.randrange(m.cols)
            m.set_entry(r, c, m.entry(r, c) + Q(rng.choice((-1, 1)), rng.randint(1, 3)))
        else:
            us = dense_rows(tgt.diff(d).kernel_basis())
            vs = dense_rows(src.diff(d - 1).transpose().kernel_basis())
            if not us or not vs:
                continue
            u = _random_vec(rng, us, m.rows)
            v = _random_vec(rng, vs, m.cols)
            for r in range(m.rows):
                for c in range(m.cols):
                    m.set_entry(r, c, m.entry(r, c) + u[r] * v[c])
        yield DglaMap(src, tgt, mats)


def test_map_validate_matches_the_pair_sweep_on_perturbed_builtin_cofaces():
    rng = random.Random(20)
    outcomes = {"ok": 0, "d": 0, "lie": 0}
    for name in builtin_input_names():
        kind, sc = load_builtin(name)[:2]
        if kind != "sc":
            continue
        for key in sorted(sc.cofaces):
            face = sc.cofaces[key]
            assert pair_sweep_violation(face) is None
            for f in _perturbed_cofaces(rng, face, 12):
                want = pair_sweep_violation(f)
                try:
                    f.validate()
                    got = None
                except DglaError as e:
                    got = str(e)
                assert got == want, (name, key)
                outcomes["ok" if want is None else "d" if "commute" in want else "lie"] += 1
    # the perturbations reach every branch, the bracket check most of all
    assert outcomes["d"] > 20 and outcomes["lie"] > 100 and outcomes["ok"] > 0, outcomes


def test_map_validate_matches_the_pair_sweep_on_rescaled_cech_diagrams():
    """Each builtin Cech diagram with one basis vector per level rescaled
    by 1/2 or 3, and its cofaces conjugated to match, so that brackets,
    differentials and cofaces all have denominators (no builtin level has
    a fractional bracket constant). The integer face check accepts the
    rescaled faces and, on seeded perturbations, names what the rational
    pair sweep names."""
    rng = random.Random(34)
    outcomes, dens = {"ok": 0, "bad": 0}, set()
    for name in ("sc-cech", "sc-conjugated", "sc-twist", "sc-twist-redundant"):
        sc = load_builtin(name)[1]
        bases, levels = [], []
        for p, g in enumerate(sc.levels):
            d0 = rng.choice(g.degrees())
            basis = {d: Mat.identity(n) for d, n in g.dims.items()}
            basis[d0].set_entry(0, 0, Q(1, 2) if p % 2 == 0 else Q(3))
            bases.append(basis)
            levels.append(_rebased(g, basis))
        dens.update(_denominators(g) for g in levels)
        for (i, k), f in sorted(sc.cofaces.items()):
            inv = {d: m.inverse() for d, m in bases[i].items()}
            face = DglaMap(levels[i - 1], levels[i], {
                d: inv[d] @ f.mat(d) @ bases[i - 1][d]
                for d in levels[i - 1].dims if levels[i].dim(d)})
            assert pair_sweep_violation(face) is None
            face.validate()
            for g in _perturbed_cofaces(rng, face, 6):
                want = pair_sweep_violation(g)
                try:
                    g.validate()
                    got = None
                except DglaError as e:
                    got = str(e)
                assert got == want, (name, i, k)
                outcomes["ok" if want is None else "bad"] += 1
    assert outcomes["bad"] > 20 and outcomes["ok"] > 0, outcomes
    assert any(db > 1 for db, _ in dens) and any(dd > 1 for _, dd in dens), dens


# --- End of a vector-space complex against its matrix units -------------------


def _matrix_unit_end(cx: ChainComplexQ):
    """End of cx on the matrix units E_rc of Hom(C^i, C^(i+p)), built
    index by index: in each degree p the units in the order of the source
    degree i, then row-major. The differential is h -> d∘h - (-1)^p h∘d
    and the bracket the graded commutator of composition, both read off
    the units' indices. Returns (Dgla, units, index) with units[p] the
    (i, r, c) of each basis element and index the inverse lookup."""
    degs = sorted(cx.dims)
    span = degs[-1] - degs[0] if degs else 0
    units, index = {}, {}
    for p in range(-span, span + 1):
        us = [
            (i, r, c)
            for i in degs
            for r in range(cx.dim(i + p))
            for c in range(cx.dim(i))
        ]
        if us:
            units[p] = us
            index.update({(p, *u): k for k, u in enumerate(us)})
    diffs = {}
    for p, us in units.items():
        m = Mat(len(units.get(p + 1, ())), len(us))
        for j, (i, r, c) in enumerate(us):
            post, pre = cx.diff(i + p), cx.diff(i - 1)
            for rr in range(post.rows):  # d∘E_rc = sum d[rr, r] E_(rr, c)
                if post.entry(rr, r):
                    k = index[(p + 1, i, rr, c)]
                    m.set_entry(k, j, m.entry(k, j) + post.entry(rr, r))
            for cc in range(pre.cols):  # E_rc∘d = sum d[c, cc] E_(r, cc)
                if pre.entry(c, cc):
                    k = index[(p + 1, i - 1, r, cc)]
                    m.set_entry(k, j, m.entry(k, j) - (-1) ** (p % 2) * pre.entry(c, cc))
        if not m.is_zero():
            diffs[p] = m

    def compose(p1, u1, p2, u2):
        """The index of E1∘E2 in degree p1 + p2, or None when it is 0."""
        (i1, r1, c1), (i2, r2, c2) = u1, u2
        if i2 + p2 != i1 or c1 != r2:
            return None
        return index[(p1 + p2, i2, r1, c2)]

    def table():
        """[E1, E2] for every pair of matrix units."""
        out = {}
        for (p1, us1), (p2, us2) in product(units.items(), repeat=2):
            for (a, u1), (b, u2) in product(enumerate(us1), enumerate(us2)):
                v = out.setdefault((p1, a, p2, b), {})
                for k, sign in ((compose(p1, u1, p2, u2), 1), (compose(p2, u2, p1, u1), -(-1) ** (p1 * p2 % 2))):
                    if k is not None:
                        v[k] = v.get(k, 0) + sign
        return {key: list(v.items()) for key, v in out.items()}

    g = Dgla({p: len(us) for p, us in units.items()}, diffs, table, label="matrix units")
    return g, units, index


def _index_loop_conjugation(g, units, index, phi):
    """t -> φ∘t∘φ⁻¹ on the matrix units: the image of E_rc is the sum
    of φ[i + p][r2, r] φ⁻¹[i][c, c2] E_(r2, c2)."""
    inv = {d: m.inverse() for d, m in phi.items()}
    mats = {}
    for p, us in units.items():
        m = Mat(len(us), len(us))
        for col, (i, r, c) in enumerate(us):
            left, right = phi[i + p], inv[i]
            for r2 in range(left.rows):
                for c2 in range(right.cols):
                    v = left.entry(r2, r) * right.entry(c, c2)
                    if v:
                        k = index[(p, i, r2, c2)]
                        m.set_entry(k, col, m.entry(k, col) + v)
        mats[p] = m
    return DglaMap(g, g, mats)


def _random_complex(rng):
    """A complex with d∘d = 0 on degrees lo..hi, lo < 0 < hi: a direct sum
    of copies of Q and of pairs Q -> Q (the identity), each degree then
    changed by a random invertible matrix, so d_k = g_(k+1) E_k g_k⁻¹."""
    lo, hi = -rng.randint(1, 2), rng.randint(1, 2)
    pairs = {k: rng.randint(0, 1) if k < hi else 0 for k in range(lo, hi + 1)}
    singles = {k: 1 if k in (lo, hi) else rng.randint(0, 1) for k in range(lo, hi + 1)}
    dims = {k: singles[k] + pairs.get(k - 1, 0) + pairs[k] for k in pairs}
    change = {}
    for k, n in dims.items():
        while True:
            m = Mat.from_rows([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)], cols=n)
            if m.inverse() is not None:
                change[k] = m
                break
    diffs = {}
    for k in range(lo, hi):
        e = Mat(dims[k + 1], dims[k])
        for j in range(pairs[k]):
            e.set_entry(singles[k + 1] + j, singles[k] + pairs.get(k - 1, 0) + j, 1)
        diffs[k] = change[k + 1] @ e @ change[k].inverse()
    return ChainComplexQ(dims, diffs)


def test_end_of_a_vector_complex_is_the_matrix_unit_end():
    """end_dgla_of_complex(vector_complex(cx)) has the dimensions,
    differentials and bracket table of End on the matrix units, on the
    builtin complexes, three small ones and 30 seeded random ones whose
    degrees run from below 0 to above it."""
    rng = random.Random(19)
    randoms = [_random_complex(rng) for _ in range(30)]
    assert all(min(cx.dims) < 0 < max(cx.dims) for cx in randoms)
    assert sum(bool(cx.diffs) for cx in randoms) > 20
    complexes = [
        two_step_complex(),
        acyclic_complex(),
        ChainComplexQ({0: 1, 1: 2}, {0: [[1], [2]]}),
        ChainComplexQ({0: 1, 1: 1}, {}),
        ChainComplexQ({-1: 2, 0: 3, 1: 1}, {-1: [[1, 0], [0, 1], [0, 0]], 0: [[0, 0, 1]]}),
    ] + randoms
    for n, cx in enumerate(complexes):
        cx.check()
        got, _ = end_dgla_of_complex(vector_complex(cx))
        want, _, _ = _matrix_unit_end(cx)
        assert got.dims == want.dims, n
        assert got.diffs == want.diffs, n
        assert got._br == want._br, n


def test_cover_conjugated_restrictions_are_the_index_loop_conjugations():
    """Seeds 0-9: each restriction of cover_conjugated is the conjugation
    by φ_T∘φ_S⁻¹ computed on the matrix units, with the chain
    automorphisms φ drawn as cover_conjugated draws them."""
    cx = two_step_complex()
    g, units, index = _matrix_unit_end(cx)
    moved = 0
    for seed in range(10):
        cover = cover_conjugated(seed=seed)
        rng = random.Random(seed)
        autos = {
            T: random_chain_auto(cx, rng)
            for size in range(1, 4)
            for T in combinations(range(3), size)
        }
        for (S, T), got in cover.restrictions.items():
            phi = {d: autos[T][d] @ autos[S][d].inverse() for d in autos[T]}
            want = _index_loop_conjugation(g, units, index, phi)
            assert got.mats == want.mats, (seed, S, T)
            moved += got.mats != DglaMap.identity(g).mats
    assert moved > 20


@pytest.mark.parametrize("ring", builtin_artin_names())
def test_the_level_cut_off_matches_term_by_term(ring):
    """Operands whose lowest coefficient levels sum past the ring's top
    degree bracket to 0 at once; the term-by-term reference agrees on
    them, on operands whose levels do not, and on a zero operand."""
    L, _ = end_dgla_of_complex(vector_complex(ChainComplexQ({0: 1, 1: 2}, {0: [[1], [2]]})))
    A = builtin_artin(ring)
    ctx = TensorCtx(L, A, ("t", "s"))
    rng = random.Random(ring)

    def at_level(lo):
        """A random element whose coefficient monomials have degree >= lo,
        with one of degree exactly lo."""
        x = ctx.zero()
        while x.min_artin_level() != lo:
            x = x.add(rand_elem(ctx, rng, rng.randint(-1, 1), nterms=3, min_level=lo))
        return x

    past = 0
    for _ in range(20):
        i, j = rng.randint(1, A.max_degree), rng.randint(1, A.max_degree)
        x, y = at_level(i), at_level(j)
        got = x.bracket(y).terms
        assert got == naive_bracket(x, y)
        if i + j > A.max_degree:
            assert got == {}
            past += 1
        assert x.bracket(ctx.zero()).is_zero() and ctx.zero().bracket(y).is_zero()
    assert past


# --- direct sums against the entry-by-entry placement --------------------------


def _loop_direct_sum(parts):
    """The differentials, injections and projections of the direct sum of
    parts, each placed entry by entry at offsets summed by hand, as
    {degree: Mat} dicts (one dict of injections and one of projections per
    part)."""
    degs = set()
    for p in parts:
        degs |= set(p.dims)
    dims = {d: sum(p.dim(d) for p in parts) for d in degs | {d + 1 for d in degs}}

    def off(d, pi):
        return sum(q.dim(d) for q in parts[:pi])

    diffs = {}
    for d in degs:
        m = Mat(dims[d + 1], dims[d])
        for pi, p in enumerate(parts):
            dm = p.diff(d)
            for r in range(dm.rows):
                for c in range(dm.cols):
                    if dm.entry(r, c):
                        m.set_entry(off(d + 1, pi) + r, off(d, pi) + c, dm.entry(r, c))
        diffs[d] = m
    injs, projs = [], []
    for pi, p in enumerate(parts):
        inj = {d: Mat(dims[d], p.dim(d)) for d in degs}
        proj = {d: Mat(p.dim(d), dims[d]) for d in degs}
        for d in degs:
            for i in range(p.dim(d)):
                inj[d].set_entry(off(d, pi) + i, i, 1)
                proj[d].set_entry(i, off(d, pi) + i, 1)
        injs.append(inj)
        projs.append(proj)
    return diffs, injs, projs


def _pairwise_sum_table(parts) -> dict:
    """The bracket table of the direct sum of parts, asked of every pair of
    basis elements of the sum: 0 across parts, else the part's bracket
    shifted by the offsets."""

    def off(d, pi):
        return sum(q.dim(d) for q in parts[:pi])

    where = {
        (d, off(d, pi) + i): (pi, i)
        for pi, p in enumerate(parts) for d in p.dims for i in range(p.dim(d))
    }
    out = {}
    for (d1, i), (d2, j) in product(sorted(where), repeat=2):
        (p1, i1), (p2, j2) = where[d1, i], where[d2, j]
        if p1 == p2:
            val = parts[p1].bracket_basis(d1, i1, d2, j2)
            if val:
                out[d1, i, d2, j] = tuple((off(d1 + d2, p1) + k, c) for k, c in val)
    return out


def test_direct_sum_is_the_entry_by_entry_sum():
    """direct_sum against _loop_direct_sum on every pair of builtin dgLas
    and on 40 seeded random lists of one to four parts, drawn from sl2, a
    two-term dgLa, abelian dgLas (one of them zero) and End of seeded
    random complexes, so parts start and end at different degrees and some
    blocks are empty. The bracket table of the sum, built in closed form
    from the parts' tables, is checked against the table asked pair by
    pair, and the injections to be dgLa maps."""
    rng = random.Random(41)
    builtins = [g for kind, g in map(load_builtin, builtin_input_names()) if kind == "dgla"]
    pool = builtins + [
        two_term(),
        abelian_dgla({-1: 2, 2: 1}),
        abelian_dgla({}),
        abelian_dgla({0: 1, 1: 2}, {0: Mat.from_rows([[1], [-2]])}),
    ] + [end_dgla_of_complex(vector_complex(_random_complex(rng)))[0] for _ in range(6)]
    lists = [[a, b] for a in builtins for b in builtins]
    lists += [rng.choices(pool, k=rng.randint(1, 4)) for _ in range(40)]
    validated = 0
    for n, parts in enumerate(lists):
        total, injs, projs = direct_sum(parts)
        diffs, want_injs, want_projs = _loop_direct_sum(parts)
        assert total.dims == {d: m.cols for d, m in diffs.items() if m.cols}, n
        assert all(total.diff(d) == m for d, m in diffs.items()), n
        assert total._br == _pairwise_sum_table(parts), n
        for inj, proj, want_inj, want_proj in zip(injs, projs, want_injs, want_projs):
            assert all(inj.mat(d) == m for d, m in want_inj.items()), n
            assert all(proj.mat(d) == m for d, m in want_proj.items()), n
            if total.total_dim <= 60:
                inj.validate()
                validated += 1
    assert validated > 40


# --- validate's integer sweeps against a rational reference -------------------


def _lin(terms) -> dict:
    """The linear combination of (coefficient, {(degree, index): Q}) terms."""
    out = {}
    for s, u in terms:
        for key, a in u.items():
            out[key] = out.get(key, Q(0)) + s * a
    return {key: a for key, a in out.items() if a}


def _d_of(g: Dgla, u: dict) -> dict:
    return _lin(
        (a, {(deg + 1, r): g.diff(deg).entry(r, i) for r in range(g.dim(deg + 1))})
        for (deg, i), a in u.items()
    )


def _br_of(g: Dgla, u: dict, v: dict) -> dict:
    return _lin(
        (a * b, {(d1 + d2, k): c for k, c in g.bracket_basis(d1, i, d2, j)})
        for (d1, i), a in u.items()
        for (d2, j), b in v.items()
    )


def rational_sweep_violation(g: Dgla):
    """Reference for Dgla.validate in full mode, in Q arithmetic straight
    from the identities on elements {(degree, index): Q}: d^2 = 0 degree by
    degree, then antisymmetry and Leibniz on every pair and Jacobi on every
    triple of basis elements, in basis order. The message of the first
    violation, or None."""
    keys = list(g.basis_keys())
    for deg in g.degrees():
        if any(_d_of(g, _d_of(g, {(deg, i): Q(1)})) for i in range(g.dim(deg))):
            return f"d^2 != 0 at degree {deg}"
    for x in keys:
        for y in keys:
            bx, by, sxy = {x: Q(1)}, {y: Q(1)}, neg_one_pow(x[0] * y[0])
            if _lin([(1, _br_of(g, bx, by)), (sxy, _br_of(g, by, bx))]):
                return f"bracket not graded-antisymmetric on {g.name(*x)}, {g.name(*y)}"
            leibniz = [
                (1, _d_of(g, _br_of(g, bx, by))),
                (-1, _br_of(g, _d_of(g, bx), by)),
                (-neg_one_pow(x[0]), _br_of(g, bx, _d_of(g, by))),
            ]
            if _lin(leibniz):
                return f"Leibniz fails on {g.name(*x)}, {g.name(*y)}"
    for x, y, z in product(keys, repeat=3):
        if _jacobiator(g, x, y, z):
            return f"Jacobi fails on {g.name(*x)}, {g.name(*y)}, {g.name(*z)}"
    return None


def _jacobiator(g: Dgla, x, y, z) -> dict:
    """[x,[y,z]] - [[x,y],z] - (-1)^{|x||y|} [y,[x,z]] on basis keys."""
    bx, by, bz = {x: Q(1)}, {y: Q(1)}, {z: Q(1)}
    return _lin([
        (1, _br_of(g, bx, _br_of(g, by, bz))),
        (-1, _br_of(g, _br_of(g, bx, by), bz)),
        (-neg_one_pow(x[0] * y[0]), _br_of(g, by, _br_of(g, bx, bz))),
    ])


def _table(g: Dgla) -> dict:
    return {
        (d1, i, d2, j): dict(g.bracket_basis(d1, i, d2, j))
        for d1, i in g.basis_keys()
        for d2, j in g.basis_keys()
    }


def _rebased(g: Dgla, basis: dict) -> Dgla:
    """g in a new basis: basis[d] is an invertible Mat whose columns are the
    new basis vectors of degree d in the old ones."""
    inv = {d: p.inverse() for d, p in basis.items()}
    diffs = {d: inv[d + 1] @ g.diff(d) @ basis[d] for d in g.degrees() if g.dim(d + 1)}
    col = {(d, i): {(d, r): basis[d].entry(r, i) for r in range(g.dim(d))} for d, i in g.basis_keys()}
    table = {}
    for x in g.basis_keys():
        for y in g.basis_keys():
            v = _br_of(g, col[x], col[y])
            n = x[0] + y[0]
            table[(*x, *y)] = [
                (k, sum((inv[n].entry(k, r) * c for (_, r), c in v.items()), Q(0)))
                for k in range(g.dim(n))
            ]
    return Dgla(g.dims, diffs, table)


def _random_basis(rng, n: int) -> Mat:
    while True:
        p = Mat.from_rows(
            [[Q(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n)] for _ in range(n)]
        )
        if p.rank() == n:
            return p


def _denominators(g: Dgla) -> tuple:
    """The lcm of the bracket constants' denominators and of d's entries'."""
    db = lcm(*(c.denominator for u in _table(g).values() for c in u.values()))
    dd = lcm(*(
        g.diff(d).entry(r, c).denominator
        for d in g.degrees() for r in range(g.dim(d + 1)) for c in range(g.dim(d))
    ))
    return db, dd


def _perturbed(rng, g: Dgla):
    """Seeded copies of g with one change each: a bracket constant moved by
    1/6 together with its antisymmetric partner, one differential entry
    moved, or (every fourth copy) one orientation of a bracket alone."""
    pairs = [
        (x, y) for x in g.basis_keys() for y in g.basis_keys()
        if x != y and g.dim(x[0] + y[0])
    ]
    degs = [d for d in g.degrees() if g.dim(d + 1)]
    for n in range(24):
        table = _table(g)
        diffs = {d: g.diff(d).copy() for d in degs}
        if n % 2 and degs:
            m = diffs[rng.choice(degs)]
            r, c = rng.randrange(m.rows), rng.randrange(m.cols)
            m.set_entry(r, c, m.entry(r, c) + Q(rng.choice((-1, 1)), rng.randint(1, 3)))
        else:
            x, y = rng.choice(pairs)
            k = rng.randrange(g.dim(x[0] + y[0]))
            moves = [((*x, *y), Q(1, 6))]
            if n % 4 != 2:
                moves.append(((*y, *x), -neg_one_pow(x[0] * y[0]) * Q(1, 6)))
            for key, c in moves:
                table[key][k] = table[key].get(k, Q(0)) + c
        yield Dgla(g.dims, diffs, {key: list(u.items()) for key, u in table.items()})


def _validate_message(g: Dgla, **kw):
    try:
        g.validate(**kw)
    except DglaError as e:
        return str(e)
    return None


def test_validate_matches_a_rational_sweep_on_tables_with_denominators():
    """Dgla.validate sweeps integer copies of the bracket and d. On sl2 in
    the basis e/2, 3h, f/5, on End of a two-term complex in two seeded
    fractional bases (where d and the bracket have different
    denominators), and on seeded perturbations of each, validate passes
    exactly when the rational reference does, and otherwise raises its
    message."""
    rng = random.Random(27)
    end = end_dgla_of_complex(vector_complex(two_step_complex()))[0]
    bases = [
        _rebased(sl2(), {0: Mat.from_rows([[Q(1, 2), 0, 0], [0, 3, 0], [0, 0, Q(1, 5)]])})
    ] + [
        _rebased(end, {d: _random_basis(rng, n) for d, n in end.dims.items()})
        for _ in range(2)
    ]
    assert _denominators(bases[0]) == (30, 1)
    for g in bases[1:]:
        db, dd = _denominators(g)
        assert db > 1 and dd > 1 and db != dd
    outcomes = {}
    for g in bases:
        for h in [g, *_perturbed(rng, g)]:
            want = rational_sweep_violation(h)
            assert _validate_message(h) == want
            kind = want and want.split()[0]
            outcomes[kind] = outcomes.get(kind, 0) + 1
    # every branch is reached: passes, d^2, antisymmetry, Leibniz, Jacobi
    assert set(outcomes) == {None, "d^2", "bracket", "Leibniz", "Jacobi"}, outcomes


def _antisymmetric_perturbations(rng, g: Dgla, count: int):
    """Seeded copies of g with one bracket constant [x, y] at k moved by
    +-1/c, together with its graded-antisymmetric partner [y, x] at k; a
    pair (x, x) with x odd is its own partner. Every key stays given, so
    none is filled, and the bracket stays graded-antisymmetric."""
    keys = list(g.basis_keys())
    pairs = [
        (x, y) for x in keys for y in keys
        if x <= y and g.dim(x[0] + y[0]) and (x != y or x[0] % 2)
    ]
    for _ in range(count):
        table = _table(g)
        x, y = rng.choice(pairs)
        k = rng.randrange(g.dim(x[0] + y[0]))
        c = Q(rng.choice((-1, 1)), rng.randint(1, 6))
        table[(*x, *y)][k] = table[(*x, *y)].get(k, Q(0)) + c
        if x != y:
            partner = table[(*y, *x)]
            partner[k] = partner.get(k, Q(0)) - neg_one_pow(x[0] * y[0]) * c
        yield Dgla(g.dims, g.diffs, {key: list(u.items()) for key, u in table.items()})


def test_full_validate_checks_each_unordered_triple_once_and_names_the_first():
    """Full mode checks Jacobi once per sorted triple. On seeded
    perturbations of sl2, End(two-step) and level 2 of sc-cech that keep
    the bracket graded-antisymmetric, validate raises the message of the
    ordered-triple reference. The two graded algebras also enter without
    their differential, so that Leibniz holds and the perturbations reach
    Jacobi on odd elements. Where Jacobi fails, the failing triples are
    closed under permutation (the Jacobiator is graded-alternating), they
    include unsorted triples the sweep never visits, and the first of them
    in basis order is sorted."""
    rng = random.Random(32)
    graded = [load_builtin("end-two-step")[1], load_builtin("sc-cech")[1].levels[2]]
    algebras = [sl2(), *graded] + [
        Dgla(g.dims, {}, {key: list(u.items()) for key, u in _table(g).items()})
        for g in graded
    ]
    outcomes, skipped = {}, 0
    for g in algebras:
        keys = list(g.basis_keys())
        for h in _antisymmetric_perturbations(rng, g, 16):
            want = rational_sweep_violation(h)
            assert _validate_message(h) == want
            kind = want and want.split()[0]
            outcomes[kind] = outcomes.get(kind, 0) + 1
            if kind == "Jacobi":
                failing = {t for t in product(keys, repeat=3) if _jacobiator(h, *t)}
                assert all(set(permutations(t)) <= failing for t in failing)
                first = min(failing)
                assert list(first) == sorted(first)
                assert want == "Jacobi fails on " + ", ".join(h.name(*x) for x in first)
                skipped += sum(list(t) != sorted(t) for t in failing)
    assert "bracket" not in outcomes, outcomes
    assert outcomes.get("Jacobi", 0) >= 30 and skipped, (outcomes, skipped)


def test_a_repeated_odd_triple_is_checked():
    """Degree-1 x with [x, x] = y and [x, y] = z: J(x, x, x) = 3z, and no
    other triple has a nonzero target. A sweep over triples of distinct
    elements would pass it."""
    g = Dgla({1: 1, 2: 1, 3: 1}, {}, {(1, 0, 1, 0): [(0, 1)], (1, 0, 2, 0): [(0, 1)]})
    message = "Jacobi fails on b[1,0], b[1,0], b[1,0]"
    assert rational_sweep_violation(g) == message
    assert _validate_message(g) == message


@pytest.mark.parametrize(
    "entries, message",
    [
        # [e0, e1] = 2 e0 given in two entries, [e1, e0] = -e0
        ([[0, 0, 0, 1, 0, 1], [0, 0, 0, 1, 0, 1], [0, 1, 0, 0, 0, -1]],
         "bracket not graded-antisymmetric on b[0,0], b[0,1]"),
        # the same with [e1, e0] = -2 e0: the two-dimensional non-abelian Lie algebra
        ([[0, 0, 0, 1, 0, 1], [0, 0, 0, 1, 0, 1], [0, 1, 0, 0, 0, -2]], None),
        # [e0, e1] given as 0 is not filled from [e1, e0] = e0
        ([[0, 0, 0, 1, 0, 0], [0, 1, 0, 0, 0, 1]],
         "bracket not graded-antisymmetric on b[0,0], b[0,1]"),
    ],
    ids=["duplicate-entries-broken", "duplicate-entries-valid", "given-zero"],
)
def test_validate_reads_the_table_as_written(entries, message):
    """Coefficients given to one index are summed, and a key given with
    zero coefficients stays 0: validate judges the bracket that every
    consumer reads, as the rational reference does."""
    g = dgla_from_json({"schema": "dgla/1", "dims": {"0": 2}, "brackets": entries})
    assert rational_sweep_violation(g) == message
    assert _validate_message(g) == message


def test_the_sampled_check_draws_the_same_pairs_and_triples():
    """validate(mode="auto") samples 400 pairs and 400 triples above total
    dimension 16. Level 0 of builtin:sc-cech (dimension 27) with one
    bracket constant [b[0,11], b[0,13]] moved by 1 at b[0,12], and its
    antisymmetric partner, breaks Jacobi only: the messages below are what
    each seed's draws find, and seed 3 draws no broken triple."""
    g = load_builtin("sc-cech")[1].levels[0]
    assert g.total_dim == 27
    table = _table(g)
    table[(0, 11, 0, 13)][12] = table[(0, 11, 0, 13)].get(12, Q(0)) + 1
    table[(0, 13, 0, 11)][12] = table[(0, 13, 0, 11)].get(12, Q(0)) - 1
    h = Dgla(g.dims, g.diffs, {key: list(u.items()) for key, u in table.items()})
    want = {
        0: "Jacobi fails on b[0,11], b[0,13], b[-1,4]",
        1: "Jacobi fails on b[1,5], b[-1,4], b[0,13]",
    }
    for seed, message in want.items():
        with pytest.raises(DglaError) as info:
            h.validate(mode="auto", seed=seed)
        assert str(info.value) == message
    h.validate(mode="auto", seed=3)
    with pytest.raises(DglaError, match=r"^Jacobi fails on b\[-1,4\], b\[0,11\], b\[0,13\]$"):
        h.validate()


@pytest.mark.parametrize("n", [1, 2, 3, 16, 27, 64])
def test_repeated_choice_draws_what_random_choice_draws(n):
    """The sampled validate draws its keys with _repeated_choice; it must
    pick the keys rng.choice picks and leave rng in the same state."""
    seq = [f"k{i}" for i in range(n)]
    for seed in range(50):
        rng, ref = random.Random(seed), random.Random(seed)
        for count in (1, 800, 1200):
            assert _repeated_choice(rng, seq, count) == [ref.choice(seq) for _ in range(count)]
            assert rng.getstate() == ref.getstate()
    with pytest.raises(IndexError):
        _repeated_choice(random.Random(0), [], 1)


def test_a_tensor_context_is_a_frozen_record_of_its_fields():
    L = sl2()
    ctx = TensorCtx(L, form_vars=["t", "s"])
    assert ctx.form_vars == ("t", "s")
    assert repr(ctx) == "TensorCtx(dgla=Dgla({0:3} 'sl2'), artin=None, form_vars=('t', 's'))"
    same = TensorCtx(dgla=L, artin=None, form_vars=("t", "s"))
    assert ctx == same and hash(ctx) == hash(same)
    assert ctx != TensorCtx(L) and ctx != TensorCtx(sl2(), None, ("t", "s"))
    assert TensorCtx(L).artin is None and TensorCtx(L).form_vars == ()
    with pytest.raises(AttributeError):
        ctx.form_vars = ()
    with pytest.raises(AttributeError):
        ctx.label = "x"
    # the Artin ring compares by value and has no hash, so neither does the context
    A = builtin_artin("t3")
    assert TensorCtx(L, A) == TensorCtx(L, builtin_artin("t3"))
    with pytest.raises(TypeError):
        hash(TensorCtx(L, A))
