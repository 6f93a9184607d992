"""Diagrams of dgLas, totalisation, and the simplicial Deligne groupoid.

Independent oracles: Cech cohomology of synthetic covers is computed by
hand (trivially glued covers reproduce the cohomology of the sections,
the twisted two-open cover gives one dimension in degrees zero and one),
the total complex of a two-level equalizer diagram is a two-term complex
whose differential is the difference of the faces, and groupoid data
built from a solution in the equaliser of the faces and a gluing in its
stabiliser is valid by construction.
"""

import random
from itertools import combinations

import pytest

from mcdescent.artin import dual_numbers, fat_point, square_zero, truncated_poly
from mcdescent.builders import (
    acyclic_complex,
    cover_conjugated,
    cover_identity,
    cover_twist,
    cover_twist_redundant,
    sc_cech_conjugated,
    sc_cech_identity,
    sc_constant_end,
    sc_constant_sl2,
    sc_counterexample,
    sc_twist,
    two_step_complex,
    zero_dgla,
)
from mcdescent.dgla import (
    DglaMap,
    TensorCtx,
    Dgla,
    abelian_dgla,
    direct_sum,
    sl2,
)
from mcdescent.io import builtin_input_names, load_builtin
from mcdescent.linalg import ChainComplexQ, Mat
from mcdescent.mcgauge import bch, gauge, is_mc, stabilizer_log
from mcdescent.pipeline import (
    build_H,
    end_dgla_of_complex,
    lift_morphism,
    random_a2_module,
    random_module_map,
    resolve,
    vector_complex,
)
from mcdescent.ratio import Q, neg_one_pow
from mcdescent.sampling import (
    bump_elem,
    random_compatible_family,
    random_elem,
    random_mc,
    random_tot_elem,
    random_totdel_object,
    random_tw_mc,
)
from mcdescent.semicosimplicial import (
    CoverModel,
    ScDgla,
    ScError,
    TotDelMorphism,
    TotDelObject,
    TotElem,
    TWElem,
    TwTruncMC,
    bch_many,
    cech_from_cover,
    constant_sc,
    elem_times_form,
    face_map_of_injection,
    integration_map,
    level_vars,
    sc_same,
    total_complex,
    totdel_assemble,
    totdel_cocycle,
    totdel_compose,
    totdel_identity,
    totdel_invert,
    totdel_mor_assemble,
    totdel_mor_equal,
    totdel_mor_verify,
    totdel_verify,
    tw_ctx,
    tw_gauge,
    tw_is_mc,
    tw_mc_from_element,
    tw_mc_to_element,
    tw_mc_verify,
    validate_sc,
    whitney_map,
)

from dense_views import from_dense_cols


def h_dims(cx, lo=-3, hi=5):
    return {d: cx.cohomology(d)[0] for d in range(lo, hi + 1) if cx.cohomology(d)[0]}


# --- diagram validation -------------------------------------------------------


def test_constant_diagrams_validate():
    for sc in (sc_constant_sl2(3), sc_constant_end(2)):
        rep = validate_sc(sc)
        assert rep["ok"], rep["violations"]


def test_counterexample_diagram_validates():
    rep = validate_sc(sc_counterexample())
    assert rep["ok"], rep["violations"]


def test_validate_catches_non_lie_face():
    g = sl2()
    ident = DglaMap.identity(g)
    double = DglaMap(g, g, {0: Mat.identity(3).scale(Q(2))})
    cof = {(1, 0): double, (1, 1): ident}
    sc = ScDgla([g, g], cof)
    rep = validate_sc(sc)
    assert not rep["ok"]
    assert any("bracket" in v or "face" in v for v in rep["violations"])


def test_validate_catches_broken_coface_identity():
    g = sl2()
    ident = DglaMap.identity(g)
    # e <-> f, h -> -h is a Lie algebra automorphism of sl2
    swap = DglaMap(g, g, {0: Mat.from_rows([[0, 0, 1], [0, -1, 0], [1, 0, 0]])})
    cof = {
        (1, 0): ident,
        (1, 1): ident,
        (2, 0): swap,
        (2, 1): ident,
        (2, 2): ident,
    }
    sc = ScDgla([g, g, g], cof)
    rep = validate_sc(sc)
    assert not rep["ok"]
    assert any("identity" in v for v in rep["violations"])


def test_validate_catches_missing_and_stray_faces():
    g = sl2()
    ident = DglaMap.identity(g)
    sc = ScDgla([g, g], {(1, 0): ident})
    rep = validate_sc(sc)
    assert rep == {"ok": False, "violations": ["missing face (1,1)"]}
    sc2 = ScDgla([g, g], {(1, 0): ident, (1, 1): ident, (1, 2): ident})
    assert not validate_sc(sc2)["ok"]


def test_truncate_keeps_low_levels():
    sc = sc_constant_sl2(3)
    t = sc.truncate(1)
    assert t.top == 1
    assert validate_sc(t)["ok"]
    assert t.levels[0] is sc.levels[0]
    assert sc_same(sc.truncate(1), sc.truncate(1))
    with pytest.raises(ScError):
        sc.truncate(7)


# --- face maps of injections --------------------------------------------------


def test_face_map_of_single_cofaces():
    sc = sc_cech_conjugated(n_opens=3, seed=2)
    for j in range(2):
        f = face_map_of_injection(sc, tuple(v for v in range(2) if v != j), 1)
        assert f.eq(sc.face(1, j))


def test_face_map_composite_matches_both_factorizations():
    sc = sc_cech_conjugated(n_opens=3, seed=2)
    # vertex v of the bottom level, as an injection into the level-2 set
    for v in range(3):
        f = face_map_of_injection(sc, (v,), 2)
        a, b = [j for j in range(3) if j != v]
        # peel the larger missing vertex first, then the smaller, and
        # compare with the exchanged order
        assert f.eq(sc.face(2, b).compose(sc.face(1, a)))
        assert f.eq(sc.face(2, a).compose(sc.face(1, b - 1)))


def test_face_map_full_injection_is_identity():
    sc = sc_constant_sl2(2)
    f = face_map_of_injection(sc, (0, 1, 2), 2)
    assert f.eq(DglaMap.identity(sc.levels[2]))


def _composite_reference(sc, image, n_tgt):
    """The face map of an injection as the composite of coface maps, the
    outermost missing the largest absent vertex, down to an identity."""
    n_src = len(image) - 1
    if n_src == n_tgt:
        return DglaMap.identity(sc.levels[n_src])
    j = max(set(range(n_tgt + 1)) - set(image))
    inner = _composite_reference(sc, tuple(v if v < j else v - 1 for v in image), n_tgt - 1)
    return sc.face(n_tgt, j).compose(inner)


def test_face_map_of_every_injection_matches_the_composite_of_cofaces():
    seen = 0
    for name in builtin_input_names():
        kind, sc = load_builtin(name)
        if kind != "sc":
            continue
        for n in range(sc.top + 1):
            for k in range(1, n + 2):
                for image in combinations(range(n + 1), k):
                    got = face_map_of_injection(sc, image, n)
                    assert got.eq(_composite_reference(sc, image, n)), (name, image, n)
                    if k == n:
                        (j,) = set(range(n + 1)) - set(image)
                        assert got is sc.face(n, j), (name, image, n)
                    seen += 1
    assert seen > 100


def test_face_map_rejects_bad_image():
    sc = sc_constant_sl2(2)
    with pytest.raises(ScError):
        face_map_of_injection(sc, (1, 1), 2)
    with pytest.raises(ScError):
        face_map_of_injection(sc, (3,), 2)


# --- covers and Cech diagrams ---------------------------------------------


def test_cover_model_rejects_inconsistent_restrictions():
    u = abelian_dgla({0: 1})
    v = abelian_dgla({0: 1})
    w = abelian_dgla({0: 1})
    pairs = {
        (0, 1): abelian_dgla({0: 1}),
        (0, 2): abelian_dgla({0: 1}),
        (1, 2): abelian_dgla({0: 1}),
    }
    triple = abelian_dgla({0: 1})
    ident = Mat.identity(1)
    sections = {(0,): u, (1,): v, (2,): w, (0, 1, 2): triple}
    sections.update({k: g for k, g in pairs.items()})
    restrictions = {}
    for (i, j), sec in pairs.items():
        restrictions[((i,), (i, j))] = DglaMap(sections[(i,)], sec, {0: ident})
        restrictions[((j,), (i, j))] = DglaMap(sections[(j,)], sec, {0: ident})
    for k in range(3):
        T = (0, 1, 2)
        S = T[:k] + T[k + 1 :]
        m = ident if k else ident.scale(Q(2))  # one leg scaled: squares break
        restrictions[(S, T)] = DglaMap(sections[S], triple, {0: m})
    # the scaled leg breaks the two squares it belongs to
    assert CoverModel(3, sections, restrictions).violations() == [
        "restrictions into (0, 1, 2) do not commute"
    ] * 2


def test_the_builtin_covers_are_consistent():
    """CoverModel does not check itself; the covers behind the Cech
    builtins have maps of dgLas as restrictions and commuting squares."""
    g, _ = end_dgla_of_complex(vector_complex(two_step_complex()), label="end two-step")
    covers = [
        cover_identity(g, 3),
        cover_conjugated(seed=5),
        cover_twist(),
        cover_twist_redundant(),
    ]
    for cover in covers:
        assert cover.violations() == []
        for m in cover.restrictions.values():
            m.validate()


def test_cech_identity_cover_reproduces_section_cohomology():
    g, _ = end_dgla_of_complex(vector_complex(two_step_complex()))
    sc = sc_cech_identity(g, n_opens=3)
    assert validate_sc(sc)["ok"]
    tot = total_complex(sc)
    assert h_dims(tot) == h_dims(g.complex())


def test_cech_identity_cover_two_opens():
    g = sl2()
    sc = sc_cech_identity(g, n_opens=2)
    tot = total_complex(sc)
    assert h_dims(tot) == h_dims(g.complex())


def test_cech_twisted_cover_has_kernel_and_cokernel_line():
    sc = sc_twist()
    tot = total_complex(sc)
    assert tot.cohomology(0)[0] == 1
    assert tot.cohomology(1)[0] == 1
    assert tot.cohomology(2)[0] == 0


def test_cech_redundant_open_does_not_change_cohomology():
    sc = cech_from_cover(cover_twist_redundant())
    assert validate_sc(sc)["ok"]
    tot = total_complex(sc)
    assert tot.cohomology(0)[0] == 1
    assert tot.cohomology(1)[0] == 1
    assert tot.cohomology(2)[0] == 0
    assert tot.cohomology(3)[0] == 0


def test_cech_conjugated_cover_matches_untwisted_cohomology():
    for seed in (0, 5, 11):
        sc = sc_cech_conjugated(n_opens=3, seed=seed)
        assert validate_sc(sc)["ok"]
        tot = total_complex(sc)
        g, _ = end_dgla_of_complex(vector_complex(two_step_complex()))
        assert h_dims(tot) == h_dims(g.complex())


def test_cech_depth_cap():
    g = sl2()
    cover = cover_identity(g, 4)
    sc = cech_from_cover(cover, depth=2)
    assert sc.top == 2


# --- total complex --------------------------------------------------------


def test_total_complex_of_equalizer_diagram():
    # two levels, one-dimensional sections; faces (id, id) give the
    # two-term complex with zero differential, faces (id, 2id) give an
    # isomorphism, so no cohomology survives
    g = abelian_dgla({0: 1})
    ident = DglaMap.identity(g)
    double = DglaMap(g, g, {0: Mat.identity(1).scale(Q(2))})
    sc_eq = ScDgla([g, g], {(1, 0): ident, (1, 1): ident})
    tot = total_complex(sc_eq)
    assert tot.cohomology(0)[0] == 1
    assert tot.cohomology(1)[0] == 1
    sc_ne = ScDgla([g, g], {(1, 0): ident, (1, 1): double})
    tot2 = total_complex(sc_ne)
    assert tot2.cohomology(0)[0] == 0
    assert tot2.cohomology(1)[0] == 0


def test_total_complex_of_constant_diagram_has_two_columns():
    # for a four-level constant diagram the face complex is exact except
    # at the two ends, so the totalisation sees the sections twice,
    # three degrees apart
    sc = sc_constant_end(3)
    g = sc.levels[0]
    tot = total_complex(sc)
    hg = h_dims(g.complex())
    expected = dict(hg)
    for d, n in hg.items():
        expected[d + 3] = expected.get(d + 3, 0) + n
    assert h_dims(tot) == expected


def test_total_complex_squares_to_zero_on_cech_diagrams():
    for sc in (sc_cech_identity(n_opens=3), sc_cech_conjugated(seed=3), sc_twist()):
        total_complex(sc).check()
    # a coface scaled by 2 breaks the coface identities, and with them d∘d = 0
    sc = sc_cech_identity(n_opens=3)
    f = sc.face(2, 0)
    cof = {**sc.cofaces, (2, 0): DglaMap(f.source, f.target, {d: m.scale(2) for d, m in f.mats.items()})}
    with pytest.raises(ValueError, match=r"d\^2 != 0 at degree -1"):
        total_complex(ScDgla(sc.levels, cof)).check()


# --- the block layouts against the entry-by-entry ones ---------------------------


def total_slots(sc: ScDgla) -> dict:
    """{n: [(p, idx), ...]}: the (level, lie index) pair at each position
    of total degree n, level by level, level p drawn from internal degree
    n - p, over the degrees that have one."""
    degs = sorted({p + q for p, g in enumerate(sc.levels) for q in g.dims})
    return {
        n: [(p, idx) for p, g in enumerate(sc.levels) for idx in range(g.dim(n - p))]
        for n in degs
    }


def accumulated_total_complex(sc: ScDgla) -> dict:
    """The differentials of the total complex, {n: Mat}, accumulated entry
    by entry at the slots of total_slots: column (p, idx) gets (-1)^k
    times column idx of each coface into level p + 1 and (-1)^p times
    column idx of the internal differential of level p."""
    all_slots = total_slots(sc)
    diffs = {}
    for n, slots in all_slots.items():
        below = {pi: i for i, pi in enumerate(all_slots.get(n + 1, ()))}
        m = Mat(len(below), len(slots))
        for col, (p, idx) in enumerate(slots):
            q = n - p
            terms = [(p, neg_one_pow(p), sc.levels[p].diff(q))]
            if p < sc.top:
                terms += [(p + 1, neg_one_pow(k), sc.face(p + 1, k).mat(q)) for k in range(p + 2)]
            for level, sgn, fm in terms:
                for r in range(fm.rows):
                    v = fm.entry(r, idx)
                    if v:
                        rr = below[(level, r)]
                        m.set_entry(rr, col, m.entry(rr, col) + sgn * v)
        diffs[n] = m
    return diffs


def injected_cech_cofaces(cover: CoverModel, top: int) -> dict:
    """The cofaces of the Čech diagram, {(p, k): {degree: Mat}}, each the
    sum over (p+1)-tuples T of inj_T ∘ one_step(S, T) ∘ proj_S with S
    = T minus its k-th entry; the coordinate inclusions are built here
    from offsets summed by hand, and their transposes are the
    projections."""
    tuples = [cover.tuples(p) for p in range(top + 1)]

    def inj(p, t, d):
        sizes = [cover.sections[T].dim(d) for T in tuples[p]]
        off, n = sum(sizes[:t]), sizes[t]
        return Mat(sum(sizes), n, {(off + i, i): 1 for i in range(n)})

    out = {}
    for p in range(1, top + 1):
        degs = set()
        for T in tuples[p - 1] + tuples[p]:
            degs |= set(cover.sections[T].dims)
        for k in range(p + 1):
            mats = {}
            for d in degs:
                m = Mat(inj(p, 0, d).rows, inj(p - 1, 0, d).rows)
                for t, T in enumerate(tuples[p]):
                    S = T[:k] + T[k + 1 :]
                    s = tuples[p - 1].index(S)
                    restricted = cover.one_step(S, T).mat(d)
                    m = m.add(inj(p, t, d) @ restricted @ inj(p - 1, s, d).transpose())
                mats[d] = m
            out[(p, k)] = mats
    return out


def _random_rat_mat(rng, rows, cols):
    return Mat(rows, cols, {
        (r, c): Q(rng.randint(-3, 3), rng.randint(1, 2))
        for r in range(rows) for c in range(cols) if rng.random() < 0.6
    })


def random_unchecked_diagram(rng) -> ScDgla:
    """Abelian levels with random differentials and random cofaces, top 1
    to 3: no axiom holds, but every block of the total complex is
    nonzero and distinct, so a sign or a block out of place shows."""
    top = rng.randint(1, 3)
    levels = []
    for _ in range(top + 1):
        lo = rng.randint(-2, 0)
        dims = {d: rng.randint(0, 3) for d in range(lo, lo + rng.randint(1, 4))}
        diffs = {d: _random_rat_mat(rng, dims.get(d + 1, 0), n) for d, n in dims.items()}
        levels.append(abelian_dgla(dims, diffs))
    cof = {
        (i, k): DglaMap(levels[i - 1], levels[i], {
            d: _random_rat_mat(rng, levels[i].dim(d), levels[i - 1].dim(d))
            for d in levels[i - 1].dims
        })
        for i in range(1, top + 1)
        for k in range(i + 1)
    }
    return ScDgla(levels, cof, label="random")


def random_conjugated_covers(rng, count: int) -> list:
    """cover_conjugated on seeded random two-term complexes Q^a -> Q^b
    (so d∘d = 0) in degrees (-1, 0) or (0, 1), with two to four opens."""
    covers = []
    for seed in range(count):
        lo = rng.choice((-1, 0))
        a, b = rng.randint(1, 2), rng.randint(0, 2)
        cx = ChainComplexQ({lo: a, lo + 1: b}, {lo: _random_rat_mat(rng, b, a)})
        covers.append(cover_conjugated(cx, n_opens=rng.randint(2, 4), seed=seed))
    return covers


def builtin_covers() -> list:
    g, _ = end_dgla_of_complex(vector_complex(two_step_complex()))
    return [
        cover_identity(sl2(), 3),
        cover_identity(g, 4),
        cover_conjugated(seed=5),
        cover_twist(),
        cover_twist_redundant(),
    ]


def random_morphism_diagrams(rng, count: int) -> list:
    """build_H on seeded random morphisms of random A2 modules."""
    out = []
    for _ in range(count):
        fmod, gmod = random_a2_module(rng), random_a2_module(rng)
        res_g = resolve(gmod)
        res_f, lift = lift_morphism(random_module_map(fmod, gmod, rng), fmod, gmod, res_g)
        out.append(build_H(res_f, res_g, lift))
    return out


def test_cech_cofaces_are_the_injected_restrictions():
    """Each coface of cech_from_cover against the sum of injected
    restrictions, on the covers behind the builtins and on 8 seeded
    random conjugated covers, at full depth and one level short."""
    rng = random.Random(43)
    covers = builtin_covers() + random_conjugated_covers(rng, 8)
    assert any(cover.n_opens == 4 for cover in covers)
    for n, cover in enumerate(covers):
        for top in {cover.n_opens - 1, max(cover.n_opens - 2, 1)}:
            sc = cech_from_cover(cover, depth=top)
            for (p, k), mats in injected_cech_cofaces(cover, top).items():
                assert all(sc.face(p, k).mat(d) == m for d, m in mats.items()), (n, p, k)


def test_total_complex_is_the_entry_by_entry_accumulation():
    """total_complex against accumulated_total_complex on every builtin
    diagram, the Čech diagrams of seeded random covers, build_H diagrams
    of seeded random A2 morphisms and 60 seeded random diagrams whose
    levels and cofaces satisfy no axiom."""
    rng = random.Random(47)
    diagrams = [sc for kind, sc in map(load_builtin, builtin_input_names()) if kind == "sc"]
    diagrams += [cech_from_cover(cover) for cover in random_conjugated_covers(rng, 6)]
    diagrams += random_morphism_diagrams(rng, 6)
    diagrams += [random_unchecked_diagram(rng) for _ in range(60)]
    assert max(sc.top for sc in diagrams) == 3
    for n, sc in enumerate(diagrams):
        tot = total_complex(sc)
        want = accumulated_total_complex(sc)
        assert tot.dims == {d: len(slots) for d, slots in total_slots(sc).items()}, n
        assert all(tot.diff(d) == m for d, m in want.items()), n


def test_total_element_derivative_matches_matrix_differential():
    sc = sc_cech_conjugated(n_opens=3, seed=4)
    A = dual_numbers()
    eps = A.maximal_basis[0]
    tot = total_complex(sc)
    index = {n: {pi: i for i, pi in enumerate(slots)} for n, slots in total_slots(sc).items()}
    rng = random.Random(1)
    for deg in (-1, 0, 1):
        c = random_tot_elem(sc, A, deg, rng)
        dc = c.d()
        n = deg
        flat = [Q(0)] * tot.dim(n)
        for p in range(sc.top + 1):
            for (key, coeff) in c.comps[p].terms.items():
                kd, idx, am, pm, dm = key
                if am == eps:
                    flat[index[n][(p, idx)]] = coeff
        out = tot.diff(n) @ from_dense_cols([flat], tot.dim(n))
        flat_d = [Q(0)] * tot.dim(n + 1)
        for p in range(sc.top + 1):
            for (key, coeff) in dc.comps[p].terms.items():
                kd, idx, am, pm, dm = key
                if am == eps:
                    flat_d[index[n + 1][(p, idx)]] = coeff
        assert out == from_dense_cols([flat_d], tot.dim(n + 1))


# --- comparison maps -------------------------------------------------------


def diagrams_for_comparison():
    return [
        sc_constant_sl2(2),
        sc_constant_sl2(3),
        sc_cech_identity(n_opens=3).truncate(2),
        sc_cech_conjugated(n_opens=3, seed=6).truncate(2),
        sc_twist(),
    ]


def test_integration_after_whitney_is_identity():
    rng = random.Random(20)
    for sc in diagrams_for_comparison():
        for A in (truncated_poly(3), fat_point()):
            for deg in (-1, 0, 1):
                for _ in range(3):
                    c = random_tot_elem(sc, A, deg, rng)
                    w = whitney_map(c)
                    assert w.is_compatible()
                    assert integration_map(w).eq(c)


def test_whitney_map_is_chain_map():
    rng = random.Random(21)
    for sc in diagrams_for_comparison():
        A = truncated_poly(3)
        for deg in (-1, 0, 1):
            c = random_tot_elem(sc, A, deg, rng)
            assert whitney_map(c.d()).eq(whitney_map(c).d())


def test_integration_map_is_chain_map_beyond_whitney_image():
    # compatible families with face-vanishing bumps are not in the image
    # of the comparison map, the integral must still commute with d
    rng = random.Random(22)
    for sc in diagrams_for_comparison():
        A = truncated_poly(3)
        for deg in (0, 1):
            fam = random_compatible_family(sc, A, deg, rng)
            assert fam.is_compatible()
            assert integration_map(fam.d()).eq(integration_map(fam).d())


def test_compatible_families_are_closed_under_operations():
    rng = random.Random(23)
    sc = sc_cech_identity(n_opens=3).truncate(2)
    A = truncated_poly(3)
    a = random_compatible_family(sc, A, 0, rng)
    b = random_compatible_family(sc, A, 1, rng)
    assert a.d().is_compatible()
    assert a.bracket(b).is_compatible()
    assert a.add(a).is_compatible()
    x = tw_gauge(a, TWElem.zero(sc, A))
    assert x.is_compatible()
    assert tw_is_mc(x)


def test_bump_vanishes_on_faces_but_not_identically():
    rng = random.Random(24)
    sc = sc_constant_sl2(2)
    A = truncated_poly(3)
    b = bump_elem(sc, A, 2, rng)
    assert not b.is_zero()
    fam = TWElem(sc, A, [tw_ctx(sc, A, 0).zero(), tw_ctx(sc, A, 1).zero(), b])
    assert fam.is_compatible()


def test_integration_frozen_value():
    # at chart level one, integrating t dt against the simplex gives 1/2,
    # and the comparison sign for a degree-zero coefficient is -1
    sc = sc_constant_sl2(1)
    A = dual_numbers()
    eps = A.maximal_basis[0]
    ctx1 = tw_ctx(sc, A, 1)
    term = ctx1.term(0, 0, 1, eps, pmono=(1,), dmask=(0,))
    fam = TWElem(sc, A, [tw_ctx(sc, A, 0).zero(), term])
    out = integration_map(fam)
    ctx0 = TensorCtx(sc.levels[0], A, ())
    assert out.comps[0].is_zero()
    assert out.comps[1].eq(ctx0.term(0, 0, Q(-1, 2), eps))


def test_whitney_frozen_value():
    # a purely level-one input goes to minus the same coefficient times dt
    sc = sc_constant_sl2(1)
    A = dual_numbers()
    eps = A.maximal_basis[0]
    ctx_flat = TensorCtx(sc.levels[1], A, ())
    c = TotElem(sc, A, [TensorCtx(sc.levels[0], A, ()).zero(), ctx_flat.term(0, 0, 1, eps)])
    w = whitney_map(c)
    ctx1 = tw_ctx(sc, A, 1)
    assert w.comps[0].is_zero()
    assert w.comps[1].eq(ctx1.term(0, 0, -1, eps, dmask=(0,)))


# --- truncated Maurer-Cartan families ------------------------------------


def trunc_diagrams():
    return [
        sc_cech_identity(n_opens=3).truncate(2),
        sc_cech_conjugated(n_opens=3, seed=8).truncate(2),
        sc_constant_sl2(2),
    ]


def test_trunc_mc_of_trivial_family():
    sc = sc_constant_sl2(2)
    A = truncated_poly(3)
    x = TensorCtx(sc.levels[0], A, ()).zero()
    p = TensorCtx(sc.levels[1], A, ("t",)).zero()
    r = TensorCtx(sc.levels[2], A, ("t", "s")).zero()
    e = TwTruncMC(sc, A, x, p, r)
    assert tw_mc_verify(e)["ok"]


def test_trunc_mc_roundtrip_through_families():
    rng = random.Random(30)
    for sc in trunc_diagrams():
        A = truncated_poly(3)
        for _ in range(3):
            x = random_tw_mc(sc, A, rng)
            assert tw_is_mc(x) and x.is_compatible()
            e = tw_mc_from_element(x)
            rep = tw_mc_verify(e)
            assert rep["ok"], rep
            back = tw_mc_to_element(e)
            assert back.eq(x)
            again = tw_mc_from_element(back)
            assert again.x.eq(e.x) and again.p.eq(e.p) and again.r.eq(e.r)


def test_trunc_mc_conditions_fail_on_tampered_path():
    rng = random.Random(31)
    sc = sc_cech_identity(n_opens=3).truncate(2)
    A = truncated_poly(3)
    x = random_tw_mc(sc, A, rng)
    e = tw_mc_from_element(x)
    ctxp = e.p.ctx
    # slot 5 sits in the sections over the first-and-last pair of opens,
    # which survive into the face the third condition compares against
    tampered = e.p.add(ctxp.term(0, 5, 1, A.maximal_basis[-1], pmono=(1,)))
    rep = tw_mc_verify(TwTruncMC(sc, A, e.x, tampered, e.r))
    assert not rep["ok"]
    assert not all(rep["conditions"])


def test_trunc_mc_conditions_fail_on_tampered_square():
    rng = random.Random(32)
    sc = sc_cech_identity(n_opens=3).truncate(2)
    A = truncated_poly(3)
    x = random_tw_mc(sc, A, rng)
    e = tw_mc_from_element(x)
    ctxr = e.r.ctx
    tampered = e.r.add(ctxr.term(0, 0, 1, A.maximal_basis[-1], pmono=(1, 0)))
    rep = tw_mc_verify(TwTruncMC(sc, A, e.x, e.p, tampered))
    assert not rep["ok"]


def test_trunc_mc_assemble_rejects_wrong_shapes():
    sc = sc_constant_sl2(2)
    A = truncated_poly(3)
    x = TensorCtx(sc.levels[0], A, ()).zero()
    p = TensorCtx(sc.levels[1], A, ("t",)).zero()
    r = TensorCtx(sc.levels[2], A, ("t", "s")).zero()
    assert tw_mc_verify(TwTruncMC(sc, A, x, p, r))["ok"]
    bad_p = p.add(p.ctx.term(0, 0, 1, A.maximal_basis[0]))  # constant term
    assert tw_mc_verify(TwTruncMC(sc, A, x, bad_p, r))["shape"] == [
        "edge polynomial must be degree 0, divisible by t, no dt"
    ]
    bad_r = r.add(r.ctx.term(0, 0, 1, A.maximal_basis[0], dmask=(0,)))
    assert tw_mc_verify(TwTruncMC(sc, A, x, p, bad_r))["shape"] == [
        "triangle polynomial must be a degree-0 part without constant"
        " term plus a degree -1 part divisible by t carrying ds"
    ]


# --- simplicial Deligne groupoid ------------------------------------------


def groupoid_setup(seed, artin=None, n_opens=3):
    sc = sc_cech_identity(n_opens=n_opens).truncate(2)
    A = artin if artin is not None else truncated_poly(3)
    rng = random.Random(seed)
    return sc, A, rng


def transported_target(sc, o, a):
    f10, f11 = sc.face(1, 0), sc.face(1, 1)
    l1 = gauge(a, o.l)
    m1 = bch_many([a.map_lie(f11), o.m, a.map_lie(f10).neg()])
    return totdel_assemble(sc, l1, m1)


def test_totdel_objects_from_trivialisations():
    saw_nontrivial_witness = False
    for seed in range(5):
        sc, A, rng = groupoid_setup(seed)
        o = random_totdel_object(sc, A, rng)
        rep = totdel_verify(o)
        assert rep["ok"], rep
        saw_nontrivial_witness = saw_nontrivial_witness or not o.u.is_zero()
    assert saw_nontrivial_witness


def test_totdel_object_square_zero_coefficients():
    sc, A, rng = groupoid_setup(40, artin=square_zero(2))
    o = random_totdel_object(sc, A, rng)
    assert totdel_verify(o)["ok"]


def test_totdel_verify_rejects_broken_gluing():
    sc, A, rng = groupoid_setup(41)
    o = random_totdel_object(sc, A, rng)
    bad_m = o.m.add(o.m.ctx.term(0, 0, 1, A.maximal_basis[-1]))
    rep = totdel_verify(TotDelObject(sc, A, o.l, bad_m, o.u))
    assert not rep["ok"]


def test_totdel_verify_rejects_broken_witness():
    sc, A, rng = groupoid_setup(42)
    o = random_totdel_object(sc, A, rng)
    base = o.l.map_lie(sc.face(1, 0)).map_lie(sc.face(2, 2))
    ctx2 = o.u.ctx
    for idx in range(ctx2.dgla.dim(-1)):
        delta = ctx2.term(-1, idx, 1, A.maximal_basis[0])
        if not stabilizer_log(base, delta).is_zero():
            rep = totdel_verify(TotDelObject(sc, A, o.l, o.m, o.u.add(delta)))
            assert not rep["ok"]
            return
    raise AssertionError("no witness perturbation changed the equation")


def test_totdel_assemble_solves_witness():
    sc, A, rng = groupoid_setup(43)
    o = random_totdel_object(sc, A, rng)
    again = totdel_assemble(sc, o.l, o.m)
    assert totdel_verify(again)["ok"]
    assert again.eq(TotDelObject(sc, A, o.l, o.m, again.u))


def test_totdel_morphisms_roundtrip():
    for seed in range(4):
        sc, A, rng = groupoid_setup(seed + 50)
        o = random_totdel_object(sc, A, rng)
        a = random_elem(o.l.ctx, 0, rng)
        tgt = transported_target(sc, o, a)
        f = totdel_mor_assemble(o, tgt, a)
        assert totdel_mor_verify(f)["ok"]
        ident = totdel_identity(o)
        assert totdel_mor_verify(ident)["ok"]
        finv = totdel_invert(f)
        assert totdel_mor_equal(totdel_compose(finv, f), ident)
        assert totdel_mor_equal(totdel_compose(f, finv), totdel_identity(tgt))


def test_totdel_morphism_stabilizer_twist_is_equal():
    sc, A, rng = groupoid_setup(60)
    o = random_totdel_object(sc, A, rng)
    a = random_elem(o.l.ctx, 0, rng)
    tgt = transported_target(sc, o, a)
    f = totdel_mor_assemble(o, tgt, a)
    shift = stabilizer_log(o.l, random_elem(o.l.ctx, -1, rng))
    f2 = totdel_mor_assemble(o, tgt, bch(a, shift))
    assert totdel_mor_verify(f2)["ok"]
    assert not f2.b.is_zero() or f.b.eq(f2.b)
    assert totdel_mor_equal(f, f2)


def test_totdel_witness_condition_is_binding():
    # the identity endomorphism of one open is a central degree-zero
    # cocycle, so shifting a morphism log by it keeps the gauge
    # condition; the defect then moves by a nonzero cohomology class and
    # the compatibility witness disappears
    g, book = end_dgla_of_complex(vector_complex(two_step_complex()))
    sc = sc_cech_identity(g, n_opens=3).truncate(2)
    A = truncated_poly(3)
    rng = random.Random(64)
    o = random_totdel_object(sc, A, rng)
    a = random_elem(o.l.ctx, 0, rng)
    tgt = transported_target(sc, o, a)
    totdel_mor_assemble(o, tgt, a)
    sec_ctx = TensorCtx(g, A, ())
    z = sec_ctx.zero()
    # over Q each basis map is the matrix unit at its free entry
    for (_, r, c), j in book.free[0].items():
        if r == c:
            z = z.add(sec_ctx.term(0, j, 1, A.maximal_basis[-1]))
    inj = direct_sum([g] * 3)[1][0]
    z0 = z.map_lie(DglaMap(g, sc.levels[0], inj.mats))
    assert gauge(bch(a, z0), o.l).eq(tgt.l)
    with pytest.raises(ScError):
        totdel_mor_assemble(o, tgt, bch(a, z0))


def test_totdel_composition_is_associative():
    sc, A, rng = groupoid_setup(62)
    o = random_totdel_object(sc, A, rng)
    a1 = random_elem(o.l.ctx, 0, rng)
    t1 = transported_target(sc, o, a1)
    f1 = totdel_mor_assemble(o, t1, a1)
    a2 = random_elem(o.l.ctx, 0, rng)
    t2 = transported_target(sc, t1, a2)
    f2 = totdel_mor_assemble(t1, t2, a2)
    a3 = random_elem(o.l.ctx, 0, rng)
    t3 = transported_target(sc, t2, a3)
    f3 = totdel_mor_assemble(t2, t3, a3)
    left = totdel_compose(f3, totdel_compose(f2, f1))
    right = totdel_compose(totdel_compose(f3, f2), f1)
    assert totdel_mor_equal(left, right)


def test_totdel_mor_assemble_rejects_non_gauge():
    sc, A, rng = groupoid_setup(63)
    o = random_totdel_object(sc, A, rng)
    a = random_elem(o.l.ctx, 0, rng)
    tgt = transported_target(sc, o, a)
    bad = a.add(o.l.ctx.term(0, 0, 1, A.maximal_basis[-1]))
    if gauge(bad, o.l).eq(tgt.l):
        return  # the shift happened to stabilize; nothing to test
    witness = totdel_mor_assemble(o, tgt, a).b
    rep = totdel_mor_verify(TotDelMorphism(o, tgt, bad, witness))
    assert "gauge of the source by a is not the target" in rep["violations"]
    with pytest.raises(ScError):
        totdel_mor_assemble(o, tgt, bad)


def test_validate_sc_lists_every_violation_in_order():
    """The whole violation list: level messages first, then the faces in
    (i, k) order, and the coface identities only when every face passed."""
    g = sl2()
    ident = DglaMap.identity(g)
    # [e, h] = -3 e breaks Jacobi on level 1; doubling is no Lie map
    bad = Dgla({0: 3}, {}, {(0, 1, 0, 0): [(0, 2)], (0, 1, 0, 2): [(2, -2)],
                            (0, 0, 0, 2): [(1, 1)], (0, 0, 0, 1): [(0, 3)]})
    double = DglaMap(g, bad, {0: Mat.identity(3).scale(Q(2))})
    sc = ScDgla([g, bad], {(1, 0): double, (1, 1): DglaMap(g, bad, {0: Mat.identity(3)})})
    assert validate_sc(sc)["violations"] == [
        "level 1: bracket not graded-antisymmetric on b[0,0], b[0,1]",
        "face (0,1): map is not a Lie homomorphism on (0,0), (0,1)",
        "face (1,1): map is not a Lie homomorphism on (0,0), (0,1)",
    ]
    # a missing face hides the broken identity (2,2)o(0,1) != (0,2)o(1,1)
    swap = DglaMap(g, g, {0: Mat.from_rows([[0, 0, 1], [0, -1, 0], [1, 0, 0]])})
    sc = ScDgla([g, g, g], {(1, 0): ident, (2, 0): swap, (2, 1): ident, (2, 2): ident})
    assert validate_sc(sc) == {"ok": False, "violations": ["missing face (1,1)"]}
    # a bracket outside its degree fails the level and every face that reads it
    one = abelian_dgla({0: 1})
    lands = Dgla({0: 1}, {}, {(0, 0, 0, 0): [(3, 1)]})
    to = DglaMap(one, lands, {0: Mat.identity(1)})
    msg = "bracket lands on index 3 in degree 0 (dim 1)"
    assert validate_sc(ScDgla([one, lands], {(1, 0): to, (1, 1): to}))["violations"] == [
        f"level 1: {msg}", f"face (0,1): {msg}", f"face (1,1): {msg}",
    ]
