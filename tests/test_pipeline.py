"""Tests for the module-deformation pipeline: algebras, resolutions,
lifts, the two-level diagram, and the long exact sequence."""

import functools
import random

import pytest

from mcdescent import pipeline
from mcdescent.cli import render_markdown
from mcdescent.descent import check_hypothesis
from mcdescent.linalg import ChainComplexQ, Mat, Subspace
from mcdescent.pipeline import (
    BddComplex,
    ChainMapM,
    FinAlg,
    FinMod,
    PipelineError,
    Resolution,
    a2_algebra,
    a2_modules,
    build_H,
    canonical_morphisms,
    end_dgla_of_complex,
    euler_form,
    ext_bruteforce,
    ext_matches_euler_form,
    field_algebra,
    graph_preserving_dgla,
    h_cohomology,
    hom_basis,
    hom_complex,
    is_module_map,
    kernel_module,
    les_check,
    lift_morphism,
    module_as_complex,
    path_algebra,
    pipeline_report,
    proj_cover,
    proj_module,
    random_a2_module,
    random_module_map,
    representation,
    resolve,
    vector_complex,
    yoneda_basis,
    zero_module,
)
from mcdescent.ratio import Q
from mcdescent.semicosimplicial import validate_sc

from dense_views import dense_rows, from_dense_cols


def test_a2_algebra_is_associative_and_unital():
    alg = a2_algebra()
    alg.check()
    assert alg.dim == 3
    assert alg.mul_vec((0, 0, 1), (1, 0, 0)) == (Q(0), Q(0), Q(1))
    assert alg.mul_vec((1, 0, 0), (0, 0, 1)) == (Q(0), Q(0), Q(0))
    assert alg.mul_vec((0, 0, 1), (0, 0, 1)) == (Q(0), Q(0), Q(0))


def test_broken_multiplication_is_rejected():
    # drop the relation e2*a = a and associativity breaks
    e1, a = (1, 0, 0), (0, 0, 1)
    z = (0, 0, 0)
    mul = [[e1, z, z], [z, (0, 1, 0), z], [a, z, z]]
    with pytest.raises(PipelineError):
        FinAlg(mul, (1, 1, 0), (0, 1), (2,)).check()


def _matrix_algebra_2():
    """M_2(Q) on the matrix units E11, E22, E12, E21."""
    units = [(0, 0), (1, 1), (0, 1), (1, 0)]
    mul = [
        [
            tuple(int(j == k and (i, l) == u) for u in units)
            for (k, l) in units
        ]
        for (i, j) in units
    ]
    return mul, (1, 1, 0, 0)


def _two_loop_algebra_off_paths():
    """The radical-square-zero algebra of the quiver with arrows a: 1 -> 2
    and b: 2 -> 1, on the basis (e1, e2, a + b, a - b): its multiplication
    is associative, but a + b is no path between two vertices."""
    h = Q(1, 2)
    e1, e2, z = (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 0)
    a, b = (0, 0, h, h), (0, 0, h, -h)
    nb = (0, 0, -h, h)
    mul = [
        [e1, z, b, nb],  # e1 (a + b) = b, e1 (a - b) = -b
        [z, e2, a, a],
        [a, b, z, z],  # (a + b) e1 = a, (a + b) e2 = b
        [a, nb, z, z],
    ]
    return mul, (1, 1, 0, 0)


@pytest.mark.parametrize(
    "idempotents, radical, message",
    [
        ((0,), (1, 2), "do not sum to the unit"),
        ((0, 2), (1,), "not orthogonal"),
        ((0, 1), (), "do not partition the basis"),
    ],
)
def test_wrong_vertex_data_is_rejected(idempotents, radical, message):
    """A2 with its multiplication intact but the vertex idempotents or
    the radical misdeclared: dropping e2 breaks the unit, the arrow is
    not an idempotent, and without the arrow the radical leaves part of
    the basis out."""
    alg = a2_algebra()
    with pytest.raises(PipelineError, match=message):
        FinAlg(alg.mul, alg.unit, idempotents, radical).check()


def test_radical_checks_fail_off_a_basic_algebra():
    # M_2(Q): the off-diagonal units span no ideal, since E12 E21 = E11
    mul, unit = _matrix_algebra_2()
    with pytest.raises(PipelineError, match="two-sided ideal"):
        FinAlg(mul, unit, (0, 1), (2, 3)).check()
    mul, unit = _two_loop_algebra_off_paths()
    with pytest.raises(PipelineError, match="not a path"):
        FinAlg(mul, unit, (0, 1), (2, 3)).check()


def test_module_action_validation():
    alg = a2_algebra()
    # a one-dimensional space where both idempotents act as 1 cannot be
    # a module: e1*e2 = 0 would have to act as 1 as well
    with pytest.raises(PipelineError):
        FinMod(alg, 1, [Mat.from_rows([[1]]), Mat.from_rows([[1]]), Mat.from_rows([[0]])]).check()


def test_the_modules_the_pipeline_builds_pass_the_module_check():
    """FinMod checks only shapes; the module axioms are checked here, on
    every way the package builds a module: representation (A2 has no
    relations, so every arrow matrix gives a module, a direct sum of
    representations among them), proj_module and the kernels of
    resolve."""
    alg = a2_algebra()
    rng = random.Random(5)
    mods = [random_a2_module(rng, 3) for _ in range(12)]
    mods += list(a2_modules().values())[1:]
    mods += [proj_module(alg, verts) for verts in ((0,), (1,), (0, 1, 1), (1, 0))]
    mods.append(_direct_sum(mods[0], mods[1]))
    for m in list(mods):
        cover, pi, _ = proj_cover(m)
        mods += [cover, kernel_module(cover, pi)[0]]
    for m in mods:
        m.check()


def test_hom_spaces_of_the_four_indecomposables():
    mods = a2_modules()
    p1, p2, s1, s2 = mods["P1"], mods["P2"], mods["S1"], mods["S2"]
    assert len(hom_basis(p1, p1)) == 1
    assert len(hom_basis(p2, p1)) == 1
    assert len(hom_basis(p1, p2)) == 0
    assert len(hom_basis(s1, s2)) == 0
    assert len(hom_basis(s2, p1)) == 1
    assert len(hom_basis(s1, p1)) == 0
    for t in hom_basis(p2, p1):
        assert is_module_map(p2, p1, t)


def _dense_hom_basis(m1, m2):
    """The hom basis as first written: one dense condition row per
    (action, row, column), zero rows dropped, and the kernel basis of the
    matrix they make. The RREF is unique, so any assembly of the same
    conditions gives the same basis."""
    if m1.dim == 0 or m2.dim == 0:
        return []
    nunk = m2.dim * m1.dim
    rows = []
    for i in range(m1.alg.dim):
        a, b = dense_rows(m1.acts[i]), dense_rows(m2.acts[i])
        for r in range(m2.dim):
            for c in range(m1.dim):
                row = [Q(0)] * nunk
                for k in range(m1.dim):
                    row[r * m1.dim + k] += a[k][c]
                for k in range(m2.dim):
                    row[k * m1.dim + c] -= b[r][k]
                if any(row):
                    rows.append(row)
    return [
        Mat.from_rows([v[r * m1.dim:(r + 1) * m1.dim] for r in range(m2.dim)])
        for v in dense_rows(Mat.from_rows(rows, cols=nunk).kernel_basis())
    ]


def test_hom_basis_equals_the_dense_construction():
    mods = [m for k, m in a2_modules().items() if k not in ("alg", "S2")]
    pairs = [(m, n) for m in mods for n in mods]
    for seed in range(30):
        rng = random.Random(seed)
        f, g = random_a2_module(rng), random_a2_module(rng)
        pairs += [(f, g), (g, f), (f, f)]
    nonzero = 0
    for m, n in pairs:
        got = hom_basis(m, n)
        assert got == _dense_hom_basis(m, n), (m.label, n.label)
        nonzero += bool(got)
    assert nonzero > 60


def test_projective_modules_of_the_vertices():
    alg = a2_algebra()
    mods = a2_modules()
    # A e1 = span(e1, a) is P1 and A e2 = span(e2) is P2, on the same bases
    assert proj_module(alg, (0,)).acts == mods["P1"].acts
    assert proj_module(alg, (1,)).acts == mods["P2"].acts
    assert proj_module(alg, (0, 1, 1)).dim == 4


def test_projective_covers():
    """The cover of a projective is an isomorphism; the cover of S1 is
    P1 -> S1, whose kernel, the arrow's span, is P2."""
    mods = a2_modules()
    for name, verts in (("P1", (0,)), ("P2", (1,))):
        cover, pi, vs = proj_cover(mods[name])
        assert vs == verts
        assert is_module_map(cover, mods[name], pi)
        assert pi.inverse() is not None
    cover, pi, vs = proj_cover(mods["S1"])
    assert vs == (0,)
    assert is_module_map(cover, mods["S1"], pi)
    ker, _ = kernel_module(cover, pi)
    assert ker.acts == mods["P2"].acts
    s1sq_s2 = representation(a2_algebra(), (2, 1), [Mat.from_rows([[1, 0]])])
    assert proj_cover(s1sq_s2)[2] == (0, 0)


def test_resolution_check_rejects_a_term_off_its_vertex_tuple():
    mods = a2_modules()
    s1 = mods["S1"]
    r = resolve(s1)
    Resolution(
        BddComplex(s1.alg, r.cx.mods, r.cx.diffs, verts=r.cx.verts), s1, r.aug
    ).check()
    for verts in ({0: (0,), -1: (0,)}, {0: (0,)}, {0: (1,), -1: (1,)}):
        bad = BddComplex(s1.alg, r.cx.mods, r.cx.diffs, verts=verts)
        with pytest.raises(PipelineError, match="vertex tuple"):
            Resolution(bad, s1, r.aug).check()
    # a module that is not projective cannot pass as one: S1 is not P1
    cx = BddComplex(s1.alg, {0: s1}, {}, verts={0: (0,)})
    with pytest.raises(PipelineError, match="vertex tuple"):
        Resolution(cx, s1, Mat.identity(1)).check()


def test_resolution_check_rejects_a_term_in_positive_degree():
    """The resolution of P1 with an exact pair P2 -> P2 (the identity)
    added passes in degrees -2 and -1; in degrees 1 and 2, where only the
    degrees are wrong, it is rejected. BddComplex.check accepts both."""
    mods = a2_modules()
    p1, p2 = mods["P1"], mods["P2"]
    for lo in (-2, 1):
        cx = BddComplex(
            p1.alg, {0: p1, lo: p2, lo + 1: p2}, {lo: Mat.identity(1)},
            verts={0: (0,), lo: (1,), lo + 1: (1,)},
        )
        cx.check()
        res = Resolution(cx, p1, Mat.identity(2))
        if lo < 0:
            res.check()
        else:
            with pytest.raises(PipelineError, match="nonpositive degrees"):
                res.check()


def test_kernel_of_projection_is_the_complement():
    """P1 ⊕ P2 is proj_module(A2, (0, 1)); the kernel of its projection
    onto P1 is the P2 summand."""
    mods = a2_modules()
    s = proj_module(a2_algebra(), (0, 1))
    p1 = Mat.blocks((2,), (2, 1), {(0, 0): Mat.identity(2)})
    assert is_module_map(s, mods["P1"], p1)
    ker, incl = kernel_module(s, p1)
    assert ker.dim == mods["P2"].dim
    assert ker.acts == mods["P2"].acts
    assert (p1 @ incl).is_zero()


def test_resolution_of_the_simple():
    # C = resolve(S1) = [P2 -> P1]: the top of S1 sits at e1 (vertex
    # index 0), and the kernel of P1 -> S1 is the arrow's span, P2 = A e2
    mods = a2_modules()
    r = resolve(mods["S1"])
    assert sorted(r.cx.mods) == [-1, 0]
    assert r.cx.dim(0) == 2
    assert r.cx.dim(-1) == 1
    # exactness, the augmentation quasi-isomorphism and each term against
    # its vertex tuple
    r.check()
    assert r.cx.verts == {0: (0,), -1: (1,)}


def test_resolving_a_projective_takes_no_steps():
    mods = a2_modules()
    r = resolve(mods["P1"])
    assert sorted(r.cx.mods) == [0]
    assert r.aug == Mat.identity(2)


def test_broken_resolution_is_rejected():
    mods = a2_modules()
    p1 = mods["P1"]
    cx = BddComplex(p1.alg, {0: p1}, {})
    # augmentation onto the simple quotient is not a quasi-isomorphism
    aug = Mat.from_rows([[1, 0]])
    with pytest.raises(PipelineError):
        Resolution(cx, mods["S1"], aug).check()


def test_ext_oracle_golden_values():
    mods = a2_modules()
    p1, p2, s1, s2 = mods["P1"], mods["P2"], mods["S1"], mods["S2"]
    assert ext_bruteforce(resolve(s1), s2) == [0, 1]
    assert ext_bruteforce(resolve(s1), s1) == [1, 0]
    assert ext_bruteforce(resolve(s2), s1) == [0]
    assert ext_bruteforce(resolve(p1), p1) == [1]
    assert ext_bruteforce(resolve(p1), s1) == [1]
    assert ext_bruteforce(resolve(s1), p1) == [0, 0]
    assert ext_bruteforce(resolve(p2), p1) == [1]


KRONECKER = path_algebra(2, ((0, 1), (0, 1)), "Kronecker")


def _line_bundle(n):
    """O(n), n >= 0, on P¹ under Beilinson's equivalence with the tilting
    bundle O ⊕ O(1): the representation Q^n ⇉ Q^(n+1) with x = [I; 0] and
    y = [0; I]."""
    x, y = Mat(n + 1, n), Mat(n + 1, n)
    for c in range(n):
        x.set_entry(c, c, 1)
        y.set_entry(c + 1, c, 1)
    return representation(KRONECKER, (n, n + 1), [x, y])


def _direct_sum(*mods):
    """The direct sum of modules built by representation, built by
    representation too: each vertex space is the sum of theirs, in the
    given order, and each arrow acts block-diagonally. So its basis is in
    vertex order, as every module of representation is."""
    alg = mods[0].alg
    dims = [[m.acts[e].rank() for e in alg.idempotents] for m in mods]
    total = [sum(col) for col in zip(*dims)]
    arrows = []
    for a in alg.radical:
        s, t = alg.ends[a]
        out, r0, c0 = Mat(total[t], total[s]), 0, 0
        for m, d in zip(mods, dims):
            rs, cs = sum(d[:t]), sum(d[:s])
            for r in range(d[t]):
                for c in range(d[s]):
                    out.set_entry(r0 + r, c0 + c, m.acts[a].entry(rs + r, cs + c))
            r0, c0 = r0 + d[t], c0 + d[s]
        arrows.append(out)
    return representation(alg, total, arrows)


def test_path_algebra_gives_the_literal_tables():
    """A2 on (e1, e2, a) and Kronecker on (e1, e2, x, y): a = e2 a e1,
    x = e2 x e1 and y = e2 y e1 span the radical; the field is one
    idempotent. Each passes FinAlg.check."""
    e1, e2, a, z = (1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0)
    a2 = [
        [e1, z, z],  # e1*e1, e1*e2, e1*a
        [z, e2, a],  # e2*e1, e2*e2, e2*a
        [a, z, z],  # a*e1,  a*e2,  a*a
    ]
    e1, e2, x, y, z = (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (0, 0, 0, 0)
    kronecker = [
        [e1, z, z, z],
        [z, e2, x, y],
        [x, z, z, z],
        [y, z, z, z],
    ]
    cases = [
        (a2_algebra(), a2, (1, 1, 0), (0, 1), (2,)),
        (KRONECKER, kronecker, (1, 1, 0, 0), (0, 1), (2, 3)),
        (path_algebra(1, ()), [[(1,)]], (1,), (0,), ()),
    ]
    for alg, mul, unit, idempotents, radical in cases:
        alg.check()
        assert alg.mul == [[tuple(map(Q, v)) for v in row] for row in mul], alg.label
        assert alg.unit == tuple(map(Q, unit))
        assert (alg.idempotents, alg.radical) == (idempotents, radical)


def test_representation_gives_the_literal_modules():
    """P1, P2 and S1 of A2 as their action matrices on (e1, e2, a), and
    O(n) as e1 = I on the first n coordinates, e2 = I on the last n + 1,
    x = [I; 0] and y = [0; I] from the first block into the second."""
    mods = a2_modules()
    literal = {
        "P1": [[[1, 0], [0, 0]], [[0, 0], [0, 1]], [[0, 0], [1, 0]]],
        "P2": [[[0]], [[1]], [[0]]],
        "S1": [[[1]], [[0]], [[0]]],
    }
    for name, acts in literal.items():
        assert mods[name].acts == [Mat.from_rows(m) for m in acts], name
    for n in range(4):
        d = 2 * n + 1
        acts = [Mat(d, d) for _ in range(4)]
        for r in range(n):
            acts[0].set_entry(r, r, 1)
        for r in range(n + 1):
            acts[1].set_entry(n + r, n + r, 1)
        for c in range(n):
            acts[2].set_entry(n + c, c, 1)
            acts[3].set_entry(n + c + 1, c, 1)
        assert _line_bundle(n).acts == acts, n


def _line_bundle_sum(*ns):
    return _direct_sum(*map(_line_bundle, ns))


def test_kronecker_ext_is_line_bundle_cohomology():
    """Ext^i(O(a), O(b)) = H^i(P¹, O(b - a)), with h⁰(O(k)) = max(0, k + 1)
    and h¹(O(k)) = max(0, -k - 1), also summed over the summands of two
    sums of line bundles."""
    for a in range(4):
        _line_bundle(a).check()
        for b in range(4):
            k = b - a
            ext = ext_bruteforce(resolve(_line_bundle(a)), _line_bundle(b))
            assert (ext + [0, 0])[:2] == [max(0, k + 1), max(0, -k - 1)], (a, b)
            assert not any(ext[2:])
    # and additively on sums, which _line_bundle_sum builds in vertex order
    for src, tgt in (((0, 2), (1,)), ((1,), (0, 2)), ((0, 1), (0, 3))):
        ext = ext_bruteforce(resolve(_line_bundle_sum(*src)), _line_bundle_sum(*tgt))
        ks = [b - a for a in src for b in tgt]
        want = [sum(max(0, k + 1) for k in ks), sum(max(0, -k - 1) for k in ks)]
        assert (ext + [0, 0])[:2] == want, (src, tgt)


def test_kronecker_line_bundle_morphisms_pass_every_check():
    """Seeded random maps O(1) ⊕ O(3) -> O(2) ⊕ O(4) and O(2) ⊕ O(4) ->
    O(3) ⊕ O(5) (modules of dimension 10 -> 14 and 14 -> 18)."""
    for src, tgt in (((1, 3), (2, 4)), ((2, 4), (3, 5))):
        f, g = _line_bundle_sum(*src), _line_bundle_sum(*tgt)
        alpha = random_module_map(f, g, random.Random(0))
        assert not alpha.is_zero()
        rep = pipeline_report(f, g, alpha)
        assert rep["end_matches_ext"] is True, (src, tgt)
        assert rep["ext_matches_euler_form"] is True, (src, tgt)
        assert rep["les_exact"] is True, (src, tgt)


def test_kronecker_zero_map_reports_an_obstruction_space():
    """The zero map O(2) -> O ⊕ O(2) has H^2 = 1 (golden values): the
    report reads the tangent space at H^1 and the obstruction space at
    H^2, not at H^3."""
    f, g = _line_bundle(2), _line_bundle_sum(0, 2)
    rep = pipeline_report(f, g, Mat(g.dim, f.dim))
    assert rep["h_cohomology"] == {"0": 6, "1": 2, "2": 1}
    assert (rep["tangent_dim"], rep["obstruction_dim"]) == (2, 1)
    assert rep["les_exact"] and rep["end_matches_ext"] and rep["ext_matches_euler_form"]


def test_ext_vanishes_beyond_degree_one():
    """The path algebra is hereditary, so no random module has higher
    extensions."""
    rng = random.Random(7)
    for _ in range(6):
        m = random_a2_module(rng)
        n = random_a2_module(rng)
        dims = ext_bruteforce(resolve(m), n)
        assert all(d == 0 for d in dims[2:])


def test_end_complex_cohomology_matches_ext_oracle():
    rng = random.Random(11)
    for _ in range(5):
        m = random_a2_module(rng)
        r = resolve(m)
        if not r.cx.mods:
            continue
        eg, _ = end_dgla_of_complex(r.cx)
        expected = ext_bruteforce(resolve(m), m)
        for i, dim_exp in enumerate(expected):
            assert eg.cohomology(i)[0] == dim_exp
        lo, _ = r.cx.deg_range()
        for i in range(lo, 0):
            assert eg.cohomology(i)[0] == 0


def test_end_dgla_validates_in_full():
    m = representation(a2_algebra(), (1, 1), [Mat(1, 1)])
    r = resolve(m)
    eg, _ = end_dgla_of_complex(r.cx)
    eg.validate("full")


def test_the_dglas_of_a_morphism_diagram_pass_the_axiom_check(monkeypatch):
    """The pipeline report builds its resolutions, lift and diagram
    without checking them. Recorded as pipeline_report builds them, each
    passes its check: the two resolutions, one per module, which the
    diagram and the Ext oracle share, and their complexes, the lift with
    its augmented square, the diagram with its faces and coface
    identities, the graph-preserving part L and its inclusion, and the
    End dgLas. End(S) reads only the dimensions of S = P_F ⊕ P_G: those
    of the direct sum of the two resolutions, a complex whose inclusions
    pass their check."""
    built = {"resolve": [], "lift": [], "L": [], "H": []}

    def recording(name, fn, key):
        def wrapped(*args):
            out = fn(*args)
            built[key].append((args, out))
            return out
        monkeypatch.setattr(pipeline, name, wrapped)

    recording("resolve", pipeline.resolve, "resolve")
    recording("lift_morphism", pipeline.lift_morphism, "lift")
    recording("graph_preserving_dgla", pipeline.graph_preserving_dgla, "L")
    recording("build_H", pipeline.build_H, "H")
    instances = [(f, g, alpha) for _, f, g, alpha in canonical_morphisms()]
    for seed in (2, 9):
        rng = random.Random(seed)
        f = random_a2_module(rng)
        g = random_a2_module(rng)
        instances.append((f, g, random_module_map(f, g, rng)))
    for f, g, alpha in instances:
        for key in built:
            built[key].clear()
        pipeline_report(f, g, alpha)
        assert len(built["resolve"]) == 2
        for _, res in built["resolve"]:
            res.cx.check()
            res.check()
        (((_, _, _, res_g), (res_f, lift)),) = built["lift"]
        lift.check()
        assert (res_g.aug @ lift.comp(0)) == (alpha @ res_f.aug)
        ((_, (l_g, l_incl)),) = built["L"]
        ((_, sc),) = built["H"]
        s, inj_f, inj_g = _sum_complex(lift.source, lift.target)
        s.check()
        for m in (inj_f, inj_g):
            m.check()
        assert sc.book_s().src_dims == sc.book_s().tgt_dims == {d: s.dim(d) for d in s.mods}
        assert validate_sc(sc) == {"ok": True, "violations": []}
        l_incl.validate()
        for dg in (*sc.ends, sc.levels[1], l_g):
            dg.validate(mode="auto")


def test_a_pipeline_report_tabulates_no_bracket(monkeypatch):
    """A pipeline report reads dimensions, differentials and face maps
    only, so no dgLa of the diagram tabulates its bracket: neither the
    levels, nor the End dgLas of the two resolutions, nor the part L
    preserving the graph, the third summand of level 0. Nor does it
    place the corner basis maps in S: book_s is built with End(S)'s
    table, here through L's."""
    built = []

    def recording(name):
        fn = getattr(pipeline, name)

        def wrapped(*args):
            out = fn(*args)
            built.append(out)
            return out
        monkeypatch.setattr(pipeline, name, wrapped)

    recording("graph_preserving_dgla")
    recording("build_H")
    for _, f, g, alpha in canonical_morphisms():
        built.clear()
        pipeline_report(f, g, alpha)
        (l_g, _), sc = built
        dglas = (*sc.levels, *sc.ends, l_g)
        assert all("_br" not in vars(dg) for dg in dglas)
        assert sc.book_s.cache_info().currsize == 0
        # the table is still there for whoever brackets
        sc.levels[0].bracket_basis(0, 0, 0, 0)
        assert "_br" in vars(sc.levels[0])
        assert sc.book_s.cache_info().currsize == 1


def test_hom_complex_into_a_module():
    # Hom(C, S2) with C = [P2 -> P1]: degree 0 is Hom(P1, S2) = e1 S2 = 0
    # and degree 1 is Hom(P2, S2) = e2 S2 = Q
    mods = a2_modules()
    r = resolve(mods["S1"])
    cplx, book = hom_complex(r.cx, module_as_complex(mods["S2"]))
    assert cplx.dim(0) == 0
    assert cplx.dim(1) == 1
    assert cplx.cohomology(0)[0] == 0
    assert cplx.cohomology(1)[0] == 1


def _sum_complex(kf, kg):
    """S = kf ⊕ kg for two complexes of projectives: in each degree the
    term proj_module(alg, vf + vg), which is kf's term and kg's placed
    block-diagonally, and the block-diagonal differential. Returns (S,
    inj_f, inj_g) with the two inclusions as chain maps."""
    degs = set(kf.mods) | set(kg.mods)
    verts = {d: kf.verts.get(d, ()) + kg.verts.get(d, ()) for d in degs}
    dims = {d: (kf.dim(d), kg.dim(d)) for d in degs}
    diffs = {
        d: Mat.blocks(dims[d + 1], dims[d], {(0, 0): kf.diff(d), (1, 1): kg.diff(d)})
        for d in degs if d + 1 in degs
    }
    s = BddComplex(kf.alg, {d: proj_module(kf.alg, v) for d, v in verts.items()}, diffs, verts)
    injs = [
        ChainMapM(k, s, {d: Mat.blocks(dims[d], (k.dim(d),), {(n, 0): Mat.identity(k.dim(d))})
                         for d in degs})
        for n, k in enumerate((kf, kg))
    ]
    return s, *injs


def _bare_diagram(lift):
    """build_H around the lift alone: it reads only the complexes of the
    two resolutions."""
    return build_H(Resolution(lift.source, None, None), Resolution(lift.target, None, None), lift)


def _graph_parts(lift):
    """What build_H builds around the lift: End(S) of the direct sum S of
    source and target with its HomBook and the dimensions of its block
    upper-triangular part T, and the part L preserving the graph with its
    inclusion; also the inclusions of source and target into S
    (_sum_complex). Returns (L, inclusion, End(S), HomBook, t_dims,
    inj_f, inj_g)."""
    sc = _bare_diagram(lift)
    end_s, book_s = sc.levels[1], sc.book_s()
    t_dims = {p: n - sc.fg[0].dim(p) for p, n in end_s.dims.items()}
    l_g, incl = graph_preserving_dgla(lift, end_s, sc.books)
    _, inj_f, inj_g = _sum_complex(lift.source, lift.target)
    return l_g, incl, end_s, book_s, t_dims, inj_f, inj_g


def test_sub_preserving_everything_or_nothing_gives_full_end():
    """The graph of the map out of the zero complex is 0 and the graph of
    the map into it is all of S: either way every endomorphism preserves
    it, so L is End(S) and its inclusion is the identity."""
    r = resolve(a2_modules()["S1"])
    zerocx = BddComplex(r.cx.alg, {}, {})
    for lift in (ChainMapM(zerocx, r.cx, {}), ChainMapM(r.cx, zerocx, {})):
        l_g, incl, end_s, *_ = _graph_parts(lift)
        assert dict(l_g.dims) == dict(end_s.dims) == {0: 2, 1: 1}
        for p in end_s.dims:
            assert incl.mat(p) == Mat.identity(end_s.dim(p))


def test_sub_preserving_a_graph_cuts_dimensions():
    # The identity of S1 lifts to a chain map x: C -> C on C = resolve(S1)
    # = [P2 -> P1] in degrees -1, 0. The graph of x is a degreewise
    # module summand of C + C with complement 0 + C, so End(C + C) splits
    # into four blocks, each a copy of Hom(C, C), and an endomorphism
    # preserves the graph iff its graph -> (0 + C) block vanishes: three
    # of the four blocks. Over A2, Hom(P1, P1) = Hom(P2, P1) = Hom(P2, P2)
    # = 1 and Hom(P1, P2) = 0, so Hom(C, C) has dims
    #   -1: Hom(P1, P2) = 0,
    #    0: Hom(P1, P1) + Hom(P2, P2) = 2,
    #    1: Hom(P2, P1) = 1,
    # End(C + C) is four times that and the preserving part three times.
    s1 = a2_modules()["S1"]
    res_g = resolve(s1)
    res_f, lift = lift_morphism(Mat.identity(1), s1, s1, res_g)
    l_g, incl, end_amb, *_ = _graph_parts(lift)
    assert dict(sorted(end_amb.dims.items())) == {0: 8, 1: 4}
    assert dict(sorted(l_g.dims.items())) == {0: 6, 1: 3}
    # the inclusion is a map of dgLas; spot-check the chain property once
    # more by hand
    incl.validate()
    for p in sorted(l_g.dims):
        lhs = incl.mat(p + 1) @ l_g.diff(p)
        rhs = end_amb.diff(p) @ incl.mat(p)
        assert lhs == rhs


def test_lift_of_zero_morphism_has_zero_components():
    mods = a2_modules()
    s1 = mods["S1"]
    res_g = resolve(s1)
    res_f, lift = lift_morphism(Mat(1, 1), s1, s1, res_g)
    assert not lift.comps
    assert res_f.module is s1


def test_lift_of_an_identity_or_an_iso_is_invertible():
    """Between minimal resolutions the lift of an automorphism is an
    isomorphism in every degree. The seed-19 instance is the automorphism
    [[2, -1], [1, 0]] of S1^2."""
    mods = a2_modules()
    s2sq = representation(a2_algebra(), (0, 2), [Mat(2, 0)])
    rng = random.Random(19)
    f = random_a2_module(rng)
    g = random_a2_module(rng)
    alpha19 = random_module_map(f, g, rng)
    assert f.acts == g.acts == representation(a2_algebra(), (2, 0), [Mat(0, 2)]).acts
    cases = [
        (mods["P1"], Mat.identity(2)),
        (s2sq, Mat.from_rows([[2, 1], [1, 1]])),
        (mods["S1"], Mat.identity(1)),
        (f, alpha19),
    ]
    for m, alpha in cases:
        res_g = resolve(m)
        res_f, lift = lift_morphism(alpha, m, m, res_g)
        assert sorted(res_f.cx.mods) == sorted(res_g.cx.mods)
        for d in res_g.cx.mods:
            assert lift.comp(d).inverse() is not None


def test_lift_of_simple_into_projective():
    mods = a2_modules()
    p1, s2 = mods["P1"], mods["S2"]
    alpha = hom_basis(s2, p1)[0]
    res_g = resolve(p1)
    res_f, lift = lift_morphism(alpha, s2, p1, res_g)
    assert not lift.comp(0).is_zero()
    assert (res_g.aug @ lift.comp(0)) == (alpha @ res_f.aug)


def test_lift_of_random_morphisms(seeded=range(6)):
    """The lift is a chain map of module maps and its degree-0 component
    makes the augmented square commute."""
    for seed in seeded:
        rng = random.Random(seed)
        f = random_a2_module(rng)
        g = random_a2_module(rng)
        alpha = random_module_map(f, g, rng)
        res_g = resolve(g)
        res_f, lift = lift_morphism(alpha, f, g, res_g)
        lift.check()
        assert (res_g.aug @ lift.comp(0)) == (alpha @ res_f.aug)
        assert res_f.module is f
        assert lift.source is res_f.cx
        assert lift.target is res_g.cx


def _free_cover_resolution(s2):
    """The non-minimal resolution [A e1 -> A] of S2 = A e2: A = A e1 + A e2
    on the basis (e1, a, e2) maps onto S2 by b -> b e2, which kills A e1,
    so the kernel is the first summand."""
    alg = s2.alg
    a = proj_module(alg, (0, 1))
    incl = Mat.from_rows([[1, 0], [0, 1], [0, 0]])
    cx = BddComplex(alg, {0: a, -1: proj_module(alg, (0,))}, {-1: incl},
                    verts={0: (0, 1), -1: (0,)})
    cx.check()
    res = Resolution(cx, s2, Mat.from_rows([[0, 0, 1]]))
    res.check()
    return res


def test_reported_cohomology_does_not_depend_on_the_resolution():
    """The same morphisms into S2, once against its minimal resolution
    [A e2] and once against the free cover [A e1 -> A]: the diagrams
    differ in size, their totalisations have the same cohomology over one
    open and over two."""
    mods = a2_modules()
    s2 = mods["S2"]
    res_min, res_free = resolve(s2), _free_cover_resolution(s2)
    cases = [(mods[name], Mat(s2.dim, mods[name].dim)) for name in ("S2", "P2", "P1", "S1")]
    cases.append((s2, Mat.identity(s2.dim)))
    for f, alpha in cases:
        diagrams = []
        for res_g in (res_min, res_free):
            res_f, lift = lift_morphism(alpha, f, s2, res_g)
            diagrams.append(build_H(res_f, res_g, lift))
        small, big = diagrams
        assert small.levels[0].dims != big.levels[0].dims, f.label
        for n in (1, 2):
            assert h_cohomology(small, n) == h_cohomology(big, n), (f.label, n)


def test_morphism_diagram_shape_and_hypothesis():
    for name, f, g, alpha in canonical_morphisms():
        res_g = resolve(g)
        res_f, lift = lift_morphism(alpha, f, g, res_g)
        sc = build_H(res_f, res_g, lift)
        assert sc.top == 2
        assert sc.levels[2].total_dim == 0
        l_g = _graph_parts(lift)[0]
        expected = sum(g.total_dim for g in sc.ends) + l_g.total_dim
        assert sc.levels[0].total_dim == expected
        hyp = check_hypothesis(sc)
        assert hyp["strong"]
        assert hyp["table"] == {}


def test_faces_see_the_pair_and_the_graph_part(monkeypatch):
    built = {}

    def recording(name):
        real = getattr(pipeline, name)
        monkeypatch.setattr(pipeline, name, lambda *a: built.setdefault(name, real(*a)))

    recording("direct_sum")
    recording("graph_preserving_dgla")
    mods = a2_modules()
    p1, s2 = mods["P1"], mods["S2"]
    alpha = hom_basis(s2, p1)[0]
    res_g = resolve(p1)
    res_f, lift = lift_morphism(alpha, s2, p1, res_g)
    sc = build_H(res_f, res_g, lift)
    face0, face1 = sc.face(1, 0), sc.face(1, 1)
    _, injs, _ = built["direct_sum"]
    l_incl = built["graph_preserving_dgla"][1]
    for p in sc.levels[0].dims:
        # the block-diagonal face ignores the graph-preserving summand
        assert (face0.mat(p) @ injs[2].mat(p)).is_zero()
        # the other face ignores the endomorphism pair
        assert (face1.mat(p) @ injs[0].mat(p)).is_zero()
        assert (face1.mat(p) @ injs[1].mat(p)).is_zero()
        assert (face1.mat(p) @ injs[2].mat(p)) == l_incl.mat(p)


def test_totalisation_cohomology_of_canonical_morphisms():
    expected = {
        "zero on simple": {0: 2, 1: 1},
        "identity of projective": {0: 1},
        "simple into projective": {0: 1},
    }
    for name, f, g, alpha in canonical_morphisms():
        res_g = resolve(g)
        res_f, lift = lift_morphism(alpha, f, g, res_g)
        sc = build_H(res_f, res_g, lift)
        assert h_cohomology(sc) == expected[name]


def test_two_open_cohomology_matches_one_open():
    instances = [(f, g, alpha) for _, f, g, alpha in canonical_morphisms()]
    for seed in range(3):
        rng = random.Random(seed)
        f = random_a2_module(rng)
        g = random_a2_module(rng)
        instances.append((f, g, random_module_map(f, g, rng)))
    for f, g, alpha in instances:
        res_g = resolve(g)
        res_f, lift = lift_morphism(alpha, f, g, res_g)
        sc = build_H(res_f, res_g, lift)
        assert h_cohomology(sc, 2) == h_cohomology(sc, 1)
    with pytest.raises(PipelineError):
        h_cohomology(sc, 3)


def test_les_exact_on_canonical_morphisms():
    for name, f, g, alpha in canonical_morphisms():
        res_g = resolve(g)
        res_f, lift = lift_morphism(alpha, f, g, res_g)
        sc = build_H(res_f, res_g, lift)
        les = les_check(sc)
        assert les["exact"], (name, les["junctions"])


def test_les_exact_on_random_instances():
    for seed in range(25):
        rng = random.Random(seed)
        f = random_a2_module(rng)
        g = random_a2_module(rng)
        alpha = random_module_map(f, g, rng)
        res_g = resolve(g)
        res_f, lift = lift_morphism(alpha, f, g, res_g)
        sc = build_H(res_f, res_g, lift)
        les = les_check(sc)
        assert les["exact"], (seed, les["junctions"])


def test_les_check_fails_when_the_lift_is_replaced_by_zero():
    """The diagram is built from the lift, but les_check reads the lift
    again for v. With the zero chain map in its place, v vanishes while
    u and θ are unchanged, and the sequence breaks at degree 0 on both
    sides of Ext^0(F,G)."""
    _, ident, simple = canonical_morphisms()
    rng = random.Random(9)
    f = random_a2_module(rng)
    g = random_a2_module(rng)
    for f, g, alpha in (ident[1:], simple[1:], (f, g, random_module_map(f, g, rng))):
        res_g = resolve(g)
        res_f, lift = lift_morphism(alpha, f, g, res_g)
        sc = build_H(res_f, res_g, lift)
        assert les_check(sc)["exact"]
        sc.lift = ChainMapM(lift.source, lift.target, {})
        les = les_check(sc)
        assert not les["exact"]
        broken = [j for j in les["junctions"] if not all(
            j[k] for k in ("at_total", "at_ext_pair", "at_ext_hom"))]
        assert broken == [
            {"degree": 0, "at_total": True, "at_ext_pair": False, "at_ext_hom": False}
        ]


def test_reports_on_morphisms_that_were_slow():
    """P1 -> S1 (the projection onto the top), a rank-1 endomorphism of
    S2^2 and the diagonal S1 -> S1^2. The long exact sequence gives the
    Euler characteristic of the totalisation as <F, F> + <G, G> - <F, G>."""
    mods = a2_modules()
    p1, s1 = mods["P1"], mods["S1"]
    s2sq = representation(a2_algebra(), (0, 2), [Mat(2, 0)])
    s1sq = representation(a2_algebra(), (2, 0), [Mat(0, 2)])
    instances = [
        (p1, s1, hom_basis(p1, s1)[0]),
        (s2sq, s2sq, Mat.from_rows([[1, 0], [0, 0]])),
        (s1, s1sq, Mat.from_rows([[1], [1]])),
    ]
    for f, g, alpha in instances:
        rep = pipeline_report(f, g, alpha)
        assert rep["les_exact"] is True
        assert rep["end_matches_ext"] is True
        assert rep["ext_matches_euler_form"] is True
        chi = sum((-1) ** int(d) * h for d, h in rep["h_cohomology"].items())
        euler = euler_form(f, g)
        assert chi == euler["FF"] + euler["GG"] - euler["FG"]


def test_euler_form_check_can_fail():
    """<S1, S2> = -1 (Ext^1(S1, S2) = Q), <S1, S1> = <S2, S2> = 1 and
    <S2, S1> = 0."""
    mods = a2_modules()
    s1, s2 = mods["S1"], mods["S2"]
    assert euler_form(s1, s2) == {"FF": 1, "GG": 1, "FG": -1}
    assert euler_form(s2, s1)["FG"] == 0
    good = {"FF": [1, 0], "GG": [1], "FG": [0, 1]}
    assert ext_matches_euler_form(good, s1, s2)
    for key, wrong in (("FG", [0, 0]), ("FF", [1, 1]), ("GG", [1, 0, 1])):
        assert not ext_matches_euler_form({**good, key: wrong}, s1, s2)


def test_zero_morphism_splits_the_degree_zero_cohomology():
    """With a zero morphism the push-pull difference vanishes, so the
    degree-zero cohomology is the sum of the two endomorphism rings."""
    for seed in (1, 4, 6):
        rng = random.Random(seed)
        f = random_a2_module(rng)
        g = random_a2_module(rng)
        res_g = resolve(g)
        res_f, lift = lift_morphism(Mat(g.dim, f.dim), f, g, res_g)
        sc = build_H(res_f, res_g, lift)
        h = h_cohomology(sc)
        assert h.get(0, 0) == ext_bruteforce(resolve(f), f)[0] + ext_bruteforce(resolve(g), g)[0]


def test_pipeline_report_fields_and_consistency():
    mods = a2_modules()
    rep = pipeline_report(mods["S2"], mods["P1"], hom_basis(mods["S2"], mods["P1"])[0])
    assert rep["schema"] == "pipeline-report/1"
    assert rep["ext"]["FG"] == [1]
    assert rep["les_exact"] is True
    assert rep["end_matches_ext"] is True
    assert rep["ext_matches_euler_form"] is True
    assert rep["tangent_dim"] == rep["h_cohomology"].get("1", 0)
    assert rep["obstruction_dim"] == rep["h_cohomology"].get("2", 0)
    md = render_markdown(rep)
    for verdict in ("les_exact", "end_matches_ext", "ext_matches_euler_form"):
        assert f"\n- {verdict}: yes\n" in md
    assert md.count("at_total: yes; at_ext_pair: yes; at_ext_hom: yes") == len(rep["les_junctions"])
    assert "\n  - FG: [1]\n" in md


def _a2_arrow_first():
    """A2 on the basis (arrow, e_0, e_1): a valid FinAlg whose vertex
    idempotents are not its first basis elements. Returns it with order,
    the a2_algebra() index of each of its basis elements."""
    alg, order = a2_algebra(), (2, 0, 1)
    pos = {old: new for new, old in enumerate(order)}

    def move(v):
        return tuple(v[old] for old in order)

    mul = [[move(alg.mul[a][b]) for b in order] for a in order]
    return FinAlg(mul, move(alg.unit), [pos[e] for e in alg.idempotents],
                  [pos[r] for r in alg.radical], label=alg.label), order


def test_reports_do_not_depend_on_the_order_of_the_algebra_basis():
    """Over A2 on the basis (arrow, e_0, e_1) the three canonical
    morphisms report exactly what they report over a2_algebra(). A map
    out of a projective is read off its generators, and the generator e_i
    must be the first column of its summand A·e_i, which FinAlg.summands
    guarantees for any basis order; reading the column of the first basis
    element of a summand instead reports H = {0: 2, 1: 1} for the
    identity of P1 on this basis, against {0: 1}."""
    alg, order = _a2_arrow_first()
    alg.check()
    assert [alg.summands[s][0] for s in (0, 1)] == list(alg.idempotents)
    for name, f, g, alpha in canonical_morphisms():
        f2, g2 = (FinMod(alg, m.dim, [m.acts[b] for b in order]) for m in (f, g))
        f2.check()
        g2.check()
        for n in (1, 2):
            assert pipeline_report(f2, g2, alpha, n) == pipeline_report(f, g, alpha, n), name


def test_end_matches_ext_compares_the_fg_corner(monkeypatch):
    """With resolve cut down to the projective cover, the zero map S2² ->
    S1² reports H = {0: 8, 1: 4} against the true {0: 8}. The End corners
    still match their Ext lists, which the same cut resolutions compute,
    but H⁰ of Hom(P_F, P_G) = Hom(P2², P1²) is 4 against Ext⁰(S2², S1²) =
    0, so end_matches_ext is false."""
    f = representation(a2_algebra(), (0, 2), [Mat(2, 0)])
    g = representation(a2_algebra(), (2, 0), [Mat(0, 2)])
    alpha = Mat(2, 2)
    rep = pipeline_report(f, g, alpha)
    assert rep["h_cohomology"] == {"0": 8}
    assert rep["end_matches_ext"] is True
    real = pipeline.resolve

    def cover_only(m):
        res = real(m)
        top = BddComplex(m.alg, {0: res.cx.module(0)}, {}, verts={0: res.cx.verts.get(0, ())})
        return Resolution(top, m, res.aug)

    monkeypatch.setattr(pipeline, "resolve", cover_only)
    rep = pipeline_report(f, g, alpha)
    assert rep["h_cohomology"] == {"0": 8, "1": 4}
    assert rep["end_matches_ext"] is False


def test_pipeline_report_is_deterministic():
    mods = a2_modules()
    a = pipeline_report(mods["S1"], mods["S1"], Mat(1, 1))
    b = pipeline_report(mods["S1"], mods["S1"], Mat(1, 1))
    assert a == b
    assert render_markdown(a) == render_markdown(b)


def test_tangent_dimension_is_the_first_cohomology():
    rng = random.Random(3)
    f = random_a2_module(rng)
    g = random_a2_module(rng)
    alpha = random_module_map(f, g, rng)
    rep = pipeline_report(f, g, alpha)
    assert rep["tangent_dim"] == rep["h_cohomology"].get("1", 0)


def test_zero_module_edge_cases():
    alg = a2_algebra()
    z = zero_module(alg)
    r = resolve(z)
    assert not r.cx.mods
    assert ext_bruteforce(resolve(z), a2_modules()["P1"]) == []
    # every Ext list of a zero source is empty, and Hom - Ext^1 = 0 - 0
    # matches its Euler form 0
    g = a2_modules()["P1"]
    rep = pipeline_report(z, g, Mat(g.dim, 0))
    assert rep["ext"] == {"FF": [], "GG": [1], "FG": []}
    assert rep["ext_matches_euler_form"] is True
    assert ext_matches_euler_form({"FF": [], "GG": [1], "FG": []}, z, g)


def test_field_algebra_round_trip():
    """One-dimensional sanity case: one vertex, no radical, and Q^2 is
    its own cover by two copies of Q."""
    alg = path_algebra(1, ())
    m = FinMod(alg, 2, [Mat.identity(2)])
    m.check()
    cover, pi, verts = proj_cover(m)
    assert verts == (0, 0)
    assert pi == Mat.identity(2)
    r = resolve(m)
    assert sorted(r.cx.mods) == [0]
    assert ext_bruteforce(resolve(m), m) == [4]
    assert euler_form(m, m) == {"FF": 4, "GG": 4, "FG": 4}


def test_resolutions_are_minimal():
    """A projective resolution P -> M is minimal iff P0 -> M is a
    projective cover and every differential lands in the radical of its
    target, iff for both simples S the hom complex Hom(P, S) has zero
    differential and Hom(P0, S) = Hom(M, S)."""
    mods = a2_modules()
    instances = [mods[name] for name in ("P1", "P2", "S1", "S2")]
    for seed in range(25):
        rng = random.Random(seed)
        instances += [random_a2_module(rng), random_a2_module(rng)]
    for m in instances:
        cx = resolve(m).cx
        for s in (mods["S1"], mods["S2"]):
            cplx, _ = hom_complex(cx, module_as_complex(s))
            assert not cplx.diffs, (m.label, s.label)
            assert cplx.dim(0) == len(hom_basis(m, s)), (m.label, s.label)


@functools.cache
def _instances():
    """The canonical morphisms and the random_a2_module seeds 0-24."""
    out = [(f, g, alpha) for _, f, g, alpha in canonical_morphisms()]
    for seed in range(25):
        rng = random.Random(seed)
        f = random_a2_module(rng)
        g = random_a2_module(rng)
        out.append((f, g, random_module_map(f, g, rng)))
    return out


@functools.cache
def _instance_graphs():
    """For each of _instances(): the lift between the two resolutions
    and _graph_parts of it."""
    out = []
    for f, g, alpha in _instances():
        _, lift = lift_morphism(alpha, f, g, resolve(g))
        out.append((lift, _graph_parts(lift)))
    return out


def _instance_complexes():
    """For each of _instances(): the resolutions of source and target and
    their direct sum S (_sum_complex), whose End hom_complex(S, S) builds
    on S's own Yoneda basis and build_H assembles from the corners."""
    return [
        (lift.source, lift.target, _sum_complex(lift.source, lift.target)[0])
        for lift, _ in _instance_graphs()
    ]


def _flat(t):
    return [t.entry(r, c) for r in range(t.rows) for c in range(t.cols)]


def _flat_solve(ref, t):
    """ref's solution for the row-major entries of t, as a tuple, or None."""
    sol = ref.solve(from_dense_cols([_flat(t)], ref.rows))
    return None if sol is None else dense_rows(sol.transpose())[0]


def _rebased(m, rng):
    """m in a random basis: the action matrices conjugated by a random
    invertible matrix."""
    while True:
        p = Mat(m.dim, m.dim, {(r, c): rng.randint(-2, 2) for r in range(m.dim) for c in range(m.dim)})
        inv = p.inverse()
        if inv is not None:
            return FinMod(m.alg, m.dim, [inv @ a @ p for a in m.acts])


def _graph_defect(lift, inj_f, inj_g, book_s, p, v):
    """How far the degree-p endomorphism v (sparse coordinates in book_s)
    of S = P_F ⊕ P_G is from preserving the graph Γ of the lift: on each
    block i, φ_i sends (x, lift·x) to some (y, z), which lies in Γ exactly
    when z = lift·y. Returns the entries of every z - lift·y, all zero
    exactly when v preserves Γ."""
    mats = book_s.to_mats(p, v)
    out = []
    for i in sorted({i for i, _ in book_s.basis.get(p, ())}):
        phi = mats.get(i, Mat(book_s.tgt_dims[i + p], book_s.src_dims[i]))
        w = phi @ inj_f.comp(i).add(inj_g.comp(i) @ lift.comp(i))
        y, z = inj_f.comp(i + p).transpose() @ w, inj_g.comp(i + p).transpose() @ w
        out += _flat(z.sub(lift.comp(i + p) @ y))
    return out


def _map_key(i, b):
    """A hashable form of the basis map b of source degree i."""
    return i, tuple((r, c, x) for r, row in enumerate(b._rows) for c, x in sorted(row.items()))


def test_end_of_the_sum_matches_the_hom_complex_of_the_sum():
    """build_H assembles End(S) of S = P_F ⊕ P_G from its four corner hom
    complexes. On the canonical morphisms and the random_a2_module seeds
    0-24 it matches hom_complex(S, S), built on the terms
    proj_module(alg, vf + vg) of S, kept here as the reference: in each
    degree the basis maps are the same set, the two differentials agree
    under that matching, and the first t_dims[p] basis maps are exactly
    those whose P_F -> P_G corner is zero."""
    corner_maps = 0
    for (_, _, s), (_, (_, _, end_s, book_s, t_dims, inj_f, inj_g)) in zip(
        _instance_complexes(), _instance_graphs()
    ):
        ref_cx, ref_book = hom_complex(s, s)
        assert end_s.dims == ref_cx.dims
        perm = {}
        for p, basis in book_s.basis.items():
            ref = {_map_key(i, b): j for j, (i, b) in enumerate(ref_book.basis[p])}
            perm[p] = [ref[_map_key(i, b)] for i, b in basis]
            assert sorted(perm[p]) == list(range(len(ref_book.basis[p])))
            for j, (i, b) in enumerate(basis):
                fg = inj_g.comp(i + p).transpose() @ b @ inj_f.comp(i)
                assert fg.is_zero() == (j < t_dims.get(p, 0)), (p, j)
                corner_maps += not fg.is_zero()

        def matching(p):
            n = end_s.dim(p)
            return Mat(n, n, {(perm[p][j], j): 1 for j in range(n)})

        for p in end_s.dims:
            assert ref_cx.diff(p) @ matching(p) == matching(p + 1) @ end_s.diff(p), p
    assert corner_maps


def test_build_h_builds_each_corner_once_and_les_check_none(monkeypatch):
    """During one pipeline report, build_H calls hom_complex once for each
    ordered pair of the two resolutions, les_check calls neither
    hom_complex nor hom_basis, and nothing calls hom_basis: every hom
    basis of a report is a Yoneda basis."""
    stage, calls, built = [], [], {}

    def staged(name):
        real = getattr(pipeline, name)

        def wrapped(*args):
            built[name] = args
            stage.append(name)
            try:
                return real(*args)
            finally:
                stage.pop()
        monkeypatch.setattr(pipeline, name, wrapped)

    def counted(name):
        real = getattr(pipeline, name)

        def wrapped(*args):
            calls.append((tuple(stage), name, args))
            return real(*args)
        monkeypatch.setattr(pipeline, name, wrapped)

    staged("build_H")
    staged("les_check")
    counted("hom_complex")
    counted("hom_basis")
    instances = [(f, g, alpha) for _, f, g, alpha in canonical_morphisms()]
    for seed in (2, 9):
        rng = random.Random(seed)
        f = random_a2_module(rng)
        g = random_a2_module(rng)
        instances.append((f, g, random_module_map(f, g, rng)))
    for f, g, alpha in instances:
        calls.clear()
        pipeline_report(f, g, alpha)
        res_f, res_g, _ = built["build_H"]
        side = {id(res_f.cx): "F", id(res_g.cx): "G"}
        pairs = sorted(
            side.get(id(k), "?") + side.get(id(m), "?")
            for st, name, (k, m) in calls if name == "hom_complex" and "build_H" in st
        )
        assert pairs == ["FF", "FG", "GF", "GG"]
        assert not [name for st, name, _ in calls if "les_check" in st]
        assert not [name for _, name, _ in calls if name == "hom_basis"]


def test_l_is_exactly_the_endomorphisms_preserving_the_graph():
    """Every image under L's inclusion maps the graph of the lift into
    itself, and the inclusion has full rank, equal to the dimension of
    all such endomorphisms: the kernel of the graph defect over the whole
    basis of End(S)."""
    for lift, (l_g, incl, end_s, book_s, _, inj_f, inj_g) in _instance_graphs():
        for p in end_s.dims:
            n = end_s.dim(p)
            defects = [_graph_defect(lift, inj_f, inj_g, book_s, p, {k: Q(1)}) for k in range(n)]
            oracle = from_dense_cols(defects, len(defects[0]))
            for v in incl.mat(p).transpose()._rows:
                assert not any(_graph_defect(lift, inj_f, inj_g, book_s, p, v))
            assert incl.mat(p).rank() == l_g.dim(p) == n - oracle.rank()


def _conjugated_inclusion(lift, book_s, t_dims):
    """The inclusion of L that graph_preserving_dgla's corner formula
    replaced, kept as its reference: each basis map t of T placed in S
    and conjugated by full S-sized products, u∘t∘u⁻¹ with u = 1 + N and
    u⁻¹ = 1 - N, read back through book_s.matrix. Returns {degree: Mat}."""
    u, u_inv = {}, {}
    for d in set(lift.source.mods) | set(lift.target.mods):
        dims = (lift.source.dim(d), lift.target.dim(d))
        one = {(0, 0): Mat.identity(dims[0]), (1, 1): Mat.identity(dims[1])}
        u[d] = Mat.blocks(dims, dims, {**one, (1, 0): lift.comp(d)})
        u_inv[d] = Mat.blocks(dims, dims, {**one, (1, 0): lift.comp(d).neg()})
    return {
        p: book_s.matrix(p, [{i: u[i + p] @ b @ u_inv[i]} for i, b in book_s.basis[p][:n]])
        for p, n in t_dims.items() if n
    }


def test_corner_formula_matches_the_placed_conjugation():
    """Face (1, 1) of build_H includes L by the corner formula. On its L
    block it equals the placed conjugation (_conjugated_inclusion), and it
    is zero on the End pair: on _instances(), on 40 more seeded A2
    triples, on the Kronecker line-bundle sums and with the zero lift."""
    lifts = [lift for lift, _ in _instance_graphs()]
    for seed in range(100, 140):
        rng = random.Random(seed)
        f = random_a2_module(rng)
        g = random_a2_module(rng)
        lifts.append(lift_morphism(random_module_map(f, g, rng), f, g, resolve(g))[1])
    for src, tgt in (((0, 2), (1,)), ((1, 3), (2, 4))):
        f, g = _line_bundle_sum(*src), _line_bundle_sum(*tgt)
        alpha = random_module_map(f, g, random.Random(0))
        lifts.append(lift_morphism(alpha, f, g, resolve(g))[1])
    lifts += [ChainMapM(lift.source, lift.target, {}) for lift in lifts[:5]]
    corrected = 0
    for lift in lifts:
        sc = _bare_diagram(lift)
        t_dims = {p: n - sc.fg[0].dim(p) for p, n in sc.levels[1].dims.items()}
        ref = _conjugated_inclusion(lift, sc.book_s(), t_dims)
        for p in sc.levels[0].dims:
            face, n = sc.face(1, 1).mat(p), t_dims.get(p, 0)
            cols = face.transpose()._rows
            pair = len(cols) - n
            assert not any(cols[:pair]), p
            assert Mat.wrap(cols[pair:], face.rows) == ref.get(p, Mat(n, face.rows)).transpose(), p
            corrected += n and ref[p] != Mat(face.rows, n, {(k, k): 1 for k in range(n)})
    assert corrected >= 20, corrected


def test_dropping_u_breaks_the_graph_check():
    """With the zero chain map in place of the lift, u = 1 and
    graph_preserving_dgla includes T itself. For a nonzero lift some image
    then leaves the graph (the projection onto P_F ⊕ 0 lies in T and sends
    (x, lift·x) to (x, 0)), so the graph check can fail; for a zero lift
    T is L."""
    nonzero = 0
    for lift, (l_g, _, end_s, book_s, t_dims, inj_f, inj_g) in _instance_graphs():
        zero = ChainMapM(lift.source, lift.target, {})
        t_g, t_incl = graph_preserving_dgla(zero, end_s, _bare_diagram(lift).books)
        assert t_g.dims == l_g.dims
        leaves = any(
            any(_graph_defect(lift, inj_f, inj_g, book_s, p, v))
            for p in t_g.dims for v in t_incl.mat(p).transpose()._rows
        )
        assert leaves == bool(lift.comps)
        nonzero += leaves
    assert nonzero >= 10, nonzero


def test_hom_coords_match_an_elimination_on_every_block():
    """HomBook.coords reads sparse coordinates off the free entries of the
    Yoneda basis. On every degree and block of every hom book of the
    pipeline instances, and of their resolutions into their modules in a
    random basis, they are the nonzero entries of Mat.solve against the
    block's basis, none is zero, to_mats rebuilds the map from them, also
    across blocks, and matrix takes them as its columns. Maps that are
    no module maps, in a block with a basis or without one, and blocks of
    another shape still raise. The books are those of hom_complex and the
    End(S) that build_H assembles from its corners."""
    rng = random.Random(3)
    off_hom = 0
    for (kf, kg, ks), (f, g, _), (_, parts) in zip(
        _instance_complexes(), _instances(), _instance_graphs()
    ):
        f2, g2 = module_as_complex(_rebased(f, rng)), module_as_complex(_rebased(g, rng))
        pairs = [(kf, kf), (kg, kg), (ks, ks), (kf, kg), (kf, g2), (kf, f2), (kg, g2)]
        books = [(hom_complex(k, m)[1], k, m) for k, m in pairs] + [(parts[3], ks, ks)]
        for book, k, m in books:
            for p in range(min(m.mods) - max(k.mods), max(m.mods) - min(k.mods) + 1):
                images, whole = [], {}
                for i in sorted(d for d in k.mods if d + p in m.mods):
                    block = [(j, b) for j, (d, b) in enumerate(book.basis.get(p, ())) if d == i]
                    src, tgt = k.module(i), m.module(i + p)
                    ref = from_dense_cols([_flat(b) for _, b in block], tgt.dim * src.dim)
                    mix = Mat(tgt.dim, src.dim)
                    for _, b in block:
                        mix = mix.add(b.scale(Q(rng.randrange(-3, 4), rng.randrange(1, 4))))
                    for t in [b for _, b in block] + [mix, Mat(tgt.dim, src.dim)]:
                        got = book.coords(p, {i: t})
                        want = _flat_solve(ref, t)
                        assert got == {block[n][0]: x for n, x in enumerate(want) if x}
                        assert all(got.values())
                        assert book.to_mats(p, got) == ({} if t.is_zero() else {i: t})
                        images.append({i: t})
                    if not mix.is_zero():
                        whole[i] = mix
                    for r in range(tgt.dim):
                        for c in range(src.dim):
                            unit = Mat(tgt.dim, src.dim, {(r, c): 1})
                            if not is_module_map(src, tgt, unit):
                                off_hom += 1
                                assert _flat_solve(ref, unit) is None
                                with pytest.raises(PipelineError, match="hom space"):
                                    book.coords(p, {**whole, i: unit})
                    for dr, dc in ((1, 0), (0, 1), (-1, 0), (0, -1)):
                        with pytest.raises(PipelineError, match="hom space"):
                            book.coords(p, {i: Mat(tgt.dim + dr, src.dim + dc)})
                assert book.to_mats(p, book.coords(p, whole)) == whole
                cols = book.matrix(p, images).transpose()._rows
                assert cols == [book.coords(p, x) for x in images]
    assert off_hom > 1000


def _rebuild_coords(book, p, mats):
    """The rebuild reference for HomBook.coords: the map's entries at the
    free positions, or None when to_mats does not rebuild the map from
    them."""
    free, x = book.free.get(p, {}), {}
    for i, t in mats.items():
        for r, row in enumerate(t._rows):
            for c, v in row.items():
                if (i, r, c) in free:
                    x[free[i, r, c]] = v
    given = {i: t for i, t in mats.items() if not t.is_zero()}
    return x if book.to_mats(p, x) == given else None


def test_hom_coords_reject_exactly_what_the_rebuild_rejects():
    """coords checks membership by subtracting the basis maps' tails, with
    no rebuild. Seeded combinations of the basis maps of every degree,
    across blocks, are perturbed at a free entry, at a tail entry and at
    any entry of any block, on the hom books of the pipeline instances
    (whose Yoneda maps have tails) and of End of vector complexes (matrix
    units, no tails). coords raises on exactly the maps that the to_mats
    rebuild rejects, and on the others returns the rebuild's coordinates.
    Both outcomes occur for perturbations at free entries and anywhere."""
    rng = random.Random(31)
    books = [hom_complex(k, m)[1] for kf, kg, ks in _instance_complexes()
             for k, m in ((kf, kf), (kg, kg), (kf, kg), (ks, ks))]
    books += [parts[3] for _, parts in _instance_graphs()]
    for cx in (ChainComplexQ({0: 2, 1: 1}, {0: [[1, 0]]}),
               ChainComplexQ({0: 1, 1: 2, 2: 1}, {0: [[1], [0]], 1: [[0, 1]]}),
               ChainComplexQ({-1: 2, 0: 3}, {-1: [[1, 2], [0, 1], [3, 0]]})):
        books.append(end_dgla_of_complex(vector_complex(cx))[1])
    seen = {}
    for book in books:
        for p, maps in book.basis.items():
            tails = [entry[:3] for tail in book.tails.get(p, {}).values() for entry in tail]
            anywhere = [(i, r, c) for i, n in book.src_dims.items()
                        for r in range(book.tgt_dims.get(i + p, 0)) for c in range(n)]
            for kind, where in (("free", list(book.free[p])), ("tail", tails), ("any", anywhere)):
                for _ in range(2 if where else 0):
                    picked = rng.sample(range(len(maps)), min(len(maps), 3))
                    mats = book.to_mats(p, {j: Q(rng.choice((-2, -1, 1, 3)), rng.randrange(1, 3))
                                            for j in picked})
                    i, r, c = rng.choice(where)
                    t = mats.get(i, Mat(book.tgt_dims[i + p], book.src_dims[i])).copy()
                    t.set_entry(r, c, t.entry(r, c) + Q(rng.choice((-1, 1, 2)), rng.randrange(1, 3)))
                    mats[i] = t
                    want = _rebuild_coords(book, p, mats)
                    if want is None:
                        with pytest.raises(PipelineError, match="hom space"):
                            book.coords(p, mats)
                    else:
                        assert book.coords(p, mats) == want
                    seen[kind, want is None] = seen.get((kind, want is None), 0) + 1
    # a tail entry moves off the span: the free entries fix the coordinates
    assert ("tail", False) not in seen
    assert all(seen.get(key, 0) >= 100 for key in (
        ("free", False), ("free", True), ("tail", True), ("any", False), ("any", True))), seen


def _free_entry(b):
    """HomBook's free entry of a basis map: its first nonzero entry in
    column-major order."""
    c, r = min((c, r) for r, row in enumerate(b._rows) for c in row)
    return r, c


def test_yoneda_basis_spans_the_hom_space():
    """yoneda_basis against hom_basis, the elimination of T a = b T, as
    the reference: on every pair of resolution terms of the pipeline
    instances, on the resolutions of Kronecker line-bundle sums into
    their terms and modules, and on resolution terms into modules in a
    random basis, the Yoneda maps are as many as hom_basis's and span the
    same space. Each is 1 at its free entry, where every other map of
    the list is 0. Over field_algebra it is hom_basis's list itself."""
    rng = random.Random(8)
    pairs = []
    for f, g, _ in _instances():
        terms = [(t, r.cx.verts[d]) for r in (resolve(f), resolve(g)) for d, t in r.cx.mods.items()]
        pairs += [(p, vs, t) for p, vs in terms for t, _ in terms]
        pairs += [(p, vs, _rebased(m, rng)) for p, vs in terms for m in (f, g)]
    for ns in ((1, 3), (2, 4), (0, 2), (0, 1, 3)):
        m = _line_bundle_sum(*ns)
        cx = resolve(m).cx
        terms = [(t, cx.verts[d]) for d, t in cx.mods.items()]
        pairs += [(p, vs, t) for p, vs in terms for t in [m, _rebased(m, rng)] + [t for t, _ in terms]]
    nonzero = 0
    for p, vs, t in pairs:
        got, ref = yoneda_basis(vs, t), hom_basis(p, t)
        assert len(got) == len(ref)
        flat = [_flat(b) for b in got]
        assert Subspace(p.dim * t.dim, Mat.from_rows(flat, p.dim * t.dim)).eq(
            Subspace(p.dim * t.dim, Mat.from_rows([_flat(b) for b in ref], p.dim * t.dim))
        )
        for j, b in enumerate(got):
            r, c = _free_entry(b)
            assert [x.entry(r, c) for x in got] == [int(k == j) for k in range(len(got))]
        nonzero += bool(got)
    assert nonzero > 300, nonzero
    alg = field_algebra()
    for n in range(4):
        for m in range(4):
            src, tgt = proj_module(alg, (0,) * n), proj_module(alg, (0,) * m)
            assert yoneda_basis((0,) * n, tgt) == hom_basis(src, tgt)
            assert yoneda_basis((0,) * n, FinMod(alg, m, [Mat.identity(m)])) == hom_basis(src, tgt)


def _bracket_by_conversion(book, p1, a, p2, b):
    """[a, b] of two basis elements of End(K) the long way: unit vectors
    to block matrices, both composites, the graded difference, and its
    coordinates back through the book."""

    def unit(p, j):
        return {j: Q(1)}

    def compose(am, bm, pb):
        out = {}
        for i, mb in bm.items():
            ma = am.get(i + pb)
            if ma is not None and not (ma @ mb).is_zero():
                out[i] = ma @ mb
        return out

    ma, mb = book.to_mats(p1, unit(p1, a)), book.to_mats(p2, unit(p2, b))
    mats = compose(ma, mb, p2)
    sign = Q(-1) ** (p1 * p2)
    for i, m in compose(mb, ma, p1).items():
        mats[i] = mats.get(i, Mat(m.rows, m.cols)).add(m.scale(-sign))
    return tuple(sorted(book.coords(p1 + p2, mats).items()))


def test_end_bracket_table_matches_the_conversion_reference():
    """On End of each instance complex and on the End(S) that build_H
    assembles from its corners."""
    nonzero = 0
    for complexes, (_, parts) in zip(_instance_complexes(), _instance_graphs()):
        for g, book in [end_dgla_of_complex(k) for k in complexes] + [parts[2:4]]:
            for p1 in g.dims:
                for p2 in g.dims:
                    if not g.dim(p1 + p2):
                        continue
                    for a in range(g.dim(p1)):
                        for b in range(g.dim(p2)):
                            want = _bracket_by_conversion(book, p1, a, p2, b)
                            assert g.bracket_basis(p1, a, p2, b) == want, (p1, a, p2, b)
                            nonzero += bool(want)
    assert nonzero > 3000


def test_one_total_complex_per_diagram(monkeypatch):
    """h_cohomology and les_check share the diagram's total complex T; a
    two-open report totalises the diagram once and then its Čech diagram,
    built on that same T."""
    built = []
    real = pipeline.total_complex
    monkeypatch.setattr(pipeline, "total_complex", lambda sc: built.append(sc) or real(sc))
    _, f, g, alpha = canonical_morphisms()[2]
    pipeline_report(f, g, alpha)
    assert len(built) == 1
    res_g = resolve(g)
    res_f, lift = lift_morphism(alpha, f, g, res_g)
    sc = build_H(res_f, res_g, lift)
    h = h_cohomology(sc)
    les_check(sc)
    assert len(built) == 2
    assert built[-1] is sc
    assert h == real(sc).betti()
    built.clear()
    pipeline_report(f, g, alpha, n_opens=2)
    assert len(built) == 2
    assert isinstance(built[0], pipeline.MorphismDiagram)
    cech = built[1]
    assert cech.top == 1
    assert cech.levels[0].dims == {n: 2 * k for n, k in real(built[0]).dims.items()}
