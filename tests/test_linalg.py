"""Rational linear algebra: RREF, kernels, complexes, cones.

The oracle here is an independently written dense Gauss-Jordan over
Fraction, plus hand-worked small cases with frozen expected values.
"""

import random
from fractions import Fraction

import pytest

from mcdescent.linalg import (
    ChainComplexQ,
    ChainMapQ,
    Mat,
    Subspace,
    cone,
    vec,
    vis_zero,
    vzero,
)
from mcdescent.ratio import Q, rat


# independent dense RREF used as the oracle
def dense_rref(rows):
    rows = [[Fraction(str(x)) for x in r] for r in rows]
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots = []
    top = 0
    for col in range(ncols):
        sel = next((i for i in range(top, len(rows)) if rows[i][col] != 0), None)
        if sel is None:
            continue
        rows[top], rows[sel] = rows[sel], rows[top]
        inv = Fraction(1) / rows[top][col]
        rows[top] = [v * inv for v in rows[top]]
        for i in range(len(rows)):
            if i != top and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[top])]
        pivots.append(col)
        top += 1
        if top == len(rows):
            break
    return rows, pivots


def rand_mat(rng, rows, cols, density=0.6, span=5):
    data = {}
    for i in range(rows):
        for j in range(cols):
            if rng.random() < density:
                data[(i, j)] = rng.randint(-span, span)
    return Mat(rows, cols, data)


def test_rref_frozen_small():
    m = Mat.from_rows([[2, 4], [1, 2]])
    R, pivots = m.rref()
    assert pivots == [0]
    assert R.to_rows() == [(Q(1), Q(2)), (Q(0), Q(0))]


def test_rref_matches_dense_oracle():
    rng = random.Random(7)
    for _ in range(80):
        r = rng.randint(0, 6)
        c = rng.randint(0, 6)
        m = rand_mat(rng, r, c)
        R, pivots = m.rref()
        dr, dp = dense_rref(m.to_rows())
        assert pivots == dp
        got = [[str(x) for x in row] for row in R.to_rows()]
        want = [[str(x) for x in row] for row in dr]
        assert got == want


def test_solve_frozen():
    m = Mat.from_rows([[1, 1]])
    part = m.solve(vec([2]))
    assert part is not None
    ker = m.kernel_basis()
    assert part == (Q(2), Q(0))
    assert ker == [(Q(-1), Q(1))]
    assert Mat.from_rows([[1, 0], [0, 1], [1, 1]]).solve(vec([1, 0, 0])) is None


def test_solve_and_kernel_random():
    rng = random.Random(11)
    for _ in range(60):
        r = rng.randint(1, 5)
        c = rng.randint(1, 5)
        m = rand_mat(rng, r, c)
        x = vec([rng.randint(-4, 4) for _ in range(c)])
        b = m.matvec(x)
        part = m.solve(b)
        assert part is not None
        ker = m.kernel_basis()
        assert m.matvec(part) == b
        for k in ker:
            assert vis_zero(m.matvec(k))
        assert len(ker) == c - m.rank()
        # x - part lies in the kernel span
        diff = tuple(a - b2 for a, b2 in zip(x, part))
        assert Subspace(c, ker).contains(diff)


def dense_solve(rows, b):
    """Oracle: the solution of A x = b with zero free coordinates, or None."""
    ncols = len(rows[0])
    R, pivots = dense_rref([list(r) + [v] for r, v in zip(rows, b)])
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for i, p in enumerate(pivots):
        x[p] = R[i][ncols]
    return tuple(x)


def test_solver_matches_dense_oracle():
    rng = random.Random(12)
    for _ in range(60):
        r = rng.randint(1, 6)
        c = rng.randint(1, 5)
        m = rand_mat(rng, r, c, density=0.4)
        solve = m.solver()
        for _ in range(4):
            if rng.random() < 0.5:
                b = m.matvec(vec([rng.randint(-4, 4) for _ in range(c)]))
            else:
                b = vec([rng.randint(-4, 4) for _ in range(r)])
            want = dense_solve(m.to_rows(), b)
            assert solve(b) == want
            assert m.solve(b) == want


def gauss_jordan_rref(m):
    """The earlier Mat.rref, kept as a reference: column by column, pivot on
    the first row at or below the top with a nonzero entry, clear the
    column from every other row. Returns (rows as dicts, pivots)."""
    work = [dict(r) for r in m._rows]
    pivots = []
    top = 0
    for col in range(m.cols):
        sel = next((i for i in range(top, len(work)) if work[i].get(col)), None)
        if sel is None:
            continue
        work[top], work[sel] = work[sel], work[top]
        prow = work[top]
        inv = Q(1) / prow[col]
        for j in list(prow):
            prow[j] *= inv
        for i in range(len(work)):
            f = work[i].get(col)
            if i == top or not f:
                continue
            for j, v in prow.items():
                nv = work[i].get(j, Q(0)) - f * v
                if nv == 0:
                    work[i].pop(j, None)
                else:
                    work[i][j] = nv
        pivots.append(col)
        top += 1
        if top == len(work):
            break
    return work, pivots


def rand_rational_mat(rng, rows, cols, rank=None, density=0.5):
    """Entries with mixed denominators; with rank given, a product of a
    rows x rank and a rank x cols matrix, so rank-deficient when rank is
    below both sizes."""
    def entry():
        if rng.random() >= density:
            return 0
        return Q(rng.randint(-6, 6), rng.choice([1, 1, 2, 3, 5, 7]))

    if rank is None:
        return Mat(rows, cols, {(i, j): entry() for i in range(rows) for j in range(cols)})
    left = Mat(rows, rank, {(i, k): entry() for i in range(rows) for k in range(rank)})
    right = Mat(rank, cols, {(k, j): entry() for k in range(rank) for j in range(cols)})
    return left @ right


def with_duplicates_and_zero_rows(rng, m):
    """m with some rows repeated (as they are or scaled) and some zero rows
    put in, in a shuffled row order."""
    rows = [dict(r) for r in m._rows]
    for r in list(rows):
        if rng.random() < 0.4:
            c = rng.choice([Q(1), Q(-2), Q(3, 4)])
            rows.append({j: c * v for j, v in r.items()})
    rows.extend({} for _ in range(rng.randint(0, 2)))
    rng.shuffle(rows)
    out = Mat(len(rows), m.cols)
    out._rows = rows
    return out


def test_rref_matches_gauss_jordan_reference():
    rng = random.Random(8)
    shapes = (
        [(rng.randint(8, 14), rng.randint(1, 5)) for _ in range(40)]  # tall
        + [(rng.randint(1, 5), rng.randint(8, 14)) for _ in range(40)]  # wide
        + [(rng.randint(0, 7), rng.randint(0, 7)) for _ in range(60)]
    )
    for rows, cols in shapes:
        # full entries, then rank-deficient (rank 0 is the zero matrix)
        for rank in (None, rng.randint(0, max(0, min(rows, cols) - 1))):
            m = rand_rational_mat(rng, rows, cols, rank)
            for a in (m, with_duplicates_and_zero_rows(rng, m)):
                R, pivots = a.rref()
                want_rows, want_pivots = gauss_jordan_rref(a)
                assert pivots == want_pivots
                assert (R.rows, R.cols) == (a.rows, a.cols)
                assert R._rows == want_rows
                assert all(0 not in r.values() for r in R._rows)


def test_solve_many_reads_each_column_alone():
    # [A | B] with A rank-deficient: a right-hand side outside the column
    # space becomes a pivot of its own and must not disturb the others;
    # with two of them, independent modulo the column space, the second
    # pivots one row further down
    rng = random.Random(9)
    for trial in range(60):
        rows, cols = rng.randint(3, 7), rng.randint(2, 6)
        # rank leaves a free column and room below it for two more pivots
        a = rand_rational_mat(rng, rows, cols, rank=rng.randint(1, min(rows - 2, cols - 1)))
        rhs = [a.matvec(vec([rng.randint(-3, 3) for _ in range(cols)])) for _ in range(3)]
        bad = []
        while len(bad) < 1 + trial % 2:
            b = vec([Q(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(rows)])
            spread = bad + [b] + [a.col(j) for j in range(cols)]
            if Mat.from_cols(spread, rows=rows).rank() == a.rank() + len(bad) + 1:
                bad.append(b)
        for b in bad:
            rhs.insert(rng.randint(0, len(rhs)), b)
        got = a.solve_many(rhs)
        assert [k for k, x in enumerate(got) if x is None] == [
            k for k, b in enumerate(rhs) if any(b is c for c in bad)
        ]
        for k, b in enumerate(rhs):
            assert got[k] == dense_solve(a.to_rows(), b) == a.solve(b)
            if got[k] is not None:
                assert a.matvec(got[k]) == b
    assert Mat(2, 3).solve_many([]) == []


def test_columns_agree_with_col():
    rng = random.Random(13)
    for _ in range(40):
        m = rand_mat(rng, rng.randint(0, 5), rng.randint(0, 5), density=0.4)
        cols = m.columns()
        assert len(cols) == m.cols
        for j, col in enumerate(cols):
            assert col == [(i, v) for i, v in enumerate(m.col(j)) if v != 0]


def test_image_kernel_dims():
    rng = random.Random(3)
    for _ in range(40):
        m = rand_mat(rng, rng.randint(0, 5), rng.randint(0, 5))
        assert len(m.kernel_basis()) + m.rank() == m.cols
        assert len(m.image_basis()) == m.rank()


def test_matmul_transpose_random():
    rng = random.Random(19)
    for _ in range(30):
        a = rand_mat(rng, rng.randint(1, 4), rng.randint(1, 4))
        b = rand_mat(rng, a.cols, rng.randint(1, 4))
        ab = a @ b
        # (AB)^T = B^T A^T
        assert ab.transpose() == b.transpose() @ a.transpose()
        v = vec([rng.randint(-3, 3) for _ in range(b.cols)])
        assert ab.matvec(v) == a.matvec(b.matvec(v))


def test_subspace_ops():
    s = Subspace(3, [vec([1, 0, 1]), vec([2, 0, 2]), vec([0, 1, 0])])
    assert s.dim == 2
    assert s.contains(vec([3, -1, 3]))
    assert not s.contains(vec([0, 0, 1]))
    t = Subspace(3, [vec([1, 0, 1])])
    assert s.contains_space(t)
    ann = t.annihilator_matrix()
    assert ann.matvec(vec([1, 0, 1])) == vzero(ann.rows)
    assert len(ann.kernel_basis()) == 1


def dense_rank(vectors):
    return len(dense_rref([list(v) for v in vectors])[1])


def rand_span(rng, n, k):
    """k vectors of Q^n, about half of them combinations of the others."""
    out = []
    for _ in range(k):
        if out and rng.random() < 0.5:
            v = vzero(n)
            for u in out:
                c = Q(rng.randint(-2, 2), rng.choice([1, 2, 3]))
                v = tuple(a + c * b for a, b in zip(v, u))
            out.append(v)
        else:
            out.append(vec(Q(rng.randint(-3, 3), rng.choice([1, 1, 2])) for _ in range(n)))
    return out


def test_subspace_eq_compares_spans():
    rng = random.Random(43)
    same = differ = 0
    for _ in range(80):
        n = rng.randint(1, 5)
        gens = rand_span(rng, n, rng.randint(0, 4))
        s = Subspace(n, gens)
        # another generating set of the same span: each generator plus a
        # combination of the others, a multiple of one and a zero vector
        others = []
        for i, g in enumerate(gens):
            v = g
            for j, u in enumerate(gens):
                if j != i:
                    c = rng.randint(-1, 1)
                    v = tuple(a + c * b for a, b in zip(v, u))
            others.append(v)
        if dense_rank(others) == dense_rank(gens):
            others += [tuple(2 * a for a in v) for v in others[:1]] + [vzero(n)]
            rng.shuffle(others)
            assert Subspace(n, others).eq(s) and s.eq(Subspace(n, others))
            same += 1
        other = rand_span(rng, n, s.dim + rng.randint(0, 1))
        if dense_rank(other) == s.dim:
            spans_differ = dense_rank(gens + other) > s.dim
            assert Subspace(n, other).eq(s) is not spans_differ
            differ += spans_differ
        assert not s.eq(Subspace(n + 1, [tuple(g) + (Q(0),) for g in gens]))
    assert not Subspace(2).eq(Subspace(3))
    assert same > 40 and differ > 10


def test_contains_agrees_with_dense_rank():
    rng = random.Random(47)
    inside = outside = 0
    for _ in range(80):
        n = rng.randint(1, 5)
        gens = rand_span(rng, n, rng.randint(0, 4))
        s = Subspace(n, gens)
        for kind in range(6):
            probe = rand_span(rng, n, rng.randint(1, 3))
            if kind % 2:
                # combinations of the generators, inside the span, and for
                # kind 3 and 5 one vector in the last coordinate, so that
                # the probe's canonical basis can start inside the span
                probe = [
                    vec(sum((c * g[i] for c, g in zip(cs, gens)), Q(0)) for i in range(n))
                    for cs in ([rng.randint(-2, 2) for _ in gens] for _ in probe)
                ]
                if kind > 1:
                    probe.append(vec([0] * (n - 1) + [rng.randint(1, 3)]))
            want = dense_rank(gens + probe) == dense_rank(gens)
            assert s.contains_space(Subspace(n, probe)) is want
            for v in probe:
                got = s.contains(v)
                assert got is (dense_rank(gens + [v]) == dense_rank(gens))
                inside += got
                outside += not got
    assert inside > 100 and outside > 100


def test_inverse_is_none_exactly_when_singular():
    rng = random.Random(53)
    inverted = singular = 0
    for _ in range(80):
        n = rng.randint(0, 6)
        rank = None if rng.random() < 0.6 else rng.randint(0, max(0, n - 1))
        a = rand_rational_mat(rng, n, n, rank)
        inv = a.inverse()
        if dense_rank(a.to_rows()) < n:
            assert inv is None
            singular += 1
        else:
            assert a @ inv == Mat.identity(n) == inv @ a
            inverted += 1
        for r, c in ((n, n + 1), (n + 1, n)):
            assert rand_rational_mat(rng, r, c).inverse() is None
    assert inverted > 20 and singular > 20


def naive_cohomology_dim(cx, deg):
    # rank-nullity, computed straight from the definition
    z = len(cx.diff(deg).kernel_basis()) if cx.dim(deg) else 0
    b = cx.diff(deg - 1).rank() if cx.dim(deg - 1) and cx.dim(deg) else 0
    return z - b


def rand_complex(rng, max_deg_span=3, max_dim=3):
    # build a random two-term valid complex by forcing d2 = projector trick:
    # take random A at degree 0; degree 1 differential is chosen with
    # columns in ker of a random map composed to zero via kernel basis.
    lo = rng.randint(-2, 0)
    degs = list(range(lo, lo + max_deg_span + 1))
    dims = {d: rng.randint(0, max_dim) for d in degs}
    diffs = {}
    prev = None
    for d in degs[:-1]:
        rows, cols = dims.get(d + 1, 0), dims.get(d, 0)
        m = Mat(rows, cols)
        if rows and cols:
            if prev is None or prev.is_zero():
                m = rand_mat(rng, rows, cols, density=0.5, span=3)
            else:
                # columns must live in ker(prev is the *previous* diff) -- careful:
                # need d_{d} rows in ker of nothing; we need d_{d+1} @ d_d = 0,
                # so choose m freely and then adjust the NEXT one instead.
                m = rand_mat(rng, rows, cols, density=0.5, span=3)
        prev = m
        diffs[d] = m
    # repair: zero out products by projecting each next diff onto ker of previous
    for i, d in enumerate(degs[:-2]):
        a = diffs[d]
        b = diffs[d + 1]
        if a.is_zero() or b.is_zero():
            continue
        ker = a.transpose().kernel_basis()  # rows y with y a = 0
        rows = []
        for r in range(b.rows):
            # project row r of b onto the span of ker (as row vectors)
            row = b.row(r)
            if not ker:
                rows.append(vzero(b.cols))
                continue
            km = Mat.from_rows(ker, cols=b.cols).transpose()
            sol = km.solve(row)
            if sol is None:
                # replace with a kernel row
                rows.append(ker[r % len(ker)])
            else:
                rows.append(row)
        diffs[d + 1] = Mat.from_rows(rows, cols=b.cols)
    # final safety: drop next diff when product still nonzero
    for d in degs[:-2]:
        if not (diffs[d + 1] @ diffs[d]).is_zero():
            diffs[d + 1] = Mat(diffs[d + 1].rows, diffs[d + 1].cols)
    return ChainComplexQ(dims, diffs)


def test_complex_validation():
    cx = ChainComplexQ({0: 1, 1: 1, 2: 1}, {0: [[1]], 1: [[1]]})
    try:
        cx.check()
    except ValueError as e:
        assert "d^2" in str(e)
    else:
        raise AssertionError("d^2 != 0 not caught")


def test_cohomology_vs_rank_nullity():
    rng = random.Random(23)
    for _ in range(50):
        cx = rand_complex(rng)
        for d in range(min(cx.dims, default=0) - 1, max(cx.dims, default=0) + 2):
            h, reps = cx.cohomology(d)
            assert h == naive_cohomology_dim(cx, d)
            assert len(reps) == h
            for z in reps:
                assert vis_zero(cx.diff(d).matvec(z))


def test_cohomology_representatives_are_the_first_come_cocycles():
    """The representatives are the canonical cocycles that, taken in
    order, each enlarge the span of the coboundaries and the cocycles
    kept before them; the loop below is that rule with a dense rank."""
    rng = random.Random(37)
    skipped = 0
    for _ in range(120):
        cx = rand_complex(rng, max_dim=4)
        for d in range(min(cx.dims, default=0) - 1, max(cx.dims, default=0) + 2):
            cyc, space = cx.cocycles(d), cx.coboundaries(d)
            want = []
            for z in cyc:
                if dense_rank(space + [z]) > dense_rank(space):
                    want.append(z)
                    space = space + [z]
            assert cx.cohomology(d) == (len(want), want)
            skipped += bool(want) and want != cyc[: len(want)]
    assert skipped > 10


def test_cohomology_euler():
    rng = random.Random(29)
    for _ in range(30):
        cx = rand_complex(rng)
        chi = sum(
            (-1) ** d * cx.cohomology(d)[0]
            for d in range(min(cx.dims, default=0), max(cx.dims, default=0) + 1)
        )
        assert chi == cx.euler()


def test_cohomology_and_class_of_are_kept_per_degree():
    """A complex computes each degree's cohomology and class_of
    factorisation once. Its answers equal a fresh instance's at every
    degree, a non-cocycle still gets None once the degree is warm, and
    changing a returned list of representatives changes no later answer."""
    rng = random.Random(41)
    classes = nones = 0
    for _ in range(60):
        cx = rand_complex(rng, max_dim=4)
        degs = range(min(cx.dims, default=0) - 1, max(cx.dims, default=0) + 2)
        for d in degs:
            cx.cohomology(d)[1].clear()
            cx.class_of(d, vzero(cx.dim(d)))
        for d in degs:
            fresh = ChainComplexQ(cx.dims, cx.diffs)
            assert cx.cohomology(d) == fresh.cohomology(d)
            n = cx.dim(d)
            cyc = cx.cocycles(d)
            probes = list(cyc) + [vzero(n)]
            for _ in range(3):
                v = vzero(n)
                for z in cyc:
                    c = rng.randint(-2, 2)
                    v = tuple(a + c * b for a, b in zip(v, z))
                probes.append(v)
            probes += [vec(rng.randint(-2, 2) for _ in range(n)) for _ in range(3)]
            for v in probes:
                got = cx.class_of(d, v)
                assert got == fresh.class_of(d, v)
                if got is None:
                    nones += 1
                elif any(got):
                    classes += 1
    assert classes > 500 and nones > 150


def test_class_of_and_same_class():
    # circle-like complex: 0 -> Q^2 -d-> Q^2 -> 0 with d = [[1,-1],[-1,1]]
    cx = ChainComplexQ({0: 2, 1: 2}, {0: [[1, -1], [-1, 1]]})
    assert cx.cohomology(0) == (1, [(Q(1), Q(1))])
    h1, reps1 = cx.cohomology(1)
    assert h1 == 1
    z = vec([1, 0])
    w = vec([0, 1])  # differs from z by d(1,0) = (1,-1)
    assert cx.class_of(1, z) == cx.class_of(1, w) != (Q(0),)
    assert cx.class_of(1, vec([1, -1])) == (Q(0),)


def test_cone_euler_and_quasi_iso():
    rng = random.Random(31)
    for _ in range(25):
        cx = rand_complex(rng)
        ident = ChainMapQ(cx, cx, {d: Mat.identity(n) for d, n in cx.dims.items()})
        cn = cone(ident)
        # cone of an iso is acyclic
        for d in range(min(cn.dims, default=0), max(cn.dims, default=0) + 1):
            assert cn.cohomology(d)[0] == 0
        assert cn.euler() == 0


# --- block matrices -----------------------------------------------------------


def dense_blocks(row_dims, col_dims, placed):
    """The block matrix as dense rows, each block's corner summed by hand."""
    out = [[Q(0)] * sum(col_dims) for _ in range(sum(row_dims))]
    for (i, j), b in placed.items():
        r0, c0 = sum(row_dims[:i]), sum(col_dims[:j])
        for r in range(b.rows):
            for c in range(b.cols):
                out[r0 + r][c0 + c] = b.entry(r, c)
    return [tuple(r) for r in out]


def test_blocks_match_a_dense_reference():
    rng = random.Random(23)
    empty = 0
    for _ in range(300):
        row_dims = [rng.randint(0, 3) for _ in range(rng.randint(1, 4))]
        col_dims = [rng.randint(0, 3) for _ in range(rng.randint(1, 4))]
        placed = {
            (i, j): rand_rational_mat(rng, r, c)
            for i, r in enumerate(row_dims)
            for j, c in enumerate(col_dims)
            if rng.random() < 0.6
        }
        empty += any(0 in (b.rows, b.cols) for b in placed.values())
        got = Mat.blocks(row_dims, col_dims, placed)
        assert (got.rows, got.cols) == (sum(row_dims), sum(col_dims))
        assert got.to_rows() == dense_blocks(row_dims, col_dims, placed)
        assert all(v for row in got._rows for v in row.values())
    assert empty > 50
    assert Mat.blocks((), (), {}) == Mat(0, 0)


@pytest.mark.parametrize(
    "placed",
    [
        {(0, 0): Mat(2, 2)},
        {(1, 1): Mat(3, 2)},
        {(0, 1): Mat(2, 3).transpose()},
        {(0, 0): Mat(2, 1), (1, 0): Mat(2, 1)},
    ],
)
def test_blocks_refuse_a_wrong_shaped_block(placed):
    with pytest.raises(ValueError, match="block"):
        Mat.blocks((2, 3), (1, 3), placed)


def set_entry_cone(f: ChainMapQ) -> ChainComplexQ:
    """The mapping cone placed entry by entry: cone(f)^n = X^{n+1} ⊕ Y^n
    with d(x, y) = (-dx, fx + dy)."""
    X, Y = f.source, f.target
    degs = {d - 1 for d in X.dims} | set(Y.dims)
    diffs = {}
    for d in sorted(degs):
        m = Mat(X.dim(d + 2) + Y.dim(d + 1), X.dim(d + 1) + Y.dim(d))
        for i in range(X.dim(d + 2)):
            for j in range(X.dim(d + 1)):
                m.set_entry(i, j, -X.diff(d + 1).entry(i, j))
        for i in range(Y.dim(d + 1)):
            for j in range(X.dim(d + 1)):
                m.set_entry(X.dim(d + 2) + i, j, f.mat(d + 1).entry(i, j))
            for j in range(Y.dim(d)):
                m.set_entry(X.dim(d + 2) + i, X.dim(d + 1) + j, Y.diff(d).entry(i, j))
        diffs[d] = m
    return ChainComplexQ({d: X.dim(d + 1) + Y.dim(d) for d in degs}, diffs)


def test_cone_is_the_set_entry_cone():
    """cone against the entry-by-entry placement on the identity of 20
    seeded random complexes and on 40 seeded random maps between two of
    them (the cone only places blocks, so the maps need not commute with
    d, and the degrees of source and target need not line up)."""
    rng = random.Random(37)
    maps = []
    for _ in range(20):
        cx = rand_complex(rng)
        maps.append(ChainMapQ(cx, cx, {d: Mat.identity(n) for d, n in cx.dims.items()}))
    for _ in range(40):
        X, Y = rand_complex(rng), rand_complex(rng)
        mats = {d: rand_rational_mat(rng, Y.dim(d), X.dim(d)) for d in set(X.dims) & set(Y.dims)}
        maps.append(ChainMapQ(X, Y, mats))
    assert sum(bool(f.mats) and bool(f.source.diffs) for f in maps) > 30
    for f in maps:
        got, want = cone(f), set_entry_cone(f)
        assert got.dims == want.dims
        assert got.diffs == want.diffs


def test_vec_helpers():
    v = vec([1, "1/2", rat(3, 4)])
    assert v == (Q(1), Q(1, 2), Q(3, 4))
    assert vis_zero(vzero(3)) and not vis_zero(v)
