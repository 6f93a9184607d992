"""Rational linear algebra: RREF, kernels, complexes, block matrices.

The oracle here is an independently written dense Gauss-Jordan over
Fraction, plus hand-worked small cases with frozen expected values.
"""

import random
from fractions import Fraction

import pytest

from mcdescent.linalg import (
    ChainComplexQ,
    Mat,
    Subspace,
    vec,
    vzero,
)
from mcdescent.ratio import Q, rat

from dense_views import dense_rows, from_dense_cols


def col(m, j):
    """Column j of m as a dense tuple."""
    return tuple(r.get(j, Q(0)) for r in m._rows)


def column(v):
    """The one-column Mat of a dense vector."""
    return from_dense_cols([v], len(v))


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
    assert dense_rows(R) == [(Q(1), Q(2)), (Q(0), Q(0))]


def test_rref_matches_dense_oracle():
    rng = random.Random(7)
    for _ in range(80):
        r = rng.randint(0, 6)
        c = rng.randint(0, 6)
        m = rand_mat(rng, r, c)
        R, pivots = m.rref()
        dr, dp = dense_rref(dense_rows(m))
        assert pivots == dp
        got = [[str(x) for x in row] for row in dense_rows(R)]
        want = [[str(x) for x in row] for row in dr]
        assert got == want


def test_solve_frozen():
    m = Mat.from_rows([[1, 1]])
    part = m.solve(column(vec([2])))
    assert part is not None
    ker = m.kernel_basis()
    assert part == column(vec([2, 0]))
    assert ker == Mat.from_rows([[-1, 1]])
    assert Mat.from_rows([[1, 0], [0, 1], [1, 1]]).solve(column(vec([1, 0, 0]))) is None
    with pytest.raises(ValueError, match="one column"):
        m.solve(Mat(1, 2))


def test_solve_and_kernel_random():
    rng = random.Random(11)
    for _ in range(60):
        r = rng.randint(1, 5)
        c = rng.randint(1, 5)
        m = rand_mat(rng, r, c)
        x = column(vec([rng.randint(-4, 4) for _ in range(c)]))
        b = m @ x
        part = m.solve(b)
        assert part is not None
        ker = m.kernel_basis()
        assert m @ part == b
        assert (m @ ker.transpose()).is_zero()
        assert ker.rows == c - m.rank()
        # x - part lies in the kernel span
        assert Subspace(c, ker).contains(x.sub(part).transpose())


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
    found = missed = 0
    for _ in range(60):
        r = rng.randint(1, 6)
        c = rng.randint(1, 5)
        m = rand_mat(rng, r, c, density=0.4)
        for _ in range(4):
            if rng.random() < 0.5:
                b = col(m @ column(vec([rng.randint(-4, 4) for _ in range(c)])), 0)
            else:
                b = vec([rng.randint(-4, 4) for _ in range(r)])
            want = dense_solve(dense_rows(m), b)
            assert m.solve(column(b)) == (None if want is None else column(want))
            found += want is not None
            missed += want is None
    assert found > 100 and missed > 30


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
    # [A | B] with A rank-deficient: B is solved exactly when every column
    # lies in the column space, and then column k of the solution is the
    # dense solution of column k alone; one or two columns outside the
    # column space, independent modulo it, anywhere in B, give None
    rng = random.Random(9)
    for trial in range(60):
        rows, cols = rng.randint(3, 7), rng.randint(2, 6)
        # rank leaves a free column and room below it for two more pivots
        a = rand_rational_mat(rng, rows, cols, rank=rng.randint(1, min(rows - 2, cols - 1)))
        rhs = [
            col(a @ column(vec([rng.randint(-3, 3) for _ in range(cols)])), 0) for _ in range(3)
        ]
        bad = []
        while len(bad) < 1 + trial % 2:
            b = vec([Q(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(rows)])
            spread = bad + [b] + [col(a, j) for j in range(cols)]
            if from_dense_cols(spread, rows).rank() == a.rank() + len(bad) + 1:
                bad.append(b)
        got = a.solve_many(from_dense_cols(rhs, rows))
        assert (got.rows, got.cols) == (cols, len(rhs))
        for k, b in enumerate(rhs):
            want = dense_solve(dense_rows(a), b)
            assert col(got, k) == want and a.solve(column(b)) == column(want)
        assert a @ got == from_dense_cols(rhs, rows)
        for b in bad:
            assert dense_solve(dense_rows(a), b) is None
            rhs.insert(rng.randint(0, len(rhs)), b)
        assert a.solve_many(from_dense_cols(rhs, rows)) is None
    assert Mat(2, 3).solve_many(Mat(2, 0)) == Mat(3, 0)
    with pytest.raises(ValueError, match="shape"):
        Mat(2, 3).solve_many(Mat(3, 1))


def test_columns_agree_with_col():
    rng = random.Random(13)
    for _ in range(40):
        m = rand_mat(rng, rng.randint(0, 5), rng.randint(0, 5), density=0.4)
        cols = m.columns()
        assert len(cols) == m.cols
        for j, got in enumerate(cols):
            assert got == [(i, v) for i, v in enumerate(col(m, j)) if v != 0]


def test_image_kernel_dims():
    rng = random.Random(3)
    for _ in range(40):
        m = rand_mat(rng, rng.randint(0, 5), rng.randint(0, 5))
        ker, im = m.kernel_basis(), m.image_basis()
        assert (ker.cols, im.cols) == (m.cols, m.rows)
        assert ker.rows + m.rank() == m.cols
        assert im.rows == m.rank()


def test_matmul_transpose_random():
    rng = random.Random(19)
    for _ in range(30):
        a = rand_mat(rng, rng.randint(1, 4), rng.randint(1, 4))
        b = rand_mat(rng, a.cols, rng.randint(1, 4))
        ab = a @ b
        # (AB)^T = B^T A^T
        assert ab.transpose() == b.transpose() @ a.transpose()
        v = column(vec([rng.randint(-3, 3) for _ in range(b.cols)]))
        assert ab @ v == a @ (b @ v)


def test_subspace_ops():
    s = Subspace(3, Mat.from_rows([[1, 0, 1], [2, 0, 2], [0, 1, 0]]))
    assert s.dim == 2
    assert s.basis == Mat.from_rows([[1, 0, 1], [0, 1, 0]])
    assert s.contains(Mat.from_rows([[3, -1, 3]]))
    assert not s.contains(Mat.from_rows([[0, 0, 1]]))
    assert not s.contains(Mat.from_rows([[3, -1, 3], [0, 0, 1]]))
    t = Subspace(3, Mat.from_rows([[1, 0, 1]]))
    assert s.contains_space(t)
    ann = t.annihilator_matrix()
    assert (ann @ column(vec([1, 0, 1]))).is_zero()
    assert ann.kernel_basis().rows == 1
    assert Subspace(3, Mat(0, 3)).annihilator_matrix() == Mat.identity(3)
    with pytest.raises(ValueError):
        Subspace(2, Mat.from_rows([[1, 0, 1]]))


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
        s = Subspace(n, Mat.from_rows(gens, cols=n))
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
            t = Subspace(n, Mat.from_rows(others, cols=n))
            assert t.eq(s) and s.eq(t)
            same += 1
        other = rand_span(rng, n, s.dim + rng.randint(0, 1))
        if dense_rank(other) == s.dim:
            spans_differ = dense_rank(gens + other) > s.dim
            assert Subspace(n, Mat.from_rows(other, cols=n)).eq(s) is not spans_differ
            differ += spans_differ
        padded = Mat.from_rows([tuple(g) + (Q(0),) for g in gens], cols=n + 1)
        assert not s.eq(Subspace(n + 1, padded))
    assert not Subspace(2, Mat(0, 2)).eq(Subspace(3, Mat(0, 3)))
    assert same > 40 and differ > 10


def test_contains_agrees_with_dense_rank():
    rng = random.Random(47)
    inside = outside = 0
    for _ in range(80):
        n = rng.randint(1, 5)
        gens = rand_span(rng, n, rng.randint(0, 4))
        s = Subspace(n, Mat.from_rows(gens, cols=n))
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
            assert s.contains_space(Subspace(n, Mat.from_rows(probe, cols=n))) is want
            assert s.contains(Mat.from_rows(probe, cols=n)) is want
            for v in probe:
                got = s.contains(Mat.from_rows([v], cols=n))
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
        if dense_rank(dense_rows(a)) < n:
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
    z = cx.diff(deg).kernel_basis().rows if cx.dim(deg) else 0
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
        ker = dense_rows(a.transpose().kernel_basis())  # rows y with y a = 0
        rows = []
        for r in range(b.rows):
            # project row r of b onto the span of ker (as row vectors)
            row = dense_rows(b)[r]
            if not ker:
                rows.append(vzero(b.cols))
                continue
            km = Mat.from_rows(ker, cols=b.cols).transpose()
            sol = km.solve(column(row))
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
            assert (reps.rows, reps.cols) == (h, cx.dim(d))
            assert (cx.diff(d) @ reps.transpose()).is_zero()


def test_cohomology_representatives_are_the_first_come_cocycles():
    """The representatives are the canonical cocycles that, taken in
    order, each enlarge the span of the coboundaries and the cocycles
    kept before them; the loop below is that rule with a dense rank."""
    rng = random.Random(37)
    skipped = 0
    for _ in range(120):
        cx = rand_complex(rng, max_dim=4)
        for d in range(min(cx.dims, default=0) - 1, max(cx.dims, default=0) + 2):
            cyc, space = dense_rows(cx.cocycles(d)), dense_rows(cx.coboundaries(d))
            want = []
            for z in cyc:
                if dense_rank(space + [z]) > dense_rank(space):
                    want.append(z)
                    space = space + [z]
            assert cx.cohomology(d) == (len(want), Mat.from_rows(want, cols=cx.dim(d)))
            skipped += bool(want) and want != cyc[: len(want)]
    assert skipped > 10


def test_hdim_is_rank_nullity_and_reads_what_is_kept(monkeypatch):
    """hdim(d) = dim C^d - rank d^d - rank d^(d-1) equals
    cohomology(d)[0] on seeded random complexes, gaps and zero
    differentials among them, at every degree and one past each end.
    Each differential's rank is taken once, and a degree whose
    cohomology is kept reads its dimension from it: neither eliminates
    again."""
    rng = random.Random(83)
    gaps = zero_diffs = 0
    seen = []
    for _ in range(80):
        cx = rand_complex(rng, max_deg_span=5, max_dim=4)
        degs = range(min(cx.dims, default=0) - 1, max(cx.dims, default=0) + 2)
        kept = ChainComplexQ(cx.dims, cx.diffs)
        assert [cx.hdim(d) for d in degs] == [kept.cohomology(d)[0] for d in degs]
        assert cx.betti() == {d: h for d in degs if (h := kept.cohomology(d)[0])}
        gaps += any(not cx.dim(d) for d in degs[1:-1])
        zero_diffs += any(cx.dim(d) and cx.dim(d + 1) and d not in cx.diffs for d in degs)
        seen.append((cx, kept, degs))
    assert gaps > 10 and zero_diffs > 10, (gaps, zero_diffs)

    def eliminated_again(self):
        raise AssertionError("hdim eliminated again")

    monkeypatch.setattr(Mat, "rref", eliminated_again)
    for cx, kept, degs in seen:
        assert [cx.hdim(d) for d in degs] == [kept.hdim(d) for d in degs]


def test_cohomology_euler():
    rng = random.Random(29)
    for _ in range(30):
        cx = rand_complex(rng)
        chi = sum(
            (-1) ** d * cx.cohomology(d)[0]
            for d in range(min(cx.dims, default=0), max(cx.dims, default=0) + 1)
        )
        assert chi == cx.euler()


def class_of(cx, deg, v):
    """The per-vector class_of that classes replaced, kept as the oracle,
    with dense Fraction elimination in place of its Mat.solver: None when
    v is not a cocycle, else the coordinates of [v] against the
    representatives, read off the solution of [reps | coboundaries] x = v
    whose free coordinates are zero."""
    if any(col(cx.diff(deg) @ column(v), 0)):
        return None
    hdim, reps = cx.cohomology(deg)
    cols = dense_rows(reps) + dense_rows(cx.coboundaries(deg))
    if not cols:
        return ()
    sol = dense_solve([list(r) for r in zip(*cols)], v)
    if sol is None:
        raise AssertionError("cocycle failed to decompose")
    return sol[:hdim]


def probes(rng, cx, d):
    """Vectors of degree d: the cocycles, zero, random combinations of
    the cocycles and random vectors, which are mostly no cocycles."""
    n = cx.dim(d)
    cyc = dense_rows(cx.cocycles(d))
    out = list(cyc) + [vzero(n)]
    for _ in range(3):
        v = vzero(n)
        for z in cyc:
            c = rng.randint(-2, 2)
            v = tuple(a + c * b for a, b in zip(v, z))
        out.append(v)
    return out + [vec(rng.randint(-2, 2) for _ in range(n)) for _ in range(3)]


def test_cohomology_and_class_of_are_kept_per_degree():
    """A complex computes each degree's cohomology once. Its answers and
    the classes read on the warm complex equal a fresh instance's at every
    degree, a non-cocycle getting None on both, and changing a returned
    Mat of representatives changes no later answer."""
    rng = random.Random(41)
    classes = nones = 0
    for _ in range(60):
        cx = rand_complex(rng, max_dim=4)
        degs = range(min(cx.dims, default=0) - 1, max(cx.dims, default=0) + 2)
        for d in degs:
            reps = cx.cohomology(d)[1]
            if reps.rows:
                reps.set_entry(0, 0, reps.entry(0, 0) + 1)
            cx.cohomology(d)[1]._rows.clear()
            cx.classes(d, Mat(cx.dim(d), 0))
        for d in degs:
            fresh = ChainComplexQ(cx.dims, cx.diffs)
            assert cx.cohomology(d) == fresh.cohomology(d)
            for v in probes(rng, cx, d):
                got = cx.classes(d, column(v))
                assert got == fresh.classes(d, column(v))
                if got is None:
                    nones += 1
                elif not got.is_zero():
                    classes += 1
    assert classes > 500 and nones > 150


def test_classes_equal_the_per_vector_class_of():
    """classes(deg, V) against the per-vector oracle class_of on 120
    seeded random complexes at every degree: column k of the answer is
    class_of of column k of V when every column is a cocycle, and one
    column that is no cocycle makes the whole answer None."""
    rng = random.Random(59)
    cocycle_sets = rejected = nonzero = 0
    for _ in range(120):
        cx = rand_complex(rng, max_dim=4)
        for d in range(min(cx.dims, default=0) - 1, max(cx.dims, default=0) + 2):
            n = cx.dim(d)
            vs = probes(rng, cx, d)
            want = [class_of(cx, d, v) for v in vs]
            closed = [v for v, w in zip(vs, want) if w is not None]
            got = cx.classes(d, from_dense_cols(closed, n))
            assert (got.rows, got.cols) == (cx.cohomology(d)[0], len(closed))
            assert [col(got, k) for k in range(len(closed))] == [w for w in want if w is not None]
            cocycle_sets += 1
            nonzero += not got.is_zero()
            for v, w in zip(vs, want):
                if w is None:
                    mixed = closed + [v]
                    rng.shuffle(mixed)
                    assert cx.classes(d, from_dense_cols(mixed, n)) is None
                    rejected += 1
    assert cocycle_sets > 400 and nonzero > 100 and rejected > 300


def test_class_of_and_same_class():
    # circle-like complex: 0 -> Q^2 -d-> Q^2 -> 0 with d = [[1,-1],[-1,1]]
    cx = ChainComplexQ({0: 2, 1: 2}, {0: [[1, -1], [-1, 1]]})
    assert cx.cohomology(0) == (1, Mat.from_rows([[1, 1]]))
    h1, reps1 = cx.cohomology(1)
    assert h1 == 1
    z = vec([1, 0])
    w = vec([0, 1])  # differs from z by d(1,0) = (1,-1)
    got = cx.classes(1, from_dense_cols([z, w, vec([1, -1])], 2))
    assert col(got, 0) == col(got, 1) == class_of(cx, 1, z) != (Q(0),)
    assert col(got, 2) == class_of(cx, 1, vec([1, -1])) == (Q(0),)
    assert cx.classes(0, from_dense_cols([vec([1, 0])], 2)) is None
    assert cx.classes(0, from_dense_cols([vec([2, 2])], 2)) == Mat.from_rows([[2]])


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
        assert dense_rows(got) == dense_blocks(row_dims, col_dims, placed)
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


def test_vec_helpers():
    v = vec([1, "1/2", rat(3, 4)])
    assert v == (Q(1), Q(1, 2), Q(3, 4))
    assert vzero(3) == (Q(0),) * 3
