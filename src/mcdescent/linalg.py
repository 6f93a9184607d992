"""Exact linear algebra over the rationals.

Sparse row-dict matrices with reduced row echelon form, kernels, images and
solving; rational subspaces with canonical bases; bounded cochain complexes
with cohomology (dimensions plus deterministic representatives).

A Mat is the one format for a basis and for a solution. A basis of k
vectors of Q^n is a k x n Mat, one sparse row per vector, read off an
RREF as it stands: kernel_basis, image_basis, Subspace.basis, cocycles,
coboundaries and cohomology representatives all take that form. Solving
is one elimination of [A | B] (solve_many), whose solution is a Mat with
one column per column of B; solve and inverse are its one-column and
identity cases. Dense vectors enter only through Mat.from_rows, at an
input boundary; a matrix of columns is the transpose of one of rows,
and no method hands a row or a column back dense.

Block matrices come from one constructor, Mat.blocks: every direct sum,
total complex and stacked linear system of the package places its
blocks through it, so where a summand sits in a sum is decided there.

Everything is exact: no floats anywhere, no tolerances.
"""

from __future__ import annotations

from itertools import accumulate

from .ratio import ONE, ZERO, Q, neg_one_pow, rat

Vec = tuple  # tuple of Q entries


def vec(entries) -> Vec:
    return tuple(e if type(e) is Q else rat(e) for e in entries)


def vzero(n: int) -> Vec:
    return (ZERO,) * n


class Mat:
    """Rational matrix stored as sparse rows: list of {col: nonzero Q}."""

    __slots__ = ("rows", "cols", "_rows")

    def __init__(self, rows: int, cols: int, data=None):
        self.rows = rows
        self.cols = cols
        self._rows = [dict() for _ in range(rows)]
        if data:
            for (r, c), v in data.items():
                v = rat(v)
                if v:
                    self._rows[r][c] = v

    # --- constructors -------------------------------------------------

    @classmethod
    def wrap(cls, rows: list, cols: int) -> "Mat":
        """The matrix of a list of zero-free row dicts that no one else
        holds, taken as it is: neither checked nor copied."""
        m = object.__new__(cls)
        m.rows, m.cols, m._rows = len(rows), cols, rows
        return m

    @classmethod
    def identity(cls, n: int) -> "Mat":
        m = cls(n, n)
        for i in range(n):
            m._rows[i][i] = ONE
        return m

    @classmethod
    def from_rows(cls, rows_list, cols: int | None = None) -> "Mat":
        rows_list = [vec(r) for r in rows_list]
        if cols is None:
            cols = len(rows_list[0]) if rows_list else 0
        m = cls(len(rows_list), cols)
        for i, r in enumerate(rows_list):
            if len(r) != cols:
                raise ValueError("ragged rows")
            for j, v in enumerate(r):
                if v:
                    m._rows[i][j] = v
        return m

    @classmethod
    def blocks(cls, row_dims, col_dims, placed: dict) -> "Mat":
        """The block matrix with row blocks of the sizes row_dims and
        column blocks of the sizes col_dims: block (i, j) is
        placed[(i, j)], and every block not given is zero. Block i starts
        after the blocks before it. A given block whose shape is not
        row_dims[i] x col_dims[j] raises ValueError."""
        roffs = list(accumulate(row_dims, initial=0))
        coffs = list(accumulate(col_dims, initial=0))
        out = cls(roffs[-1], coffs[-1])
        rows = out._rows
        for (i, j), b in placed.items():
            if b.rows != row_dims[i] or b.cols != col_dims[j]:
                raise ValueError(
                    f"block ({i}, {j}) is {b.rows}x{b.cols}, "
                    f"expected {row_dims[i]}x{col_dims[j]}"
                )
            r0, c0 = roffs[i], coffs[j]
            for r, src in enumerate(b._rows):
                if src:
                    tr = rows[r0 + r]
                    for c, v in src.items():
                        tr[c0 + c] = v
        return out

    # --- access -------------------------------------------------------

    def entry(self, r: int, c: int):
        return self._rows[r].get(c, ZERO)

    def set_entry(self, r: int, c: int, v):
        v = rat(v)
        if not v:
            self._rows[r].pop(c, None)
        else:
            self._rows[r][c] = v

    def columns(self) -> list:
        """Sparse columns: for each column, its (row, value) pairs with the
        value nonzero, in ascending row order. A fresh list on every call;
        callers that reuse it keep it themselves."""
        cols = [[] for _ in range(self.cols)]
        for i, r in enumerate(self._rows):
            for j, v in r.items():
                cols[j].append((i, v))
        return cols

    def copy(self) -> "Mat":
        return Mat.wrap([dict(r) for r in self._rows], self.cols)

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self._rows == other._rows
        )

    def __hash__(self):  # pragma: no cover - Mat is not meant for dict keys
        raise TypeError("Mat is unhashable")

    def is_zero(self) -> bool:
        return all(not r for r in self._rows)

    def __repr__(self):
        nz = sum(len(r) for r in self._rows)
        return f"Mat({self.rows}x{self.cols}, {nz} nonzero)"

    # --- arithmetic ----------------------------------------------------

    def transpose(self) -> "Mat":
        m = Mat(self.cols, self.rows)
        for i, r in enumerate(self._rows):
            for j, v in r.items():
                m._rows[j][i] = v
        return m

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.cols != other.rows:
            raise ValueError("matmul shape mismatch")
        out = Mat(self.rows, other.cols)
        for i, r in enumerate(self._rows):
            acc: dict = {}
            for k, a in r.items():
                for j, b in other._rows[k].items():
                    acc[j] = acc.get(j, ZERO) + a * b
            out._rows[i] = {j: v for j, v in acc.items() if v}
        return out

    def add(self, other: "Mat") -> "Mat":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("add shape mismatch")
        out = self.copy()
        for i, r in enumerate(other._rows):
            tr = out._rows[i]
            for j, v in r.items():
                nv = tr.get(j, ZERO) + v
                if nv == 0:
                    tr.pop(j, None)
                else:
                    tr[j] = nv
        return out

    def sub(self, other: "Mat") -> "Mat":
        return self.add(other.scale(-1))

    def neg(self) -> "Mat":
        return self.scale(-1)

    def scale(self, c) -> "Mat":
        c = rat(c)
        if c == 0:
            return Mat(self.rows, self.cols)
        return Mat.wrap([{j: c * v for j, v in r.items()} for r in self._rows], self.cols)

    # --- elimination ----------------------------------------------------

    def rref(self) -> tuple["Mat", list[int]]:
        """Reduced row echelon form; returns (R, pivot column list).

        The RREF of a matrix is unique, so R and the pivots do not depend
        on the order of elimination. This one takes the rows in turn and
        keeps a basis of the rows seen so far, keyed by pivot column and
        fully reduced (each basis row is zero at the other pivots). A row
        is cleared at the pivot columns it touches; what is left, if
        anything, is scaled to 1 at its first column, which becomes a new
        pivot and is cleared from the basis rows. So each new pivot scans
        only the pivot rows, not every row of a tall system. R holds the
        basis rows by ascending pivot, then zero rows.
        """
        basis: dict = {}
        for src in self._rows:
            if not src:
                continue
            row = dict(src)
            for p in [j for j in src if j in basis]:
                _clear(row, p, basis[p])
            if not row:
                continue
            col = min(row)
            lead = row[col]
            if lead != 1:
                inv = 1 / lead
                row = {j: v * inv for j, v in row.items()}
            for brow in basis.values():
                if col in brow:
                    _clear(brow, col, row)
            basis[col] = row
            if len(basis) == self.cols:
                break
        pivots = sorted(basis)
        out = Mat(self.rows, self.cols)
        out._rows[: len(pivots)] = [basis[p] for p in pivots]
        return out, pivots

    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel_basis(self) -> "Mat":
        """Basis of the right kernel, from the free-column parametrisation:
        a k x cols Mat with one row per free column f of the RREF, in
        ascending f. Row f is 1 at f and -R[i][f] at the pivot p of each
        RREF row i. This is the canonical deterministic choice used for
        cohomology representatives.
        """
        R, pivots = self.rref()
        pivset = set(pivots)
        free = {f: {f: ONE} for f in range(self.cols) if f not in pivset}
        for p, r in zip(pivots, R._rows):
            for f, a in r.items():
                if f != p:
                    free[f][p] = -a
        return Mat.wrap(list(free.values()), self.cols)

    def image_basis(self) -> "Mat":
        """Basis of the column space: the nonzero rows of rref(transpose),
        as a rank x rows Mat."""
        R, pivots = self.transpose().rref()
        return Mat.wrap(R._rows[: len(pivots)], self.rows)

    def solve(self, b: "Mat") -> "Mat | None":
        """A x = b for one column b: solve_many's one-column case."""
        if b.cols != 1:
            raise ValueError("solve takes one column")
        return self.solve_many(b)

    def solve_many(self, B: "Mat") -> "Mat | None":
        """The X with A X = B whose free rows (the non-pivot columns of A's
        RREF) are zero, from one elimination of [A | B]; None when some
        column of B is outside the column space of A.

        The RREF of [A | B] is E [A | B] with E invertible and E A the RREF
        of A over zero rows. So B is consistent exactly when no pivot lies
        in B's columns, and then the RREF row with pivot column p holds
        row p of X in its B part.
        """
        n = self.cols
        if B.rows != self.rows:
            raise ValueError("solve shape mismatch")
        R, pivots = Mat.blocks((self.rows,), (n, B.cols), {(0, 0): self, (0, 1): B}).rref()
        if pivots and pivots[-1] >= n:
            return None
        X = Mat(n, B.cols)
        for p, r in zip(pivots, R._rows):
            X._rows[p] = {j - n: v for j, v in r.items() if j >= n}
        return X

    def inverse(self):
        """Exact inverse, or None when the matrix is not invertible: a
        square A is invertible exactly when A X = I is solvable."""
        if self.rows != self.cols:
            return None
        return self.solve_many(Mat.identity(self.rows))


def _clear(row: dict, col: int, prow: dict):
    """row -= row[col] * prow for a pivot row prow with prow[col] = 1,
    in place, keeping row zero-free."""
    nf = -row.pop(col)
    for j, v in prow.items():
        if j == col:
            continue
        w = row.get(j)
        if w is None:
            row[j] = nf * v
        else:
            w += nf * v
            if w:
                row[j] = w
            else:
                del row[j]


class Subspace:
    """Subspace of Q^n spanned by the rows of a Mat, held by its canonical
    basis: the nonzero rows of their RREF, as a dim x n Mat. The RREF is
    unique, so two subspaces are equal exactly when their canonical bases
    are; vectors lie in the subspace exactly when adding them to the basis
    leaves the rank at dim. The column space of a matrix m is
    Subspace(m.rows, m.transpose())."""

    __slots__ = ("ambient", "basis")

    def __init__(self, ambient: int, span: Mat):
        if span.cols != ambient:
            raise ValueError(f"spanning rows of length {span.cols} in Q^{ambient}")
        self.ambient = ambient
        R, pivots = span.rref()
        self.basis = Mat.wrap(R._rows[: len(pivots)], ambient)

    @property
    def dim(self) -> int:
        return self.basis.rows

    def contains(self, vs: Mat) -> bool:
        """Whether every row of vs lies in the subspace."""
        both = Mat.blocks((self.dim, vs.rows), (self.ambient,), {(0, 0): self.basis, (1, 0): vs})
        return both.rank() == self.dim

    def contains_space(self, other: "Subspace") -> bool:
        return self.contains(other.basis)

    def eq(self, other: "Subspace") -> bool:
        return self.ambient == other.ambient and self.basis == other.basis

    def annihilator_matrix(self) -> Mat:
        """Matrix whose kernel is exactly this subspace: its rows span the
        orthogonal complement under the standard pairing."""
        return self.basis.kernel_basis()

    def __repr__(self):
        return f"Subspace(dim {self.dim} in Q^{self.ambient})"


class ChainComplexQ:
    """Bounded cochain complex of finite-dimensional rational vector spaces.

    dims: {degree: dimension}, diffs: {degree: Mat of d: C^deg -> C^{deg+1}}.
    Degrees with zero dimension may be omitted. The constructor checks
    shapes only; check() verifies d∘d = 0.
    A complex is not changed after construction: each degree's cohomology
    and each differential's rank (hdim) are computed once.
    """

    def __init__(self, dims: dict, diffs: dict):
        self.dims = {d: n for d, n in dims.items() if n}
        self.diffs = {}
        self._coh: dict = {}
        self._ranks: dict = {}
        for d, m in diffs.items():
            if not isinstance(m, Mat):
                m = Mat.from_rows(m)
            if m.rows != self.dim(d + 1) or m.cols != self.dim(d):
                raise ValueError(
                    f"differential at degree {d} has shape {m.rows}x{m.cols}, "
                    f"expected {self.dim(d + 1)}x{self.dim(d)}"
                )
            if not m.is_zero():
                self.diffs[d] = m

    def check(self):
        for d, m in self.diffs.items():
            nxt = self.diffs.get(d + 1)
            if nxt is not None and not (nxt @ m).is_zero():
                raise ValueError(f"d^2 != 0 at degree {d}")

    def dim(self, deg: int) -> int:
        return self.dims.get(deg, 0)

    def degrees(self):
        return sorted(self.dims)

    def diff(self, deg: int) -> Mat:
        m = self.diffs.get(deg)
        if m is None:
            return Mat(self.dim(deg + 1), self.dim(deg))
        return m

    def euler(self) -> int:
        return sum(neg_one_pow(d) * n for d, n in self.dims.items())

    def cocycles(self, deg: int) -> Mat:
        """The canonical kernel basis of d at this degree, one row each."""
        if self.dim(deg) == 0:
            return Mat(0, 0)
        return self.diff(deg).kernel_basis()

    def coboundaries(self, deg: int) -> Mat:
        """The canonical image basis of d into this degree, one row each."""
        if self.dim(deg) == 0 or self.dim(deg - 1) == 0:
            return Mat(0, self.dim(deg))
        return self.diff(deg - 1).image_basis()

    def cohomology(self, deg: int) -> tuple[int, Mat]:
        """(dimension, representative cocycles) at this degree, computed
        on the first call; the representatives are an hdim x dim Mat, one
        cocycle per row, and each call returns a fresh copy of them, so a
        caller that changes it changes no later answer.

        Representatives are deterministic: they are the canonical kernel
        basis vectors that are pivot columns of the RREF of [coboundary
        basis | kernel basis], each basis taken as columns. A column is a
        pivot exactly when it lies outside the span of the columns before
        it, so these are the cocycles that, taken in order, extend the
        coboundaries (first-come).
        """
        hdim, reps = self._kept_cohomology(deg)
        return hdim, reps.copy()

    def _kept_cohomology(self, deg: int) -> tuple[int, Mat]:
        got = self._coh.get(deg)
        if got is None:
            got = self._coh[deg] = self._cohomology(deg)
        return got

    def _cohomology(self, deg: int) -> tuple[int, Mat]:
        cyc = self.cocycles(deg)
        bnd = self.coboundaries(deg)
        hdim = cyc.rows - bnd.rows
        if hdim == 0:
            return 0, Mat(0, self.dim(deg))
        pivots = Mat.blocks(
            (self.dim(deg),),
            (bnd.rows, cyc.rows),
            {(0, 0): bnd.transpose(), (0, 1): cyc.transpose()},
        ).rref()[1]
        reps = [cyc._rows[p - bnd.rows] for p in pivots if p >= bnd.rows]
        return hdim, Mat.wrap(reps, self.dim(deg))

    def hdim(self, deg: int) -> int:
        """dim H^deg = dim C^deg - rank d^deg - rank d^(deg-1), read off the
        representatives when cohomology has kept them. Each rank is one
        elimination, kept as an int: a kept RREF costs memory."""
        got = self._coh.get(deg)
        if got is not None:
            return got[0]
        for d in (deg, deg - 1):
            if d not in self._ranks:
                self._ranks[d] = self.diffs[d].rank() if d in self.diffs else 0
        return self.dim(deg) - self._ranks[deg] - self._ranks[deg - 1]

    def betti(self) -> dict:
        degs = range(min(self.dims, default=0), max(self.dims, default=-1) + 1)
        return {d: h for d in degs if (h := self.hdim(d))}

    def classes(self, deg: int, V: Mat) -> Mat | None:
        """The classes of the columns of V against this degree's
        representatives: an hdim x V.cols Mat whose column k holds the
        coordinates of [column k], or None when some column is not a
        cocycle. One product tests every column; one solve_many against
        [representatives | coboundary basis] decomposes them all, unless
        H^deg is 0 or V has no column, where the answer has no entry.
        """
        if not (self.diff(deg) @ V).is_zero():
            return None
        hdim, reps = self._kept_cohomology(deg)
        if not (hdim and V.cols):
            return Mat(hdim, V.cols)
        bnd = self.coboundaries(deg)
        A = Mat.blocks(
            (self.dim(deg),), (hdim, bnd.rows), {(0, 0): reps.transpose(), (0, 1): bnd.transpose()}
        )
        X = A.solve_many(V)
        if X is None:  # pragma: no cover - cocycle always decomposes
            raise AssertionError("cocycle failed to decompose")
        return Mat.wrap(X._rows[:hdim], V.cols)

