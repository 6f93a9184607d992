"""Exact linear algebra over the rationals.

Sparse row-dict matrices with reduced row echelon form, kernels, images and
solving; rational subspaces with canonical bases; bounded cochain complexes
with cohomology (dimensions plus deterministic representatives) and
mapping cones.

Block matrices come from one constructor, Mat.blocks: every direct sum,
total complex, cone and stacked linear system of the package places its
blocks through it, so where a summand sits in a sum is decided there.

Everything is exact: no floats anywhere, no tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate

from .ratio import ONE, ZERO, Q, neg_one_pow, rat

Vec = tuple  # tuple of Q entries


def vec(entries) -> Vec:
    return tuple(e if type(e) is Q else rat(e) for e in entries)


def vzero(n: int) -> Vec:
    return (ZERO,) * n


def vis_zero(v: Vec) -> bool:
    return all(a == 0 for a in v)


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
    def from_cols(cls, cols_list, rows: int | None = None) -> "Mat":
        cols_list = [vec(c) for c in cols_list]
        if rows is None:
            rows = len(cols_list[0]) if cols_list else 0
        m = cls(rows, len(cols_list))
        for j, c in enumerate(cols_list):
            if len(c) != rows:
                raise ValueError("ragged columns")
            for i, v in enumerate(c):
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

    def row(self, r: int) -> Vec:
        d = self._rows[r]
        return tuple(d.get(j, ZERO) for j in range(self.cols))

    def col(self, c: int) -> Vec:
        return tuple(self._rows[i].get(c, ZERO) for i in range(self.rows))

    def columns(self) -> list:
        """Sparse columns: for each column, its (row, value) pairs with the
        value nonzero, in ascending row order. A fresh list on every call;
        callers that reuse it keep it themselves."""
        cols = [[] for _ in range(self.cols)]
        for i, r in enumerate(self._rows):
            for j, v in r.items():
                cols[j].append((i, v))
        return cols

    def to_rows(self):
        return [self.row(i) for i in range(self.rows)]

    def copy(self) -> "Mat":
        m = Mat(self.rows, self.cols)
        m._rows = [dict(r) for r in self._rows]
        return m

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

    def matvec(self, v: Vec) -> Vec:
        if len(v) != self.cols:
            raise ValueError(f"matvec shape mismatch: {self.cols} vs {len(v)}")
        out = []
        for r in self._rows:
            s = ZERO
            for j, a in r.items():
                s += a * v[j]
            out.append(s)
        return tuple(out)

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
        out = Mat(self.rows, self.cols)
        if c == 0:
            return out
        out._rows = [{j: c * v for j, v in r.items()} for r in self._rows]
        return out

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

    def kernel_basis(self) -> list[Vec]:
        """Basis of the right kernel, from the free-column parametrisation.

        For each free column f the vector has 1 in slot f and -R[p][f] in
        each pivot slot p; order follows ascending free columns. This is the
        canonical deterministic choice used for cohomology representatives.
        """
        R, pivots = self.rref()
        pivset = set(pivots)
        basis = []
        for f in range(self.cols):
            if f in pivset:
                continue
            v = [ZERO] * self.cols
            v[f] = ONE
            for i, p in enumerate(pivots):
                a = R._rows[i].get(f)
                if a:
                    v[p] = -a
            basis.append(tuple(v))
        return basis

    def image_basis(self) -> list[Vec]:
        """Basis of the column space: nonzero rows of rref(transpose)."""
        R, pivots = self.transpose().rref()
        return [R.row(i) for i in range(len(pivots))]

    def solve(self, b: Vec) -> Vec | None:
        """Solve A x = b. Returns the particular solution whose free
        coordinates (the non-pivot columns of A's RREF) are zero, or None
        when the system is inconsistent.

        One elimination of [A | b], as in solve_many; solver() pays more
        once to answer many right-hand sides on the same A."""
        return self.solve_many([b])[0]

    def solve_many(self, rhs: list) -> list:
        """solve(b) for every b in rhs, from one elimination of [A | B].

        The RREF of [A | B] is E [A | B] with E invertible and E A the RREF
        of A over zero rows. So b_k is consistent exactly when its column
        of the RREF vanishes below the rank of A, and then that column
        holds the solution's pivot coordinates. A column that is not
        consistent becomes a pivot itself, below the rank of A, and leaves
        the read-off of the others unchanged.
        """
        n = self.cols
        if any(len(b) != self.rows for b in rhs):
            raise ValueError("solve shape mismatch")
        R, pivots = Mat.blocks(
            (self.rows,),
            (n, len(rhs)),
            {(0, 0): self, (0, 1): Mat.from_cols(rhs, rows=self.rows)},
        ).rref()
        rank = sum(1 for p in pivots if p < n)
        head, below = R._rows[:rank], R._rows[rank : len(pivots)]
        out = []
        for c in range(n, n + len(rhs)):
            if any(c in r for r in below):
                out.append(None)
                continue
            x = [ZERO] * n
            for p, r in zip(pivots, head):
                x[p] = r.get(c, ZERO)
            out.append(tuple(x))
        return out

    def solver(self):
        """Factor A once for many right-hand sides: the returned function
        maps b to exactly what solve(b) returns, by one matvec.

        The rref of [A | I] is [R | E] with E invertible and E A = R, the
        rref of A over zero rows. So A x = b is consistent exactly when E b
        vanishes below the rank, and the solution whose free coordinates
        are zero has E b's entry i at pivot column i.
        """
        n, m = self.cols, self.rows
        R, pivots = Mat.blocks((m,), (n, m), {(0, 0): self, (0, 1): Mat.identity(m)}).rref()
        rank = sum(1 for p in pivots if p < n)
        E = Mat(m, m)
        E._rows = [{j - n: v for j, v in r.items() if j >= n} for r in R._rows]

        def solve(b: Vec) -> Vec | None:
            if len(b) != E.cols:
                raise ValueError("solve shape mismatch")
            y = E.matvec(b)
            if any(y[rank:]):
                return None
            x = [ZERO] * n
            for i, p in enumerate(pivots[:rank]):
                x[p] = y[i]
            return tuple(x)

        return solve

    def inverse(self):
        """Exact inverse, or None when the matrix is not invertible.

        A square A is invertible exactly when every A x = e_i is solvable,
        and then the solutions are the columns of the inverse; all of them
        come from one solve_many on the columns of the identity."""
        if self.rows != self.cols:
            return None
        cols = self.solve_many(Mat.identity(self.rows).to_rows())
        if any(c is None for c in cols):
            return None
        return Mat.from_cols(cols, rows=self.rows)


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
    """Subspace of Q^n, held by its canonical basis: the nonzero rows of
    the RREF of any spanning set. The RREF is unique, so two subspaces are
    equal exactly when their canonical bases are; vectors lie in the
    subspace exactly when adding them to the basis leaves the rank at
    dim."""

    __slots__ = ("ambient", "basis")

    def __init__(self, ambient: int, basis_rows=()):
        self.ambient = ambient
        R, pivots = Mat.from_rows(basis_rows, cols=ambient).rref()
        self.basis = [R.row(i) for i in range(len(pivots))]

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, v: Vec) -> bool:
        return Mat.from_rows(self.basis + [v], cols=self.ambient).rank() == self.dim

    def contains_space(self, other: "Subspace") -> bool:
        return Mat.from_rows(self.basis + other.basis, cols=self.ambient).rank() == self.dim

    def eq(self, other: "Subspace") -> bool:
        return self.ambient == other.ambient and self.basis == other.basis

    def annihilator_matrix(self) -> Mat:
        """Matrix whose kernel is exactly this subspace."""
        if not self.basis:
            return Mat.identity(self.ambient)
        # rows spanning the orthogonal complement under the standard pairing
        comp = Mat.from_rows(self.basis, cols=self.ambient).kernel_basis()
        return Mat.from_rows(comp, cols=self.ambient) if comp else Mat(0, self.ambient)

    def __repr__(self):
        return f"Subspace(dim {self.dim} in Q^{self.ambient})"


class ChainComplexQ:
    """Bounded cochain complex of finite-dimensional rational vector spaces.

    dims: {degree: dimension}, diffs: {degree: Mat of d: C^deg -> C^{deg+1}}.
    Degrees with zero dimension may be omitted. The constructor checks
    shapes only; check() verifies d∘d = 0.
    A complex is not changed after construction: each degree's cohomology
    and the factorisation that class_of solves against are computed once.
    """

    def __init__(self, dims: dict, diffs: dict):
        self.dims = {d: n for d, n in dims.items() if n}
        self.diffs = {}
        self._coh: dict = {}
        self._classes: dict = {}
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

    def total_dim(self) -> int:
        return sum(self.dims.values())

    def euler(self) -> int:
        return sum(neg_one_pow(d) * n for d, n in self.dims.items())

    def cocycles(self, deg: int) -> list[Vec]:
        if self.dim(deg) == 0:
            return []
        return self.diff(deg).kernel_basis()

    def coboundaries(self, deg: int) -> list[Vec]:
        if self.dim(deg) == 0 or self.dim(deg - 1) == 0:
            return []
        return self.diff(deg - 1).image_basis()

    def cohomology(self, deg: int) -> tuple[int, list[Vec]]:
        """(dimension, representative cocycles) at this degree, computed
        on the first call; later calls return a fresh list of the same
        representatives.

        Representatives are deterministic: they are the canonical kernel
        basis vectors that are pivot columns of the RREF of [coboundary
        basis | kernel basis]. A column is a pivot exactly when it lies
        outside the span of the columns before it, so these are the
        cocycles that, taken in order, extend the coboundaries (first-come).
        """
        got = self._coh.get(deg)
        if got is None:
            got = self._coh[deg] = self._cohomology(deg)
        return got[0], list(got[1])

    def _cohomology(self, deg: int) -> tuple[int, list[Vec]]:
        cyc = self.cocycles(deg)
        bnd = self.coboundaries(deg)
        hdim = len(cyc) - len(bnd)
        if hdim == 0:
            return 0, []
        pivots = Mat.from_cols(bnd + cyc, rows=self.dim(deg)).rref()[1]
        return hdim, [cyc[p - len(bnd)] for p in pivots if p >= len(bnd)]

    def betti(self) -> dict:
        out = {}
        lo = min(self.dims) if self.dims else 0
        hi = max(self.dims) if self.dims else -1
        for d in range(lo, hi + 1):
            h, _ = self.cohomology(d)
            if h:
                out[d] = h
        return out

    def class_of(self, deg: int, v: Vec):
        """Coordinates of [v] against this degree's representatives.

        Returns None when v is not a cocycle; otherwise the coefficient
        tuple in the representative basis (empty tuple for the zero class).
        The matrix [representatives | coboundary basis] of a degree is
        factored once, on the first call at that degree (Mat.solver).
        """
        if not vis_zero(self.diff(deg).matvec(v)):
            return None
        got = self._classes.get(deg)
        if got is None:
            hdim, reps = self.cohomology(deg)
            cols = reps + self.coboundaries(deg)
            solve = Mat.from_cols(cols, rows=self.dim(deg)).solver() if cols else None
            got = self._classes[deg] = (hdim, solve)
        hdim, solve = got
        if solve is None:
            return ()
        sol = solve(vec(v))
        if sol is None:  # pragma: no cover - cocycle always decomposes
            raise AssertionError("cocycle failed to decompose")
        return sol[:hdim]

@dataclass
class ChainMapQ:
    """Degreewise map of complexes commuting with the differentials; the
    constructor checks shapes only."""

    source: ChainComplexQ
    target: ChainComplexQ
    mats: dict = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for d, m in self.mats.items():
            if not isinstance(m, Mat):
                m = Mat.from_rows(m)
            if m.rows != self.target.dim(d) or m.cols != self.source.dim(d):
                raise ValueError(f"chain map shape mismatch at degree {d}")
            if not m.is_zero():
                clean[d] = m
        self.mats = clean

    def mat(self, deg: int) -> Mat:
        m = self.mats.get(deg)
        if m is None:
            return Mat(self.target.dim(deg), self.source.dim(deg))
        return m

    def apply(self, deg: int, v: Vec) -> Vec:
        return self.mat(deg).matvec(v)


def cone(f: ChainMapQ) -> ChainComplexQ:
    """Mapping cone: cone(f)^n = X^{n+1} ⊕ Y^n, d(x, y) = (-dx, fx + dy)."""
    X, Y = f.source, f.target
    degs = {d - 1 for d in X.dims} | set(Y.dims)
    dims = {d: X.dim(d + 1) + Y.dim(d) for d in degs}
    diffs = {}
    for d in sorted(degs):
        m = Mat.blocks(
            (X.dim(d + 2), Y.dim(d + 1)),
            (X.dim(d + 1), Y.dim(d)),
            {(0, 0): X.diff(d + 1).neg(), (1, 0): f.mat(d + 1), (1, 1): Y.diff(d)},
        )
        if not m.is_zero():
            diffs[d] = m
    return ChainComplexQ(dims, diffs)
