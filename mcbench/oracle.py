"""Independent exact-rational oracle for the benchmark's output checks.

Dense Gauss-Jordan elimination over fractions.Fraction and the few
constructions the checks need, written from the definitions. Nothing
here imports mcdescent, so a fault in the program's linear algebra,
totalisation or resolutions cannot hide itself from these checks.

Matrices are lists of rows of Fractions. A dgLa or diagram is read from
its serialised JSON form (dgla/1, scdgla/1), never from program objects.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product


def num(v) -> Fraction:
    """A JSON number of the input schemas: int or "p/q"."""
    if isinstance(v, str):
        p, _, q = v.partition("/")
        return Fraction(int(p), int(q) if q else 1)
    return Fraction(v)


def num_json(x: Fraction):
    return int(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def zeros(rows: int, cols: int) -> list:
    return [[Fraction(0)] * cols for _ in range(rows)]


def identity(n: int) -> list:
    m = zeros(n, n)
    for i in range(n):
        m[i][i] = Fraction(1)
    return m


def matmul(a: list, b: list, inner: int | None = None) -> list:
    """Product of an r x k and a k x c matrix; inner gives k when r = 0."""
    k = len(b) if inner is None else inner
    cols = len(b[0]) if b else 0
    return [
        [sum((row[t] * b[t][j] for t in range(k)), Fraction(0)) for j in range(cols)]
        for row in a
    ]


def rref(m: list) -> tuple:
    """Reduced row echelon form of a copy of m and its pivot columns."""
    rows = [list(r) for r in m]
    pivots = []
    ncols = len(rows[0]) if rows else 0
    top = 0
    for col in range(ncols):
        sel = next((i for i in range(top, len(rows)) if rows[i][col] != 0), None)
        if sel is None:
            continue
        rows[top], rows[sel] = rows[sel], rows[top]
        inv = 1 / rows[top][col]
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


def rank(m: list) -> int:
    return len(rref(m)[1]) if m and m[0] else 0


def kernel(m: list, ncols: int) -> list:
    """Basis of {x : m x = 0} as column vectors (lists)."""
    if not m:
        return [[Fraction(int(i == j)) for i in range(ncols)] for j in range(ncols)]
    r, piv = rref(m)
    free = [c for c in range(ncols) if c not in piv]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for i, p in enumerate(piv):
            v[p] = -r[i][f]
        basis.append(v)
    return basis


def inverse(m: list):
    """Inverse of a square matrix, or None when it is singular."""
    n = len(m)
    r, piv = rref([row + idrow for row, idrow in zip(m, identity(n))])
    if piv != list(range(n)):
        return None
    return [row[n:] for row in r]


# --- chain complexes ---------------------------------------------------------


def betti(dims: dict, diffs: dict) -> dict:
    """Cohomology dims of a cochain complex; diffs[n] maps degree n to n + 1."""
    ranks = {n: rank(m) for n, m in diffs.items()}
    out = {}
    for n, d in dims.items():
        h = d - ranks.get(n, 0) - ranks.get(n - 1, 0)
        if h:
            out[n] = h
    return out


def is_complex(diffs: dict) -> bool:
    for n, m in diffs.items():
        nxt = diffs.get(n + 1)
        if nxt and m and any(v for row in matmul(nxt, m) for v in row):
            return False
    return True


# --- dgLas in serialised form ------------------------------------------------


class Dgla:
    """dims {deg: n}, diffs {deg: matrix deg -> deg+1}, bracket table
    {(d1, i, d2, j): {k: c}} completed by graded antisymmetry."""

    def __init__(self, doc: dict):
        self.dims = {int(k): v for k, v in doc.get("dims", {}).items() if v}
        self.diffs = {}
        for k, rows in doc.get("diffs", {}).items():
            d = int(k)
            m = [[num(v) for v in row] for row in rows]
            if self.dim(d) and self.dim(d + 1):
                self.diffs[d] = m
        self.br: dict = {}
        for d1, i, d2, j, k, c in doc.get("brackets", []):
            c = num(c)
            self._acc((d1, i, d2, j), k, c)
            if (d1, i) != (d2, j):
                sign = -1 if (d1 * d2) % 2 == 0 else 1
                self._acc((d2, j, d1, i), k, sign * c)

    def _acc(self, key, k, c):
        slot = self.br.setdefault(key, {})
        slot[k] = slot.get(k, Fraction(0)) + c

    def dim(self, d: int) -> int:
        return self.dims.get(d, 0)

    def d(self, deg: int, v: list) -> list:
        m = self.diffs.get(deg)
        if m is None:
            return [Fraction(0)] * self.dim(deg + 1)
        return [sum((row[t] * v[t] for t in range(len(v))), Fraction(0)) for row in m]

    def bracket(self, d1: int, u: list, d2: int, v: list) -> list:
        out = [Fraction(0)] * self.dim(d1 + d2)
        for i, a in enumerate(u):
            if a:
                for j, b in enumerate(v):
                    if b:
                        for k, c in self.br.get((d1, i, d2, j), {}).items():
                            out[k] += a * b * c
        return out

    def unit(self, d: int, i: int) -> list:
        v = [Fraction(0)] * self.dim(d)
        v[i] = Fraction(1)
        return v

    def basis(self):
        for d in sorted(self.dims):
            for i in range(self.dims[d]):
                yield d, i

    def betti(self) -> dict:
        return betti(self.dims, self.diffs)


def _add(u, v):
    return [a + b for a, b in zip(u, v)]


def _scale(c, u):
    return [c * a for a in u]


def dgla_axioms_hold(g: Dgla) -> bool:
    """d^2 = 0, Leibniz and graded Jacobi on every basis pair and triple."""
    if not is_complex(g.diffs):
        return False
    keys = list(g.basis())
    for (d1, i), (d2, j) in product(keys, keys):
        x, y = g.unit(d1, i), g.unit(d2, j)
        lhs = g.d(d1 + d2, g.bracket(d1, x, d2, y))
        rhs = _add(
            g.bracket(d1 + 1, g.d(d1, x), d2, y),
            _scale((-1) ** (d1 % 2), g.bracket(d1, x, d2 + 1, g.d(d2, y))),
        )
        if lhs != rhs:
            return False
    for (d1, i), (d2, j), (d3, k) in product(keys, keys, keys):
        x, y, z = g.unit(d1, i), g.unit(d2, j), g.unit(d3, k)
        lhs = g.bracket(d1, x, d2 + d3, g.bracket(d2, y, d3, z))
        rhs = _add(
            g.bracket(d1 + d2, g.bracket(d1, x, d2, y), d3, z),
            _scale((-1) ** ((d1 * d2) % 2), g.bracket(d2, y, d1 + d3, g.bracket(d1, x, d3, z))),
        )
        if lhs != rhs:
            return False
    return True


# --- semicosimplicial diagrams -----------------------------------------------


class Diagram:
    """Levels (Dgla) and cofaces {(i, k): {deg: matrix level i-1 -> level i}}."""

    def __init__(self, doc: dict):
        self.levels = [Dgla(lv) for lv in doc["levels"]]
        self.cofaces = {}
        for key, mats in doc.get("cofaces", {}).items():
            i, k = (int(t) for t in key.split(","))
            self.cofaces[(i, k)] = {
                int(d): [[num(v) for v in row] for row in rows] for d, rows in mats.items()
            }

    @property
    def top(self) -> int:
        return len(self.levels) - 1

    def face(self, i: int, k: int, deg: int):
        """Matrix of coface k into level i in internal degree deg, or None."""
        return self.cofaces[(i, k)].get(deg)

    def negative_cohomology(self) -> dict:
        """{(level, degree): h} for every nonzero h in a negative degree."""
        out = {}
        for p, g in enumerate(self.levels):
            for d, h in g.betti().items():
                if d < 0:
                    out[(p, d)] = h
        return out

    def total(self) -> tuple:
        """Product totalisation: Tot^n = sum_p L_p^(n-p), differential the
        alternating coface sum plus (-1)^p d on level p. Returns
        (dims, diffs) in the layout of betti()."""
        slots: dict = {}
        for p, g in enumerate(self.levels):
            for q, n in g.dims.items():
                for idx in range(n):
                    slots.setdefault(p + q, []).append((p, q, idx))
        pos = {n: {s: t for t, s in enumerate(ss)} for n, ss in slots.items()}
        dims = {n: len(ss) for n, ss in slots.items()}
        diffs = {}
        for n, ss in slots.items():
            tgt = dims.get(n + 1, 0)
            if not tgt:
                continue
            m = zeros(tgt, len(ss))
            for col, (p, q, idx) in enumerate(ss):
                g = self.levels[p]
                dm = g.diffs.get(q)
                if dm is not None:
                    sgn = (-1) ** (p % 2)
                    for r in range(len(dm)):
                        if dm[r][idx]:
                            m[pos[n + 1][(p, q + 1, r)]][col] += sgn * dm[r][idx]
                if p < self.top:
                    for k in range(p + 2):
                        fm = self.face(p + 1, k, q)
                        if fm is None:
                            continue
                        for r in range(len(fm)):
                            if fm[r][idx]:
                                m[pos[n + 1][(p + 1, q, r)]][col] += (-1) ** k * fm[r][idx]
            diffs[n] = m
        return dims, diffs


# --- representations of the quiver 1 -> 2 ------------------------------------


def a2_hom_dim(src: tuple, tgt: tuple) -> int:
    """dim Hom(M, N) for representations (d1, d2, arrow d2 x d1)."""
    return len(module_maps(src, tgt))


def euler_form(x: tuple, y: tuple) -> int:
    """<x, y> = x1 y1 + x2 y2 - x1 y2 for the quiver 1 -> 2."""
    return x[0] * y[0] + x[1] * y[1] - x[0] * y[1]


def module_maps(src: tuple, tgt: tuple) -> list:
    """Basis of Hom(M, N) as block-diagonal total matrices (N.dim x M.dim):
    pairs (f1, f2) with N_a f1 = f2 M_a, solved as a kernel."""
    (m1, m2, ma), (n1, n2, na) = src, tgt
    nvars = n1 * m1 + n2 * m2
    rows = []
    for r in range(n2):
        for c in range(m1):
            row = [Fraction(0)] * nvars
            for t in range(n1):  # (N_a f1)[r][c] = sum_t na[r][t] f1[t][c]
                row[t * m1 + c] += na[r][t]
            for t in range(m2):  # (f2 M_a)[r][c] = sum_t f2[r][t] ma[t][c]
                row[n1 * m1 + r * m2 + t] -= ma[t][c]
            rows.append(row)
    out = []
    for v in kernel(rows, nvars):
        m = zeros(n1 + n2, m1 + m2)
        for t in range(n1):
            for c in range(m1):
                m[t][c] = v[t * m1 + c]
        for r in range(n2):
            for t in range(m2):
                m[n1 + r][m1 + t] = v[n1 * m1 + r * m2 + t]
        out.append(m)
    return out


def morphism_h0(src: tuple, tgt: tuple, alpha: list) -> int:
    """dim ker(End F x End G -> Hom(F, G), (a, b) -> b alpha - alpha a)."""
    fd, gd = src[0] + src[1], tgt[0] + tgt[1]
    end_f, end_g = module_maps(src, src), module_maps(tgt, tgt)
    cols = []
    for a in end_f:
        img = matmul(alpha, a, inner=fd)
        cols.append([-v for row in img for v in row])
    for b in end_g:
        img = matmul(b, alpha, inner=gd)
        cols.append([v for row in img for v in row])
    if not cols or not cols[0]:
        return len(cols)
    rows = [list(r) for r in zip(*cols)]
    return len(cols) - rank(rows)
