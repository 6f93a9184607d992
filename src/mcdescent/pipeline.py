"""Deformations of a morphism of modules, end to end at desk scale.

The algebras come from one builder, path_algebra (a2_algebra and the
ground field, field_algebra, are its instances), and modules given as
quiver representations from one builder, representation. End of a
complex of rational vector spaces is End over the ground field:
end_dgla_of_complex(vector_complex(cx)), the builder the pipeline uses
for complexes of projectives.

The chain: finite-dimensional basic algebras that know their vertex
idempotents and radical, modules over them, minimal projective
resolutions (`resolve`, the one resolution routine: each term is the
projective cover ⊕ A·e_i of the top of the previous kernel, recorded by
its vertex tuple), a lift of the morphism between the resolutions of
source and target by the comparison theorem (one linear solve per
degree, `factor_through`), End(S) of S = P_F ⊕ P_G assembled from its
four corner hom complexes Hom(P_a, P_b), each built once (`CORNERS`;
End(P_F), End(P_G) and Hom(P_F, P_G) are three of them; a report places
no map in S), the dgLa L of the endomorphisms of S preserving the graph
of that lift (`graph_preserving_dgla`: L = u T u⁻¹, the block
upper-triangular part T of End(S) conjugated by the chain automorphism u
that takes P_F ⊕ 0 onto the graph, included corner by corner), the
two-level diagram whose totalisation controls deformations of the
morphism (`build_H`, a `MorphismDiagram` that carries the parts its
checks read), and a long-exact-sequence checker (`les_check`) that ties
its cohomology to Ext groups computed from the hom complexes of the same
two resolutions into the modules (each module is resolved once per
report), themselves checked against the Euler form of the quiver. A
cohomology dimension is read off ranks (`ChainComplexQ.hdim`) unless its
representatives are kept. Every map out of a projective is read off the
images of its generators (Yoneda, `from_generators`): the cover, the
lift and every hom basis (`yoneda_basis`). Every direct sum places its
blocks through one constructor, `Mat.blocks`: representations, End(S)'s
differential and its faces, and the two-open Čech pair and its
projections. One routine, `total_complex`, totalises every diagram: the
one `build_H` returns and, with two opens, the Čech diagram of its total
complex. Any two choices of resolutions and lift give quasi-isomorphic
diagrams, so the reported cohomology does not depend on them; the
minimal ones are the smallest.
`test_reported_cohomology_does_not_depend_on_the_resolution` checks this
against a non-minimal resolution of the target. One reported list does
follow the choice: `les_junctions` has one entry per degree from one
below the total complex's lowest degree to one above its highest, so its
length follows the length of the resolutions. Its verdicts do not.
Everything is exact rational linear algebra.
"""

from __future__ import annotations

import functools
import random
from itertools import accumulate

from .dgla import Dgla, DglaMap, abelian_dgla, direct_sum
from .linalg import ChainComplexQ, Mat, Subspace, vec, vzero
from .ratio import ONE, ZERO, Q, rat
from .semicosimplicial import ScDgla, total_complex


class PipelineError(ValueError):
    pass


# longest resolution built before giving up; the algebras of this module
# have global dimension at most 1
MAX_LENGTH = 8


# --- finite-dimensional algebras ---------------------------------------------


def _unit_vec(n: int, i: int):
    return tuple(Q(1) if k == i else Q(0) for k in range(n))


class FinAlg:
    """Basic associative unital algebra over Q on a basis of paths.

    mul[i][j] is the coordinate vector of the product of the i-th and
    j-th basis elements; unit is the coordinate vector of 1.
    idempotents are the basis indices of the vertex idempotents e_0,
    e_1, ... (vertex i is the i-th entry), and radical the basis indices
    spanning the radical J. Every basis element b is a path e_t·b·e_s
    between two vertices; ends[b] = (s, t), so A·e_s is spanned by the
    basis elements starting at s (Assem–Simson–Skowroński, Elements of
    the Representation Theory of Associative Algebras I, §I.5, §III.2);
    summands[s] lists them, e_s first, so e_s is the first column of A·e_s
    in proj_module. The constructor only builds; check() verifies this.
    """

    def __init__(self, mul, unit, idempotents, radical, label=""):
        self.dim = len(mul)
        self.mul = [[vec(v) for v in row] for row in mul]
        self.unit = vec(unit)
        self.idempotents = tuple(idempotents)
        self.radical = tuple(radical)
        self.label = label
        self.ends = [self._ends(b) for b in range(self.dim)]
        self.summands = [
            (e,) + tuple(b for b, ends in enumerate(self.ends) if b != e and ends and ends[0] == s)
            for s, e in enumerate(self.idempotents)
        ]

    def _ends(self, b):
        """(s, t) with e_t·b = b = b·e_s, or None when b is no path."""
        eb = _unit_vec(self.dim, b)
        s = [i for i, e in enumerate(self.idempotents) if self.mul[b][e] == eb]
        t = [i for i, e in enumerate(self.idempotents) if self.mul[e][b] == eb]
        return (s[0], t[0]) if len(s) == len(t) == 1 else None

    def mul_vec(self, u, v):
        out = [Q(0)] * self.dim
        for i, a in enumerate(u):
            if a == 0:
                continue
            for j, b in enumerate(v):
                if b == 0:
                    continue
                for k, c in enumerate(self.mul[i][j]):
                    out[k] += a * b * c
        return tuple(out)

    def check(self):
        basis = [_unit_vec(self.dim, i) for i in range(self.dim)]
        for i, e in enumerate(basis):
            if self.mul_vec(self.unit, e) != e or self.mul_vec(e, self.unit) != e:
                raise PipelineError(f"unit law fails on basis element {i}")
        for a in basis:
            for b in basis:
                ab = self.mul_vec(a, b)
                for c in basis:
                    if self.mul_vec(ab, c) != self.mul_vec(a, self.mul_vec(b, c)):
                        raise PipelineError("multiplication is not associative")
        for i in self.idempotents:
            for j in self.idempotents:
                if self.mul[i][j] != (basis[i] if i == j else vzero(self.dim)):
                    raise PipelineError("vertex idempotents are not orthogonal idempotents")
        if vec(int(k in self.idempotents) for k in range(self.dim)) != self.unit:
            raise PipelineError("vertex idempotents do not sum to the unit")
        if sorted(self.idempotents + self.radical) != list(range(self.dim)):
            raise PipelineError("vertex idempotents and radical do not partition the basis")
        rad = set(self.radical)
        for b in range(self.dim):
            for r in self.radical:
                for v in (self.mul[b][r], self.mul[r][b]):
                    if any(x for k, x in enumerate(v) if k not in rad):
                        raise PipelineError("radical span is not a two-sided ideal")
        for b, ends in enumerate(self.ends):
            if ends is None:
                raise PipelineError(f"basis element {b} is not a path between two vertices")


def path_algebra(vertices: int, arrows, label: str = "") -> FinAlg:
    """The algebra of the quiver with the given number of vertices and
    arrows (s, t), one per arrow s -> t, on the basis of the vertex
    idempotents in vertex order, then the arrows in the given order. The
    products are e_v·e_v = e_v and e_t·a = a = a·e_s for an arrow a: s ->
    t; every other product of basis elements is 0. The arrows span the
    radical.

    This is the path algebra exactly when no arrow ends where another
    starts, so that every path has length at most 1: the field Q (one
    vertex, no arrow), A2 (0 -> 1) and the Kronecker quiver (0 ⇉ 1)."""
    n = vertices + len(arrows)
    ends = [(v, v) for v in range(vertices)] + [tuple(a) for a in arrows]
    mul = [[vzero(n)] * n for _ in range(n)]
    for b, (s, t) in enumerate(ends):
        mul[t][b] = mul[b][s] = _unit_vec(n, b)
    unit = [int(b < vertices) for b in range(n)]
    return FinAlg(mul, unit, range(vertices), range(vertices, n), label=label)


@functools.cache
def a2_algebra():
    """The path algebra of the quiver 0 -> 1, on the basis (e_0, e_1,
    arrow). Built once; every A2 module shares it."""
    return path_algebra(2, ((0, 1),), "A2")


@functools.cache
def field_algebra():
    """The ground field Q, the path algebra of one vertex and no arrow.
    Built once; every complex of vector_complex shares it."""
    return path_algebra(1, (), "Q")


# --- modules ------------------------------------------------------------------


class FinMod:
    """Left module on a chosen basis: one action matrix per algebra
    basis element. The constructor checks only their shapes; check()
    verifies the module axioms."""

    def __init__(self, alg: FinAlg, dim: int, acts, label=""):
        self.alg = alg
        self.dim = dim
        self.acts = list(acts)
        self.label = label
        if len(self.acts) != alg.dim:
            raise PipelineError("one action matrix per algebra basis element")
        for m in self.acts:
            if m.rows != dim or m.cols != dim:
                raise PipelineError("action matrix has the wrong shape")

    def act_of(self, u) -> Mat:
        out = Mat(self.dim, self.dim)
        for i, c in enumerate(u):
            if c:
                out = out.add(self.acts[i].scale(rat(c)))
        return out

    def check(self):
        if self.dim == 0:
            return
        ident = Mat.identity(self.dim)
        if self.act_of(self.alg.unit) != ident:
            raise PipelineError("unit does not act as the identity")
        for i in range(self.alg.dim):
            for j in range(self.alg.dim):
                if self.acts[i] @ self.acts[j] != self.act_of(self.alg.mul[i][j]):
                    raise PipelineError("action is not multiplicative")


def zero_module(alg: FinAlg) -> FinMod:
    return FinMod(alg, 0, [Mat(0, 0)] * alg.dim, label="0")


def representation(alg: FinAlg, dims, arrow_mats) -> FinMod:
    """The module over a path_algebra given by a quiver representation:
    the space of vertex v has dimension dims[v], and the vertex spaces
    are stacked in vertex order. e_v acts as the identity on its own
    block; the arrow s -> t acts by its dims[t] x dims[s] matrix, from
    block s into block t."""
    n = sum(dims)
    acts = [Mat(n, n) for _ in range(alg.dim)]
    for v, e in enumerate(alg.idempotents):
        acts[e] = Mat.blocks(dims, dims, {(v, v): Mat.identity(dims[v])})
    for a, m in zip(alg.radical, arrow_mats):
        s, t = alg.ends[a]
        acts[a] = Mat.blocks(dims, dims, {(t, s): m})
    return FinMod(alg, n, acts, label=f"rep({','.join(map(str, dims))})")


def proj_module(alg: FinAlg, verts) -> FinMod:
    """The projective ⊕ A·e_i over the vertex tuple, one summand per
    entry; A·e_i has the basis of the paths starting at vertex i."""
    n = sum(len(alg.summands[i]) for i in verts)
    acts = [Mat(n, n) for _ in range(alg.dim)]
    off = 0
    for i in verts:
        pos = {b: off + k for k, b in enumerate(alg.summands[i])}
        for j in range(alg.dim):
            for b in alg.summands[i]:
                for c, x in enumerate(alg.mul[j][b]):
                    if x:
                        acts[j].set_entry(pos[c], pos[b], x)
        off += len(pos)
    return FinMod(alg, n, acts)


def is_module_map(m1: FinMod, m2: FinMod, t: Mat) -> bool:
    return all(
        t @ m1.acts[i] == m2.acts[i] @ t for i in range(m1.alg.dim)
    )


def hom_basis(m1: FinMod, m2: FinMod):
    """Basis of the space of module maps between any two modules, as n2 x
    n1 matrices: the rows of the kernel basis (Mat.kernel_basis) of the
    linear conditions T a = b T on the row-major entries, one sparse row
    per (action, row, column) whose condition is not empty. Kernel entry
    j is the matrix entry divmod(j, n1). The report reads every map out
    of a projective off its generators (yoneda_basis, factor_through);
    this elimination is the reference the tests compare those against,
    and random_module_map's basis."""
    if m1.dim == 0 or m2.dim == 0:
        return []
    n1, n2 = m1.dim, m2.dim
    rows = []
    for i in range(m1.alg.dim):
        acols, brows = m1.acts[i].columns(), m2.acts[i]._rows
        # (T a - b T)[r, c] = sum_k T[r,k] a[k,c] - b[r,k] T[k,c]
        for r in range(n2):
            for c in range(n1):
                row = {r * n1 + k: v for k, v in acols[c]}
                for k, v in brows[r].items():
                    j = k * n1 + c
                    w = row.get(j, ZERO) - v
                    if w:
                        row[j] = w
                    else:
                        del row[j]
                if row:
                    rows.append(row)
    out = []
    for v in Mat.wrap(rows, n2 * n1).kernel_basis()._rows:
        t = Mat(n2, n1)
        for j, x in v.items():
            r, c = divmod(j, n1)
            t._rows[r][c] = x
        out.append(t)
    return out


def from_generators(m: FinMod, verts, gens: Mat) -> Mat:
    """The module map proj_module(m.alg, verts) -> m that sends generator
    k, the e_i of the k-th summand A·e_i, to column k of gens: by Yoneda a
    map out of ⊕ A·e_i is fixed by these images (Assem–Simson–Skowroński
    I, §III.2). The path b of summand k goes to b·gens[:, k] = m.acts[b] @
    gens[:, k], so a column outside e_i·m is taken by its e_i part."""
    paths = m.alg.summands
    imgs = {b: (m.acts[b] @ gens).columns() for i in set(verts) for b in paths[i]}
    cols = [imgs[b][k] for k, i in enumerate(verts) for b in paths[i]]
    rows = [{} for _ in range(m.dim)]
    for c, col in enumerate(cols):
        for r, x in col:
            rows[r][c] = x
    return Mat.wrap(rows, len(cols))


def yoneda_basis(verts, m: FinMod) -> list:
    """Basis of the module maps proj_module(m.alg, verts) -> m: one map per
    summand k, at vertex i, and per row v of the RREF basis
    m.acts[e_i].image_basis() of e_i·m, sending generator k to v and the
    others to 0 (from_generators, once per vertex for all its v). The
    generator is its summand's first column, so the map's first nonzero
    entry in column-major order is a 1 at (pivot of v, that column), where
    every other map is 0. Sorted by that entry in row-major order: over
    field_algebra, hom_basis's matrix units in its order."""
    paths, blocks, keyed, off = m.alg.summands, {}, [], 0
    for i in set(verts):
        vs, w = m.acts[m.alg.idempotents[i]].image_basis(), len(paths[i])
        entries = [[] for _ in range(vs.rows)]
        for r, row in enumerate(from_generators(m, (i,) * vs.rows, vs.transpose())._rows):
            for c, x in row.items():
                j, t = divmod(c, w)
                entries[j].append((r, t, x))
        blocks[i] = list(zip(map(min, vs._rows), entries))
    for i in verts:
        for piv, block in blocks[i]:
            rows = [{} for _ in range(m.dim)]
            for r, t, x in block:
                rows[r][off + t] = x
            keyed.append(((piv, off), rows))
        off += len(paths[i])
    keyed.sort()  # the keys differ, so the rows are never compared
    return [Mat.wrap(rows, off) for _, rows in keyed]


def proj_cover(m: FinMod):
    """Minimal projective cover of m. The columns of the e_i action that
    are independent modulo JM lift a basis of each e_i(M/JM); each lifted
    v gets one summand A·e_i, and pi sends its generator to v
    (from_generators). Returns (cover, pi, vertex tuple)."""
    alg = m.alg
    gens = alg.radical + alg.idempotents
    cols = Mat.blocks(
        (m.dim,), (m.dim,) * len(gens), {(0, k): m.acts[i] for k, i in enumerate(gens)}
    )
    skip = len(alg.radical) * m.dim
    tops = [p for p in cols.rref()[1] if p >= skip]
    verts = tuple((p - skip) // m.dim for p in tops)
    cols_t = cols.transpose()._rows
    pi = from_generators(m, verts, Mat.wrap([cols_t[p] for p in tops], m.dim).transpose())
    return proj_module(alg, verts), pi, verts


def factor_through(p: Mat, f: Mat, verts, mid: FinMod):
    """A module map x: proj_module(mid.alg, verts) -> mid with p∘x = f, or
    None when f does not factor through p. By Yoneda, x is fixed by the
    images of the generators: one solve of p X = the generator columns of
    f (Mat.solve_many, free rows zero), then x = from_generators(mid,
    verts, X). p∘x and f are module maps that agree on the generators."""
    gens = list(accumulate((len(mid.alg.summands[i]) for i in verts), initial=0))[:-1]
    x = p.solve_many(Mat.wrap(
        [{k: row[c] for k, c in enumerate(gens) if c in row} for row in f._rows], len(verts)))
    return None if x is None else from_generators(mid, verts, x)


def kernel_module(m: FinMod, t: Mat):
    """The kernel of a module map out of m, as a module with its
    inclusion. Returns (ker, incl)."""
    incl = t.kernel_basis().transpose()
    k = incl.cols
    if k == 0:
        return zero_module(m.alg), Mat(m.dim, 0)
    acts = []
    for a in m.acts:
        act = incl.solve_many(a @ incl)
        if act is None:
            raise PipelineError("kernel is not closed under the action")
        acts.append(act)
    return FinMod(m.alg, k, acts), incl


# --- bounded complexes of modules ----------------------------------------------


class BddComplex:
    """Bounded complex of modules.

    mods: {deg: FinMod}; diffs: {deg: Mat for d taking deg to deg+1}.
    verts: {deg: vertex tuple} for a term that is the projective
    proj_module(alg, verts[deg]); Resolution.check holds each term to it.
    The constructor does not check the complex; check() does.
    """

    def __init__(self, alg: FinAlg, mods: dict, diffs: dict, verts=None):
        self.alg = alg
        self.mods = {int(d): m for d, m in mods.items() if m.dim}
        self.diffs = {int(d): m for d, m in diffs.items() if not m.is_zero()}
        self.verts = dict(verts) if verts else {}

    def deg_range(self):
        if not self.mods:
            return 0, -1
        return min(self.mods), max(self.mods)

    def module(self, d: int) -> FinMod:
        return self.mods.get(d) or zero_module(self.alg)

    def dim(self, d: int) -> int:
        m = self.mods.get(d)
        return m.dim if m else 0

    def diff(self, d: int) -> Mat:
        m = self.diffs.get(d)
        return m if m is not None else Mat(self.dim(d + 1), self.dim(d))

    def check(self):
        for d in self.mods:
            dm = self.diff(d)
            if dm.rows != self.dim(d + 1) or dm.cols != self.dim(d):
                raise PipelineError(f"differential at {d} has the wrong shape")
            if not is_module_map(self.module(d), self.module(d + 1), dm):
                raise PipelineError(f"differential at {d} is not a module map")
            if not (self.diff(d + 1) @ dm).is_zero():
                raise PipelineError("differential does not square to zero")

    def underlying(self) -> ChainComplexQ:
        return ChainComplexQ({d: m.dim for d, m in self.mods.items()}, dict(self.diffs))


def module_as_complex(m: FinMod) -> BddComplex:
    return BddComplex(m.alg, {0: m}, {})


def vector_complex(cx: ChainComplexQ) -> BddComplex:
    """A complex of rational vector spaces as a complex of projectives over
    field_algebra(): Q^n = proj_module(field_algebra(), (0,) * n) in each
    degree, vertex tuple recorded, with cx's differentials. Over Q,
    yoneda_basis gives the matrix units in row-major order, so
    end_dgla_of_complex(vector_complex(cx)) is End of cx on the basis of
    its matrix units, block by block in the order of the source degree."""
    alg = field_algebra()
    verts = {d: (0,) * n for d, n in cx.dims.items()}
    return BddComplex(alg, {d: proj_module(alg, v) for d, v in verts.items()}, cx.diffs, verts)


class ChainMapM:
    """Degreewise module maps commuting with the differentials; the
    constructor does not check them, check() does."""

    def __init__(self, source: BddComplex, target: BddComplex, comps: dict):
        self.source = source
        self.target = target
        self.comps = {int(d): m for d, m in comps.items() if not m.is_zero()}

    def comp(self, d: int) -> Mat:
        m = self.comps.get(d)
        return m if m is not None else Mat(self.target.dim(d), self.source.dim(d))

    def check(self):
        degs = set(self.source.mods) | set(self.target.mods)
        for d in degs:
            c = self.comp(d)
            if c.rows != self.target.dim(d) or c.cols != self.source.dim(d):
                raise PipelineError(f"component at {d} has the wrong shape")
            if c.rows and c.cols and not is_module_map(
                self.source.module(d), self.target.module(d), c
            ):
                raise PipelineError(f"component at {d} is not a module map")
            lhs = self.target.diff(d) @ c
            rhs = self.comp(d + 1) @ self.source.diff(d)
            if lhs != rhs:
                raise PipelineError(f"square at degree {d} does not commute")


# --- resolutions ---------------------------------------------------------------


class Resolution:
    """A complex of projectives in nonpositive degrees together with a
    surjective augmentation onto a module, exact away from degree 0. The
    constructor does not check this; check() does."""

    def __init__(self, cx: BddComplex, module: FinMod, aug: Mat):
        self.cx = cx
        self.module = module
        self.aug = aug

    def check(self):
        if self.cx.deg_range()[1] > 0:
            raise PipelineError("complex must live in nonpositive degrees")
        if self.aug.rows != self.module.dim or self.aug.cols != self.cx.dim(0):
            raise PipelineError("augmentation has the wrong shape")
        if self.module.dim and not is_module_map(
            self.cx.module(0), self.module, self.aug
        ):
            raise PipelineError("augmentation is not a module map")
        if not (self.aug @ self.cx.diff(-1)).is_zero():
            raise PipelineError("augmentation does not kill the image")
        if self.aug.rank() != self.module.dim:
            raise PipelineError("augmentation is not surjective")
        und = self.cx.underlying()
        betti = und.betti()
        for d, h in betti.items():
            if d != 0 and h:
                raise PipelineError(f"resolution is not exact in degree {d}")
        h0 = betti.get(0, 0)
        # kernel of augmentation = image of the last differential
        ker = Subspace(self.cx.dim(0), self.aug.kernel_basis())
        img = Subspace(self.cx.dim(0), self.cx.diff(-1).transpose())
        if not (ker.eq(img) and h0 == self.module.dim):
            raise PipelineError("augmentation is not a quasi-isomorphism")
        for d, term in self.cx.mods.items():
            verts = self.cx.verts.get(d)
            if verts is None or term.acts != proj_module(term.alg, verts).acts:
                raise PipelineError(f"term in degree {d} is not the projective of its vertex tuple")


def resolve(m: FinMod) -> Resolution:
    """The minimal projective resolution: cover m by proj_cover, cover
    the kernel of that cover, and so on until the kernel is 0."""
    mods, diffs, verts = {}, {}, {}
    ker, incl = m, Mat.identity(m.dim)
    d = 0
    while ker.dim:
        if d < -MAX_LENGTH:
            raise PipelineError("resolution exceeded the length bound")
        mods[d], pi, verts[d] = proj_cover(ker)
        diffs[d] = incl @ pi
        ker, incl = kernel_module(mods[d], pi)
        d -= 1
    aug = diffs.pop(0, Mat(0, 0))
    cx = BddComplex(m.alg, mods, diffs, verts=verts)
    return Resolution(cx, m, aug)


def lift_morphism(alpha: Mat, fmod: FinMod, gmod: FinMod, res_g: Resolution):
    """The resolution resolve(fmod) of the source together with a chain
    map to the given resolution of the target lifting the morphism.
    Returns (res_f, lift: ChainMapM).

    The lift is built by the comparison theorem (Weibel, An Introduction
    to Homological Algebra, Thm 2.2.6), walking down from degree 0: x_0
    solves aug_g∘x_0 = α∘aug_f and x_d solves d_g∘x_d = x_{d+1}∘d_f.
    Each right-hand side lands in the image of the map it is factored
    through because the target resolution is exact, and each source term
    is projective, so every solve succeeds."""
    if not is_module_map(fmod, gmod, alpha):
        raise PipelineError("the morphism is not a module map")
    res_f = resolve(fmod)
    pf, pg = res_f.cx, res_g.cx
    lo, _ = pf.deg_range()
    comps = {}
    p, f = res_g.aug, alpha @ res_f.aug
    for d in range(0, lo - 1, -1):
        if d < 0:
            p, f = pg.diff(d), comps[d + 1] @ pf.diff(d)
        x = factor_through(p, f, pf.verts.get(d, ()), pg.module(d))
        if x is None:
            raise PipelineError(f"the morphism does not lift in degree {d}")
        comps[d] = x
    return res_f, ChainMapM(pf, pg, comps)


# --- hom complexes and module-level endomorphism dgLas ----------------------------


class HomBook:
    """The hom complex of two bounded complexes k -> m in coordinates,
    given by the dimensions {degree: dim} of k's and m's terms. In each
    total degree p the basis is one flat list of (i, b) in coordinate
    order: b is a basis map of the block from source degree i to i + p,
    in the caller's order (hom_complex: yoneda_basis, blocks in ascending
    i; build_H: End(S) corner by corner). Every basis map is 1 at its
    free entry, its first nonzero entry in column-major order, where
    every other basis map of its block is 0; free[p] takes that position
    (i, r, c) to the map's coordinate. A map's other entries are its
    tail, kept in tails[p] as (i, r, c, y) entries under its coordinate
    when there are any (never for End of a vector complex: matrix
    units). Coordinates are sparse {index: nonzero Q} dicts, and a map's
    are its nonzero entries at the free positions, read with no
    elimination."""

    def __init__(self, src_dims: dict, tgt_dims: dict, basis: dict):
        self.src_dims, self.tgt_dims = src_dims, tgt_dims
        self.basis = {p: maps for p, maps in basis.items() if maps}
        self.free, self.tails = {}, {}
        for p, maps in self.basis.items():
            free, tails = self.free.setdefault(p, {}), self.tails.setdefault(p, {})
            for j, (i, b) in enumerate(maps):
                c, r = min((c, r) for r, row in enumerate(b._rows) for c in row)
                free[(i, r, c)] = j
                if tail := tuple((i, r2, c2, y) for r2, row in enumerate(b._rows)
                                 for c2, y in row.items() if (r2, c2) != (r, c)):
                    tails[j] = tail

    def dim(self, p: int) -> int:
        return len(self.basis.get(p, ()))

    def to_mats(self, p: int, coords: dict) -> dict:
        """The degree-p map with these coordinates, as {source degree:
        matrix}, one entry per block it touches, in ascending degree."""
        basis, acc = self.basis.get(p, ()), {}
        for j, x in coords.items():
            i, b = basis[j]
            rows = acc.get(i)
            if rows is None:
                rows = acc[i] = [{} for _ in range(b.rows)]
            for tr, row in zip(rows, b._rows):
                for c, y in row.items():
                    tr[c] = tr.get(c, ZERO) + x * y
        return {
            i: Mat.wrap([{c: v for c, v in tr.items() if v} for tr in acc[i]], self.src_dims[i])
            for i in sorted(acc)
        }

    def coords(self, p: int, mats: dict) -> dict:
        """Coordinates x of the degree-p map given as {source degree:
        matrix}: its nonzero entries at the free positions. It lies in the
        hom space exactly when its other entries are those of Σ x_j·tail_j
        (every other basis map of a block is 0 at a free entry): the test
        to_mats(p, x) == the map, with no rebuild. A map outside the hom
        space, a block of the wrong shape or a component outside the
        book's blocks raises PipelineError."""
        free, out, rest = self.free.get(p, {}), {}, {}
        for i, t in mats.items():
            if (t.rows, t.cols) != (self.tgt_dims.get(i + p, 0), self.src_dims.get(i, 0)):
                raise PipelineError("map does not lie in the hom space")
            for r, row in enumerate(t._rows):
                for c, x in row.items():
                    j = free.get((i, r, c))
                    if j is None:
                        rest[(i, r, c)] = x
                    else:
                        out[j] = x
        tails = self.tails.get(p)
        if tails:
            for j, x in out.items():
                for i2, r2, c2, y in tails.get(j, ()):
                    rest[i2, r2, c2] = rest.get((i2, r2, c2), ZERO) - x * y
        if any(rest.values()):
            raise PipelineError("map does not lie in the hom space")
        return out

    def matrix(self, p: int, images) -> Mat:
        """The dim(p) x len(images) Mat whose column k is coords(p,
        images[k]): the one place a list of maps becomes a coordinate
        matrix."""
        rows = [{} for _ in range(self.dim(p))]
        for k, mats in enumerate(images):
            for j, x in self.coords(p, mats).items():
                rows[j][k] = x
        return Mat.wrap(rows, len(images))


def hom_complex(k: BddComplex, m: BddComplex):
    """The complex of module maps out of a complex of projectives k, each
    term proj_module(alg, k.verts[i]), with differential
    h -> d∘h - (-1)^{|h|} h∘d. Returns (ChainComplexQ, HomBook). The one
    place where yoneda_basis builds the basis of a book."""
    pmin = min(m.mods, default=0) - max(k.mods, default=0)
    pmax = max(m.mods, default=0) - min(k.mods, default=0)
    book = HomBook(
        {d: t.dim for d, t in k.mods.items()}, {d: t.dim for d, t in m.mods.items()}, {
            p: [(i, b) for i in sorted(k.mods) if i + p in m.mods
                for b in yoneda_basis(k.verts[i], m.module(i + p))]
            for p in range(pmin, pmax + 1)
        })
    diffs = {}
    for p, basis in book.basis.items():
        if book.dim(p + 1) == 0:
            continue
        sgn = Q(1) if p % 2 == 0 else Q(-1)
        images = []
        for i, b in basis:
            img = {}
            post = m.diff(i + p) @ b
            if not post.is_zero():
                img[i] = post
            pre = b @ k.diff(i - 1)
            if not pre.is_zero():
                img[i - 1] = img.get(i - 1, Mat(pre.rows, pre.cols)).add(pre.scale(-sgn))
            images.append(img)
        dmat = book.matrix(p + 1, images)
        if not dmat.is_zero():
            diffs[p] = dmat
    return ChainComplexQ({p: len(basis) for p, basis in book.basis.items()}, diffs), book


def end_dgla(cplx: ChainComplexQ, book_of, label: str) -> Dgla:
    """The endomorphism dgLa on the complex cplx of a hom complex k -> k
    in the coordinates of its book = book_of(), with the graded commutator
    bracket.

    Basis element a of degree p is book.basis[p][a], one basis map of one
    block i -> i + p. So a∘b of two basis elements is one product,
    nonzero only when b's target block is a's source block, and the
    table visits only those composable pairs: each composite, its
    coordinates book.coords on b's source block (its free entries, its
    membership checked against the basis maps' tails), enters [a, b]
    with sign 1 and [b, a] with sign -(-1)^{|a||b|}. The table is built
    only when something first brackets (see Dgla), which a pipeline
    report never does; only then is book_of called. The graded commutator
    of composition is a dgLa by construction; the tests run its axiom
    check."""

    def table():
        book, by_source = book_of(), {}
        for p, maps in book.basis.items():
            for a, (i, m) in enumerate(maps):
                by_source.setdefault(i, []).append((p, a, m))
        out = {}
        for p2, maps in book.basis.items():
            for b, (i2, mb) in enumerate(maps):
                for p1, a, ma in by_source.get(i2 + p2, ()):
                    if not cplx.dim(p1 + p2):
                        continue
                    sign = 1 if (p1 * p2) % 2 else -1
                    for t, c in book.coords(p1 + p2, {i2: ma @ mb}).items():
                        for key, e in (((p1, a, p2, b), c), ((p2, b, p1, a), sign * c)):
                            v = out.setdefault(key, {})
                            v[t] = v.get(t, ZERO) + e
        return {key: v.items() for key, v in out.items()}

    return Dgla(dict(cplx.dims), dict(cplx.diffs), table, label=label)


def end_dgla_of_complex(k: BddComplex, label: str = ""):
    """Endomorphism dgLa of a bounded complex of projectives: degree-p part
    the module maps lowering the degree by -p blockwise, graded
    commutator bracket (end_dgla on hom_complex(k, k)). Returns (Dgla,
    HomBook)."""
    cplx, book = hom_complex(k, k)
    return end_dgla(cplx, lambda: book, label or "End"), book


def graph_preserving_dgla(lift: ChainMapM, end_s: Dgla, books):
    """The dgLa L of the endomorphisms of S = P_F ⊕ P_G that preserve the
    graph Γ of the lift λ, with its inclusion into End(S) = end_s, whose
    basis is that of the corner HomBooks books, in CORNERS order. Returns
    (L, inclusion).

    With N the lift placed in the P_F -> P_G corner, u = 1 + N is a chain
    automorphism of S, because the lift is a chain map, with inverse 1 -
    N (N∘N = 0); it is the identity on 0 ⊕ P_G and takes P_F ⊕ 0 onto Γ.
    So L = u T u⁻¹, with T the endomorphisms preserving P_F ⊕ 0: the
    first three corners, the first t_dims[p] basis maps of each degree p.
    End(S)'s differential keeps every corner, so T's is its leading
    block, and T is closed under the bracket, so T's table is End(S)'s
    restricted to the prefix. L is T carried across by u: its dimensions,
    differential and bracket are T's, and its inclusion sends t to
    u∘t∘u⁻¹ = t - t∘N + N∘(t - t∘N). For t: P_a -> P_b, t∘N = t∘λ is 0
    unless a is G and lies in corner (F, b); N∘x = λ∘x is 0 unless b is F
    and lies in corner (a, G), or (F, G) for x = t∘N. So FF a ↦ a + λa,
    GG b ↦ b - bλ and GF c ↦ c - cλ + λc - λcλ (the corner formula): each
    column is t's own coordinate plus these corrections, read in their
    corners' books, with no u, no u⁻¹ and no product of S's size."""
    lam, corner = lift.comps, {ab: c for c, ab in enumerate(CORNERS)}
    t_dims = {p: n - books[-1].dim(p) for p, n in end_s.dims.items()}
    mats, diffs = {}, {}
    for p, n in t_dims.items():
        if not n:
            continue
        off = list(accumulate((book.dim(p) for book in books), initial=0))
        rows = [{} for _ in range(end_s.dim(p))]
        for (a, b), book, o in zip(CORNERS, books[:3], off):
            for k, (i, t) in enumerate(book.basis.get(p, ()), o):
                rows[k][k], img = ONE, {}
                if a == 1 and i in lam:
                    img[0, b] = (t @ lam[i]).neg()
                if b == 0 and i + p in lam:
                    img[a, 1] = lam[i + p] @ t
                    if (0, 0) in img:
                        img[0, 1] = lam[i + p] @ img[0, 0]
                for ab, m in img.items():
                    for r, x in books[corner[ab]].coords(p, {i: m}).items():
                        rows[off[corner[ab]] + r][k] = x
        mats[p] = Mat.wrap(rows, n)
        lead = end_s.diff(p)._rows[:t_dims.get(p + 1, 0)]
        diffs[p] = Mat.wrap([dict(row) for row in lead], n)
    l_g = Dgla(t_dims, diffs, lambda: {
        (d1, i, d2, j): val for (d1, i, d2, j), val in end_s._br.items()
        if i < t_dims.get(d1, 0) and j < t_dims.get(d2, 0)
    }, label="preserving")
    return l_g, DglaMap(l_g, end_s, mats)


# --- Ext oracle --------------------------------------------------------------------


def ext_bruteforce(res: Resolution, g: FinMod):
    """Dimensions of Ext^i(F, g), i = 0 .. len(res), for the module F that
    the projective resolution res resolves: hdim of the hom complex of res
    into g. pipeline_report passes the resolutions of its diagram."""
    if res.cx.alg is not g.alg and res.cx.alg.label != g.alg.label:
        raise PipelineError("modules live over different algebras")
    if not res.cx.mods:
        return []
    cplx, _ = hom_complex(res.cx, module_as_complex(g))
    return [cplx.hdim(i) for i in range(0, 1 - res.cx.deg_range()[0])]


def euler_form(f: FinMod, g: FinMod) -> dict:
    """The Euler form <x, y> = sum_i x_i y_i - sum over arrows s -> t of
    x_s y_t on the pairs FF, GG and FG of the dimension vectors of f and
    g, x_i = dim e_i m read off as the rank of the action of e_i. The
    arrows are the radical basis elements outside J^2, each a = e_t a e_s.
    Each vector and the arrows are read once for the three pairs. Over a
    path algebra without relations <m, n> is dim Hom(m, n) - dim Ext^1(m,
    n), and Ext^2 and above vanish (Assem–Simson–Skowroński I, §III.3).
    Uses neither a resolution nor a hom space."""
    alg = f.alg
    x, y = ([m.acts[e].rank() for e in alg.idempotents] for m in (f, g))
    j2 = Subspace(
        alg.dim, Mat.from_rows([alg.mul[r][q] for r in alg.radical for q in alg.radical], alg.dim)
    )
    arrows = [alg.ends[a] for a in alg.radical if not j2.contains(Mat(1, alg.dim, {(0, a): 1}))]
    return {key: sum(a * b for a, b in zip(u, v)) - sum(u[s] * v[t] for s, t in arrows)
            for key, (u, v) in {"FF": (x, x), "GG": (y, y), "FG": (x, y)}.items()}


def ext_matches_euler_form(ext: dict, f: FinMod, g: FinMod) -> bool:
    """The Ext lists keyed FF, GG and FG against the Euler form: Hom
    minus Ext^1 equals it and nothing lies above degree 1."""
    for key, chi in euler_form(f, g).items():
        hom, ext1 = (ext[key] + [0, 0])[:2]
        if hom - ext1 != chi or any(ext[key][2:]):
            return False
    return True


# --- the two-level diagram of a morphism ------------------------------------------------


class MorphismDiagram(ScDgla):
    """The diagram that build_H returns, with the parts h_cohomology,
    les_check and pipeline_report read. Each pair is indexed by side, 0
    for the source F and 1 for the target G:

    - lift: the chain map P_F -> P_G between the two resolutions;
    - ends: End(P_F) and End(P_G), the FF and GG corners of End(S) for
      S = P_F ⊕ P_G;
    - books: the HomBooks of the four corners of End(S), in CORNERS order;
    - projs: the projections of level 0 onto ends;
    - fg: (complex, HomBook) of Hom(P_F, P_G), the last corner of End(S);
    - book_s(): the HomBook of End(S), which is level 1: the basis maps
      of the four corners placed in S, in CORNERS order, built on the
      first call (End(S)'s bracket table, the tests), which no report makes.

    The third summand of level 0, L = u T u⁻¹ (graph_preserving_dgla),
    is reached through face 1, which includes it into End(S) by
    t -> u∘t∘u⁻¹.

    total() builds the total complex on first use, so the checks of one
    diagram share one complex and its cohomology."""

    __slots__ = ("lift", "ends", "books", "projs", "fg", "book_s", "_total")

    def __init__(self, levels, cofaces, lift, ends, books, projs, fg, book_s):
        super().__init__(levels, cofaces, label="morphism diagram")
        self.lift, self.ends, self.books = lift, ends, books
        self.projs, self.fg, self.book_s = projs, fg, book_s
        self._total = None

    def total(self) -> ChainComplexQ:
        """total_complex(self)."""
        if self._total is None:
            self._total = total_complex(self)
        return self._total


# The corners Hom(P_a, P_b) of End(P_F ⊕ P_G) as (a, b), 0 for the source
# side F and 1 for the target side G: FF, GG, GF and FG. The P_F -> P_G
# corner comes last, so T is a prefix of each degree of End(S).
CORNERS = ((0, 0), (1, 1), (1, 0), (0, 1))


def build_H(res_f: Resolution, res_g: Resolution, lift: ChainMapM) -> MorphismDiagram:
    """The diagram controlling deformations of the morphism, [level 0,
    level 1, 0]. Level 1 is End(S) of the direct sum S = P_F ⊕ P_G. Level
    0 is End(P_F) ⊕ End(P_G) ⊕ L, with L the endomorphisms of S preserving
    the graph Γ of the lift: L = u T u⁻¹, with T the block upper-triangular
    part of End(S) and u the chain automorphism of S taking P_F ⊕ 0 onto Γ
    (graph_preserving_dgla). S's differential is block diagonal, so in
    each degree End(S)'s basis is the basis maps of hom_complex(P_a, P_b)
    for (a, b) in CORNERS placed in S, and its differential is the
    block-diagonal sum of theirs. Face 0 projects onto End(P_F) and
    End(P_G), the first two corners, and includes each as a diagonal
    block: two identity blocks. Face 1 projects onto L and includes it by
    t -> u∘t∘u⁻¹; a zero level 2 closes the diagram. Every dgLa here
    builds its bracket table on first use (see Dgla): the reports read
    only dimensions, differentials and face maps, so none of them builds
    a table or places the corner maps in S (book_s). Nothing here is
    validated: the dgLa axioms, the faces and the coface identities hold
    by construction, and validate_sc checks them in the tests. Cover data
    (one open or two) enters only in h_cohomology."""
    cxs = (res_f.cx, res_g.cx)
    homs = [hom_complex(cxs[a], cxs[b]) for a, b in CORNERS]
    books = tuple(book for _, book in homs)
    degrees = sorted(set().union(*(cx.dims for cx, _ in homs)))
    cplx_s = ChainComplexQ({p: sum(cx.dim(p) for cx, _ in homs) for p in degrees}, {
        p: Mat.blocks([cx.dim(p + 1) for cx, _ in homs], [cx.dim(p) for cx, _ in homs],
                      {(c, c): cx.diff(p) for c, (cx, _) in enumerate(homs)})
        for p in degrees
    })

    @functools.cache
    def book_s():
        sides = {d: (cxs[0].dim(d), cxs[1].dim(d)) for d in set(cxs[0].mods) | set(cxs[1].mods)}
        s_dims = {d: sum(n) for d, n in sides.items()}
        return HomBook(s_dims, s_dims, {p: [
            (i, Mat.blocks(sides[i + p], sides[i], {(b, a): t}))
            for (a, b), book in zip(CORNERS, books) for i, t in book.basis.get(p, ())
        ] for p in degrees})

    end_s = end_dgla(cplx_s, book_s, "End(ambient)")
    l_g, l_incl = graph_preserving_dgla(lift, end_s, books)
    end_f = end_dgla(homs[0][0], lambda: books[0], "End(source res)")
    end_g = end_dgla(homs[1][0], lambda: books[1], "End(target res)")
    level0, _, projs = direct_sum([end_f, end_g, l_g])

    def face0(p):
        ff, gg = end_f.dim(p), end_g.dim(p)
        return Mat.blocks((ff, gg, end_s.dim(p) - ff - gg), (ff, gg, l_g.dim(p)),
                          {(0, 0): Mat.identity(ff), (1, 1): Mat.identity(gg)})

    from .builders import zero_dgla

    z = zero_dgla()
    cof = {
        (1, 0): DglaMap(level0, end_s, {p: face0(p) for p in level0.dims}),
        (1, 1): l_incl.compose(projs[2]),
        (2, 0): DglaMap(end_s, z, {}),
        (2, 1): DglaMap(end_s, z, {}),
        (2, 2): DglaMap(end_s, z, {}),
    }
    return MorphismDiagram([level0, end_s, z], cof, lift, (end_f, end_g),
                           books, tuple(projs[:2]), homs[-1], book_s)


def h_cohomology(sc: MorphismDiagram, n_opens: int = 1) -> dict:
    """Cohomology dimensions of the totalisation T of the diagram, taken
    over one or two synthetic opens. With two opens and identity gluings
    the Čech diagram has T ⊕ T, T on each open, at level 0 and T on their
    overlap at level 1, with the two projections as faces, so the faces'
    alternating sum is the Čech differential (a, b) -> b - a; its
    totalisation is quasi-isomorphic to T."""
    if n_opens not in (1, 2):
        raise PipelineError("only one or two synthetic opens are supported")
    tot = sc.total()
    if n_opens == 1:
        return tot.betti()
    t = abelian_dgla(tot.dims, tot.diffs)
    pair = abelian_dgla(
        {n: 2 * k for n, k in tot.dims.items()},
        {
            n: Mat.blocks((m.rows,) * 2, (m.cols,) * 2, {(0, 0): m, (1, 1): m})
            for n, m in tot.diffs.items()
        },
    )
    on = [
        DglaMap(pair, t, {
            n: Mat.blocks((k,), (k, k), {(0, i): Mat.identity(k)}) for n, k in tot.dims.items()
        })
        for i in (0, 1)
    ]
    return total_complex(ScDgla([pair, t], {(1, 0): on[1], (1, 1): on[0]})).betti()


# --- the long exact sequence -----------------------------------------------------------


def _classes(cx: ChainComplexQ, deg: int, V: Mat, what: str) -> Mat:
    """The classes in H^deg(cx) of the columns of V, by classes."""
    out = cx.classes(deg, V)
    if out is None:
        raise PipelineError(f"{what} of a cocycle failed to be closed")
    return out


def _exact(incoming: Mat, outgoing: Mat) -> bool:
    """Whether im(incoming) = ker(outgoing), compared as subspaces of the
    middle space; true when that space is 0."""
    n = incoming.rows
    if not n:
        return True
    return Subspace(n, incoming.transpose()).eq(Subspace(n, outgoing.kernel_basis()))


def les_check(sc: MorphismDiagram) -> dict:
    """Exactness, junction by junction, of the sequence

        H^i(T) -u-> Ext^i(F,F) ⊕ Ext^i(G,G) -v-> Ext^i(F,G) -θ-> H^{i+1}(T)

    relating the totalisation cohomology to the Ext groups of the two
    modules, each Ext computed from the hom complex of the resolutions.
    u restricts a cocycle to level 0 and projects it onto the End pair;
    v sends (a, b) to b∘lift - lift∘a; θ includes a map P_F -> P_G as
    the corner block of End(P_F ⊕ P_G), one level up, End(S)'s last
    corner, so θ only shifts coordinates (sc.fg). Each map sends
    cocycles to cocycles, and the classes of all the images of one
    degree are read off together by classes, so each (complex, degree)
    pair is solved against once; images and kernels are compared as
    subspaces, not merely by dimension."""
    tot = sc.total()
    lift = sc.lift
    cx = [g.complex() for g in sc.ends]
    cx_fg, book_fg = sc.fg

    def u_map(i):
        # level 0's block comes first in each degree of the total complex
        n0 = sc.levels[0].dim(i)
        level0 = Mat.wrap(
            [{j: c for j, c in rep.items() if j < n0} for rep in tot.cohomology(i)[1]._rows],
            n0,
        ).transpose()
        cf, cg = (
            _classes(cx[s], i, sc.projs[s].mat(i) @ level0, "projection") for s in (0, 1)
        )
        return Mat.blocks((cf.rows, cg.rows), (level0.cols,), {(0, 0): cf, (1, 0): cg})

    def v_map(i):
        rf, rg = (cx[s].cohomology(i)[1] for s in (0, 1))
        images = [
            {j: (lift.comp(j + i) @ t).neg() for j, t in sc.books[0].to_mats(i, rep).items()}
            for rep in rf._rows
        ] + [
            {j: t @ lift.comp(j) for j, t in sc.books[1].to_mats(i, rep).items()}
            for rep in rg._rows
        ]
        return _classes(cx_fg, i, book_fg.matrix(i, images), "face difference")

    def theta_map(i):
        # the P_F -> P_G corner is End(S)'s last, so a map keeps its
        # coordinates there, shifted past level 0's block of the total
        # complex and the other three corners
        off = sc.levels[0].dim(i + 1) + sc.levels[1].dim(i) - cx_fg.dim(i)
        images = [
            {off + j: c for j, c in rep.items()}
            for rep in cx_fg.cohomology(i)[1]._rows
        ]
        V = Mat.wrap(images, tot.dim(i + 1)).transpose()
        return _classes(tot, i + 1, V, "corner inclusion")

    lo = min(list(tot.dims) + [0]) - 1
    hi = max(list(tot.dims) + [0]) + 1
    junctions = []
    th_prev = theta_map(lo - 1)
    for i in range(lo, hi + 1):
        u_i, v_i, th_i = u_map(i), v_map(i), theta_map(i)
        junctions.append(
            {
                "degree": i,
                "at_total": _exact(th_prev, u_i),
                "at_ext_pair": _exact(u_i, v_i),
                "at_ext_hom": _exact(v_i, th_i),
            }
        )
        th_prev = th_i
    exact = all(j["at_total"] and j["at_ext_pair"] and j["at_ext_hom"] for j in junctions)
    return {"exact": exact, "junctions": junctions}


# --- orchestration -----------------------------------------------------------------------


def pipeline_report(fmod: FinMod, gmod: FinMod, alpha: Mat, n_opens: int = 1) -> dict:
    """Run the whole chain on one morphism and collect every verdict."""
    res_g = resolve(gmod)
    res_f, lift = lift_morphism(alpha, fmod, gmod, res_g)
    sc = build_H(res_f, res_g, lift)
    # run first, les_check keeps the representatives that h_cohomology and
    # end_matches_ext read, so each complex is eliminated once
    les = les_check(sc) if n_opens == 1 else None
    hdims = h_cohomology(sc, n_opens)
    ext = {
        "FF": ext_bruteforce(res_f, fmod),
        "GG": ext_bruteforce(res_g, gmod),
        "FG": ext_bruteforce(res_f, gmod),
    }
    # H of End(P_F), End(P_G) and Hom(P_F, P_G) against the Ext lists
    corners = {"FF": sc.ends[0].complex(), "GG": sc.ends[1].complex(), "FG": sc.fg[0]}
    match = all(
        cx.hdim(i) == dim for key, cx in corners.items() for i, dim in enumerate(ext[key])
    )
    out = {
        "schema": "pipeline-report/1",
        "algebra": fmod.alg.label,
        "source_dim": fmod.dim,
        "target_dim": gmod.dim,
        "morphism_rank": alpha.rank(),
        "opens": n_opens,
        "h_cohomology": {str(d): h for d, h in sorted(hdims.items())},
        "ext": ext,
        "end_matches_ext": match,
        "ext_matches_euler_form": ext_matches_euler_form(ext, fmod, gmod),
        "tangent_dim": hdims.get(1, 0),
        "obstruction_dim": hdims.get(2, 0),
    }
    if les is not None:
        out["les_exact"] = les["exact"]
        out["les_junctions"] = les["junctions"]
    return out


# --- canonical and random instances --------------------------------------------------------


def a2_modules() -> dict:
    """The four indecomposables of the two-vertex quiver: both
    projectives, both simples (the second simple is projective)."""
    alg = a2_algebra()
    mods = {
        "P1": representation(alg, (1, 1), [Mat.identity(1)]),
        "P2": representation(alg, (0, 1), [Mat(1, 0)]),
        "S1": representation(alg, (1, 0), [Mat(0, 1)]),
    }
    for name, m in mods.items():
        m.label = name
    return {"alg": alg, **mods, "S2": mods["P2"]}


def random_a2_module(rng: random.Random, dmax: int = 2) -> FinMod:
    d1 = rng.randrange(0, dmax + 1)
    d2 = rng.randrange(0, dmax + 1)
    if d1 + d2 == 0:
        d1 = 1
    arrow = Mat.from_rows([[rng.randrange(-2, 3) for _ in range(d1)] for _ in range(d2)], cols=d1)
    return representation(a2_algebra(), (d1, d2), [arrow])


def random_module_map(m1: FinMod, m2: FinMod, rng: random.Random) -> Mat:
    basis = hom_basis(m1, m2)
    out = Mat(m2.dim, m1.dim)
    for b in basis:
        c = rng.randrange(-2, 3)
        if c:
            out = out.add(b.scale(Q(c)))
    return out


def canonical_morphisms() -> list:
    """The three canonical instances: the zero morphism, an identity,
    and the inclusion of a simple into a projective."""
    mods = a2_modules()
    p1, s1, s2 = mods["P1"], mods["S1"], mods["S2"]
    # the one module map S2 -> P1 up to scale: S2 onto the arrow's span
    incl = Mat(2, 1, {(1, 0): 1})
    return [
        ("zero on simple", s1, s1, Mat(1, 1)),
        ("identity of projective", p1, p1, Mat.identity(2)),
        ("simple into projective", s2, p1, incl),
    ]
