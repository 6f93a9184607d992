"""Built-in example complexes, diagrams, and covers.

Everything here is desk scale: small rational complexes, their
endomorphism dgLas, and synthetic covers whose Cech diagrams exercise
the totalisation and descent machinery. End of a complex is End over the
ground field, end_dgla_of_complex(vector_complex(cx)) from pipeline, and
a chain automorphism acts on it by conjugation through its HomBook
(matrix units, so coords reads entries and subtracts no tails), each
automorphism inverted once, by its invertibility test. The builders are
deterministic (seeded) so frozen test values stay valid.
"""

from __future__ import annotations

import random
from itertools import combinations

from .dgla import Dgla, DglaMap, abelian_dgla, sl2
from .linalg import ChainComplexQ, Mat
from .pipeline import end_dgla_of_complex, vector_complex
from .ratio import Q
from .semicosimplicial import CoverModel, ScDgla, cech_from_cover, constant_sc


def two_step_complex() -> ChainComplexQ:
    """0 -> Q^2 -> Q -> 0 with a rank-1 differential; cohomology is one
    dimensional, concentrated in degree 0."""
    return ChainComplexQ({0: 2, 1: 1}, {0: [[1, 0]]})


def acyclic_complex() -> ChainComplexQ:
    """0 -> Q -> Q^2 -> Q -> 0, exact everywhere."""
    return ChainComplexQ({0: 1, 1: 2, 2: 1}, {0: [[1], [0]], 1: [[0, 1]]})


def zero_dgla() -> Dgla:
    return abelian_dgla({}, label="zero")


# --- diagrams ---------------------------------------------------------------


def sc_constant_sl2(top: int = 3) -> ScDgla:
    """Constant diagram on sl2 (degree 0 only)."""
    return constant_sc(sl2(), top, label="constant sl2")


def sc_constant_end(top: int = 3) -> ScDgla:
    """Constant diagram on the endomorphism dgLa of the two-step complex."""
    g, _ = end_dgla_of_complex(vector_complex(two_step_complex()), label="end two-step")
    return constant_sc(g, top, label="constant end")


def sc_counterexample() -> ScDgla:
    """The diagram that is zero everywhere except for a one-dimensional
    degree -1 piece at level 2; its negative cohomology obstructs
    descent."""
    z = zero_dgla()
    g2 = abelian_dgla({-1: 1}, label="line in degree -1")
    cof = {
        (1, 0): DglaMap(z, z, {}),
        (1, 1): DglaMap(z, z, {}),
        (2, 0): DglaMap(z, g2, {}),
        (2, 1): DglaMap(z, g2, {}),
        (2, 2): DglaMap(z, g2, {}),
    }
    return ScDgla([z, z, g2], cof, label="counterexample")


def sc_zero(top: int = 2) -> ScDgla:
    """The zero diagram."""
    return constant_sc(zero_dgla(), top, label="zero diagram")


def sc_weak_only() -> ScDgla:
    """Nonzero cohomology in degree -1 at level 0, where the gluing
    window places no constraint: the weak hypothesis holds, the strong
    one fails."""
    g0 = abelian_dgla({-1: 1}, label="line in degree -1")
    z = zero_dgla()
    cof = {
        (1, 0): DglaMap(g0, z, {}),
        (1, 1): DglaMap(g0, z, {}),
        (2, 0): DglaMap(z, z, {}),
        (2, 1): DglaMap(z, z, {}),
        (2, 2): DglaMap(z, z, {}),
    }
    return ScDgla([g0, z, z], cof, label="weak only")


# --- covers -----------------------------------------------------------------


def cover_identity(g: Dgla, n_opens: int) -> CoverModel:
    """Every intersection carries the same sections; restrictions are the
    identity (a trivially glued cover)."""
    ident = DglaMap.identity(g)
    sections = {}
    restrictions = {}
    for size in range(1, n_opens + 1):
        for T in combinations(range(n_opens), size):
            sections[T] = g
            if size > 1:
                for k in range(size):
                    restrictions[(T[:k] + T[k + 1 :], T)] = ident
    return CoverModel(n_opens, sections, restrictions)


def sc_cech_identity(g: Dgla | None = None, n_opens: int = 3) -> ScDgla:
    if g is None:
        g, _ = end_dgla_of_complex(vector_complex(two_step_complex()), label="end two-step")
    return cech_from_cover(cover_identity(g, n_opens))


def cover_twist() -> CoverModel:
    """Two opens, one-dimensional sections on each, two-dimensional
    sections on the overlap, both restrictions hitting the same line:
    the glued line bundle has one-dimensional kernel and cokernel, so
    the Cech cohomology of the cover is (1, 1)."""
    u = abelian_dgla({0: 1}, label="sections U0")
    v = abelian_dgla({0: 1}, label="sections U1")
    uv = abelian_dgla({0: 2}, label="sections U01")
    line = Mat.from_rows([[1], [0]])
    return CoverModel(
        2,
        {(0,): u, (1,): v, (0, 1): uv},
        {
            ((0,), (0, 1)): DglaMap(u, uv, {0: line}),
            ((1,), (0, 1)): DglaMap(v, uv, {0: line}),
        },
    )


def cover_twist_redundant() -> CoverModel:
    """The twist cover with the second open duplicated; the nerve gains a
    triangle but the cohomology must not change."""
    u = abelian_dgla({0: 1}, label="sections U0")
    v = abelian_dgla({0: 1}, label="sections U1")
    w = abelian_dgla({0: 1}, label="sections U2 (copy of U1)")
    uv = abelian_dgla({0: 2}, label="sections U01")
    uw = abelian_dgla({0: 2}, label="sections U02")
    vw = abelian_dgla({0: 1}, label="sections U12")
    uvw = abelian_dgla({0: 2}, label="sections U012")
    line = Mat.from_rows([[1], [0]])
    ident2 = Mat.identity(2)
    ident1 = Mat.identity(1)
    sections = {
        (0,): u, (1,): v, (2,): w,
        (0, 1): uv, (0, 2): uw, (1, 2): vw,
        (0, 1, 2): uvw,
    }
    restrictions = {
        ((0,), (0, 1)): DglaMap(u, uv, {0: line}),
        ((1,), (0, 1)): DglaMap(v, uv, {0: line}),
        ((0,), (0, 2)): DglaMap(u, uw, {0: line}),
        ((2,), (0, 2)): DglaMap(w, uw, {0: line}),
        ((1,), (1, 2)): DglaMap(v, vw, {0: ident1}),
        ((2,), (1, 2)): DglaMap(w, vw, {0: ident1}),
        ((0, 1), (0, 1, 2)): DglaMap(uv, uvw, {0: ident2}),
        ((0, 2), (0, 1, 2)): DglaMap(uw, uvw, {0: ident2}),
        ((1, 2), (0, 1, 2)): DglaMap(vw, uvw, {0: line}),
    }
    return CoverModel(3, sections, restrictions)


def sc_twist() -> ScDgla:
    return cech_from_cover(cover_twist())


# --- conjugated covers -------------------------------------------------------


def random_chain_auto(cx: ChainComplexQ, rng: random.Random) -> dict:
    """A random invertible chain automorphism of the complex of the shape
    identity plus a differential-commuting perturbation built from a
    random degree -1 homotopy (scaled down until invertible)."""
    return _chain_auto_and_inverse(cx, rng)[0]


def _chain_auto_and_inverse(cx: ChainComplexQ, rng: random.Random) -> tuple:
    """random_chain_auto's φ and φ⁻¹, which its invertibility test finds."""
    degs = sorted(cx.dims)
    h = {d: Mat.from_rows([[rng.randint(-2, 2) for _ in range(cx.dim(d))]
                           for _ in range(cx.dim(d - 1))], cols=cx.dim(d)) for d in degs}
    scale = Q(1)
    for _ in range(8):
        phi, inv = {}, {}
        for d in degs:
            n = cx.dim(d)
            pert = Mat(n, n)
            if h[d].rows:
                pert = pert.add(cx.diff(d - 1) @ h[d])
            if (d + 1) in h and cx.dim(d + 1):
                pert = pert.add(h[d + 1] @ cx.diff(d))
            phi[d] = Mat.identity(n).add(pert.scale(scale))
            inv[d] = phi[d].inverse()
            if inv[d] is None:
                break
        else:
            return phi, inv
        scale = scale / 2
    one = {d: Mat.identity(cx.dim(d)) for d in degs}
    return one, one


def cover_conjugated(
    cx: ChainComplexQ | None = None, n_opens: int = 3, seed: int = 0
) -> CoverModel:
    """Every intersection carries the endomorphism dgLa of the same
    complex, but each tuple of opens T is twisted by its own random chain
    automorphism φ_T; restrictions are the comparison conjugations by
    φ_T φ_S⁻¹, which commute on the nose. φ_T⁻¹ comes from the test that
    φ_T is invertible, and the inverse of φ_T φ_S⁻¹ is the product
    φ_S φ_T⁻¹."""
    if cx is None:
        cx = two_step_complex()
    g, book = end_dgla_of_complex(vector_complex(cx), label="end")

    def conjugation(phi: dict, inv: dict) -> DglaMap:
        # t -> φ∘t∘φ⁻¹ for each basis map t = E_rc of the HomBook: column r
        # of φ times row c of φ⁻¹, written into the book's free positions
        mats = {}
        for p, basis in book.basis.items():
            free, rows = book.free[p], [{} for _ in basis]
            for k, (i, t) in enumerate(basis):
                (r, c, one), = [(r, c, v) for r, row in enumerate(t._rows) for c, v in row.items()]
                if one != 1:
                    raise ValueError(f"basis map {k} of degree {p} is not a matrix unit")
                col = [(a, x) for a, row in enumerate(phi[i + p]._rows) if (x := row.get(r))]
                for b, y in inv[i]._rows[c].items():
                    for a, x in col:
                        rows[free[i, a, b]][k] = x * y
            mats[p] = Mat.wrap(rows, len(basis))
        return DglaMap(g, g, mats)

    rng = random.Random(seed)
    autos, invs, sections, restrictions = {}, {}, {}, {}
    for size in range(1, n_opens + 1):
        for T in combinations(range(n_opens), size):
            phi, inv = autos[T], invs[T] = _chain_auto_and_inverse(cx, rng)
            sections[T] = g
            if size > 1:
                for k in range(size):
                    S = T[:k] + T[k + 1 :]
                    restrictions[(S, T)] = conjugation(
                        {d: m @ invs[S][d] for d, m in phi.items()},
                        {d: autos[S][d] @ m for d, m in inv.items()},
                    )
    return CoverModel(n_opens, sections, restrictions)


def sc_cech_conjugated(n_opens: int = 3, seed: int = 0) -> ScDgla:
    return cech_from_cover(cover_conjugated(n_opens=n_opens, seed=seed))
