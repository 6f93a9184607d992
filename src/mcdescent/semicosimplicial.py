"""Semicosimplicial dgLas, their totalisations, and descent data.

A semicosimplicial dgLa is a diagram of dgLas g_0, g_1, ..., g_N with
coface maps into every level satisfying the coface identities. This
module provides:

- ScDgla: the diagram type with validation, truncation, and face maps
  indexed by arbitrary monotone injections;
- the total complex of the diagram (exact rational cohomology);
- CoverModel and the Cech diagram of a finite cover;
- form-valued element families over the diagram, one simplex chart per
  level, with the compatibility condition cutting out the Thom-Whitney
  totalisation, plus the integration / Whitney comparison maps onto the
  total complex;
- Maurer-Cartan data of the two-step truncated totalisation in the
  canonical decomposed shape (base element, edge polynomial, triangle
  polynomial) with its four face conditions;
- the groupoid of descent data: objects (l, m, u) and morphisms (a, b)
  glued from the levelwise Deligne groupoids.

Chart conventions, fixed here and used everywhere: the level-n chart has
polynomial variables t_1..t_n (the barycentric coordinate of vertex 0 is
1 - sum and is implicit). The k-th face of an element family is the
pullback along the coface missing vertex n-k, so the chart vertex at the
origin pairs with the injection hitting the top vertex. Under this
pairing a compatible family restricts along chart faces exactly as the
diagram's coface maps act, with face k of the level-n component equal to
the k-th coface image of the level-(n-1) component.
"""

from __future__ import annotations

import math
from itertools import combinations

from .artin import ArtinAlgebra
from .dgla import Dgla, DglaError, DglaMap, Elem, IntTable, TensorCtx, sum_dgla
from .forms import (
    coface_images,
    f_const,
    f_sub,
    f_var,
    fkey_mul,
    whitney_form,
)
from .linalg import ChainComplexQ, Mat
from .mcgauge import (
    bch_many,
    embed,
    extract_irrelevant,
    gauge,
    is_mc,
    morphism_equal,
    stabilizer_log,
)
from .ratio import Q, neg_one_pow


class ScError(ValueError):
    """Raised on malformed semicosimplicial data."""


def level_vars(p: int) -> tuple:
    """Chart variable names for the level-p simplex."""
    return tuple(f"t{i}" for i in range(1, p + 1))


class ScDgla:
    """A semicosimplicial dgLa: levels g_0..g_N and coface maps.

    cofaces is keyed by (i, k) with 0 <= k <= i <= N and holds the k-th
    coface map g_{i-1} -> g_i. The coface identities
    face(i+1, k+1) o face(i, j) = face(i+1, j) o face(i, k) for k >= j
    are not checked on construction: validate_sc names every level that
    breaks the dgLa axioms and every broken face map or identity.
    """

    __slots__ = ("levels", "cofaces", "label")

    def __init__(self, levels, cofaces, label: str = ""):
        self.levels = list(levels)
        self.cofaces = dict(cofaces)
        self.label = label
        if not self.levels:
            raise ScError("at least one level is required")

    @property
    def top(self) -> int:
        return len(self.levels) - 1

    def face(self, i: int, k: int) -> DglaMap:
        """The k-th coface map into level i (from level i-1)."""
        if not (1 <= i <= self.top and 0 <= k <= i):
            raise ScError(f"no face ({k},{i}) in a diagram with top {self.top}")
        return self.cofaces[(i, k)]

    def truncate(self, i: int) -> "ScDgla":
        """Discard all levels above i (the diagram they span is zero)."""
        if not (0 <= i <= self.top):
            raise ScError("truncation level out of range")
        cof = {key: m for key, m in self.cofaces.items() if key[0] <= i}
        return ScDgla(
            self.levels[: i + 1], cof,
            label=f"{self.label}|<={i}" if self.label else "",
        )

    def __repr__(self):
        dims = [g.total_dim for g in self.levels]
        return f"ScDgla(levels={dims}{' ' + self.label if self.label else ''})"


def sc_same(a: ScDgla, b: ScDgla) -> bool:
    """Whether two diagram handles present the same diagram (same level
    dgLa objects and equal coface maps); truncations of a common parent
    compare equal under this."""
    if a is b:
        return True
    if len(a.levels) != len(b.levels):
        return False
    if any(x is not y for x, y in zip(a.levels, b.levels)):
        return False
    if a.cofaces.keys() != b.cofaces.keys():
        return False
    return all(
        m is b.cofaces[k] or m.eq(b.cofaces[k]) for k, m in a.cofaces.items()
    )


def validate_sc(g: ScDgla) -> dict:
    """Full validation report: level i's IntTable checks level i, then with
    level i-1's the faces (i, 0..i), and level i-1's is dropped. Level
    violations come first, then stray, missing, misplaced and failing
    faces in (i, k) order; the coface identities only if no face failed."""
    levels, prev = [], None
    faces = [f"stray face map keyed {(i, k)}" for i, k in g.cofaces
             if not (1 <= i <= g.top and 0 <= k <= i)]
    for i, lv in enumerate(g.levels):
        cur = IntTable(lv)
        try:
            lv.validate(mode="auto", table=cur)
        except DglaError as e:
            levels.append(f"level {i}: {e}")
        for k in range(i + 1 if i else 0):
            m = g.cofaces.get((i, k))
            if m is None:
                faces.append(f"missing face ({k},{i})")
            elif m.source is not g.levels[i - 1]:
                faces.append(f"face ({k},{i}) has the wrong source")
            elif m.target is not lv:
                faces.append(f"face ({k},{i}) has the wrong target")
            else:
                try:
                    m.validate(prev, cur)
                except DglaError as e:
                    faces.append(f"face ({k},{i}): {e}")
        prev = cur
    if not faces:
        for i in range(1, g.top):
            for j in range(i + 1):
                for k in range(j, i + 1):
                    lhs = g.face(i + 1, k + 1).compose(g.face(i, j))
                    rhs = g.face(i + 1, j).compose(g.face(i, k))
                    if not lhs.eq(rhs):
                        faces.append(f"coface identity fails: ({k + 1},{i + 1})o({j},{i})"
                                     f" != ({j},{i + 1})o({k},{i})")
    return {"ok": not (levels or faces), "violations": levels + faces}


def face_map_of_injection(sc: ScDgla, image, n_tgt: int) -> DglaMap:
    """The diagram map attached to the monotone injection with the given
    vertex image inside 0..n_tgt, as a composition of coface maps (the
    outermost factor always misses the largest absent vertex)."""
    image = tuple(image)
    n_src = len(image) - 1
    if n_src < 0 or n_tgt > sc.top:
        raise ScError("injection out of range")
    if any(not 0 <= v <= n_tgt for v in image) or any(
        a >= b for a, b in zip(image, image[1:])
    ):
        raise ScError("vertex image must be strictly increasing in range")
    if n_src == n_tgt:
        return DglaMap.identity(sc.levels[n_src])
    missing = sorted(set(range(n_tgt + 1)) - set(image))
    j = missing[-1]
    inner_image = tuple(v if v < j else v - 1 for v in image)
    inner = face_map_of_injection(sc, inner_image, n_tgt - 1)
    return sc.face(n_tgt, j).compose(inner)


def constant_sc(g: Dgla, top: int, label: str = "") -> ScDgla:
    """The constant diagram on g with every coface the identity."""
    ident = DglaMap.identity(g)
    cof = {(i, k): ident for i in range(1, top + 1) for k in range(i + 1)}
    return ScDgla([g] * (top + 1), cof, label=label or "constant")


# --- total complex ----------------------------------------------------------


def total_complex(sc: ScDgla) -> ChainComplexQ:
    """The total complex of the diagram: degree n is the direct sum of the
    internal degree n - p parts over levels p, in level order, so level
    p's block follows the blocks of levels 0, ..., p - 1. The
    differential on a level-p slice is the alternating coface sum plus
    (-1)^p times the internal differential. So it is a block matrix over
    the levels: block (p, p) is ±diff_p and block (p + 1, p) the
    alternating coface sum."""
    degs = sorted({p + q for p, g in enumerate(sc.levels) for q in g.dims})
    dims, diffs = {}, {}
    for n in degs:
        cols = [g.dim(n - p) for p, g in enumerate(sc.levels)]
        rows = [g.dim(n + 1 - p) for p, g in enumerate(sc.levels)]
        dims[n] = sum(cols)
        if not sum(rows):
            continue
        placed = {}
        for p, g in enumerate(sc.levels):
            if not cols[p]:
                continue
            dm = g.diff(n - p)
            placed[(p, p)] = dm.neg() if p % 2 else dm
            if p < sc.top:
                placed[(p + 1, p)] = _alternating_sum(
                    [sc.face(p + 1, k).mat(n - p) for k in range(p + 2)]
                )
        m = Mat.blocks(rows, cols, placed)
        if not m.is_zero():
            diffs[n] = m
    return ChainComplexQ(dims, diffs)


def _alternating_sum(mats: list) -> Mat:
    """mats[0] - mats[1] + mats[2] - ..."""
    out = mats[0]
    for k in range(1, len(mats)):
        out = out.sub(mats[k]) if k % 2 else out.add(mats[k])
    return out


# --- Cech diagrams of covers -------------------------------------------------


class CoverModel:
    """A finite cover presented by dgLas of sections: one dgLa per
    ascending tuple of opens (the sections on that intersection) and a
    restriction map for every one-step inclusion of tuples.

    sections is keyed by ascending tuples of open indices; restrictions
    by (src_tuple, tgt_tuple) with src obtained from tgt by removing one
    entry. The Cech diagram reads only these one-step maps; the
    compatibility of the two-step squares is what violations() checks.
    """

    __slots__ = ("n_opens", "sections", "restrictions")

    def __init__(self, n_opens: int, sections, restrictions):
        self.n_opens = n_opens
        self.sections = dict(sections)
        self.restrictions = dict(restrictions)

    def tuples(self, p: int) -> list:
        """All ascending (p+1)-tuples of opens."""
        return list(combinations(range(self.n_opens), p + 1))

    def violations(self) -> list:
        out = []
        for T, g in self.sections.items():
            if tuple(sorted(set(T))) != T:
                out.append(f"section key {T} is not an ascending tuple")
            if not isinstance(g, Dgla):
                out.append(f"section {T} is not a dgLa")
        for (src, tgt), m in self.restrictions.items():
            if len(src) + 1 != len(tgt) or not set(src) < set(tgt):
                out.append(f"restriction {src}->{tgt} is not one-step")
                continue
            if m.source is not self.sections.get(src):
                out.append(f"restriction {src}->{tgt} has the wrong source")
            if m.target is not self.sections.get(tgt):
                out.append(f"restriction {src}->{tgt} has the wrong target")
        if out:
            return out
        for p in range(2, self.n_opens):
            for T in self.tuples(p):
                if T not in self.sections:
                    continue
                for a, b in combinations(range(len(T)), 2):
                    Ta = T[:a] + T[a + 1 :]
                    Tb = T[:b] + T[b + 1 :]
                    Tab = tuple(v for i, v in enumerate(T) if i not in (a, b))
                    try:
                        via_a = self.one_step(Ta, T).compose(
                            self.one_step(Tab, Ta)
                        )
                        via_b = self.one_step(Tb, T).compose(
                            self.one_step(Tab, Tb)
                        )
                    except KeyError as e:
                        out.append(f"missing restriction: {e}")
                        continue
                    if not via_a.eq(via_b):
                        out.append(
                            f"restrictions into {T} do not commute"
                        )
        return out

    def one_step(self, src: tuple, tgt: tuple) -> DglaMap:
        m = self.restrictions.get((src, tgt))
        if m is None:
            raise KeyError(f"restriction {src} -> {tgt}")
        return m


def cech_from_cover(cover: CoverModel, depth: int | None = None) -> ScDgla:
    """The Cech diagram of a cover: level p is the direct sum of sections
    over ascending (p+1)-tuples, and the k-th coface into level p sends
    the component at a tuple with its k-th entry removed into the
    component at that tuple by restriction."""
    top = cover.n_opens - 1
    if depth is not None:
        top = min(top, depth)
    tuples = [cover.tuples(p) for p in range(top + 1)]
    levels = [sum_dgla([cover.sections[T] for T in tp], f"cech level {p}")
              for p, tp in enumerate(tuples)]
    cof = {}
    for p in range(1, top + 1):
        degs = set(levels[p - 1].dims) | set(levels[p].dims)
        pos = {S: si for si, S in enumerate(tuples[p - 1])}
        for k in range(p + 1):
            restr = {(ti, pos[S]): cover.one_step(S, T)
                     for ti, T in enumerate(tuples[p]) for S in [T[:k] + T[k + 1 :]]}
            mats = {}
            for d in degs:
                m = Mat.blocks(
                    [cover.sections[T].dim(d) for T in tuples[p]],
                    [cover.sections[S].dim(d) for S in tuples[p - 1]],
                    {key: r.mat(d) for key, r in restr.items()},
                )
                if not m.is_zero():
                    mats[d] = m
            cof[(p, k)] = DglaMap(levels[p - 1], levels[p], mats)
    return ScDgla(levels, cof, label="cech")


# --- element families over the diagram ---------------------------------------


def tw_ctx(sc: ScDgla, artin: ArtinAlgebra, p: int) -> TensorCtx:
    """The tensor context of the level-p component: level-p dgLa, Artin
    coefficients, level-p chart."""
    return TensorCtx(sc.levels[p], artin, level_vars(p))


class TWElem:
    """A family with one form-valued component per diagram level; the
    level-p component lives in the level-p simplex chart. Compatible
    families (face pullbacks matching coface images) form the
    Thom-Whitney totalisation; all operations act componentwise."""

    __slots__ = ("sc", "artin", "comps")

    def __init__(self, sc: ScDgla, artin: ArtinAlgebra, comps):
        comps = list(comps)
        if len(comps) != sc.top + 1:
            raise ScError("one component per level is required")
        for p, c in enumerate(comps):
            if c.ctx.dgla is not sc.levels[p]:
                raise ScError(f"component {p} is over the wrong dgLa")
            if c.ctx.artin is not artin:
                raise ScError(f"component {p} has the wrong coefficients")
            if c.ctx.form_vars != level_vars(p):
                raise ScError(f"component {p} is in the wrong chart")
        self.sc = sc
        self.artin = artin
        self.comps = comps

    @classmethod
    def zero(cls, sc: ScDgla, artin: ArtinAlgebra) -> "TWElem":
        return cls(sc, artin, [tw_ctx(sc, artin, p).zero() for p in range(sc.top + 1)])

    def _chk(self, other: "TWElem"):
        if self.artin is not other.artin or not sc_same(self.sc, other.sc):
            raise ScError("families over different diagrams")

    def add(self, other):
        self._chk(other)
        return TWElem(
            self.sc, self.artin,
            [a.add(b) for a, b in zip(self.comps, other.comps)],
        )

    def eq(self, other) -> bool:
        self._chk(other)
        return all(a.eq(b) for a, b in zip(self.comps, other.comps))

    def d(self) -> "TWElem":
        return TWElem(self.sc, self.artin, [c.d() for c in self.comps])

    def bracket(self, other) -> "TWElem":
        self._chk(other)
        return TWElem(
            self.sc, self.artin,
            [a.bracket(b) for a, b in zip(self.comps, other.comps)],
        )

    def truncate(self, i: int) -> "TWElem":
        return TWElem(self.sc.truncate(i), self.artin, self.comps[: i + 1])

    def is_compatible(self) -> bool:
        """Whether the k-th chart face of each level-n component equals the
        k-th coface image of the level-(n-1) component."""
        for n in range(1, self.sc.top + 1):
            prev = level_vars(n - 1)
            for k in range(n + 1):
                lhs = self.comps[n].form_subst(coface_images(n - k, n), prev)
                if not lhs.eq(self.comps[n - 1].map_lie(self.sc.face(n, k))):
                    return False
        return True


def tw_gauge(lam: TWElem, x: TWElem) -> TWElem:
    """Componentwise gauge action; compatible data stay compatible."""
    lam._chk(x)
    return TWElem(
        x.sc, x.artin,
        [gauge(a, b) for a, b in zip(lam.comps, x.comps)],
    )


def tw_is_mc(x: TWElem) -> bool:
    """Componentwise Maurer-Cartan check (with the full differential)."""
    return all(is_mc(c) for c in x.comps)


class TotElem:
    """An element of the total complex with Artin coefficients: one plain
    component per level (no form variables), the level-p part sitting in
    internal degree (total degree - p) when homogeneous."""

    __slots__ = ("sc", "artin", "comps")

    def __init__(self, sc: ScDgla, artin: ArtinAlgebra, comps):
        comps = list(comps)
        if len(comps) != sc.top + 1:
            raise ScError("one component per level is required")
        for p, c in enumerate(comps):
            if c.ctx.dgla is not sc.levels[p]:
                raise ScError(f"component {p} is over the wrong dgLa")
            if c.ctx.artin is not artin:
                raise ScError(f"component {p} has the wrong coefficients")
            if c.ctx.nforms:
                raise ScError(f"component {p} carries form variables")
        self.sc = sc
        self.artin = artin
        self.comps = comps

    def _chk(self, other):
        if self.artin is not other.artin or not sc_same(self.sc, other.sc):
            raise ScError("elements over different diagrams")

    def eq(self, other) -> bool:
        self._chk(other)
        return all(a.eq(b) for a, b in zip(self.comps, other.comps))

    def d(self) -> "TotElem":
        """Total differential: the level-p output is the alternating coface
        sum of the level-(p-1) input plus (-1)^p times the internal
        differential of the level-p input."""
        out = []
        for p in range(self.sc.top + 1):
            acc = self.comps[p].d().scale(neg_one_pow(p))
            if p >= 1:
                for k in range(p + 1):
                    acc = acc.add(
                        self.comps[p - 1]
                        .map_lie(self.sc.face(p, k))
                        .scale(neg_one_pow(k))
                    )
            out.append(acc)
        return TotElem(self.sc, self.artin, out)


def elem_times_form(e: Elem, form: dict) -> Elem:
    """Right-multiply an element by a scalar polynomial form in the same
    chart (wedge on the form slot, Lie and coefficient slots untouched)."""
    out: dict = {}
    for (deg, idx, am, pm, dm), c in e.terms.items():
        for (fp, fS), fc in form.items():
            r = fkey_mul(pm, dm, fp, fS)
            if r is None:
                continue
            np_, nS, sgn = r
            key = (deg, idx, am, np_, nS)
            v = out.get(key, Q(0)) + c * fc * sgn
            if v == 0:
                out.pop(key, None)
            else:
                out[key] = v
    return Elem(e.ctx, out)


def _sign_slot(p: int, q: int) -> int:
    """The comparison-map sign for a level-p slot of total degree q."""
    return neg_one_pow(p * q + p * (p - 1) // 2)


def integration_map(w: TWElem) -> TotElem:
    """Integrate the top form-degree part of each component over its chart
    simplex (exact Dirichlet integrals), with the standard sign per slot.
    A chain map from families onto the total complex."""
    out = []
    for p in range(w.sc.top + 1):
        ctx0 = TensorCtx(w.sc.levels[p], w.artin, ())
        acc = ctx0.zero()
        full = tuple(range(p))
        for (deg, idx, am, pm, dm), c in w.comps[p].terms.items():
            if dm != full:
                continue
            num = 1
            for e in pm:
                num *= math.factorial(e)
            val = c * Q(num) / Q(math.factorial(p + sum(pm)))
            val *= _sign_slot(p, deg + p)
            acc = acc.add(ctx0.term(deg, idx, val, am, (), ()))
        out.append(acc)
    return TotElem(w.sc, w.artin, out)


def whitney_map(c: TotElem) -> TWElem:
    """Extend a total-complex element to a compatible family using the
    elementary simplex forms: the level-n component collects, over every
    vertex subset S, the image of the level-(|S|-1) input along the
    injection with the reversed vertex set, wedged with the form of S.
    A chain map splitting the integration map."""
    sc, artin = c.sc, c.artin
    comps = []
    for n in range(sc.top + 1):
        ctxn = tw_ctx(sc, artin, n)
        acc = ctxn.zero()
        for p in range(n + 1):
            cp = c.comps[p]
            if cp.is_zero():
                continue
            for S in combinations(range(n + 1), p + 1):
                rev = tuple(sorted(n - s for s in S))
                moved = cp.map_lie(face_map_of_injection(sc, rev, n))
                if moved.is_zero():
                    continue
                form = whitney_form(S, n)
                lifted = embed(moved, level_vars(n), positions=[])
                for m in sorted(moved.total_degrees()):
                    part = lifted.component_total(m)
                    acc = acc.add(
                        elem_times_form(part, form).scale(_sign_slot(p, p + m))
                    )
        comps.append(acc)
    return TWElem(sc, artin, comps)


# --- Maurer-Cartan data of the two-step truncation ---------------------------


class TwTruncMC:
    """A Maurer-Cartan element of the totalisation of the two-step
    truncation, in the canonical decomposed shape:

    - x: Maurer-Cartan element at level 0 (no chart variables);
    - p: level-1 degree-0 polynomial in one variable t, divisible by t
      and with no dt part (the level-1 component is the gauge of the
      0-th coface image of x by p);
    - r: level-2 polynomial in variables (t, s): a degree-0 part with no
      constant term plus a degree -1 part divisible by t and carrying ds
      (the level-2 component is the gauge of the common corner by r).

    The four face conditions tie the data together; see tw_mc_verify.
    """

    __slots__ = ("sc", "artin", "x", "p", "r")

    def __init__(self, sc: ScDgla, artin: ArtinAlgebra, x: Elem, p: Elem, r: Elem):
        self.sc = sc
        self.artin = artin
        self.x = x
        self.p = p
        self.r = r


def _mvalued(e: Elem) -> bool:
    A = e.ctx.artin
    return all(A.level(k[2]) >= 1 for k in e.terms)


def tw_mc_shape_violations(e: TwTruncMC) -> list:
    out = []
    sc = e.sc
    if sc.top < 2:
        out.append("the diagram must have levels 0..2")
        return out
    if e.x.ctx.dgla is not sc.levels[0] or e.x.ctx.nforms != 0:
        out.append("base element must be a plain level-0 element")
    if e.p.ctx.dgla is not sc.levels[1] or e.p.ctx.form_vars != ("t",):
        out.append("edge polynomial must be a level-1 element in one variable t")
    if e.r.ctx.dgla is not sc.levels[2] or e.r.ctx.form_vars != ("t", "s"):
        out.append("triangle polynomial must be a level-2 element in (t, s)")
    if out:
        return out
    for el, what in ((e.x, "base"), (e.p, "edge"), (e.r, "triangle")):
        if el.ctx.artin is not e.artin:
            out.append(f"{what} element has the wrong coefficients")
        elif not _mvalued(el):
            out.append(f"{what} element must take maximal-ideal coefficients")
    if not all(k[0] == 1 for k in e.x.terms):
        out.append("base element must be homogeneous of degree 1")
    elif not is_mc(e.x):
        out.append("base element is not Maurer-Cartan")
    for (deg, _idx, _am, pm, dm), _c in e.p.terms.items():
        if deg != 0 or dm != () or pm[0] < 1:
            out.append("edge polynomial must be degree 0, divisible by t, no dt")
            break
    for (deg, _idx, _am, pm, dm), _c in e.r.terms.items():
        good0 = deg == 0 and dm == () and pm != (0, 0)
        good1 = deg == -1 and dm == (1,) and pm[0] >= 1
        if not (good0 or good1):
            out.append(
                "triangle polynomial must be a degree-0 part without constant"
                " term plus a degree -1 part divisible by t carrying ds"
            )
            break
    return out


def tw_mc_conditions(e: TwTruncMC) -> list:
    """The four face conditions, each evaluated exactly:

    1. the 1st coface image of x is the gauge of the 0th by p(1);
    2. the 0th coface image of p matches r on the edge t = 0 (with the
       remaining variable renamed);
    3. the 1st coface image of p matches r on the edge s = 0;
    4. along the diagonal edge, the loop composed of the 2nd coface image
       of p, r restricted to (t, 1-t), and the corner value r(0,1) fixes
       the common corner for every t.
    """
    sc = e.sc
    f = sc.face
    x0 = e.x.map_lie(f(1, 0))
    x1 = e.x.map_lie(f(1, 1))
    c1 = gauge(e.p.subs_values({0: 1}), x0).eq(x1)

    lhs2 = e.p.map_lie(f(2, 0))
    rhs2 = embed(e.r.subs_values({0: 0}), ("t",))
    c2 = lhs2.eq(rhs2)

    lhs3 = e.p.map_lie(f(2, 1))
    rhs3 = e.r.subs_values({1: 0})
    c3 = lhs3.eq(rhs3)

    p22 = e.p.map_lie(f(2, 2))
    rdiag = e.r.form_subst([f_var(0, 1), f_sub(f_const(1, 1), f_var(0, 1))], ("t",))
    r01 = embed(e.r.subs_values({0: 0, 1: 1}), ("t",), positions=[])
    corner = embed(x0.map_lie(f(2, 2)), ("t",), positions=[])
    loop = bch_many([p22.neg(), rdiag, r01.neg()])
    c4 = gauge(loop, corner).eq(corner)
    return [c1, c2, c3, c4]


def tw_mc_verify(e: TwTruncMC) -> dict:
    """Report on the canonical shape and the four face conditions."""
    shape = tw_mc_shape_violations(e)
    if shape:
        return {"ok": False, "shape": shape, "conditions": []}
    conds = tw_mc_conditions(e)
    return {"ok": all(conds), "shape": [], "conditions": conds}


def tw_mc_to_element(e: TwTruncMC) -> TWElem:
    """The genuine compatible family of the triple over the two-step
    truncation: level 0 is x, level 1 the gauge of the 0th coface image
    by p, level 2 the gauge of the common corner by r read in the
    standard chart (swapping (t, s) to (t2, t1))."""
    sc2 = e.sc.truncate(2)
    f = e.sc.face
    x0 = e.x.map_lie(f(1, 0))
    xi1 = gauge(embed(e.p, level_vars(1)), embed(x0, level_vars(1), positions=[]))
    corner = embed(x0.map_lie(f(2, 0)), level_vars(2), positions=[])
    r_std = embed(e.r, level_vars(2), positions=[1, 0])
    xi2 = gauge(r_std, corner)
    return TWElem(sc2, e.artin, [e.x, xi1, xi2])


def tw_mc_from_element(w: TWElem) -> TwTruncMC:
    """Decompose a compatible Maurer-Cartan family over the two-step
    truncation into its canonical triple (inverse of tw_mc_to_element).
    The family is taken as compatible and Maurer-Cartan, as random_tw_mc
    builds it; tw_is_mc and TWElem.is_compatible check that."""
    from .mcgauge import decompose_path, decompose_square

    sc = w.sc
    if sc.top != 2:
        raise ScError("expected a family over levels 0..2")
    f = sc.face
    x = w.comps[0]
    x0 = x.map_lie(f(1, 0))
    p = embed(decompose_path(x0, w.comps[1]), ("t",))
    corner = x0.map_lie(f(2, 0))
    xi2_paper = embed(w.comps[2], ("t", "s"), positions=[1, 0])
    r = decompose_square(corner, xi2_paper)
    return TwTruncMC(sc, x.ctx.artin, x, p, r)


# --- the groupoid of descent data --------------------------------------------


class TotDelObject:
    """Descent data glued from the levelwise Deligne groupoids: a
    Maurer-Cartan element l at level 0, a degree-0 gluing m at level 1
    with the gauge of the 0th coface image of l by m equal to the 1st,
    and a degree -1 coherence witness u at level 2 trivialising the
    cocycle of m (absent when the diagram stops below level 2)."""

    __slots__ = ("sc", "artin", "l", "m", "u")

    def __init__(self, sc, artin, l, m, u=None):
        self.sc = sc
        self.artin = artin
        self.l = l
        self.m = m
        self.u = u

    def eq(self, other: "TotDelObject") -> bool:
        if self.artin is not other.artin or not sc_same(self.sc, other.sc):
            return False
        same = self.l.eq(other.l) and self.m.eq(other.m)
        if self.u is None or other.u is None:
            return same and self.u is other.u
        return same and self.u.eq(other.u)


def totdel_cocycle(sc: ScDgla, m: Elem) -> Elem:
    """The level-2 gluing cocycle of m: the product (in the group sense)
    of the 0th coface image, the inverse of the 1st, and the 2nd."""
    f = sc.face
    return bch_many(
        [m.map_lie(f(2, 0)), m.map_lie(f(2, 1)).neg(), m.map_lie(f(2, 2))]
    )


def totdel_verify(o: TotDelObject) -> dict:
    """Exact verification of the two object invariants."""
    sc = o.sc
    f = sc.face
    bad = []
    if not all(k[0] == 1 for k in o.l.terms) or not _mvalued(o.l):
        bad.append("level-0 element must be degree 1 over the maximal ideal")
    elif not is_mc(o.l):
        bad.append("level-0 element is not Maurer-Cartan")
    if not all(k[0] == 0 for k in o.m.terms) or not _mvalued(o.m):
        bad.append("gluing must be degree 0 over the maximal ideal")
    if bad:
        return {"ok": False, "violations": bad}
    if not gauge(o.m, o.l.map_lie(f(1, 0))).eq(o.l.map_lie(f(1, 1))):
        bad.append("gauge of the 0th coface image of l by m is not the 1st")
    if sc.top >= 2:
        if o.u is None:
            bad.append("a level-2 coherence witness is required")
        else:
            if not all(k[0] == -1 for k in o.u.terms) or not _mvalued(o.u):
                bad.append("witness must be degree -1 over the maximal ideal")
            else:
                base = o.l.map_lie(f(1, 0)).map_lie(f(2, 2))
                if not totdel_cocycle(sc, o.m).eq(stabilizer_log(base, o.u)):
                    bad.append("witness does not trivialise the cocycle")
    return {"ok": not bad, "violations": bad}


def totdel_assemble(sc, l: Elem, m: Elem, u: Elem | None = None) -> TotDelObject:
    """Build descent data; when the witness is omitted it is found by a
    linear solve (failure means the gluing is incoherent at level 2).
    The invariants are not checked here; see totdel_verify."""
    artin = l.ctx.artin
    if u is None and sc.top >= 2:
        f = sc.face
        base = l.map_lie(f(1, 0)).map_lie(f(2, 2))
        u = extract_irrelevant(base, totdel_cocycle(sc, m))
        if u is None:
            raise ScError(
                "the gluing cocycle admits no degree -1 witness at level 2"
            )
    return TotDelObject(sc, artin, l, m, u)


class TotDelMorphism:
    """A morphism of descent data: a level-0 degree-0 element a with the
    gauge of the source onto the target, plus a level-1 degree -1
    witness b trivialising the gluing defect. The class of a up to the
    inessential stabiliser of the source is the actual morphism."""

    __slots__ = ("source", "target", "a", "b")

    def __init__(self, source, target, a, b):
        self.source = source
        self.target = target
        self.a = a
        self.b = b


def totdel_mor_defect(f_: TotDelMorphism) -> Elem:
    """The level-1 gluing defect of the underlying gauge log: the group
    word inverse(m0) * inverse(1st coface image of a) * m1 * (0th coface
    image of a)."""
    sc = f_.source.sc
    fc = sc.face
    return bch_many(
        [
            f_.source.m.neg(),
            f_.a.map_lie(fc(1, 1)).neg(),
            f_.target.m,
            f_.a.map_lie(fc(1, 0)),
        ]
    )


def totdel_mor_verify(f_: TotDelMorphism) -> dict:
    bad = []
    o0, o1 = f_.source, f_.target
    sc = o0.sc
    if not all(k[0] == 0 for k in f_.a.terms) or not _mvalued(f_.a):
        bad.append("underlying element must be degree 0 over the maximal ideal")
    if not all(k[0] == -1 for k in f_.b.terms) or not _mvalued(f_.b):
        bad.append("witness must be degree -1 over the maximal ideal")
    if bad:
        return {"ok": False, "violations": bad}
    if not gauge(f_.a, o0.l).eq(o1.l):
        bad.append("gauge of the source by a is not the target")
    base = o0.l.map_lie(sc.face(1, 0))
    if not totdel_mor_defect(f_).eq(stabilizer_log(base, f_.b)):
        bad.append("witness does not trivialise the gluing defect")
    return {"ok": not bad, "violations": bad}


def totdel_mor_assemble(
    source: TotDelObject, target: TotDelObject, a: Elem, b: Elem | None = None
) -> TotDelMorphism:
    """Build a morphism; when the witness is omitted it is found by a
    linear solve (failure means a does not respect the gluings). The
    morphism conditions are not checked here; see totdel_mor_verify."""
    if b is None:
        sc = source.sc
        base = source.l.map_lie(sc.face(1, 0))
        probe = TotDelMorphism(source, target, a, None)
        b = extract_irrelevant(base, totdel_mor_defect(probe))
        if b is None:
            raise ScError("the gluing defect admits no degree -1 witness")
    return TotDelMorphism(source, target, a, b)


def totdel_identity(o: TotDelObject) -> TotDelMorphism:
    ctx0 = o.l.ctx
    ctx1 = o.m.ctx
    return TotDelMorphism(o, o, ctx0.zero(), ctx1.zero())


def totdel_compose(f_: TotDelMorphism, g_: TotDelMorphism) -> TotDelMorphism:
    """Composite (f after g): the underlying element is the group log of
    the product, the witness is recomputed by a linear solve. Existence
    of the witness is guaranteed for morphisms of valid data; failure is
    an internal inconsistency."""
    if not f_.source.eq(g_.target):
        raise ScError("morphisms are not composable")
    from .mcgauge import bch

    a = bch(f_.a, g_.a)
    try:
        return totdel_mor_assemble(g_.source, f_.target, a)
    except ScError as e:
        raise ScError(f"internal inconsistency composing morphisms: {e}")


def totdel_invert(f_: TotDelMorphism) -> TotDelMorphism:
    return totdel_mor_assemble(f_.target, f_.source, f_.a.neg())


def totdel_mor_equal(f_: TotDelMorphism, g_: TotDelMorphism) -> bool:
    """Morphisms agree when they share endpoints and their underlying
    elements differ by an inessential stabiliser of the source."""
    if not (f_.source.eq(g_.source) and f_.target.eq(g_.target)):
        return False
    return morphism_equal(f_.source.l, f_.a, g_.a)
