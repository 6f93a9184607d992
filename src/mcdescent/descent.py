"""Descent between the Deligne groupoid of a totalisation and the
totalised groupoid of a diagram of dgLas.

The two directions are implemented constructively: descending takes a
Maurer-Cartan family in the Thom-Whitney totalisation to glued groupoid
data by evaluating the one-variable path at its endpoint and solving a
linear equation for the coherence witness; lifting rebuilds a family
from glued data by explicit polynomial interpolation. The negative
cohomology hypotheses under which these are mutually inverse up to
isomorphism are checked exactly, and the square-zero comparison of
orbit sets is computed as honest linear algebra on both sides.
"""

from __future__ import annotations

from .artin import ArtinAlgebra, ArtinMorphism
from .dgla import Elem, elem_base_change
from .linalg import Mat, Subspace
from .mcgauge import (
    bch,
    bch_many,
    decompose_path,
    gauge,
    is_mc,
    embed,
    stabilizer_log,
)
from .ratio import Q
from .semicosimplicial import (
    ScDgla,
    ScError,
    TotDelObject,
    TotDelMorphism,
    TWElem,
    TwTruncMC,
    _mvalued,
    elem_times_form,
    total_complex,
    totdel_assemble,
    tw_mc_from_element,
)


class DescentError(ScError):
    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


# --- hypothesis checking ----------------------------------------------------


def check_hypothesis(sc: ScDgla) -> dict:
    """Exact negative-degree cohomology of every level, with two flags:
    strong means all negative cohomology vanishes; weak means level n is
    allowed negative cohomology except in the degrees -n, -n+1, -n+2
    that feed the gluing window (the first only for n >= 1, the second
    for n >= 2, the third for n >= 3)."""
    table = {}
    for i, g in enumerate(sc.levels):
        cx = g.complex()
        for d in cx.degrees():
            if d < 0:
                h = cx.cohomology(d)[0]
                if h:
                    table[(i, d)] = h
    weak = True
    for i in range(1, sc.top + 1):
        required = {-i}
        if i >= 2:
            required.add(-i + 1)
        if i >= 3:
            required.add(-i + 2)
        if any(table.get((i, d)) for d in required):
            weak = False
    return {"strong": not table, "weak": weak, "table": table}


# --- one-level-deep pairs ---------------------------------------------------


class McPair:
    """A Maurer-Cartan solution together with a one-variable gauge path
    on the next level whose endpoint compares the two face images: the
    level <= 1 window of a compatible family, in decomposed form."""

    __slots__ = ("sc", "artin", "x", "p")

    def __init__(self, sc: ScDgla, artin: ArtinAlgebra, x: Elem, p: Elem):
        if sc.top < 1:
            raise DescentError("a pair needs at least two levels")
        if sc.top > 1:
            sc = sc.truncate(1)
        self.sc = sc
        self.artin = artin
        self.x = x
        self.p = p

    def eq(self, other: "McPair") -> bool:
        from .semicosimplicial import sc_same

        return (
            sc_same(self.sc, other.sc)
            and self.artin == other.artin
            and self.x.eq(other.x)
            and self.p.eq(other.p)
        )


def mc_pair_verify(pair: McPair) -> dict:
    sc, x, p = pair.sc, pair.x, pair.p
    shape = []
    if x.ctx.dgla is not sc.levels[0] or x.ctx.form_vars != ():
        shape.append("base point lives in the wrong context")
    if p.ctx.dgla is not sc.levels[1] or p.ctx.form_vars != ("t",):
        shape.append("path lives in the wrong context")
    if not shape:
        if not _mvalued(x) or not _mvalued(p):
            shape.append("coefficients must lie in the maximal ideal")
        if any(k[0] != 1 or k[4] for k in x.terms):
            shape.append("base point must be homogeneous of degree 1")
        if not is_mc(x):
            shape.append("base point fails Maurer-Cartan")
        for k in p.terms:
            if k[0] != 0 or k[4] or k[3][0] < 1:
                shape.append("path must be degree 0 and vanish at the origin")
                break
    condition = False
    if not shape:
        x0 = x.map_lie(pair.sc.face(1, 0))
        x1 = x.map_lie(pair.sc.face(1, 1))
        condition = gauge(p.subs_values({0: 1}), x0).eq(x1)
    return {"ok": not shape and condition, "shape": shape, "condition": condition}


# --- the descent functors on objects ----------------------------------------


def phi1_obj(pair: McPair) -> TotDelObject:
    """Evaluate the comparison path at its endpoint: the glued object
    (base point, endpoint gauge)."""
    m = pair.p.subs_values({0: 1})
    return totdel_assemble(pair.sc, pair.x, m)


def phi1_essential_lift(o: TotDelObject) -> McPair:
    """The straight-line lift: the path is the gluing log scaled by the
    chart variable, so its endpoint returns the object on the nose."""
    sc = o.sc if o.sc.top == 1 else o.sc.truncate(1)
    p = elem_times_form(embed(o.m, ("t",)), {((1,), ()): Q(1)})
    return McPair(sc, o.artin, o.l, p)


def phi2_obj(e: TwTruncMC) -> TotDelObject:
    """Descend a two-level-deep decomposed family: evaluate the path at
    its endpoint and solve for the coherence witness, whose existence
    is guaranteed by the face conditions (see tw_mc_verify)."""
    m = e.p.subs_values({0: 1})
    return totdel_assemble(e.sc, e.x, m)


def phi_descend(w: TWElem, require_hypothesis: bool = True) -> TotDelObject:
    """Full descent of a compatible Maurer-Cartan family: truncate to the
    two-level window, decompose into canonical polynomial data, then
    glue. Refuses diagrams whose negative cohomology breaks the
    equivalence unless explicitly overridden."""
    rep = check_hypothesis(w.sc)
    if require_hypothesis and not (rep["strong"] or rep["weak"]):
        raise DescentError(
            "descent refused: negative cohomology violates the hypothesis",
            report=rep,
        )
    if w.sc.top > 2:
        w = w.truncate(2)
    if w.sc.top < 2:
        raise DescentError("descent needs at least three levels")
    return phi2_obj(tw_mc_from_element(w))


# --- essential surjectivity at depth two ------------------------------------


def _split_dt(e: Elem):
    """Split a one-variable element into its plain part and the
    coefficient of the variable's differential."""
    plain = {}
    diff = {}
    for (deg, idx, am, pm, dm), c in e.terms.items():
        if dm == ():
            plain[(deg, idx, am, pm, dm)] = c
        elif dm == (0,):
            diff[(deg, idx, am, pm, ())] = c
        else:
            raise DescentError("unexpected form part in a one-variable element")
    return Elem(e.ctx, plain), Elem(e.ctx, diff)


def _div_var0(e: Elem, divisor: list) -> Elem:
    """Exact division of every coefficient polynomial in the first form
    variable by the ascending-coefficient divisor."""
    slots = {}
    for (deg, idx, am, pm, dm), c in e.terms.items():
        slots.setdefault((deg, idx, am, dm), {})[pm[0]] = c
    top = max(i for i, c in enumerate(divisor) if c)
    lead = Q(divisor[top])
    out = {}
    for (deg, idx, am, dm), poly in slots.items():
        poly = dict(poly)
        while poly:
            k = max(poly)
            if k < top:
                raise DescentError("inexact polynomial division in the lift")
            q = poly[k] / lead
            out[(deg, idx, am, (k - top,) + (0,) * (len(e.ctx.form_vars) - 1), dm)] = q
            for i, c in enumerate(divisor):
                if c:
                    v = poly.get(k - top + i, Q(0)) - q * Q(c)
                    if v == 0:
                        poly.pop(k - top + i, None)
                    else:
                        poly[k - top + i] = v
    return Elem(e.ctx, out)


def tw_lift(o: TotDelObject) -> TwTruncMC:
    """Lift a glued object to a decomposed two-level family.

    The base point is the object's solution and the path is its gluing
    log scaled by the chart variable. The square component starts from
    the product of the two pulled-back edge paths; that ansatz already
    matches both edge conditions, and its holonomy along the third face
    is corrected by an explicitly interpolated gauge so that the loop
    becomes the flow of the coherence witness, which stabilises the
    corner for every parameter value. All data stays polynomial and the
    construction is division-exact by design."""
    if o.sc.top < 2:
        raise DescentError("lifting needs three levels of the diagram")
    sc = o.sc if o.sc.top == 2 else o.sc.truncate(2)
    l, m, u = o.l, o.m, o.u
    if u is None:
        raise DescentError("the object is missing its coherence witness")
    x = l
    p = elem_times_form(embed(m, ("t",)), {((1,), ()): Q(1)})

    m0 = m.map_lie(sc.face(2, 0))
    m1 = m.map_lie(sc.face(2, 1))
    m2 = m.map_lie(sc.face(2, 2))
    corner = l.map_lie(sc.face(1, 0)).map_lie(sc.face(2, 2))

    one_t = ("t",)
    two_ts = ("t", "s")
    # naive square: both edge paths multiplied, matching the two edges
    r0 = bch(
        elem_times_form(embed(m0, two_ts), {((0, 1), ()): Q(1)}),
        elem_times_form(embed(m1, two_ts), {((1, 0), ()): Q(1)}),
    )
    # holonomy of the naive square along the third face
    t_m2 = elem_times_form(embed(m2, one_t), {((1,), ()): Q(1)})
    r0_diag = bch(
        elem_times_form(embed(m0, one_t), {((0,), ()): Q(1), ((1,), ()): Q(-1)}),
        elem_times_form(embed(m1, one_t), {((1,), ()): Q(1)}),
    )
    lam0 = bch_many([t_m2.neg(), r0_diag, embed(m0, one_t).neg()])
    # target holonomy: the witness flow along a ramp that is flat at both
    # ends, so the correction vanishes to first order there
    ramp = {((2,), ()): Q(3), ((3,), ()): Q(-2)}
    u_ramp = elem_times_form(embed(u.neg(), one_t), ramp)
    rho = stabilizer_log(embed(corner, one_t), u_ramp)
    sigma_diag = bch_many([t_m2, rho, lam0.neg(), t_m2.neg()])
    alpha, beta = _split_dt(sigma_diag)
    gamma = _div_var0(alpha, [0, 1, -1])  # alpha / (t - t^2)
    beta_red = _div_var0(beta, [0, 1])  # beta / t
    sigma = elem_times_form(embed(gamma, two_ts), {((1, 1), ()): Q(1)}).add(
        elem_times_form(embed(beta_red, two_ts), {((1, 0), (1,)): Q(-1)})
    )
    r = bch(sigma, r0)
    return TwTruncMC(sc, x.ctx.artin, x, p, r)


# --- fullness: the lifted homotopy -------------------------------------------


class GaugeHomotopy:
    """A one-parameter family of pairs: a path of base points together
    with a square of comparison paths, forming a homotopy between its
    two endpoint pairs."""

    __slots__ = ("sc", "artin", "z0", "z1")

    def __init__(self, sc: ScDgla, artin: ArtinAlgebra, z0: Elem, z1: Elem):
        if sc.top < 1:
            raise DescentError("a homotopy needs at least two levels")
        if sc.top > 1:
            sc = sc.truncate(1)
        self.sc = sc
        self.artin = artin
        self.z0 = z0
        self.z1 = z1


def homotopy_verify(h: GaugeHomotopy) -> dict:
    bad = []
    sc = h.sc
    if h.z0.ctx.dgla is not sc.levels[0] or h.z0.ctx.form_vars != ("xi",):
        bad.append("base family lives in the wrong context")
    if h.z1.ctx.dgla is not sc.levels[1] or h.z1.ctx.form_vars != ("xi", "t"):
        bad.append("comparison family lives in the wrong context")
    if bad:
        return {"ok": False, "violations": bad}
    if not (_mvalued(h.z0) and _mvalued(h.z1)):
        bad.append("coefficients must lie in the maximal ideal")
    if not is_mc(h.z0):
        bad.append("base family fails Maurer-Cartan")
    if not is_mc(h.z1):
        bad.append("comparison family fails Maurer-Cartan")
    d01 = sc.face(1, 0)
    d11 = sc.face(1, 1)
    if not h.z1.subs_values({1: 0}).eq(h.z0.map_lie(d01)):
        bad.append("comparison family does not start at the zeroth face")
    if not h.z1.subs_values({1: 1}).eq(h.z0.map_lie(d11)):
        bad.append("comparison family does not end at the first face")
    return {"ok": not bad, "violations": bad}


def homotopy_endpoint(h: GaugeHomotopy, value) -> McPair:
    """The pair at a parameter value, with the comparison path put back
    into decomposed polynomial form."""
    x = h.z0.subs_values({0: value})
    fam = h.z1.subs_values({0: value})
    p = decompose_path(x.map_lie(h.sc.face(1, 0)), fam)
    return McPair(h.sc, h.artin, x, p)


def phi1_full_lift(f: TotDelMorphism) -> GaugeHomotopy:
    """Lift a glued morphism with witness to a homotopy of pairs: the
    base points flow along the morphism log, and the comparison paths
    interpolate through the witness flow (see homotopy_verify)."""
    src = f.source
    sc = src.sc if src.sc.top == 1 else src.sc.truncate(1)
    xi = ("xi",)
    xit = ("xi", "t")
    a_xi = elem_times_form(embed(f.a, xi), {((1,), ()): Q(1)})
    b_xi = elem_times_form(embed(f.b, xi), {((1,), ()): Q(1)})
    l0 = embed(src.l, xi)
    z0 = gauge(a_xi, l0)
    d01 = sc.face(1, 0)
    d11 = sc.face(1, 1)
    sa0 = a_xi.map_lie(d01)
    sa1 = a_xi.map_lie(d11)
    wit = stabilizer_log(l0.map_lie(d01), b_xi)
    w = bch_many([sa1, embed(src.m, xi), wit, sa0.neg()])
    p_log = bch(
        elem_times_form(embed(w, xit), {((0, 1), ()): Q(1)}),
        embed(sa0, xit),
    )
    z1 = gauge(p_log, embed(src.l.map_lie(d01), xit))
    return GaugeHomotopy(sc, src.artin, z0, z1)


def phi1_mor(h: GaugeHomotopy) -> Elem:
    """Descend a homotopy to a morphism log: the canonical logarithm of
    its base-point path, evaluated at the far end."""
    x0 = h.z0.subs_values({0: 0})
    t_log = decompose_path(x0, h.z0)
    return t_log.subs_values({0: 1})


# --- base change -------------------------------------------------------------


def mc_pair_base_change(f: ArtinMorphism, pair: McPair) -> McPair:
    return McPair(
        pair.sc, f.target, elem_base_change(f, pair.x), elem_base_change(f, pair.p)
    )


def totdel_base_change(f: ArtinMorphism, o: TotDelObject) -> TotDelObject:
    return totdel_assemble(
        o.sc,
        elem_base_change(f, o.l),
        elem_base_change(f, o.m),
        elem_base_change(f, o.u) if o.u is not None else None,
    )


# --- square-zero orbit comparison --------------------------------------------


def _glued_systems(sc: ScDgla) -> tuple:
    """The glued side at square zero as two block matrices on (l, m) in
    g0^1 ⊕ g1^0: the object equations, whose kernel is the solution
    space, and the action of (a, b) in g0^0 ⊕ g1^-1, whose column space
    spans the orbit directions."""
    if sc.top < 1:
        raise DescentError("the comparison needs at least two levels")
    g0, g1 = sc.levels[0], sc.levels[1]
    d0, d1 = g0.complex(), g1.complex()
    face_diff_1 = sc.face(1, 1).mat(1).sub(sc.face(1, 0).mat(1))
    eqn_rows = [g0.dim(2), g1.dim(1)]
    eqn_blocks = {(0, 0): d0.diff(1), (1, 0): face_diff_1, (1, 1): d1.diff(0).neg()}
    if sc.top >= 2:
        g2 = sc.levels[2]
        ann = Subspace(g2.dim(0), g2.complex().diff(-1).transpose()).annihilator_matrix()
        cocycle_faces = (
            sc.face(2, 0).mat(0).sub(sc.face(2, 1).mat(0)).add(sc.face(2, 2).mat(0))
        )
        eqn_rows.append(ann.rows)
        eqn_blocks[(2, 1)] = ann @ cocycle_faces
    eqn = Mat.blocks(eqn_rows, (g0.dim(1), g1.dim(0)), eqn_blocks)
    face_diff_0 = sc.face(1, 1).mat(0).sub(sc.face(1, 0).mat(0))
    action = Mat.blocks(
        (g0.dim(1), g1.dim(0)),
        (g0.dim(0), g1.dim(-1)),
        {(0, 0): d0.diff(0), (1, 0): face_diff_0, (1, 1): d1.diff(-1)},
    )
    return eqn, action


def pi0_compare_square_zero(sc: ScDgla, artin: ArtinAlgebra) -> dict:
    """Compare the two orbit sets at square-zero coefficients.

    Both sides are quotients of solution spaces of linear equations by
    linear group actions, so each is described exactly by a pair of
    dimensions. The totalisation side is first cohomology of the total
    complex tensored with the maximal ideal; the glued side is computed
    from the object and morphism equations with all products dropped
    (_glued_systems). Returns the two orbit dimensions and whether they
    agree, {"tot_side": {"pi0_dim"}, "groupoid_side": {"pi0_dim"},
    "isomorphic"}."""
    if not artin.is_square_zero():
        raise DescentError("the comparison is only decided at square zero")
    k = artin.mdim
    tot_pi0 = total_complex(sc).cohomology(1)[0] * k
    eqn, action = _glued_systems(sc)
    sol_space = Subspace(eqn.cols, eqn.kernel_basis())
    act_space = Subspace(eqn.cols, action.transpose())
    if not sol_space.contains_space(act_space):
        raise DescentError("internal inconsistency: the action leaves the solutions")
    del_pi0 = (sol_space.dim - act_space.dim) * k
    return {"tot_side": {"pi0_dim": tot_pi0}, "groupoid_side": {"pi0_dim": del_pi0},
            "isomorphic": tot_pi0 == del_pi0}
