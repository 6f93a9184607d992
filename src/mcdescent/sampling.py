"""Seeded random generators for elements, families, and groupoid data.

Every generator takes an explicit random.Random and iterates only over
deterministically ordered structures, so a fixed seed reproduces the
same objects byte for byte. Each basis coefficient is drawn with
probability 1/2, as an integer in [-2, 2].
"""

from __future__ import annotations

import random

from .artin import ArtinAlgebra
from .dgla import Elem, TensorCtx
from .mcgauge import bch_many, gauge, stabilizer_log
from .ratio import Q
from .semicosimplicial import (
    ScDgla,
    TotDelMorphism,
    TotDelObject,
    TotElem,
    TWElem,
    elem_times_form,
    totdel_assemble,
    totdel_mor_assemble,
    tw_ctx,
    tw_gauge,
    whitney_map,
)


def random_elem(ctx: TensorCtx, deg: int, rng: random.Random) -> Elem:
    """Random formless element of one Lie degree with coefficients in the
    maximal ideal."""
    pm = (0,) * ctx.nforms
    terms = {}
    for idx in range(ctx.dgla.dim(deg)):
        for am in ctx.artin.maximal_basis:
            if rng.random() < 0.5:
                c = rng.randint(-2, 2)
                if c:
                    terms[deg, idx, am, pm, ()] = Q(c)
    return Elem.wrap(ctx, terms)


def random_mc(ctx: TensorCtx, rng: random.Random) -> Elem:
    """A guaranteed Maurer-Cartan element: gauge the zero solution by a
    random degree-zero logarithm."""
    return gauge(random_elem(ctx, 0, rng), ctx.zero())


def random_tot_elem(sc: ScDgla, artin: ArtinAlgebra, deg: int, rng: random.Random) -> TotElem:
    comps = []
    for p in range(sc.top + 1):
        ctx = TensorCtx(sc.levels[p], artin, ())
        comps.append(random_elem(ctx, deg - p, rng))
    return TotElem(sc, artin, comps)


def bump_elem(
    sc: ScDgla,
    artin: ArtinAlgebra,
    level: int,
    rng: random.Random,
    deg: int = 0,
) -> Elem:
    """A form-valued element at one chart level whose pullback to every
    face vanishes: a random coefficient times the product of all
    barycentric coordinates of the simplex."""
    n = level
    ctx = tw_ctx(sc, artin, n)
    e = ctx.zero()
    for idx in range(sc.levels[n].dim(deg)):
        for am in artin.maximal_basis:
            if rng.random() < 0.5:
                c = rng.randint(-2, 2)
                if c:
                    e = e.add(ctx.term(deg, idx, c, am, pmono=(1,) * n))
    if n == 0 or e.is_zero():
        return e
    # multiply by 1 - t1 - ... - tn
    poly = {(0,) * n: Q(1)}
    for i in range(n):
        key = tuple(1 if j == i else 0 for j in range(n))
        poly[key] = Q(-1)
    acc = ctx.zero()
    for pm, c in poly.items():
        acc = acc.add(elem_times_form(e, {(pm, ()): c}))
    return acc


def random_compatible_family(
    sc: ScDgla, artin: ArtinAlgebra, deg: int, rng: random.Random
) -> TWElem:
    """A random compatible family of the given total degree: the image of
    a random totalisation element under the comparison map, plus a
    face-vanishing bump at the top level. A bump below the top would
    leak into the compatibility condition one level up through its
    coface image, so only the top level admits one freely."""
    fam = whitney_map(random_tot_elem(sc, artin, deg, rng))
    if sc.top == 0:
        return fam
    comps = list(fam.comps)
    n = sc.top
    if sc.levels[n].dim(deg):
        comps[n] = comps[n].add(bump_elem(sc, artin, n, rng, deg))
    return TWElem(sc, artin, comps)


def random_tw_mc(sc: ScDgla, artin: ArtinAlgebra, rng: random.Random) -> TWElem:
    """A compatible family of Maurer-Cartan solutions: gauge the zero
    family by a random compatible degree-zero family."""
    lam = random_compatible_family(sc, artin, 0, rng)
    return tw_gauge(lam, TWElem.zero(sc, artin))


def random_totdel_object(sc: ScDgla, artin: ArtinAlgebra, rng: random.Random) -> TotDelObject:
    """A glued object read off the diagram alone.

    The local solution is l = gauge(x, 0) for a random degree-zero x in
    the equaliser of the two cofaces into level 1. Cofaces are dgLa
    maps, so both send l to the same element. The gluing log is
    m = du + [l', u] for that image l' and a random level-1 u of degree
    -1: m stabilises l', so the gluing condition holds, and the level-2
    witness solved for it need not vanish."""
    f10, f11 = sc.face(1, 0), sc.face(1, 1)
    ctx = TensorCtx(sc.levels[0], artin, ())
    x = ctx.zero()
    for v in f10.mat(0).sub(f11.mat(0)).kernel_basis()._rows:
        for am in artin.maximal_basis:
            if rng.random() < 0.5:
                c = rng.randint(-2, 2)
                if c:
                    for i, a in sorted(v.items()):
                        x = x.add(ctx.term(0, i, c * a, am))
    l = gauge(x, ctx.zero())
    u = random_elem(TensorCtx(sc.levels[1], artin, ()), -1, rng)
    return totdel_assemble(sc, l, stabilizer_log(l.map_lie(f11), u))


def random_totdel_morphism(sc: ScDgla, o: TotDelObject, rng: random.Random) -> TotDelMorphism:
    """A random morphism out of a glued object: pick a degree-zero gauge
    log, transport the object along it, and package the comparison."""
    a = random_elem(TensorCtx(sc.levels[0], o.artin, ()), 0, rng)
    l1 = gauge(a, o.l)
    m1 = bch_many(
        [a.map_lie(sc.face(1, 1)), o.m, a.map_lie(sc.face(1, 0)).neg()]
    )
    target = totdel_assemble(sc, l1, m1)
    return totdel_mor_assemble(o, target, a)

