"""Maurer-Cartan elements, the gauge action, and homotopies.

Everything runs inside tensors L (x) m (x) forms where m is the maximal
ideal of a monomial-quotient Artin ring, so gauge exponentials and the
composition product (Baker-Campbell-Hausdorff) are finite sums. The
composition product starts from log(e^a e^b) in the free associative
algebra on two letters, truncated at the nilpotency index; each word
x1...xk projects to the nested bracket (1/k) [x1,[x2,...,[x_{k-1},xk]]]
(valid because the logarithm is a Lie element). For arguments of degree
0, [x, x] = 0 and [y, x] = -[x, y], so the words collapse onto a short
list of distinct nested brackets, computed once per word list and
evaluated inner bracket first, each bracket once.

Paths live in L[t,dt] (one form variable), squares in L[t,s,dt,ds]; both
use the full differential, so a path of gauges acting on a constant object
automatically produces the expected dt-correction terms.

The decomposition solvers write a Maurer-Cartan path (or square) that
starts at x as e^g * x with g in a rigid polynomial shape, solving
-d(delta) = piece level by level in the coefficient filtration. Each shape
unknown is the only one in its own row of that system: L^0 t^p s^q has the
dt row L^0 t^(p-1) s^q dt, or for p = 0 the ds row L^0 s^(q-1) ds;
L^-1 t^p s^q ds has the dt^ds row L^-1 t^(p-1) s^q dt^ds. The system thus
has full column rank, its one solution is read off those rows term by
term, and it is consistent exactly when -d of that delta is the piece.
The final residual is asserted to vanish identically.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .dgla import Elem, TensorCtx, ad
from .linalg import Mat
from .ratio import ZERO, Q, narrow, rat


class GaugeError(ValueError):
    pass


# --- generic linear solving over tensor elements ---------------------------


def elem_linear_solve(map_fn, target: Elem, basis: list):
    """Solve map_fn(sum c_j basis_j) = target for rational c_j.

    map_fn must be linear. Returns the solution element (deterministic:
    particular solution of the reduced system) or None when inconsistent.
    """
    ctx = target.ctx
    if not basis:
        return ctx.zero() if target.is_zero() else None
    images = [map_fn(b) for b in basis]
    keys = set(target.terms)
    for im in images:
        keys |= set(im.terms)
    keys = sorted(keys)
    pos = {k: i for i, k in enumerate(keys)}
    m = Mat(len(keys), len(basis))
    for j, im in enumerate(images):
        for k, c in im.terms.items():
            m.set_entry(pos[k], j, c)
    rhs = Mat(len(keys), 1)
    for k, c in target.terms.items():
        rhs._rows[pos[k]][0] = rat(c)
    sol = m.solve(rhs)
    if sol is None:
        return None
    out: dict = {}
    for row, b in zip(sol._rows, basis, strict=True):
        if row:
            c = row[0]
            for k, v in b.terms.items():
                w = out.get(k, ZERO) + c * v
                if w:
                    out[k] = w
                else:
                    del out[k]
    return Elem.wrap(basis[0].ctx, out)


def lie_basis_elems(ctx: TensorCtx, deg: int, min_level: int = 1) -> list:
    """Basis of L^deg (x) m as constant elements of the context."""
    A = ctx.artin
    if A is None:
        raise GaugeError("a coefficient ring is required")
    out = []
    for am, level in A.levels.items():
        if level < min_level:
            continue
        for idx in range(ctx.dgla.dim(deg)):
            out.append(ctx.term(deg, idx, 1, am))
    return out


# --- Maurer-Cartan basics ---------------------------------------------------


def mc_residual(x: Elem) -> Elem:
    """dx + (1/2)[x, x] with the full differential of the context."""
    return x.d().add(x.bracket(x).scale(Q(1, 2)))


def is_mc(x: Elem) -> bool:
    return mc_residual(x).is_zero()


def _require_gauge_arg(a: Elem, who: str = "gauge argument"):
    A = a.ctx.artin
    if A is None:
        raise GaugeError(f"{who} needs Artin coefficients")
    for (deg, _, am, _, S) in a.terms:
        if deg + len(S) != 0:
            raise GaugeError(f"{who} must have total degree 0")
        if am == A.unit:
            raise GaugeError(f"{who} must lie in the maximal ideal")


def gauge(a: Elem, x: Elem) -> Elem:
    """Gauge action e^a * x = x + sum_n ad_a^n/(n+1)! ([a,x] - da)."""
    _require_gauge_arg(a)
    a._chk(x)
    ad_a = ad(a)
    cur = ad_a(x).sub(a.d())
    out = x
    n = 0
    nu = a.ctx.artin.nu
    while not cur.is_zero():
        if n >= nu:
            raise GaugeError("gauge series failed to terminate")
        out = out.add(cur.scale(Q(1, math.factorial(n + 1))))
        cur = ad_a(cur)
        n += 1
    return out


# --- composition product ----------------------------------------------------


def _word_mul(f: dict, g: dict, maxlen: int) -> dict:
    out: dict = {}
    for w1, c1 in f.items():
        for w2, c2 in g.items():
            if len(w1) + len(w2) > maxlen:
                continue
            w = w1 + w2
            v = out.get(w, ZERO) + c1 * c2
            if v == 0:
                out.pop(w, None)
            else:
                out[w] = v
    return out


@lru_cache(maxsize=None)
def _bch_words(nu: int):
    """Words of log(e^A e^B) in the free associative algebra on letters
    0, 1, truncated to length < nu. Returns ((word, coeff), ...)."""
    maxlen = nu - 1
    if maxlen < 1:
        return ()
    expa = {(0,) * k: Q(1, math.factorial(k)) for k in range(maxlen + 1)}
    expb = {(1,) * k: Q(1, math.factorial(k)) for k in range(maxlen + 1)}
    prod = _word_mul(expa, expb, maxlen)
    u = dict(prod)
    u.pop((), None)
    log: dict = {}
    power = dict(u)
    for m in range(1, maxlen + 1):
        coeff = Q((-1) ** (m + 1), m)
        for w, c in power.items():
            v = log.get(w, ZERO) + coeff * c
            if v == 0:
                log.pop(w, None)
            else:
                log[w] = v
        power = _word_mul(power, u, maxlen)
    return tuple(sorted(log.items()))


@lru_cache(maxsize=None)
def _bch_brackets(nu: int):
    """The words of _bch_words(nu) as distinct nested brackets: words
    ending in two equal letters dropped ([x, x] = 0), a word ending in
    (1, 0) folded onto (..., 0, 1) with its sign flipped ([y, x] = -[x, y]),
    each coefficient divided by its word's length, and equal words
    merged. The words of length 1 are left out: they give a + b.
    Returns ((word, coeff), ...), every word of length >= 2."""
    out: dict = {}
    for w, c in _bch_words(nu):
        if len(w) < 2 or w[-1] == w[-2]:
            continue
        if w[-1] == 0:
            w, c = w[:-2] + (0, 1), -c
        out[w] = out.get(w, ZERO) + c / len(w)
    return tuple((w, c) for w, c in sorted(out.items()) if c)


def bch(a: Elem, b: Elem) -> Elem:
    """Composition product a * b with e^{a*b} = e^a e^b, exact: a + b
    plus the nested brackets of _bch_brackets, each computed once from
    the bracket of its suffix."""
    _require_gauge_arg(a)
    _require_gauge_arg(b)
    a._chk(b)
    pair = (ad(a), ad(b))
    nested = {(0,): a, (1,): b}
    out = a.add(b)
    for w, c in _bch_brackets(a.ctx.artin.nu):
        for i in range(len(w) - 2, -1, -1):
            if w[i:] not in nested:
                nested[w[i:]] = pair[w[i]](nested[w[i + 1:]])
        if nested[w].terms:
            out = out.add(nested[w].scale(c))
    return out


def bch_many(elems: list) -> Elem:
    """Left-to-right composition product of a list of gauge logs."""
    if not elems:
        raise GaugeError("empty product")
    out = elems[0]
    for e in elems[1:]:
        out = bch(out, e)
    return out


# --- stabilizers -------------------------------------------------------------


def stabilizer_log(x: Elem, u: Elem) -> Elem:
    """du + [x, u]: for Maurer-Cartan x this exponentiates into the
    stabilizer of x (the inessential part of the automorphism group)."""
    return u.d().add(x.bracket(u))


def extract_irrelevant(x: Elem, g: Elem):
    """Solve g = du + [x, u] for u in L^{-1} (x) m; None if impossible."""
    basis = lie_basis_elems(x.ctx, -1)
    return elem_linear_solve(lambda u: stabilizer_log(x, u), g, basis)


def morphism_equal(x: Elem, a1: Elem, a2: Elem) -> bool:
    """Equality of gauge morphisms out of x: a2 = a1 * (du + [x,u])."""
    defect = bch(a1.neg(), a2)
    return extract_irrelevant(x, defect) is not None


# --- embeddings between form contexts ----------------------------------------


def embed(x: Elem, new_vars, positions=None) -> Elem:
    """Reinterpret x in a larger form context; positions[i], all
    distinct, says where the i-th old variable goes (default: the
    identity prefix). Each form slot's exponents and differentials move
    to their new positions, with the sign of sorting the moved
    differentials: x.form_subst with one-variable images, read off
    directly."""
    if positions is None:
        positions = range(x.ctx.nforms)
    slots, out = {}, {}
    for (deg, idx, am, pm, S), c in x.terms.items():
        if (pm, S) not in slots:
            npm = [0] * len(new_vars)
            for p, e in zip(positions, pm, strict=True):
                npm[p] = e
            moved = [positions[i] for i in S]
            odd = sum(a > b for k, a in enumerate(moved) for b in moved[k + 1:]) % 2
            slots[pm, S] = tuple(npm), tuple(sorted(moved)), odd
        npm, nS, odd = slots[pm, S]
        out[deg, idx, am, npm, nS] = -c if odd else c
    return Elem.wrap(x.ctx.with_vars(tuple(new_vars)), out)


# --- the shape solvers -------------------------------------------------------


def _level_solve(piece: Elem, monos: list):
    """The delta in the shape with -d(delta) = piece, or None when there is
    none; monos lists the monomials of the piece's coefficient level.

    Each term c of piece in a dt, dt^ds or t^0-ds row names its own delta
    term, since the shape unknown of that row occurs in no other:

        L^0  t^p s^q dt      ->  L^0  t^(p+1) s^q     with -c/(p+1)
        L^-1 t^p s^q dt^ds   ->  L^-1 t^(p+1) s^q ds  with +c/(p+1)
        L^0  s^q ds          ->  L^0  s^(q+1)         with -c/(q+1)

    A path has no s, so only the first row occurs. The read-off is the
    solution when there is one; one d of delta against piece decides.
    delta's terms go by monomial (in monos order), L^0 before L^-1, form
    monomial, index.
    """
    rank = {am: i for i, am in enumerate(monos)}
    found = []
    for (deg, idx, am, pm, S), c in piece.terms.items():
        if deg == 0 and S == (0,):
            e = pm[0] + 1
            pm, S, c = (e,) + pm[1:], (), rat(c) / -e
        elif deg == -1 and S == (0, 1):
            e = pm[0] + 1
            pm, S, c = (e, pm[1]), (1,), rat(c) / e
        elif deg == 0 and S == (1,) and pm[0] == 0:
            e = pm[1] + 1
            pm, S, c = (0, e), (), rat(c) / -e
        else:
            continue
        found.append(((rank[am], -deg, pm, idx), (deg, idx, am, pm, S), narrow(c)))
    found.sort(key=lambda f: f[0])
    delta = Elem.wrap(piece.ctx, {key: c for _, key, c in found})
    if not delta.d().add(piece).is_zero():
        return None
    return delta


def _decompose(x: Elem, xi: Elem) -> Elem:
    A = xi.ctx.artin
    if A is None:
        raise GaugeError("decomposition needs Artin coefficients")
    g = x
    log = xi.ctx.zero()
    for level in range(1, A.nu):
        rho = xi.sub(g)
        if rho.is_zero():
            break
        lvl = rho.min_artin_level()
        if lvl < level:
            raise GaugeError(
                f"residual dropped below the current level ({lvl} < {level})"
            )
        if lvl > level:
            continue
        piece = rho.artin_level_component(level)
        delta = _level_solve(piece, A.monomials_of_level(level))
        if delta is None:
            raise GaugeError(
                f"no shape solution at coefficient level {level}; "
                "the input is not a gauge path out of x"
            )
        log = log.add(delta)
        g = gauge(log, x)
    if not xi.sub(g).is_zero():
        raise GaugeError("decomposition left a nonzero residual")
    return log


def decompose_path(x: Elem, xi: Elem) -> Elem:
    """Write a Maurer-Cartan path xi(t,dt) with xi(0) = x as e^{p(t)} * x.

    x lives in the plain context, xi in a one-variable form context.
    Returns p with every monomial divisible by t and no dt part.
    """
    if xi.ctx.nforms != 1:
        raise GaugeError("expected a one-variable path")
    if not xi.subs_values({0: 0}).eq(x):
        raise GaugeError("path does not start at the given object")
    xe = embed(x, xi.ctx.form_vars, positions=[])
    return _decompose(xe, xi)


def decompose_square(x: Elem, xi: Elem) -> Elem:
    """Write a Maurer-Cartan square xi(t,s,dt,ds) with xi(0,0) = x as
    e^{r} * x with r = r0(t,s) + r1(t,s) t ds, r0 vanishing at the origin.
    """
    if xi.ctx.nforms != 2:
        raise GaugeError("expected a two-variable square")
    if not xi.subs_values({0: 0, 1: 0}).eq(x):
        raise GaugeError("square does not start at the given object")
    xe = embed(x, xi.ctx.form_vars, positions=[])
    return _decompose(xe, xi)


# --- paths (homotopies) -------------------------------------------------------


def path_from_gauge(x: Elem, a: Elem) -> Elem:
    """The line t |-> e^{t a} * x as a Maurer-Cartan path."""
    ctx1 = x.ctx.with_vars(("t",))
    ae = embed(a, ("t",), positions=[])
    # multiply a by the coordinate t
    terms = {}
    for (deg, idx, am, pm, S), c in ae.terms.items():
        terms[(deg, idx, am, (pm[0] + 1,), S)] = c
    ta = Elem(ctx1, terms)
    xe = embed(x, ("t",), positions=[])
    return gauge(ta, xe)


def gauge_from_path(x: Elem, r: Elem) -> Elem:
    """Endpoint gauge of a path: a with e^a * x = r(1), from the canonical
    decomposition r = e^{p(t)} * x."""
    p = decompose_path(x, r)
    return p.subs_values({0: 1})
