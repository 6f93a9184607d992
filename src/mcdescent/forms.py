"""Polynomial differential forms with rational coefficients.

A form in variables v_1..v_n is a dict {(pmono, dmask): coeff} where pmono
is the exponent tuple of the polynomial part and dmask the sorted tuple of
variable indices whose differentials appear (so dmask = (0, 2) stands for
dv_1 ^ dv_3). Differentials anticommute; the sorted mask is the canonical
order and products carry the shuffle sign.

The same key algebra drives both scalar forms here and the form slot of
Lie-algebra tensors. On the standard simplex the chart is v_i = t_i with
t_i >= 0, sum t_i <= 1; vertex 0 sits at the origin. Integration is exact
via the Dirichlet integral formula.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .ratio import ZERO, Q, rat

FKey = tuple  # (pmono tuple, dmask tuple sorted ascending)


# --- key-level operations (shared with the tensor element type) -----------


@lru_cache(maxsize=None)
def fkey_mul(p1, S1, p2, S2):
    """Multiply two form keys. Returns (pmono, dmask, sign) or None.
    Memoised: the keys are small tuples, and few distinct ones occur."""
    if set(S1) & set(S2):
        return None
    # shuffle sign: count inversions between S1 and S2
    inv = 0
    for a in S1:
        for b in S2:
            if a > b:
                inv += 1
    merged = tuple(sorted(S1 + S2))
    p = tuple(x + y for x, y in zip(p1, p2, strict=True))
    return p, merged, (-1) ** inv


@lru_cache(maxsize=None)
def fkey_d(p, S):
    """Exterior derivative of a key: a tuple of (int_coeff, pmono, dmask).
    Memoised like fkey_mul."""
    out = []
    for i, e in enumerate(p):
        if e == 0 or i in S:
            continue
        # dv_i moved into ascending position inside S u {i}
        sign = (-1) ** sum(1 for j in S if j < i)
        np = p[:i] + (e - 1,) + p[i + 1 :]
        out.append((e * sign, np, tuple(sorted(S + (i,)))))
    return tuple(out)


# --- dict-level scalar form algebra ---------------------------------------


def f_zero() -> dict:
    return {}


def f_add(f: dict, g: dict) -> dict:
    out = dict(f)
    for k, c in g.items():
        v = out.get(k, ZERO) + c
        if v == 0:
            out.pop(k, None)
        else:
            out[k] = v
    return out


def f_scale(c, f: dict) -> dict:
    c = rat(c)
    if not c:
        return {}
    return {k: c * v for k, v in f.items()}


def f_sub(f: dict, g: dict) -> dict:
    return f_add(f, f_scale(-1, g))


def f_const(c, nvars: int) -> dict:
    c = rat(c)
    if c == 0:
        return {}
    return {((0,) * nvars, ()): c}


def f_var(i: int, nvars: int) -> dict:
    p = [0] * nvars
    p[i] = 1
    return {(tuple(p), ()): Q(1)}


def f_mul(f: dict, g: dict) -> dict:
    out: dict = {}
    for (p1, S1), c1 in f.items():
        for (p2, S2), c2 in g.items():
            r = fkey_mul(p1, S1, p2, S2)
            if r is None:
                continue
            p, S, sg = r
            v = out.get((p, S), ZERO) + sg * c1 * c2
            if v == 0:
                out.pop((p, S), None)
            else:
                out[(p, S)] = v
    return out


def f_d(f: dict) -> dict:
    out: dict = {}
    for (p, S), c in f.items():
        for m, np, nS in fkey_d(p, S):
            v = out.get((np, nS), ZERO) + m * c
            if v == 0:
                out.pop((np, nS), None)
            else:
                out[(np, nS)] = v
    return out


def poly_pow(f: dict, e: int, nvars: int) -> dict:
    out = f_const(1, nvars)
    for _ in range(e):
        out = f_mul(out, f)
    return out


def f_subst(f: dict, images: list, tgt_nvars: int) -> dict:
    """Substitute v_i := images[i] (a polynomial form with no differentials,
    given as a dict in tgt_nvars variables); dv_i becomes d(images[i])."""
    d_imgs = [f_d(img) for img in images]
    out: dict = {}
    cache: dict = {}
    for (p, S), c in f.items():
        if p in cache:
            poly = cache[p]
        else:
            poly = f_const(1, tgt_nvars)
            for i, e in enumerate(p):
                if e:
                    poly = f_mul(poly, poly_pow(images[i], e, tgt_nvars))
            cache[p] = poly
        term = poly
        for i in S:
            term = f_mul(term, d_imgs[i])
        out = f_add(out, f_scale(c, term))
    return out


def f_eval(f: dict, point: list) -> "Q":
    """Evaluate the 0-form part at a rational point (differentials -> 0)."""
    total = Q(0)
    for (p, S), c in f.items():
        if S:
            continue
        v = c
        for x, e in zip(point, p, strict=True):
            v *= rat(x) ** e
        total += v
    return total


# --- simplex structure -----------------------------------------------------


def simplex_coord(i: int, n: int) -> dict:
    """Affine coordinate x_i on the n-simplex: x_0 = 1 - sum t, x_i = t_i."""
    if i == 0:
        out = f_const(1, n)
        for j in range(n):
            out = f_sub(out, f_var(j, n))
        return out
    return f_var(i - 1, n)


def simplex_dcoord(i: int, n: int) -> dict:
    return f_d(simplex_coord(i, n))


def coface_images(j: int, n: int) -> list:
    """Substitution images for the pullback along the coface that embeds the
    (n-1)-simplex into the n-simplex missing vertex j. Entry i is the image
    of t_{i+1} as a polynomial in the (n-1)-chart."""
    if not (0 <= j <= n):
        raise ValueError("coface index out of range")
    m = n - 1
    images = []
    if j == 0:
        # t_1 = 1 - sum s, t_k = s_{k-1} for k >= 2
        first = f_const(1, m)
        for i in range(m):
            first = f_sub(first, f_var(i, m))
        images.append(first)
        for k in range(2, n + 1):
            images.append(f_var(k - 2, m))
    else:
        for i in range(1, n + 1):
            if i < j:
                images.append(f_var(i - 1, m))
            elif i == j:
                images.append(f_zero())
            else:
                images.append(f_var(i - 2, m))
    return images


def coface_pullback(j: int, n: int, f: dict) -> dict:
    """(d^j)^*: forms on the n-simplex -> forms on the (n-1)-simplex."""
    return f_subst(f, coface_images(j, n), n - 1)


def face_form(k: int, n: int, f: dict) -> dict:
    """k-th face operator on forms: the pullback along the coface missing
    vertex n-k. For n = 1 this gives face 0 = evaluation at 0 and face 1 =
    evaluation at 1."""
    return coface_pullback(n - k, n, f)


def integrate_simplex(f: dict, n: int) -> "Q":
    """Exact integral of the top-degree part over the standard n-simplex,
    in the orientation dt_1 ^ ... ^ dt_n."""
    if n == 0:
        return f_eval(f, [])
    full = tuple(range(n))
    total = Q(0)
    for (p, S), c in f.items():
        if S != full:
            continue
        num = 1
        for e in p:
            num *= math.factorial(e)
        total += c * Q(num) / Q(math.factorial(n + sum(p)))
    return total


def whitney_form(S, n: int) -> dict:
    """Elementary Whitney form for a vertex subset S of the n-simplex:
    k! * sum_j (-1)^j x_{i_j} dx_{i_0} ^ ... omit j ... ^ dx_{i_k}."""
    S = tuple(sorted(S))
    if not S or any(not 0 <= i <= n for i in S) or len(set(S)) != len(S):
        raise ValueError("vertex subset must be nonempty distinct in 0..n")
    k = len(S) - 1
    out = f_zero()
    for j, ij in enumerate(S):
        term = simplex_coord(ij, n)
        for l, il in enumerate(S):
            if l == j:
                continue
            term = f_mul(term, simplex_dcoord(il, n))
        out = f_add(out, f_scale((-1) ** j, term))
    return f_scale(math.factorial(k), out)
