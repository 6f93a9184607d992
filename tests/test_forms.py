"""Polynomial forms: exterior algebra, faces, Whitney forms, integration."""

import random

from mcdescent.forms import (
    coface_pullback,
    f_add,
    f_const,
    f_d,
    f_eval,
    f_mul,
    f_scale,
    f_sub,
    f_var,
    face_form,
    integrate_simplex,
    simplex_coord,
    whitney_form,
)
from mcdescent.linalg import vec
from mcdescent.ratio import Q

from dense_views import from_dense_cols


def rand_form(rng, nvars, form_deg, max_exp=2, nterms=3):
    out = {}
    idx = list(range(nvars))
    for _ in range(nterms):
        p = tuple(rng.randint(0, max_exp) for _ in range(nvars))
        S = tuple(sorted(rng.sample(idx, form_deg)))
        c = Q(rng.randint(-4, 4))
        if c:
            out[(p, S)] = out.get((p, S), Q(0)) + c
    return {k: v for k, v in out.items() if v != 0}


def test_wedge_anticommutes():
    dt = f_d(f_var(0, 2))
    ds = f_d(f_var(1, 2))
    assert f_mul(dt, dt) == {}
    assert f_mul(dt, ds) == f_scale(-1, f_mul(ds, dt))
    t = f_var(0, 2)
    assert f_mul(t, dt) == f_mul(dt, t)  # 0-forms are central


def test_d_squared_zero():
    rng = random.Random(2)
    for n in (1, 2, 3):
        for fd in range(n):
            for _ in range(10):
                f = rand_form(rng, n, fd)
                assert f_d(f_d(f)) == {}


def test_d_leibniz():
    rng = random.Random(9)
    for n in (2, 3):
        for _ in range(15):
            fd = rng.randint(0, n - 1)
            gd = rng.randint(0, n - 1)
            f = rand_form(rng, n, fd)
            g = rand_form(rng, n, gd)
            lhs = f_d(f_mul(f, g))
            rhs = f_add(
                f_mul(f_d(f), g), f_scale((-1) ** fd, f_mul(f, f_d(g)))
            )
            assert lhs == rhs


def test_eval_and_arith():
    # (1 - t1)^2 at t1 = 1/3 is 4/9
    f = f_sub(f_const(1, 1), f_var(0, 1))
    f2 = f_mul(f, f)
    assert f_eval(f2, ["1/3"]) == Q(4, 9)
    assert not f_sub(f2, f2)


def test_dirichlet_frozen():
    # t^3 dt on the interval
    f = f_mul(f_mul(f_var(0, 1), f_mul(f_var(0, 1), f_var(0, 1))), f_d(f_var(0, 1)))
    assert integrate_simplex(f, 1) == Q(1, 4)
    # t1 t2 dt1 dt2 on the triangle
    g = f_mul(
        f_mul(f_var(0, 2), f_var(1, 2)), f_mul(f_d(f_var(0, 2)), f_d(f_var(1, 2)))
    )
    assert integrate_simplex(g, 2) == Q(1, 24)
    # volume of the 3-simplex
    vol = f_mul(f_d(f_var(0, 3)), f_mul(f_d(f_var(1, 3)), f_d(f_var(2, 3))))
    assert integrate_simplex(vol, 3) == Q(1, 6)
    # non-top forms integrate to zero
    assert integrate_simplex(f_var(0, 2), 2) == 0


def test_interval_faces_are_endpoint_evaluations():
    # face 0 = value at 0, face 1 = value at 1
    f = f_add(f_var(0, 1), f_const(5, 1))  # t + 5
    assert face_form(0, 1, f) == {((), ()): Q(5)}
    assert face_form(1, 1, f) == {((), ()): Q(6)}
    # differentials die under evaluation
    assert face_form(0, 1, f_d(f_var(0, 1))) == {}


def test_cosimplicial_identity_on_pullbacks():
    # cofaces satisfy d^i d^j = d^j d^{i-1} for i > j, so pullbacks compose
    # the other way around
    rng = random.Random(4)
    n = 2
    for _ in range(10):
        f = rand_form(rng, n + 1, rng.randint(0, 2))
        for j in range(n + 2):
            for i in range(j + 1, n + 2):
                lhs = coface_pullback(j, n, coface_pullback(i, n + 1, f))
                rhs = coface_pullback(i - 1, n, coface_pullback(j, n + 1, f))
                assert lhs == rhs


def test_pullback_is_dga_map():
    rng = random.Random(6)
    for n in (1, 2, 3):
        for j in range(n + 1):
            for _ in range(6):
                f = rand_form(rng, n, rng.randint(0, n - 1))
                g = rand_form(rng, n, rng.randint(0, n - 1))
                pf = coface_pullback(j, n, f)
                pg = coface_pullback(j, n, g)
                assert coface_pullback(j, n, f_mul(f, g)) == f_mul(pf, pg)
                assert coface_pullback(j, n, f_d(f)) == f_d(pf)


def test_stokes_with_alternating_faces():
    # integral of df equals (-1)^n times the alternating face sum
    rng = random.Random(13)
    for n in (1, 2, 3):
        for _ in range(8):
            f = rand_form(rng, n, n - 1)
            lhs = integrate_simplex(f_d(f), n)
            rhs = Q(0)
            for k in range(n + 1):
                rhs += (-1) ** k * integrate_simplex(face_form(k, n, f), n - 1)
            assert lhs == (-1) ** n * rhs


def test_whitney_vertices_and_volume():
    for n in (1, 2, 3):
        # vertex forms are the affine coordinates, summing to 1
        total = f_const(0, n)
        for i in range(n + 1):
            w = whitney_form([i], n)
            assert w == simplex_coord(i, n)
            total = f_add(total, w)
        assert total == f_const(1, n)
        # the top form has mass exactly 1
        assert integrate_simplex(whitney_form(range(n + 1), n), n) == 1


def test_whitney_interval_frozen():
    # on the interval: w_{01} = dt
    assert whitney_form([0, 1], 1) == {((0,), (0,)): Q(1)}
    # on the triangle: w_{012} = 2 dt1 dt2
    assert whitney_form([0, 1, 2], 2) == {((0, 0), (0, 1)): Q(2)}


def _subsets(n, size):
    import itertools

    return list(itertools.combinations(range(n + 1), size))


def test_whitney_face_pullbacks():
    # pulling back along the coface missing vertex j kills forms with j in S
    # and renumbers the rest
    for n in (1, 2, 3):
        for size in range(1, n + 1):
            for S in _subsets(n, size):
                w = whitney_form(S, n)
                for j in range(n + 1):
                    got = coface_pullback(j, n, w)
                    if j in S:
                        assert got == {}
                    else:
                        S2 = tuple(i if i < j else i - 1 for i in S)
                        assert got == whitney_form(S2, n - 1)


def test_whitney_d_stays_in_span():
    # dw_S is a rational combination of the w_T with |T| = |S| + 1
    for n in (2, 3):
        for size in range(1, n + 1):
            bigger = _subsets(n, size + 1)
            span_keys = sorted(
                {k for T in bigger for k in whitney_form(T, n)}
            )
            cols = []
            for T in bigger:
                w = whitney_form(T, n)
                cols.append(vec([w.get(k, 0) for k in span_keys]))
            for S in _subsets(n, size):
                dw = f_d(whitney_form(S, n))
                assert set(dw) <= set(span_keys)
                target = vec([dw.get(k, 0) for k in span_keys])
                m = from_dense_cols(cols, len(span_keys))
                assert m.solve(from_dense_cols([target], len(span_keys))) is not None
