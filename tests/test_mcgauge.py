"""Gauge calculus: composition product, action, decomposition, homotopies.

Independent oracle: endomorphism elements act as honest matrices on the
underlying complex tensored with the coefficient ring, where the gauge
action is conjugation of the twisted differential by a nilpotent matrix
exponential and the composition product is matrix multiplication of
exponentials. Everything is exact.
"""

import math
import random

import pytest

from mcdescent.artin import builtin_artin, builtin_artin_names, dual_numbers, fat_point, truncated_poly
from mcdescent.dgla import TensorCtx, sl2
from mcdescent.forms import f_var
from mcdescent.linalg import ChainComplexQ, Mat
from mcdescent.mcgauge import (
    GaugeError,
    _bch_brackets,
    _bch_words,
    bch,
    decompose_path,
    decompose_square,
    elem_linear_solve,
    embed,
    extract_irrelevant,
    gauge,
    gauge_from_path,
    is_mc,
    lie_basis_elems,
    mc_residual,
    morphism_equal,
    path_from_gauge,
    stabilizer_log,
)
from mcdescent.pipeline import end_dgla_of_complex, vector_complex
from mcdescent.ratio import Q

CX = ChainComplexQ({0: 1, 1: 1, 2: 1}, {0: [[0]], 1: [[0]]})  # zero differential
CXD = ChainComplexQ({0: 2, 1: 1}, {0: [[1, 0]]})


def make_ctx(cx, A):
    L, book = end_dgla_of_complex(vector_complex(cx))
    L.validate(mode="full")
    return TensorCtx(L, A), book


def rand_in_degree(ctx, rng, deg, span=2):
    out = ctx.zero()
    A = ctx.artin
    for am in A.maximal_basis:
        for idx in range(ctx.dgla.dim(deg)):
            c = rng.randint(-span, span)
            if c:
                out = out.add(ctx.term(deg, idx, c, am))
    return out


def rand_mc(ctx, rng):
    """A Maurer-Cartan element: gauge transform of 0 by a random log."""
    return gauge(rand_in_degree(ctx, rng, 0), ctx.zero())


# --- matrix oracle ----------------------------------------------------------


class Operator:
    """Elements of End(C) (x) A as matrices on C (x) A over Q."""

    def __init__(self, cx, book, A):
        self.cx = cx
        self.A = A
        # over Q each basis map is the matrix unit at its free entry:
        # (degree, index) -> (source degree, row, column)
        self.units = {(p, j): pos for p, free in book.free.items() for pos, j in free.items()}
        self.slots = [
            (i, c, am)
            for i in sorted(cx.dims)
            for c in range(cx.dim(i))
            for am in A.basis
        ]
        self.pos = {s: k for k, s in enumerate(self.slots)}
        self.n = len(self.slots)

    def of_elem(self, z):
        m = Mat(self.n, self.n)
        for (p, idx, am, _, _), coeff in z.terms.items():
            i, r, c = self.units[(p, idx)]
            for (i2, c2, mu) in self.slots:
                if i2 != i or c2 != c:
                    continue
                prod = self.A.mono_mul(am, mu)
                if prod is None:
                    continue
                row = self.pos[(i + p, r, prod)]
                col = self.pos[(i2, c2, mu)]
                m.set_entry(row, col, m.entry(row, col) + coeff)
        return m

    def of_diff(self):
        m = Mat(self.n, self.n)
        for (i, c, mu) in self.slots:
            dm = self.cx.diff(i)
            for r in range(dm.rows):
                v = dm.entry(r, c)
                if v:
                    m.set_entry(self.pos[(i + 1, r, mu)], self.pos[(i, c, mu)], v)
        return m

    def exp(self, m):
        out = Mat.identity(self.n)
        term = Mat.identity(self.n)
        k = 1
        while True:
            term = term @ m
            if term.is_zero():
                return out
            out = out.add(term.scale(Q(1, math.factorial(k))))
            k += 1
            assert k < 40, "exp did not terminate"


def test_bch_matches_matrix_exponentials():
    rng = random.Random(31)
    for A in (truncated_poly(3), truncated_poly(4), fat_point()):
        ctx, book = make_ctx(CX, A)
        op = Operator(CX, book, A)
        for _ in range(6):
            a = rand_in_degree(ctx, rng, 0)
            b = rand_in_degree(ctx, rng, 0)
            lhs = op.exp(op.of_elem(bch(a, b)))
            rhs = op.exp(op.of_elem(a)) @ op.exp(op.of_elem(b))
            assert lhs == rhs


def test_bch_closed_forms():
    rng = random.Random(32)
    # nilpotency index 3: a + b + [a,b]/2
    ctx, _ = make_ctx(CX, truncated_poly(3))
    for _ in range(10):
        a = rand_in_degree(ctx, rng, 0)
        b = rand_in_degree(ctx, rng, 0)
        want = a.add(b).add(a.bracket(b).scale("1/2"))
        assert bch(a, b).eq(want)
    # nilpotency index 4: ... + [a,[a,b]]/12 + [b,[b,a]]/12
    ctx, _ = make_ctx(CX, truncated_poly(4))
    for _ in range(10):
        a = rand_in_degree(ctx, rng, 0)
        b = rand_in_degree(ctx, rng, 0)
        want = (
            a.add(b)
            .add(a.bracket(b).scale("1/2"))
            .add(a.bracket(a.bracket(b)).scale("1/12"))
            .add(b.bracket(b.bracket(a)).scale("1/12"))
        )
        assert bch(a, b).eq(want)


def bch_word_by_word(a, b):
    """Reference composition product: every word w of log(e^a e^b), with
    coefficient c, evaluated as its own nested bracket
    (c/|w|) [w1, [w2, ..., [w_{k-1}, wk]]], innermost first."""
    pair = (a, b)
    out = a.ctx.zero()
    for w, c in _bch_words(a.ctx.artin.nu):
        r = pair[w[-1]]
        for x in reversed(w[:-1]):
            r = pair[x].bracket(r)
        out = out.add(r.scale(c / len(w)))
    return out


def rand_gauge_arg(ctx, rng):
    """A random element of total degree 0 in L (x) m (x) forms: Lie degree
    -k times k form differentials, coefficient monomials in m."""
    out = ctx.zero()
    A, n = ctx.artin, ctx.nforms
    for deg in ctx.dgla.degrees():
        if not -n <= deg <= 0:
            continue
        for _ in range(4):
            S = tuple(sorted(rng.sample(range(n), -deg)))
            pm = tuple(rng.randint(0, 1) for _ in range(n))
            idx = rng.randrange(ctx.dgla.dim(deg))
            am = rng.choice(A.maximal_basis)
            out = out.add(ctx.term(deg, idx, rng.randint(-2, 2), am, pm, S))
    return out


def test_the_distinct_brackets_of_t4_are_three():
    assert [w for w, _ in _bch_brackets(4)] == [(0, 0, 1), (0, 1), (1, 0, 1)]


@pytest.mark.parametrize("ring", builtin_artin_names())
def test_bch_over_distinct_brackets_matches_word_by_word(ring):
    """bch against the word-by-word reference on seeded gauge arguments,
    on sl2 and on End(Q^2 -> Q) (Lie degrees -1, 0 and 1), in the plain,
    (t, dt) and (t, s, dt, ds) contexts."""
    rng = random.Random(ring)
    A = builtin_artin(ring)
    end_ctx, _ = make_ctx(CXD, A)
    for L in (sl2(), end_ctx.dgla):
        for form_vars in ((), ("t",), ("t", "s")):
            ctx = TensorCtx(L, A, form_vars)
            for _ in range(4):
                a, b = rand_gauge_arg(ctx, rng), rand_gauge_arg(ctx, rng)
                assert bch(a, b).eq(bch_word_by_word(a, b)), (ring, L, form_vars)


def test_bch_group_laws():
    rng = random.Random(33)
    ctx, _ = make_ctx(CX, fat_point())
    z = ctx.zero()
    for _ in range(6):
        a = rand_in_degree(ctx, rng, 0)
        b = rand_in_degree(ctx, rng, 0)
        c = rand_in_degree(ctx, rng, 0)
        assert bch(a, z).eq(a) and bch(z, a).eq(a)
        assert bch(a, a.neg()).is_zero()
        assert bch(a, bch(b, c)).eq(bch(bch(a, b), c))


def test_gauge_is_conjugation_of_twisted_differential():
    rng = random.Random(34)
    for cx in (CX, CXD):
        A = truncated_poly(4)
        ctx, book = make_ctx(cx, A)
        op = Operator(cx, book, A)
        d = op.of_diff()
        for _ in range(6):
            a = rand_in_degree(ctx, rng, 0)
            x = rand_mc(ctx, rng)
            e = op.exp(op.of_elem(a))
            einv = op.exp(op.of_elem(a.neg()))
            lhs = d.add(op.of_elem(gauge(a, x)))
            rhs = e @ d.add(op.of_elem(x)) @ einv
            assert lhs == rhs


def test_gauge_action_laws():
    rng = random.Random(35)
    ctx, _ = make_ctx(CXD, fat_point())
    for _ in range(8):
        a = rand_in_degree(ctx, rng, 0)
        b = rand_in_degree(ctx, rng, 0)
        x = rand_mc(ctx, rng)
        assert gauge(ctx.zero(), x).eq(x)
        assert gauge(a, gauge(b, x)).eq(gauge(bch(a, b), x))
        assert is_mc(gauge(a, x))


def test_mc_residual_depends_on_coefficients():
    # x = (shift by one step) * t is flat over dual numbers but not mod t^3
    for A, flat in ((dual_numbers(), True), (truncated_poly(3), False)):
        ctx, _ = make_ctx(CX, A)
        x = ctx.zero()
        for idx in range(ctx.dgla.dim(1)):
            x = x.add(ctx.term(1, idx, 1, (1,)))
        assert is_mc(x) is flat
        if not flat:
            r = mc_residual(x)
            assert r.min_artin_level() == 2


def test_stabilizer_logs_fix_the_object():
    rng = random.Random(36)
    ctx, _ = make_ctx(CXD, truncated_poly(4))
    for _ in range(8):
        x = rand_mc(ctx, rng)
        u = rand_in_degree(ctx, rng, -1)
        a = stabilizer_log(x, u)
        assert gauge(a, x).eq(x)


def test_extract_irrelevant_roundtrip():
    rng = random.Random(37)
    ctx, _ = make_ctx(CXD, truncated_poly(3))
    for _ in range(8):
        x = rand_mc(ctx, rng)
        u = rand_in_degree(ctx, rng, -1)
        g = stabilizer_log(x, u)
        u2 = extract_irrelevant(x, g)
        assert u2 is not None
        assert stabilizer_log(x, u2).eq(g)


def test_morphism_equal():
    rng = random.Random(38)
    ctx, _ = make_ctx(CXD, truncated_poly(3))
    x = rand_mc(ctx, rng)
    a = rand_in_degree(ctx, rng, 0)
    u = rand_in_degree(ctx, rng, -1)
    a2 = bch(a, stabilizer_log(x, u))
    assert morphism_equal(x, a, a2)
    assert morphism_equal(x, a, a)
    # over the zero-differential complex, a closed non-exact direction is
    # a genuinely different morphism out of 0
    ctx0, _ = make_ctx(CX, truncated_poly(3))
    zero = ctx0.zero()
    c = ctx0.term(0, 0, 1, (1,))
    assert not morphism_equal(zero, zero, c)


def test_decompose_path_roundtrip():
    rng = random.Random(39)
    ctx, _ = make_ctx(CXD, truncated_poly(4))
    ctx1 = ctx.with_vars(("t",))
    for _ in range(5):
        x = rand_mc(ctx, rng)
        # random gauge log with polynomial and dt parts
        g = ctx1.zero()
        for am in ctx.artin.maximal_basis:
            for idx in range(ctx.dgla.dim(0)):
                c = rng.randint(-2, 2)
                if c:
                    g = g.add(ctx1.term(0, idx, c, am, (rng.randint(1, 2),), ()))
            for idx in range(ctx.dgla.dim(-1)):
                c = rng.randint(-1, 1)
                if c:
                    g = g.add(ctx1.term(-1, idx, c, am, (rng.randint(0, 2),), (0,)))
        xi = gauge(g, embed(x, ("t",), positions=[]))
        assert xi.subs_values({0: 0}).eq(x)
        p = decompose_path(x, xi)
        # shape: no dt part, all terms divisible by t
        for (deg, _, _, pm, S) in p.terms:
            assert deg == 0 and S == () and pm[0] >= 1
        assert gauge(p, embed(x, ("t",), positions=[])).eq(xi)


def test_decompose_path_uniqueness_on_lines():
    rng = random.Random(40)
    ctx, _ = make_ctx(CXD, truncated_poly(3))
    for _ in range(5):
        x = rand_mc(ctx, rng)
        a = rand_in_degree(ctx, rng, 0)
        r = path_from_gauge(x, a)
        assert is_mc(r) and r.subs_values({0: 0}).eq(x.form_subst([], ()))
        p = decompose_path(x, r)
        # the line log t*a is already in shape, so it is the answer
        want = ctx.with_vars(("t",)).zero()
        for (deg, idx, am, _, _), c in embed(a, ("t",), positions=[]).terms.items():
            want = want.add(ctx.with_vars(("t",)).term(deg, idx, c, am, (1,), ()))
        assert p.eq(want)
        assert gauge_from_path(x, r).eq(a)


def test_decompose_square_roundtrip():
    rng = random.Random(41)
    ctx, _ = make_ctx(CXD, truncated_poly(3))
    ctx2 = ctx.with_vars(("t", "s"))
    for _ in range(4):
        x = rand_mc(ctx, rng)
        g = ctx2.zero()
        for am in ctx.artin.maximal_basis:
            for idx in range(ctx.dgla.dim(0)):
                c = rng.randint(-2, 2)
                if c:
                    et, es = rng.randint(0, 2), rng.randint(0, 2)
                    if et + es == 0:
                        et = 1
                    g = g.add(ctx2.term(0, idx, c, am, (et, es), ()))
            for idx in range(ctx.dgla.dim(-1)):
                c = rng.randint(-1, 1)
                if c:
                    mask = rng.choice([(0,), (1,)])
                    g = g.add(
                        ctx2.term(
                            -1, idx, c, am,
                            (rng.randint(0, 1), rng.randint(0, 1)), mask,
                        )
                    )
        xi = gauge(g, embed(x, ("t", "s"), positions=[]))
        r = decompose_square(x, xi)
        for (deg, _, _, pm, S) in r.terms:
            if deg == 0:
                assert S == () and pm[0] + pm[1] >= 1
            else:
                assert deg == -1 and S == (1,) and pm[0] >= 1
        assert gauge(r, embed(x, ("t", "s"), positions=[])).eq(xi)


def full_shape_1var(ctx, level, piece):
    """Path shape at every monomial of the level: L^0 t^e, e = 1..deg_t + 1."""
    tmax = max(k[3][0] for k in piece.terms) + 1
    return [
        ctx.term(0, idx, 1, am, (e,), ())
        for am in ctx.artin.monomials_of_level(level)
        for e in range(1, tmax + 1)
        for idx in range(ctx.dgla.dim(0))
    ]


def full_shape_2var(ctx, level, piece):
    """Square shape at every monomial of the level: L^0 t^a s^b (a + b > 0),
    then L^-1 t^a s^b ds (a > 0)."""
    tb = max(k[3][0] for k in piece.terms) + 1
    sb = max(k[3][1] for k in piece.terms) + 1
    out = []
    for am in ctx.artin.monomials_of_level(level):
        for et in range(tb + 1):
            for es in range(sb + 1):
                if et + es:
                    out.extend(ctx.term(0, i, 1, am, (et, es), ()) for i in range(ctx.dgla.dim(0)))
        for et in range(1, tb + 1):
            for es in range(sb + 1):
                out.extend(ctx.term(-1, i, 1, am, (et, es), (1,)) for i in range(ctx.dgla.dim(-1)))
    return out


def full_basis_decompose(xe, xi, full_shape):
    """Reference decomposition: each level is one elem_linear_solve of
    -d(delta) = residual over the shape at every monomial of the level."""
    log = xi.ctx.zero()
    g = xe
    for level in range(1, xi.ctx.artin.nu):
        rho = xi.sub(g)
        if rho.is_zero():
            break
        if rho.min_artin_level() > level:
            continue
        piece = rho.artin_level_component(level)
        basis = full_shape(xi.ctx, level, piece)
        delta = elem_linear_solve(lambda e: e.d().neg(), piece, basis)
        assert delta is not None
        log = log.add(delta)
        g = gauge(log, xe)
    return log


def rand_log(ctx, rng, monos, shape_terms):
    """Random element: each of shape_terms (deg, form monomial, mask) with
    a random coefficient and a monomial drawn from monos."""
    out = ctx.zero()
    for deg, pm, mask in shape_terms:
        for idx in range(ctx.dgla.dim(deg)):
            c = rng.randint(-2, 2)
            if c:
                out = out.add(ctx.term(deg, idx, c, rng.choice(monos), pm, mask))
    return out


@pytest.mark.parametrize("ring", ["sqz2", "sqz3", "fat2", "t3", "t4"])
def test_decompose_matches_full_basis_solve(ring):
    # the log read off each level's rows is the log of one elimination over
    # the whole level, term for term and in the same order
    A = builtin_artin(ring)
    ctx, _ = make_ctx(CXD, A)
    rng = random.Random(ring)
    level1 = A.monomials_of_level(1)
    path_terms = [(0, (1,), ()), (0, (2,), ()), (-1, (1,), (0,)), (-1, (0,), (0,))]
    square_terms = [(0, (1, 0), ()), (0, (1, 1), ()), (0, (0, 2), ()),
                    (-1, (1, 0), (0,)), (-1, (0, 1), (1,))]
    partial = 0
    for trial in range(8):
        x = rand_mc(ctx, rng)
        # even trials put the level-1 part of the log on one monomial, so
        # the level-1 residual leaves the other monomials' blocks empty
        monos = A.maximal_basis if trial % 2 else level1[:1] + A.maximal_basis[len(level1):]
        for vars_, terms, decompose, full_shape in (
            (("t",), path_terms, decompose_path, full_shape_1var),
            (("t", "s"), square_terms, decompose_square, full_shape_2var),
        ):
            xe = embed(x, vars_, positions=[])
            xi = gauge(rand_log(xe.ctx, rng, monos, terms), xe)
            touched = {k[2] for k in xi.sub(xe).artin_level_component(1).terms}
            partial += 0 < len(touched) < len(level1)
            got = decompose(x, xi)
            want = full_basis_decompose(xe, xi, full_shape)
            assert list(got.terms.items()) == list(want.terms.items())
            assert gauge(got, xe).eq(xi)
    # a level with one monomial has no partly touched residual
    assert partial >= 4 or len(level1) == 1


def test_decompose_raises_when_one_monomial_block_is_inconsistent():
    A = builtin_artin("sqz2")
    ctx, _ = make_ctx(CXD, A)
    ctx1 = ctx.with_vars(("t",))
    rng = random.Random(43)
    x = rand_mc(ctx, rng)
    xe = embed(x, ("t",), positions=[])
    g = ctx1.zero()
    for am in A.maximal_basis:
        g = g.add(ctx1.term(0, 0, 1, am, (1,), ())).add(ctx1.term(0, 1, -2, am, (2,), ()))
    xi = gauge(g, xe)
    assert decompose_path(x, xi).eq(g)
    for am in A.maximal_basis:
        # a degree-1 Lie term times t is no -d of a shape term (it would
        # need a dt part); it touches one monomial's block only
        bad = xi.add(ctx1.term(1, 0, 1, am, (1,), ()))
        assert {k[2] for k in bad.sub(xi).terms} == {am}
        with pytest.raises(GaugeError, match="no shape solution at coefficient level 1"):
            decompose_path(x, bad)


def test_decompose_square_raises_when_one_monomial_block_is_inconsistent():
    A = builtin_artin("sqz2")
    ctx, _ = make_ctx(CXD, A)
    ctx2 = ctx.with_vars(("t", "s"))
    rng = random.Random(44)
    x = rand_mc(ctx, rng)
    xe = embed(x, ("t", "s"), positions=[])
    g = ctx2.zero()
    for am in A.maximal_basis:
        g = g.add(ctx2.term(0, 0, 1, am, (1, 1), ())).add(ctx2.term(-1, 0, 2, am, (1, 0), (1,)))
    xi = gauge(g, xe)
    assert decompose_square(x, xi).eq(g)
    # an index of L^0 with d_L of it nonzero
    idx = next(i for i in range(ctx.dgla.dim(0)) if ctx.term(0, i).d().terms)
    for am in A.maximal_basis:
        # a degree-1 Lie term times t*s lies in no row the read-off uses;
        # L^0 dt is read off as -L^0 t, whose -d matches it in the dt part
        # but adds d_L(L^0) t, which the input lacks
        for bad_term in (ctx2.term(1, 0, 1, am, (1, 1), ()), ctx2.term(0, idx, 1, am, None, (0,))):
            bad = xi.add(bad_term)
            assert {k[2] for k in bad.sub(xi).terms} == {am}
            with pytest.raises(GaugeError, match="no shape solution at coefficient level 1"):
                decompose_square(x, bad)


def test_embed_matches_form_subst_with_one_variable_images():
    """embed moves exponents and differentials to their new positions
    directly; form_subst with the one-variable images f_var is the
    reference. Seeded elements over three variables with masks of every
    size, embedded at non-monotone positions among five, and at the
    identity prefix, give the same terms in the same order."""
    A = builtin_artin("t3")
    ctx = make_ctx(CXD, A)[0].with_vars(("u", "v", "w"))
    new_vars = ("a", "b", "c", "d", "e")
    rng = random.Random(19)
    big_masks = odd = 0
    for _ in range(30):
        x = ctx.zero()
        for _ in range(rng.randint(1, 12)):
            mask = tuple(sorted(rng.sample(range(3), rng.randint(0, 3))))
            big_masks += len(mask) >= 2
            pm = tuple(rng.randint(0, 2) for _ in range(3))
            deg = rng.choice((-1, 0, 1))
            if ctx.dgla.dim(deg):
                am = rng.choice(A.maximal_basis)
                x = x.add(ctx.term(deg, rng.randrange(ctx.dgla.dim(deg)), rng.randint(-3, 3), am, pm, mask))
        positions = rng.sample(range(5), 3)
        odd += positions != sorted(positions)
        for pos in (positions, None):
            images = [f_var(q, 5) for q in (pos or range(3))]
            want = x.form_subst(images, new_vars)
            got = embed(x, new_vars, positions=pos)
            assert got.ctx.form_vars == new_vars
            assert list(got.terms.items()) == list(want.terms.items())
    assert big_masks >= 20 and odd >= 20


def test_elem_linear_solve_consistency():
    ctx, _ = make_ctx(CXD, truncated_poly(3))
    basis = lie_basis_elems(ctx, 0)
    target = basis[0].d()
    sol = elem_linear_solve(lambda e: e.d(), target, basis)
    assert sol is not None and sol.d().eq(target)
    assert elem_linear_solve(lambda e: ctx.zero(), basis[0], basis) is None
