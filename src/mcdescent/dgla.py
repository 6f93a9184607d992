"""Differential graded Lie algebras over Q and their tensor elements.

A Dgla is bounded with a finite basis in each degree: differentials are
matrices, the bracket is a table of structure constants on basis pairs,
given as a dict or as a function that returns one. Construction checks
shapes; the table is built, and its targets checked, when it is first
used. Dgla.validate checks d^2 = 0, graded antisymmetry, the Leibniz rule
and the graded Jacobi identity (full sweep for small algebras, seeded
sample above a size threshold), and DglaMap.validate that a map commutes
with d and brackets, exactly, on Python ints: an IntTable holds a dgLa's d
and bracket with their denominators cleared. They run where input enters:
the command line's validate and file loading, or a test. validate_sc
builds each level's table once, shares it with the faces into and out of
that level, and drops it when the next level's faces are checked. The full
sweep takes antisymmetry once per unordered pair and Jacobi once per
unordered triple: with antisymmetry in hand, the Jacobiator is
graded-alternating.

Computations happen in tensors L (x) A (x) Omega: an Elem is a sparse dict
keyed by (degree, basis index, coefficient-ring monomial, form monomial,
form differential mask). The coefficient ring is a local Artinian monomial
quotient (or nothing), the form slot a polynomial-forms algebra in named
variables (or nothing). Total degree = Lie degree + number of differentials
in the mask; the coefficient ring is inert degree 0.

The examples here are abelian dgLas and sl2. Endomorphism dgLas come from
one place, pipeline.end_dgla_of_complex, for complexes of projectives; End of a
complex of rational vector spaces is End over the ground field,
end_dgla_of_complex(vector_complex(cx)).

Sign conventions (Lie factor first):
    d(l (x) w)          = dl (x) w + (-1)^{|l|} l (x) dw
    [l (x) w, l' (x) w'] = (-1)^{|w| |l'|} [l, l'] (x) (w ^ w')
"""

from __future__ import annotations

import random
from collections import namedtuple
from functools import cached_property
from itertools import accumulate, combinations_with_replacement, islice, product, repeat
from math import lcm

from .artin import ArtinAlgebra
from .forms import fkey_d, fkey_mul
from .linalg import ChainComplexQ, Mat
from .ratio import Q, neg_one_pow, rat


class DglaError(ValueError):
    pass


def _repeated_choice(rng: random.Random, seq, count: int) -> list:
    """[rng.choice(seq) for _ in range(count)], drawn as Random.choice
    draws an index: getrandbits(len(seq).bit_length()), redrawn while it
    is not below len(seq). Same items, same state of rng afterwards."""
    n = len(seq)
    if not n:
        raise IndexError("cannot choose from an empty sequence")
    draws = filter(n.__gt__, map(rng.getrandbits, repeat(n.bit_length())))
    return [seq[r] for r in islice(draws, count)]


def _norm_bracket_value(val):
    """Sum the coefficients given to each index k, drop zeros, sort by k."""
    out: dict = {}
    for k, c in val:
        k, c = int(k), rat(c)
        out[k] = out[k] + c if k in out else c
    return tuple(sorted(kc for kc in out.items() if kc[1]))


class Dgla:
    """Bounded dgLa over Q with chosen finite bases.

    dims:    {degree: dimension}, zero dims may be omitted
    diffs:   {degree: Mat or rows} for d : L^deg -> L^{deg+1}
    bracket: {(d1, i, d2, j): iterable of (k, coeff)}, or a function of no
             arguments that returns such a dict; coefficients to one k are
             summed, and a swapped pair absent from the dict (not one given
             as 0) is filled in from graded antisymmetry

    The constructor checks shapes only, and does not check the axioms;
    see validate. The bracket is kept as given, and normalised and its
    targets checked when the table is first used (_br), so a dgLa whose
    brackets nothing reads never builds its table.
    """

    def __init__(self, dims: dict, diffs: dict, bracket, label: str = ""):
        self.dims = {int(d): int(n) for d, n in dims.items() if n}
        self.label = label
        self.diffs = {}
        for d, m in diffs.items():
            if not isinstance(m, Mat):
                m = Mat.from_rows(m)
            if m.rows != self.dim(d + 1) or m.cols != self.dim(d):
                raise DglaError(
                    f"differential at degree {d}: shape {m.rows}x{m.cols}, "
                    f"expected {self.dim(d + 1)}x{self.dim(d)}"
                )
            if not m.is_zero():
                self.diffs[int(d)] = m
        self._dcols: dict = {}
        self._bracket = bracket

    @cached_property
    def _br(self) -> dict:
        """The non-zero structure constants {(d1, i, d2, j): ((k, c), ...)},
        built on first use from the bracket given to the constructor, which
        is then dropped; the table stays as an instance attribute. Raises
        DglaError if a bracket lands outside its target degree."""
        table = self._bracket() if callable(self._bracket) else self._bracket
        br = {}
        for (d1, i, d2, j), val in table.items():
            val = _norm_bracket_value(val)
            self._check_targets(d1 + d2, val)
            if val:
                br[(d1, i, d2, j)] = val
        # fill the orientations absent from the given table by antisymmetry
        for (d1, i, d2, j), val in list(br.items()):
            rev = (d2, j, d1, i)
            if rev not in table:
                sign = -neg_one_pow(d1 * d2)
                br[rev] = tuple((k, sign * c) for k, c in val)
        self._bracket = None
        return br

    def _check_targets(self, deg: int, val):
        n = self.dim(deg)
        for k, _ in val:
            if not 0 <= k < n:
                raise DglaError(
                    f"bracket lands on index {k} in degree {deg} (dim {n})"
                )

    # --- basic structure ---------------------------------------------------

    def dim(self, deg: int) -> int:
        return self.dims.get(deg, 0)

    def degrees(self):
        return sorted(self.dims)

    @property
    def total_dim(self) -> int:
        return sum(self.dims.values())

    def diff(self, deg: int) -> Mat:
        m = self.diffs.get(deg)
        return m if m is not None else Mat(self.dim(deg + 1), self.dim(deg))

    def diff_columns(self, deg: int) -> list:
        """Sparse columns of diff(deg) (see Mat.columns), built once on
        first use."""
        cols = self._dcols.get(deg)
        if cols is None:
            cols = self._dcols[deg] = self.diff(deg).columns()
        return cols

    def name(self, deg: int, idx: int) -> str:
        return f"b[{deg},{idx}]"

    def bracket_basis(self, d1: int, i: int, d2: int, j: int):
        return self._br.get((d1, i, d2, j), ())

    def basis_keys(self):
        for d in self.degrees():
            for i in range(self.dim(d)):
                yield d, i

    @cached_property
    def _complex(self) -> ChainComplexQ:
        return ChainComplexQ(dict(self.dims), dict(self.diffs))

    def complex(self) -> ChainComplexQ:
        """The underlying complex, built on first use; every caller shares
        it and the cohomology it has computed."""
        return self._complex

    def cohomology(self, deg: int):
        return self._complex.cohomology(deg)

    def __repr__(self):
        dd = ", ".join(f"{d}:{n}" for d, n in sorted(self.dims.items()))
        tag = f" {self.label!r}" if self.label else ""
        return f"Dgla({{{dd}}}{tag})"

    # --- validation ----------------------------------------------------

    def validate(self, mode: str = "full", seed: int = 0, table: IntTable | None = None):
        """Check d^2 = 0, graded antisymmetry, Leibniz and Jacobi.

        Raises DglaError on the first violation. mode "sample" checks a
        seeded random subset of triples; "auto" switches to sampling when
        the total dimension is large.

        Full mode checks Leibniz on every ordered pair, antisymmetry once
        per unordered pair and Jacobi once per multiset of three basis
        elements, in sorted order, repeats included (J(x, x, x) can be
        nonzero for odd x). This is exact, and names the triple a sweep
        over every ordered triple names first: once antisymmetry holds on
        every pair, the Jacobiator J(x, y, z) = [x,[y,z]] - [[x,y],z] -
        (-1)^{|x||y|} [y,[x,z]] is graded-alternating,
            J(y, x, z) = -(-1)^{|x||y|} J(x, y, z),
            J(x, z, y) = -(-1)^{|y||z|} J(x, y, z),
        so a triple fails exactly when its sorted permutation does, and the
        sorted permutation is the first of its orbit in basis order. A triple
        whose [y,z], [x,y] and [x,z] are all empty is skipped (both sides 0).

        All four sweeps run on Python ints, on table, this dgLa's IntTable
        (built here when not given). Each axiom is homogeneous in d and in
        the bracket, so it fails on the scaled tables exactly where it fails
        on the rational ones.
        """
        if mode == "auto":
            mode = "full" if self.total_dim <= 16 else "sample"
        t = IntTable(self) if table is None else table
        dims, dcols = self.dims, t.dcols
        for d in self.degrees():
            n = dims.get(d + 2)
            if n and any([any(_image(dcols.get(d + 1), col, n)) for col in dcols[d]]):
                raise DglaError(f"d^2 != 0 at degree {d}")
        get = t.bracket[1].get
        keys = list(self.basis_keys())
        rng = random.Random(seed)
        if mode == "full":
            pair_iter = product(keys, repeat=2)
        else:
            draws = iter(_repeated_choice(rng, keys, 800))
            pair_iter = zip(draws, draws)
        for (d1, i), (d2, j) in pair_iter:
            val = get((d1, i, d2, j), ())
            # antisymmetry; in full mode (y, x) with y > x passed at (x, y)
            if mode != "full" or (d1, i) <= (d2, j):
                neg = val if d1 * d2 % 2 or not val else tuple([(k, -c) for k, c in val])
                if get((d2, j, d1, i), ()) != neg:
                    raise DglaError(
                        f"bracket not graded-antisymmetric on "
                        f"{self.name(d1, i)}, {self.name(d2, j)}"
                    )
            # Leibniz: d[x,y] = [dx,y] + (-1)^{|x|} [x,dy]
            tgt = d1 + d2
            n = dims.get(tgt + 1)
            dx, dy = dcols[d1][i], dcols[d2][j]
            if n and (val or dx or dy):
                lhs = _image(dcols.get(tgt), val, n)
                rhs = [0] * n
                for r, e in dx:
                    for k, c in get((d1 + 1, r, d2, j), ()):
                        rhs[k] += e * c
                sgn = neg_one_pow(d1)
                for r, e in dy:
                    for k, c in get((d1, i, d2 + 1, r), ()):
                        rhs[k] += sgn * e * c
                if lhs != rhs:
                    raise DglaError(
                        f"Leibniz fails on {self.name(d1, i)}, {self.name(d2, j)}"
                    )
        if mode == "full":
            triple_iter = combinations_with_replacement(keys, 3)
        else:
            draws = iter(_repeated_choice(rng, keys, 1200))
            triple_iter = zip(draws, draws, draws)
        for (d1, i), (d2, j), (d3, k) in triple_iter:
            n = dims.get(d1 + d2 + d3)
            if not n:
                continue
            yz, xy, xz = get((d2, j, d3, k), ()), get((d1, i, d2, j), ()), get((d1, i, d3, k), ())
            if not (yz or xy or xz):
                continue
            # [x,[y,z]] = [[x,y],z] + (-1)^{|x||y|} [y,[x,z]]
            lhs = [0] * n
            for m, c in yz:
                for r, e in get((d1, i, d2 + d3, m), ()):
                    lhs[r] += c * e
            rhs = [0] * n
            for m, c in xy:
                for r, e in get((d1 + d2, m, d3, k), ()):
                    rhs[r] += c * e
            sgn = neg_one_pow(d1 * d2)
            for m, c in xz:
                for r, e in get((d2, j, d1 + d3, m), ()):
                    rhs[r] += sgn * c * e
            if lhs != rhs:
                raise DglaError(
                    f"Jacobi fails on {self.name(d1, i)}, "
                    f"{self.name(d2, j)}, {self.name(d3, k)}"
                )


def _cleared(mats: dict) -> tuple:
    """(D, rows, cols): the Mats' entries times D, the lcm of their
    denominators, as sparse integer rows and columns by degree."""
    den = lcm(*{v.denominator for m in mats.values() for r in m._rows for v in r.values()})

    def ints(vecs):
        return [[(j, v.numerator * (den // v.denominator)) for j, v in vec] for vec in vecs]

    rows = {d: ints(r.items() for r in m._rows) for d, m in mats.items()}
    return den, rows, {d: ints(m.columns()) for d, m in mats.items()}


def _image(cols, vec, n: int, scale: int = 1) -> list:
    """scale times the image of the sparse integer vector vec, [(k, c), ...],
    under the matrix with sparse integer columns cols, as a list of n ints."""
    out = [0] * n
    for k, c in vec:
        c *= scale
        for r, e in cols[k]:
            out[r] += c * e
    return out


class IntTable:
    """A dgLa's d and bracket with denominators cleared: dcols[deg] are the
    integer columns of D_d d, D_d = dd the lcm of d's denominators; bracket
    is (D_b, Dgla._br times D_b, the keys of _br by left argument), built
    on first use, so that a check reads d before a bad bracket raises."""

    def __init__(self, g: Dgla):
        self.g = g
        self.dd, _, cols = _cleared(g.diffs)
        self.dcols = {deg: cols.get(deg) or [()] * n for deg, n in g.dims.items()}

    @cached_property
    def bracket(self) -> tuple:
        br, left = self.g._br, {}
        db = lcm(*{c.denominator for val in br.values() for _, c in val})
        for key in br:
            left.setdefault(key[:2], []).append(key)
        return db, {key: tuple([(k, c.numerator * (db // c.denominator)) for k, c in val])
                    for key, val in br.items()}, left


# Not a dataclass: importing dataclasses adds inspect, ast, dis and tokenize
# to every run's start-up (tests/test_cli.py::test_the_cli_imports_no_argparse_or_gettext).
class TensorCtx(namedtuple("TensorCtx", "dgla artin form_vars")):
    """Ambient for computations: dgLa, coefficient ring, form variables."""

    __slots__ = ()

    def __new__(cls, dgla: Dgla, artin: ArtinAlgebra | None = None, form_vars=()):
        return tuple.__new__(cls, (dgla, artin, tuple(form_vars)))

    @property
    def nforms(self) -> int:
        return len(self.form_vars)

    def unit_mono(self):
        return self.artin.unit if self.artin else ()

    def compatible(self, other: "TensorCtx") -> bool:
        return (
            self.dgla is other.dgla
            and (
                self.artin is other.artin
                or (self.artin is not None and self.artin == other.artin)
            )
            and self.form_vars == other.form_vars
        )

    def with_vars(self, form_vars) -> "TensorCtx":
        return TensorCtx(self.dgla, self.artin, form_vars)

    def zero(self) -> "Elem":
        return Elem(self, {})

    def term(self, deg, idx, coeff=1, amono=None, pmono=None, dmask=()) -> "Elem":
        if amono is None:
            amono = self.unit_mono()
        if pmono is None:
            pmono = (0,) * self.nforms
        key = (int(deg), int(idx), tuple(amono), tuple(pmono), tuple(sorted(dmask)))
        return Elem(self, {key: rat(coeff)})


class Elem:
    """Sparse tensor L (x) A (x) Omega element.

    terms: {(deg, idx, amono, pmono, dmask): Q}, zero-free: no value is 0,
    so the zero element is the empty dict and two elements are equal
    exactly when their dicts are. The constructor drops zeros; operations
    that build a zero-free dict themselves hand it over through wrap(),
    without a copy. Do not mutate in place; all operations return fresh
    elements.
    """

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: TensorCtx, terms: dict):
        self.ctx = ctx
        self.terms = {k: v for k, v in terms.items() if v}

    @classmethod
    def wrap(cls, ctx: TensorCtx, terms: dict) -> "Elem":
        """The element of a zero-free dict that no one else holds, taken
        as it is: neither checked nor copied."""
        e = object.__new__(cls)
        e.ctx = ctx
        e.terms = terms
        return e

    # --- linear structure -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def add(self, other: "Elem") -> "Elem":
        self._chk(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            v = out.get(k)
            if v is None:
                out[k] = c
            else:
                v += c
                if v:
                    out[k] = v
                else:
                    del out[k]
        return Elem.wrap(self.ctx, out)

    def sub(self, other: "Elem") -> "Elem":
        self._chk(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            v = out.get(k)
            if v is None:
                out[k] = -c
            else:
                v -= c
                if v:
                    out[k] = v
                else:
                    del out[k]
        return Elem.wrap(self.ctx, out)

    def scale(self, c) -> "Elem":
        c = rat(c)
        if not c:
            return Elem.wrap(self.ctx, {})
        if c == 1:
            return Elem.wrap(self.ctx, dict(self.terms))
        return Elem.wrap(self.ctx, {k: c * v for k, v in self.terms.items()})

    def neg(self) -> "Elem":
        return Elem.wrap(self.ctx, {k: -v for k, v in self.terms.items()})

    def eq(self, other: "Elem") -> bool:
        self._chk(other)
        return self.terms == other.terms

    def _chk(self, other: "Elem"):
        if not self.ctx.compatible(other.ctx):
            raise DglaError("elements live in different contexts")

    # --- degree bookkeeping -------------------------------------------------

    def total_degrees(self) -> set:
        return {d + len(S) for (d, _, _, _, S) in self.terms}

    def component_total(self, deg: int) -> "Elem":
        return Elem(
            self.ctx,
            {k: c for k, c in self.terms.items() if k[0] + len(k[4]) == deg},
        )

    def min_artin_level(self) -> int | None:
        """Smallest coefficient-monomial degree present; None for 0."""
        return min((sum(k[2]) for k in self.terms), default=None)

    def artin_level_component(self, level: int) -> "Elem":
        return Elem(
            self.ctx, {k: c for k, c in self.terms.items() if sum(k[2]) == level}
        )

    # --- dgLa operations ----------------------------------------------------

    def d(self) -> "Elem":
        L = self.ctx.dgla
        out: dict = {}
        for (deg, idx, am, pm, S), c in self.terms.items():
            for r, e in L.diff_columns(deg)[idx]:
                _bump(out, (deg + 1, r, am, pm, S), c * e)
            sgn = neg_one_pow(deg)
            for m, np_, nS in fkey_d(pm, S):
                _bump(out, (deg, idx, am, np_, nS), c * (m * sgn))
        return Elem.wrap(self.ctx, out)

    def bracket(self, other: "Elem") -> "Elem":
        """Graded bracket, term by term with the Koszul and shuffle signs
        of the module docstring (see ad)."""
        return ad(self)(other)

    # --- form-slot manipulation ----------------------------------------------

    def form_subst(self, images: list, new_vars) -> "Elem":
        """Substitute form variables; images[i] is a polynomial dict in the
        new variables (see forms.f_subst). Lie and coefficient slots ride
        along untouched."""
        from .forms import f_d, f_mul, f_scale, poly_pow

        new_vars = tuple(new_vars)
        nctx = self.ctx.with_vars(new_vars)
        m = len(new_vars)
        d_imgs = [f_d(img) for img in images]
        unit = {((0,) * m, ()): Q(1)}
        out: dict = {}
        pcache: dict = {}
        for (deg, idx, am, pm, S), c in self.terms.items():
            if pm in pcache:
                poly = pcache[pm]
            else:
                poly = unit
                for i, e in enumerate(pm):
                    if e:
                        poly = f_mul(poly, poly_pow(images[i], e, m))
                pcache[pm] = poly
            form = poly
            for i in S:
                form = f_mul(form, d_imgs[i])
            for (np_, nS), fc in f_scale(c, form).items():
                _bump(out, (deg, idx, am, np_, nS), fc)
        return Elem.wrap(nctx, out)

    def subs_values(self, values: dict) -> "Elem":
        """Pull back along var_i := constant for i in values: terms carrying
        the differential of a substituted variable vanish (the image has
        zero differential). Remaining variables keep their order.

        Evaluated directly, form slot by form slot (see _value_slot),
        giving what form_subst gives on the constant and coordinate
        images, in the same term order."""
        keep = [i for i in range(self.ctx.nforms) if i not in values]
        nctx = self.ctx.with_vars(self.ctx.form_vars[i] for i in keep)
        pos = {v: p for p, v in enumerate(keep)}
        vals = [(i, rat(v)) for i, v in sorted(values.items())]
        slots: dict = {}
        out: dict = {}
        for (deg, idx, am, pm, S), c in self.terms.items():
            if (pm, S) not in slots:
                slots[pm, S] = _value_slot(pm, S, vals, pos)
            slot = slots[pm, S]
            if slot is not None:
                f, npm, nS = slot
                _bump(out, (deg, idx, am, npm, nS), c if f is None else c * f)
        return Elem.wrap(nctx, out)

    def map_lie(self, dmap: "DglaMap") -> "Elem":
        """Push forward along a dgLa map, keeping the other slots."""
        if dmap.source is not self.ctx.dgla:
            raise DglaError("map source does not match element context")
        nctx = TensorCtx(dmap.target, self.ctx.artin, self.ctx.form_vars)
        out: dict = {}
        for (deg, idx, am, pm, S), c in self.terms.items():
            for r, e in dmap.columns(deg)[idx]:
                _bump(out, (deg, r, am, pm, S), c * e)
        return Elem.wrap(nctx, out)

    def __repr__(self):
        if not self.terms:
            return "Elem(0)"
        L = self.ctx.dgla
        A = self.ctx.artin
        names = self.ctx.form_vars
        parts = []
        for (deg, idx, am, pm, S), c in sorted(self.terms.items()):
            fs = []
            if A is not None and am != A.unit:
                fs.append(A.mono_str(am))
            for i, e in enumerate(pm):
                if e == 1:
                    fs.append(names[i])
                elif e > 1:
                    fs.append(f"{names[i]}^{e}")
            for i in S:
                fs.append(f"d{names[i]}")
            body = "*".join([L.name(deg, idx)] + fs)
            parts.append(f"({c})*{body}")
        return " + ".join(parts)


def _bump(out: dict, key, c):
    """Add the nonzero c to out[key], keeping out zero-free: a new key goes
    last, a key whose sum cancels is dropped."""
    v = out.get(key)
    if v is None:
        out[key] = c
    else:
        v += c
        if v:
            out[key] = v
        else:
            del out[key]


def _value_slot(pm, S, vals, pos):
    """The form slot (pm, S) under var_i := v for (i, v) in vals, keeping
    the variables in pos (old index -> new index, in order). None when it
    vanishes: S holds a substituted differential, or a positive power of
    a zero value. Else (factor, pmono, dmask) with the factor the product
    of the v ** pm[i], None when it is 1."""
    if any(i not in pos for i in S):
        return None
    f = None
    for i, v in vals:
        e = pm[i]
        if e and v != 1:
            if not v:
                return None
            f = v**e if f is None else f * v**e
    return f, tuple([pm[i] for i in pos]), tuple([pos[i] for i in S])


def _by_slot(terms: dict) -> dict:
    """Group element terms by (coefficient, form) slot: {(amono, pmono,
    dmask): [(degree, index, coeff), ...]} in term order."""
    slots: dict = {}
    for (deg, idx, am, pm, S), c in terms.items():
        slots.setdefault((am, pm, S), []).append((deg, idx, c))
    return slots


def ad(x: Elem):
    """The map y -> x.bracket(y). Both operands are grouped by their
    (coefficient, form) slot. Each pair of slots is multiplied once, by
    mono_mul and fkey_mul, and its Lie pairs are looked up in the bracket
    table only when that slot product survives. The bracket is 0 without
    grouping when an operand is 0, or when the operands' lowest
    coefficient levels sum past the ring's top degree: m^i m^j lies in
    m^(i+j), and in a monomial quotient every monomial above the top
    degree is in the ideal. x's level and slots are found at their first
    use and kept, so an x that brackets many elements (gauge, bch) makes
    the map once."""
    ctx, L, A, level, left = x.ctx, x.ctx.dgla, x.ctx.artin, None, None

    def apply(y: Elem) -> Elem:
        nonlocal level, left
        x._chk(y)
        if not x.terms or not y.terms:
            return Elem.wrap(ctx, {})
        if A is not None:
            if level is None:
                level = x.min_artin_level()
            if level + y.min_artin_level() > A.max_degree:
                return Elem.wrap(ctx, {})
        if left is None:
            left = _by_slot(x.terms)
        right = _by_slot(y.terms)
        out: dict = {}
        for (a1, p1, S1), lie1 in left.items():
            for (a2, p2, S2), lie2 in right.items():
                if A is not None:
                    am = A.mono_mul(a1, a2)
                    if am is None:
                        continue
                else:
                    am = ()
                r = fkey_mul(p1, S1, p2, S2)
                if r is None:
                    continue
                pm, S, fsign = r
                for d1, i1, c1 in lie1:
                    for d2, i2, c2 in lie2:
                        val = L.bracket_basis(d1, i1, d2, i2)
                        if not val:
                            continue
                        base = c1 * c2
                        if fsign * neg_one_pow(len(S1) * d2) < 0:
                            base = -base
                        for k, c in val:
                            _bump(out, (d1 + d2, k, am, pm, S), base * c)
        return Elem.wrap(ctx, out)

    return apply


class DglaMap:
    """Map of dgLas: degreewise matrices commuting with d and brackets.

    The constructor checks shapes only; validate checks the identities."""

    def __init__(self, source: Dgla, target: Dgla, mats: dict):
        self.source = source
        self.target = target
        self._cols: dict = {}
        self.mats = {}
        for d, m in mats.items():
            if not isinstance(m, Mat):
                m = Mat.from_rows(m)
            if m.rows != target.dim(d) or m.cols != source.dim(d):
                raise DglaError(f"map shape mismatch at degree {d}")
            if not m.is_zero():
                self.mats[int(d)] = m

    def mat(self, deg: int) -> Mat:
        m = self.mats.get(deg)
        return m if m is not None else Mat(self.target.dim(deg), self.source.dim(deg))

    def columns(self, deg: int) -> list:
        """Sparse columns of mat(deg) (see Mat.columns), built once on
        first use."""
        cols = self._cols.get(deg)
        if cols is None:
            cols = self._cols[deg] = self.mat(deg).columns()
        return cols

    def validate(self, src: IntTable | None = None, tgt: IntTable | None = None):
        """Check f d = d f, then f[x, y] = [f x, f y], on Python ints: M is
        the map times D_f, the lcm of its denominators, and src and tgt the
        IntTables (built when not given). They compare D_ds T_d M with D_dt
        M S_d, and D_f D_t sum T_s M with D_s sum M M T_t."""
        s = IntTable(self.source) if src is None else src
        t = IntTable(self.target) if tgt is None else tgt
        df, rows, cols = _cleared(self.mats)
        cols = {d: cols.get(d) or [()] * n for d, n in self.source.dims.items()}
        rows = {d: rows.get(d) or [()] * n for d, n in self.target.dims.items()}
        for d in self.source.degrees():
            n, td, fd = self.target.dim(d + 1), t.dcols.get(d), cols.get(d + 1)
            if n and any([_image(td, fx, n, s.dd) != _image(fd, dx, n, t.dd)
                          for fx, dx in zip(cols[d], s.dcols[d])]):
                raise DglaError(f"map does not commute with d at degree {d}")
        # f[x, y] - [f x, f y] for one x: diff[(d2, j)] sums the brackets whose
        # left argument is x (source) or a row of f x (target), times M.
        (ds, sbr, src_left), (dt, tbr, tgt_left) = s.bracket, t.bracket
        lsc = df * dt
        for d1, i in self.source.basis_keys():
            diff: dict = {}
            for key in src_left.get((d1, i), ()):
                m = cols[d1 + key[2]]
                v = diff.setdefault(key[2:], {})
                for k, c in sbr[key]:
                    c *= lsc
                    for r, e in m[k]:
                        v[r] = v.get(r, 0) + c * e
            for r1, a in cols[d1][i]:
                a *= ds
                for key in tgt_left.get((d1, r1), ()):
                    d2 = key[2]
                    for j, b in rows[d2][key[3]]:
                        ab = a * b
                        v = diff.setdefault((d2, j), {})
                        for k, c in tbr[key]:
                            v[k] = v.get(k, 0) - ab * c
            bad = [key for key, v in diff.items() if any(v.values())]
            if bad:
                d2, j = min(bad)
                raise DglaError(
                    f"map is not a Lie homomorphism on ({d1},{i}), ({d2},{j})"
                )

    def compose(self, inner: "DglaMap") -> "DglaMap":
        if inner.target is not self.source:
            raise DglaError("composition mismatch")
        degs = set(inner.source.dims)
        mats = {d: self.mat(d) @ inner.mat(d) for d in degs}
        return DglaMap(inner.source, self.target, mats)

    @classmethod
    def identity(cls, L: Dgla) -> "DglaMap":
        return cls(L, L, {d: Mat.identity(n) for d, n in L.dims.items()})

    def eq(self, other: "DglaMap") -> bool:
        if self.source is not other.source or self.target is not other.target:
            return False
        degs = set(self.mats) | set(other.mats)
        return all(self.mat(d) == other.mat(d) for d in degs)


def sum_dgla(parts: list, label: str = "") -> Dgla:
    """Direct sum of dgLas: the differential is block diagonal, and the
    bracket table is each summand's with every index shifted by its
    offset."""
    degs = set().union(*(p.dims for p in parts))
    sizes = {d: [p.dim(d) for p in parts] for d in degs | {d + 1 for d in degs}}
    offs = {d: list(accumulate(sizes[d], initial=0)) for d in degs}
    dims = {d: off[-1] for d, off in offs.items() if off[-1]}
    diffs = {}
    for d in degs:
        m = Mat.blocks(
            sizes[d + 1], sizes[d], {(pi, pi): p.diff(d) for pi, p in enumerate(parts)}
        )
        if m.rows and m.cols and not m.is_zero():
            diffs[d] = m

    def table():
        return {
            (d1, offs[d1][pi] + i, d2, offs[d2][pi] + j): [
                (offs[d1 + d2][pi] + k, c) for k, c in val
            ]
            for pi, p in enumerate(parts)
            for (d1, i, d2, j), val in p._br.items()
        }

    return Dgla(dims, diffs, table, label)


def direct_sum(parts: list) -> tuple:
    """sum_dgla(parts) with its injections and projections. Returns (sum,
    injections, projections): each projection is the transpose of its
    injection."""
    total, degs = sum_dgla(parts), set().union(*(p.dims for p in parts))
    injs, projs = [], []
    for pi, p in enumerate(parts):
        imats = {
            d: Mat.blocks([q.dim(d) for q in parts], (n,), {(pi, 0): Mat.identity(n)})
            for d in degs
            if (n := p.dim(d))
        }
        injs.append(DglaMap(p, total, imats))
        projs.append(DglaMap(total, p, {d: m.transpose() for d, m in imats.items()}))
    return total, injs, projs


# --- standard examples ----------------------------------------------------


def abelian_dgla(dims: dict, diffs: dict | None = None, label: str = "") -> Dgla:
    return Dgla(dims, diffs or {}, {}, label=label or "abelian")


def sl2() -> Dgla:
    """sl_2 in degree 0 with basis e, h, f and zero differential:
    [h, e] = 2e, [h, f] = -2f, [e, f] = h."""
    return Dgla({0: 3}, {}, {(0, 1, 0, 0): [(0, 2)], (0, 1, 0, 2): [(2, -2)],
                             (0, 0, 0, 2): [(1, 1)]}, label="sl2")


def elem_base_change(f, e: "Elem") -> "Elem":
    """Push every coefficient of an element forward along a local algebra
    map, keeping the Lie and form data; the result lives over the target
    ring in an otherwise identical context."""
    if e.ctx.artin is not f.source and e.ctx.artin != f.source:
        raise DglaError("element coefficients do not live over the map source")
    ctx = TensorCtx(e.ctx.dgla, f.target, e.ctx.form_vars)
    out: dict = {}
    for (deg, idx, am, pm, dm), c in e.terms.items():
        for tm, tc in f._mono_image(am).items():
            _bump(out, (deg, idx, tm, pm, dm), c * tc)
    return Elem.wrap(ctx, out)
