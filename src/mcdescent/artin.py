"""Local Artinian coefficient rings presented as monomial quotients.

A ring here is Q[x_1..x_g]/I for a cofinite monomial ideal I, so it is
graded by total degree and the m-adic filtration is the degree filtration:
m^k has basis the surviving monomials of total degree >= k. That grading is
what lets the gauge-decomposition solvers work level by level.

Monomials are exponent tuples; the unit is the all-zero tuple. Elements of
the ring itself are dicts {monomial: rational}, but most of the package
works with tensors L (x) m and only consumes the monomial arithmetic.
"""

from __future__ import annotations

import itertools

from .ratio import ZERO, Q, rat

Mono = tuple  # exponent tuple, one slot per variable


def mono_degree(m: Mono) -> int:
    return sum(m)


def mono_mul_raw(a: Mono, b: Mono) -> Mono:
    return tuple(x + y for x, y in zip(a, b, strict=True))


def mono_divides(a: Mono, b: Mono) -> bool:
    return all(x <= y for x, y in zip(a, b, strict=True))


class ArtinError(ValueError):
    pass


class ArtinAlgebra:
    """Q[x_1..x_g] / (monomial relations), local Artinian, residue field Q.

    relations: iterable of exponent tuples generating the ideal. The ideal
    must contain a pure power of every variable (this is exactly what makes
    the quotient finite-dimensional).
    """

    def __init__(self, nvars: int, relations, names=None, label: str = ""):
        if nvars < 0:
            raise ArtinError("nvars must be >= 0")
        self.nvars = nvars
        self.label = label
        rel = []
        for r in relations:
            r = tuple(int(e) for e in r)
            if len(r) != nvars or any(e < 0 for e in r):
                raise ArtinError(f"bad relation monomial {r}")
            if mono_degree(r) == 0:
                raise ArtinError("relation 1 = 0 would kill the ring")
            rel.append(r)
        # minimalise the generating set
        self.relations = []
        for r in sorted(set(rel), key=lambda m: (mono_degree(m), m)):
            if not any(mono_divides(s, r) for s in self.relations):
                self.relations.append(r)
        if names is None:
            names = (
                ["t"]
                if nvars == 1
                else [f"x{i + 1}" for i in range(nvars)]
            )
        if len(names) != nvars or len(set(names)) != nvars:
            raise ArtinError("need distinct names, one per variable")
        self.names = list(names)
        # cofiniteness: each variable needs a pure power among the relations
        self._caps = []
        for i in range(nvars):
            cap = None
            for r in self.relations:
                if r[i] > 0 and all(r[j] == 0 for j in range(nvars) if j != i):
                    cap = r[i] if cap is None else min(cap, r[i])
            if cap is None:
                raise ArtinError(
                    f"ideal is not cofinite: no pure power of {self.names[i]}"
                )
            self._caps.append(cap)
        # enumerate the surviving monomials
        ranges = [range(c) for c in self._caps]
        basis = []
        for exps in itertools.product(*ranges):
            if not any(mono_divides(r, exps) for r in self.relations):
                basis.append(exps)
        basis.sort(key=lambda m: (mono_degree(m), m))
        self.basis: list[Mono] = basis
        self.index = {m: i for i, m in enumerate(basis)}
        # each basis monomial's m-adic level (its total degree), in basis order
        self.levels: dict = {m: mono_degree(m) for m in basis}
        self.unit: Mono = (0,) * nvars
        assert self.basis[0] == self.unit
        self.maximal_basis: list[Mono] = basis[1:]
        self.max_degree = mono_degree(basis[-1]) if len(basis) > 1 else 0
        # product of every ordered pair of basis monomials, None in the ideal
        self._products = {}
        for a in basis:
            for b in basis:
                p = mono_mul_raw(a, b)
                self._products[a, b] = None if self.in_ideal(p) else p

    # --- structure ------------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def mdim(self) -> int:
        """Dimension of the maximal ideal."""
        return len(self.maximal_basis)

    @property
    def nu(self) -> int:
        """Nilpotency index: smallest n with m^n = 0."""
        return self.max_degree + 1

    def in_ideal(self, m: Mono) -> bool:
        return any(mono_divides(r, m) for r in self.relations)

    def mono_mul(self, a: Mono, b: Mono) -> Mono | None:
        """Product of two basis monomials, or None when it dies in the ideal.

        Defined on basis monomials only: a monomial outside self.basis (one
        in the ideal, or of the wrong length) raises KeyError. The products
        are tabulated once, in the constructor.
        """
        return self._products[a, b]

    def level(self, m: Mono) -> int:
        """m-adic level of a basis monomial: its total degree (the quotient
        is graded), read from levels."""
        return self.levels[m]

    def monomials_of_level(self, k: int) -> list[Mono]:
        return [m for m, level in self.levels.items() if level == k]

    def is_square_zero(self) -> bool:
        """True when m^2 = 0."""
        return self.max_degree <= 1

    def mono_str(self, m: Mono) -> str:
        if m == self.unit:
            return "1"
        parts = []
        for name, e in zip(self.names, m, strict=True):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts)

    def __repr__(self):
        rels = ", ".join(self.mono_str(r) for r in self.relations)
        return f"ArtinAlgebra(Q[{', '.join(self.names)}]/({rels}), dim {self.dim})"

    def __eq__(self, other):
        if not isinstance(other, ArtinAlgebra):
            return NotImplemented
        return (
            self.nvars == other.nvars
            and self.relations == other.relations
            and self.names == other.names
        )

    # --- element arithmetic (dict monomial -> Q) -------------------------

    def elem(self, coeffs: dict) -> dict:
        out = {}
        for m, c in coeffs.items():
            m = tuple(m)
            c = rat(c)
            if c == 0:
                continue
            if m not in self.index:
                raise ArtinError(f"monomial {m} not in the basis")
            out[m] = c
        return out

    def mul(self, a: dict, b: dict) -> dict:
        out: dict = {}
        for ma, ca in a.items():
            for mb, cb in b.items():
                p = self.mono_mul(ma, mb)
                if p is None:
                    continue
                v = out.get(p, ZERO) + ca * cb
                if v == 0:
                    out.pop(p, None)
                else:
                    out[p] = v
        return out

    def add(self, a: dict, b: dict) -> dict:
        out = dict(a)
        for m, c in b.items():
            v = out.get(m, ZERO) + c
            if v == 0:
                out.pop(m, None)
            else:
                out[m] = v
        return out


# --- stock builders ------------------------------------------------------


def dual_numbers() -> ArtinAlgebra:
    """Q[t]/t^2."""
    return ArtinAlgebra(1, [(2,)], names=["t"], label="dual")


def truncated_poly(order: int, name: str = "t") -> ArtinAlgebra:
    """Q[t]/t^order (order >= 2)."""
    if order < 2:
        raise ArtinError("order must be >= 2")
    return ArtinAlgebra(1, [(order,)], names=[name], label=f"t{order}")


def square_zero(n: int) -> ArtinAlgebra:
    """Q[x_1..x_n] with every product of two variables killed."""
    rels = []
    for i in range(n):
        for j in range(i, n):
            e = [0] * n
            e[i] += 1
            e[j] += 1
            rels.append(tuple(e))
    return ArtinAlgebra(n, rels, label=f"sqz{n}")


def fat_point() -> ArtinAlgebra:
    """Q[x,y]/(x^2, y^2): dim 4, nilpotency index 3."""
    return ArtinAlgebra(2, [(2, 0), (0, 2)], names=["x", "y"], label="fat2")


_BUILTIN = {
    "dual": dual_numbers,
    "t3": lambda: truncated_poly(3),
    "t4": lambda: truncated_poly(4),
    "t5": lambda: truncated_poly(5),
    "sqz2": lambda: square_zero(2),
    "sqz3": lambda: square_zero(3),
    "fat2": fat_point,
}


def builtin_artin(name: str) -> ArtinAlgebra:
    try:
        return _BUILTIN[name]()
    except KeyError:
        raise ArtinError(
            f"unknown builtin ring {name!r}; choose from {sorted(_BUILTIN)}"
        ) from None


def builtin_artin_names() -> list[str]:
    return sorted(_BUILTIN)


# --- morphisms ------------------------------------------------------------


class ArtinMorphism:
    """Local algebra map: each source generator goes to a maximal-ideal
    element of the target, and every source relation must die."""

    def __init__(self, source: ArtinAlgebra, target: ArtinAlgebra, images):
        self.source = source
        self.target = target
        if len(images) != source.nvars:
            raise ArtinError("one image per source generator is required")
        self.images = [target.elem(im) for im in images]
        for i, im in enumerate(self.images):
            if target.unit in im:
                raise ArtinError(f"image of generator {i} is not in the maximal ideal")
        for rel in source.relations:
            if self._mono_image(rel):
                raise ArtinError(f"relation {rel} does not map to zero")

    def _mono_image(self, m: Mono) -> dict:
        out = {self.target.unit: Q(1)}
        for i, e in enumerate(m):
            for _ in range(e):
                out = self.target.mul(out, self.images[i])
                if not out:
                    return {}
        return out

    def apply(self, u: dict) -> dict:
        """Push an element forward, monomial by monomial."""
        out: dict = {}
        for m, c in self.source.elem(u).items():
            for tm, tc in self._mono_image(m).items():
                v = out.get(tm, ZERO) + c * tc
                if v == 0:
                    out.pop(tm, None)
                else:
                    out[tm] = v
        return out

    def compose(self, other: "ArtinMorphism") -> "ArtinMorphism":
        """self after other."""
        if other.target is not self.source and other.target != self.source:
            raise ArtinError("composition endpoints do not match")
        return ArtinMorphism(
            other.source, self.target, [self.apply(im) for im in other.images]
        )

    @classmethod
    def identity(cls, a: ArtinAlgebra) -> "ArtinMorphism":
        images = []
        for i in range(a.nvars):
            e = tuple(1 if j == i else 0 for j in range(a.nvars))
            images.append({e: Q(1)} if e in a.index else {})
        return cls(a, a, images)

    def __repr__(self):
        return f"ArtinMorphism({self.source.label or self.source.nvars} -> {self.target.label or self.target.nvars})"


def base_change(f: ArtinMorphism, u: dict) -> dict:
    """Push a coefficient element forward along a local algebra map."""
    return f.apply(u)
