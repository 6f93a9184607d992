"""Seeded inputs of the pipeline-a2 and validate-cohomology workloads.

Everything here is written from the definitions with the oracle's exact
arithmetic; nothing imports mcdescent. The same seed writes the same
bytes.

pipeline-a2: pipeline/1 morphisms of representations of the quiver
1 -> 2 (the path algebra A2). Each instance is a fixed isomorphism class
(S1, S2, P1 and small direct sums, alpha zero or not) whose numbers the
seed changes by a random change of basis at each vertex of source and
target.

validate-cohomology: copies of the bundled dgla/1 and scdgla/1 files
(data/), seed-generated dgLas (endomorphism dgLas of small complexes in a
random basis) and a seed-generated Cech diagram (three opens, sections
twisted by random chain automorphisms), plus axiom-broken mutants.

Regenerate every input of both workloads for one seed with

    python3 mcbench/gen.py --seed 1 --out mcbench/_generated/seed-1
"""

from __future__ import annotations

import argparse
import json
import os
import random
from fractions import Fraction
from itertools import combinations

import oracle
from oracle import Dgla, inverse, matmul, num_json, zeros

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(HERE, "data")


def write_json(path: str, obj) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return path


def mat_json(m: list) -> list:
    return [[num_json(v) for v in row] for row in m]


def random_invertible(rng: random.Random, n: int) -> list:
    """An invertible n x n matrix with entries in +-1..3, none zero: a zero
    entry would put the transformed data in special position and change
    how much work the program does, not just the numbers."""
    while True:
        m = [[Fraction(rng.choice((-3, -2, -1, 1, 2, 3))) for _ in range(n)] for _ in range(n)]
        if n == 0 or inverse(m) is not None:
            return m


# --- pipeline-a2 ---------------------------------------------------------------

# name: (source (d1, d2, arrow), target (d1, d2, arrow), alpha on the total
# spaces, opens). Single-report times on the reference host are 0.1-1 s.
# Left out: larger instances (2-10 s), S2^2 -> S2^2 with a rank-1 alpha
# (about 7 s against 0.4 s for the identity), and P1 -> S1, S1 -> S1^2,
# which do not finish in build_H within a minute.
_S1 = (1, 0, [])
_S2 = (0, 1, [[]])
_P1 = (1, 1, [[1]])
_S2_2 = (0, 2, [[], []])
_P1_S2 = (1, 2, [[1], [0]])

PIPELINE_INSTANCES = [
    ("s2-p1", _S2, _P1, [[0], [1]], (1, 2)),
    ("p1-p1s2", _P1, _P1_S2, [[1, 0], [0, 1], [0, 0]], (1, 2)),
    ("s2-s1-zero", _S2, _S1, [[0]], (1,)),
    ("s2-s2sq", _S2, _S2_2, [[1], [0]], (1,)),
    ("s2sq-s2sq", _S2_2, _S2_2, [[1, 0], [0, 1]], (1,)),
    ("s1-s2-zero", _S1, _S2, [[0]], (1,)),
]


def _rep(d1: int, d2: int, arrow) -> tuple:
    return d1, d2, [[Fraction(v) for v in row] for row in arrow]


def _block_diag(a: list, b: list, na: int, nb: int) -> list:
    m = zeros(na + nb, na + nb)
    for i in range(na):
        for j in range(na):
            m[i][j] = a[i][j]
    for i in range(nb):
        for j in range(nb):
            m[na + i][na + j] = b[i][j]
    return m


def _change_basis(rng: random.Random, rep: tuple) -> tuple:
    """A random isomorphic copy: (new rep, total basis-change matrix)."""
    d1, d2, arrow = rep
    p1, p2 = random_invertible(rng, d1), random_invertible(rng, d2)
    new_arrow = matmul(matmul(p2, arrow, inner=d2), inverse(p1), inner=d1)
    return (d1, d2, new_arrow), _block_diag(p1, p2, d1, d2)


def _module_json(rep: tuple) -> dict:
    d1, d2, arrow = rep
    return {"dims": [d1, d2], "arrow": mat_json(arrow)}


def pipeline_inputs(seed: int, out: str) -> list:
    """Write the pipeline/1 files; returns one entry per report with the
    data the output checks need."""
    rng = random.Random(seed)
    entries = []
    for name, src, tgt, alpha, opens in PIPELINE_INSTANCES:
        src, tgt = _rep(*src), _rep(*tgt)
        alpha = [[Fraction(v) for v in row] for row in alpha]
        fs, ps = _change_basis(rng, src)
        gs, pt = _change_basis(rng, tgt)
        fd, gd = src[0] + src[1], tgt[0] + tgt[1]
        alpha2 = matmul(matmul(pt, alpha, inner=gd), inverse(ps), inner=fd)
        for n in opens:
            doc = {
                "schema": "pipeline/1",
                "label": f"{name} ({n} open{'s' if n > 1 else ''})",
                "algebra": "a2",
                "source": _module_json(fs),
                "target": _module_json(gs),
                "alpha": mat_json(alpha2),
                "opens": n,
            }
            path = write_json(os.path.join(out, f"pipeline-{name}-{n}.json"), doc)
            entries.append({"path": path, "name": name, "opens": n,
                            "source": fs, "target": gs, "alpha": alpha2})
    return entries


# --- endomorphism dgLas -----------------------------------------------------------


def end_dgla_doc(vdims: dict, vdiff: dict, label: str) -> dict:
    """dgla/1 document of End(V) for a complex V: degree p is
    Hom(V, V[p]) on matrix units, d(f) = d f - (-1)^p f d, bracket the
    graded commutator."""
    units = {}  # p -> [(i, r, c)]: the unit E(i -> i+p)[r, c]
    for i, ni in vdims.items():
        for j, nj in vdims.items():
            for r in range(nj):
                for c in range(ni):
                    units.setdefault(j - i, []).append((i, r, c))
    index = {p: {u: t for t, u in enumerate(us)} for p, us in units.items()}

    def apply_d(p, i, r, c) -> dict:
        out: dict = {}
        dm = vdiff.get(i + p)  # d . E: rows of d_V out of V^(i+p)
        if dm is not None:
            for rr in range(len(dm)):
                if dm[rr][r]:
                    key = index[p + 1][(i, rr, c)]
                    out[key] = out.get(key, 0) + dm[rr][r]
        dm2 = vdiff.get(i - 1)  # E . d: columns of d_V into V^i
        if dm2 is not None:
            sgn = -((-1) ** (p % 2))
            for cc in range(len(dm2[0])):
                if dm2[c][cc]:
                    key = index[p + 1][(i - 1, r, cc)]
                    out[key] = out.get(key, 0) + sgn * dm2[c][cc]
        return out

    diffs = {}
    for p, us in units.items():
        if p + 1 not in units:
            continue
        m = zeros(len(units[p + 1]), len(us))
        for col, u in enumerate(us):
            for row, v in apply_d(p, *u).items():
                m[row][col] += v
        if any(v for row in m for v in row):
            diffs[str(p)] = mat_json(m)

    def compose(p1, u1, p2, u2):
        (i1, r1, c1), (i2, r2, c2) = u1, u2
        if i2 + p2 != i1 or c1 != r2:
            return None
        return index[p1 + p2].get((i2, r1, c2))

    brackets = []
    keys = [(p, t) for p in sorted(units) for t in range(len(units[p]))]
    for (p1, a) in keys:
        for (p2, b) in keys:
            if (p1, a) > (p2, b) or p1 + p2 not in units:
                continue
            u1, u2 = units[p1][a], units[p2][b]
            out: dict = {}
            k = compose(p1, u1, p2, u2)
            if k is not None:
                out[k] = out.get(k, 0) + 1
            k = compose(p2, u2, p1, u1)
            if k is not None:
                out[k] = out.get(k, 0) - (-1) ** ((p1 * p2) % 2)
            for k, v in sorted(out.items()):
                if v:
                    brackets.append([p1, a, p2, b, k, v])
    return {
        "schema": "dgla/1",
        "label": label,
        "dims": {str(p): len(us) for p, us in sorted(units.items())},
        "diffs": diffs,
        "brackets": brackets,
    }


def rebase_dgla_doc(doc: dict, rng: random.Random) -> dict:
    """The same dgLa in a random basis of each degree: x' = P x."""
    g = Dgla(doc)
    P = {d: random_invertible(rng, n) for d, n in g.dims.items()}
    Pinv = {d: inverse(m) for d, m in P.items()}
    diffs = {}
    for d, m in g.diffs.items():
        diffs[str(d)] = mat_json(matmul(matmul(P[d + 1], m), Pinv[d]))
    brackets = []
    keys = list(g.basis())
    for (d1, i) in keys:
        for (d2, j) in keys:
            if (d1, i) > (d2, j) or not g.dim(d1 + d2):
                continue
            x = [row[i] for row in Pinv[d1]]
            y = [row[j] for row in Pinv[d2]]
            z = g.bracket(d1, x, d2, y)
            img = [sum((P[d1 + d2][r][t] * z[t] for t in range(len(z))), Fraction(0))
                   for r in range(len(z))]
            for k, c in enumerate(img):
                if c:
                    brackets.append([d1, i, d2, j, k, num_json(c)])
    return {"schema": "dgla/1", "label": doc["label"],
            "dims": {str(d): n for d, n in sorted(g.dims.items())},
            "diffs": diffs, "brackets": brackets}


# --- a Cech diagram with twisted sections -------------------------------------------

# V = (V^0 = Q^2 -> V^1 = Q), d = [1 0]; End(V) has dims {-1: 2, 0: 5, 1: 2}.
_V_DIMS = {0: 2, 1: 1}
_V_DIFF = {0: [[Fraction(1), Fraction(0)]]}


def _random_chain_auto(rng: random.Random) -> dict:
    """g = (g0, g1) invertible with g1 d = d g0 for the V above:
    g0 = [[a, 0], [c, e]], g1 = [[a]]."""
    def nonzero():
        return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))

    a, c, e = nonzero(), Fraction(rng.randint(-3, 3)), nonzero()
    return {0: [[a, Fraction(0)], [c, e]], 1: [[a]]}


def _conj_matrix(units: list, tgt_units: list, g: dict, ginv: dict, p: int) -> list:
    """Matrix of f -> g f g^-1 on End^p in the matrix-unit basis."""
    pos = {u: t for t, u in enumerate(tgt_units)}
    m = zeros(len(tgt_units), len(units))
    for col, (i, r, c) in enumerate(units):
        gi, gin = g[i + p], ginv[i]
        for r2 in range(len(gi)):
            for c2 in range(len(gin[0])):
                v = gi[r2][r] * gin[c][c2]
                if v:
                    m[pos[(i, r2, c2)]][col] += v
    return m


def cech_diagram_doc(rng: random.Random, n_opens: int = 3, label: str = "") -> dict:
    """Cech diagram of the presheaf U_S -> End(V), restriction
    rho_{S<T} = phi_T phi_S^-1 with phi_S conjugation by a random chain
    automorphism g_S. Level p is the product over (p+1)-subsets; coface k
    omits the k-th open. The cosimplicial identities hold by
    construction."""
    L = end_dgla_doc(_V_DIMS, _V_DIFF, "end")
    units: dict = {}
    for i, ni in _V_DIMS.items():
        for j, nj in _V_DIMS.items():
            for r in range(nj):
                for c in range(ni):
                    units.setdefault(j - i, []).append((i, r, c))
    subsets = [list(combinations(range(n_opens), p + 1)) for p in range(n_opens)]
    gs = {}
    for level in subsets:
        for S in level:
            g = _random_chain_auto(rng)
            gs[S] = (g, {d: inverse(m) for d, m in g.items()})
    dims = {p: len(us) for p, us in units.items()}

    def level_doc(p):
        n = len(subsets[p])
        brackets = []
        for b in range(n):
            for d1, i, d2, j, k, c in L["brackets"]:
                brackets.append([d1, b * dims[d1] + i, d2, b * dims[d2] + j,
                                 b * dims[d1 + d2] + k, c])
        diffs = {}
        for key, rows in L["diffs"].items():
            d = int(key)
            m = zeros(n * dims[d + 1], n * dims[d])
            for b in range(n):
                for r, row in enumerate(rows):
                    for c, v in enumerate(row):
                        m[b * dims[d + 1] + r][b * dims[d] + c] = oracle.num(v)
            diffs[key] = mat_json(m)
        return {"schema": "dgla/1", "label": f"level {p}",
                "dims": {str(d): n * k for d, k in sorted(dims.items())},
                "diffs": diffs, "brackets": sorted(brackets)}

    cofaces = {}
    for p in range(1, n_opens):
        for k in range(p + 1):
            mats = {}
            for d, us in sorted(units.items()):
                m = zeros(len(subsets[p]) * dims[d], len(subsets[p - 1]) * dims[d])
                for tb, T in enumerate(subsets[p]):
                    S = T[:k] + T[k + 1:]
                    sb = subsets[p - 1].index(S)
                    gT, gTinv = gs[T]
                    gS, gSinv = gs[S]
                    h = {i: matmul(gT[i], gSinv[i]) for i in gT}
                    hinv = {i: matmul(gS[i], gTinv[i]) for i in gT}
                    block = _conj_matrix(us, us, h, hinv, d)
                    for r in range(dims[d]):
                        for c in range(dims[d]):
                            m[tb * dims[d] + r][sb * dims[d] + c] = block[r][c]
                mats[str(d)] = mat_json(m)
            cofaces[f"{p},{k}"] = mats
    return {"schema": "scdgla/1", "label": label,
            "levels": [level_doc(p) for p in range(n_opens)], "cofaces": cofaces}


# --- mutants ------------------------------------------------------------------------


def zero_coface(doc: dict, key: str) -> dict:
    out = json.loads(json.dumps(doc))
    out["cofaces"][key] = {
        d: [[0] * len(row) for row in rows] for d, rows in doc["cofaces"][key].items()
    }
    out["label"] = doc.get("label", "") + " (zeroed coface " + key + ")"
    return out


def perturb_bracket(doc: dict, rng: random.Random) -> dict:
    """Add 1 to one stored structure constant, chosen so that the oracle
    finds a broken axiom."""
    order = list(range(len(doc["brackets"])))
    rng.shuffle(order)
    for t in order:
        out = json.loads(json.dumps(doc))
        entry = out["brackets"][t]
        entry[5] = num_json(oracle.num(entry[5]) + 1)
        if not oracle.dgla_axioms_hold(Dgla(out)):
            out["label"] = doc["label"] + " (perturbed bracket)"
            return out
    raise ValueError("no single perturbation breaks the axioms")


def break_dsq(doc: dict, rng: random.Random) -> dict:
    """Change one differential entry so that d^2 != 0."""
    g = Dgla(doc)
    cands = [d for d in sorted(g.diffs) if d + 1 in g.diffs or d - 1 in g.diffs]
    for _ in range(100):
        d = rng.choice(cands)
        out = json.loads(json.dumps(doc))
        m = out["diffs"][str(d)]
        r, c = rng.randrange(len(m)), rng.randrange(len(m[0]))
        m[r][c] = num_json(oracle.num(m[r][c]) + rng.choice([-1, 1]))
        if not oracle.is_complex(Dgla(out).diffs):
            out["label"] = doc["label"] + " (d^2 != 0)"
            return out
    raise ValueError("no perturbation breaks d^2 = 0")


# --- validate-cohomology --------------------------------------------------------------

VENDORED = ["sl2.json", "end-two-step.json", "sc-constant-sl2.json",
            "sc-counterexample.json", "sc-conjugated-cech.json"]


def _load(name: str) -> dict:
    with open(os.path.join(DATA, name), encoding="utf-8") as fh:
        return json.load(fh)


def validate_inputs(seed: int, out: str) -> dict:
    """Write the validate-cohomology files; returns their paths by role:
    valid (checked against the oracle), mutants (must fail validation)
    and the two fixed inputs the program is known to mishandle."""
    rng = random.Random(seed)
    valid = [os.path.relpath(os.path.join(DATA, n)) for n in VENDORED]
    v1 = {0: 1, 1: 1, 2: 1}
    d1 = {0: [[Fraction(rng.choice((-2, -1, 1, 2)))]], 1: [[Fraction(0)]]}
    end1 = rebase_dgla_doc(end_dgla_doc(v1, d1, "end of a three-term complex"), rng)
    v2 = {-1: 1, 0: 2}
    d2 = {-1: [[Fraction(1)], [Fraction(rng.randint(-2, 2))]]}
    end2 = rebase_dgla_doc(end_dgla_doc(v2, d2, "end of a two-term complex"), rng)
    cech = cech_diagram_doc(rng, 3, "twisted cech diagram")
    for name, doc in (("gen-end1.json", end1), ("gen-end2.json", end2),
                      ("gen-cech.json", cech)):
        valid.append(write_json(os.path.join(out, name), doc))
    mutants = [
        write_json(os.path.join(out, "mut-coface.json"), zero_coface(cech, "1,0")),
        write_json(os.path.join(out, "mut-bracket.json"), perturb_bracket(end2, rng)),
        write_json(os.path.join(out, "mut-dsq.json"), break_dsq(end1, rng)),
    ]
    # Seed-independent inputs of the two reports the program gets wrong.
    sl2 = _load("sl2.json")
    for entry in sl2["brackets"]:
        if entry[:5] == [0, 0, 0, 1, 0]:  # [e, h] = -2 e becomes -3 e
            entry[5] = -3
    sl2["label"] = "sl2 with [e, h] = -3 e (breaks Jacobi)"
    fixed = {
        "coface": write_json(os.path.join(out, "fixed-zeroed-coface.json"),
                             zero_coface(_load("sc-conjugated-cech.json"), "1,0")),
        "jacobi": write_json(os.path.join(out, "fixed-jacobi.json"), sl2),
    }
    return {"valid": valid, "mutants": mutants, "fixed": fixed}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="directory for the files")
    args = p.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)
    pipe = pipeline_inputs(args.seed, args.out)
    val = validate_inputs(args.seed, args.out)
    print(f"wrote {len(pipe)} pipeline/1 files and "
          f"{len(val['valid']) - len(VENDORED) + len(val['mutants']) + len(val['fixed'])}"
          f" dgla/1 and scdgla/1 files to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
