"""The three workloads: which reports run, and how their outputs are checked.

A workload is a list of Report entries (one CLI invocation each) built
from the workload seed, the inputs its set-up loads, and checks that
rest on the independent oracle and on properties of the mathematics,
never on saved copies of earlier output.

A check returns None when the output is right and otherwise a message.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field

import gen
import oracle


@dataclass
class Report:
    argv: list
    check: object  # callable (code, out, err) -> None | str
    # A report the program is known to get wrong on a fixed input: it is
    # counted as failed without making the run incorrect.
    expected_failure: str = ""


@dataclass
class Workload:
    reports: list
    setup_inputs: list
    # callables (outputs by report index) -> None | str, over several reports
    cross_checks: list = field(default_factory=list)


def _json_report(code, out, err, want_ok=True):
    """Parse a report; returns (report, None) or (None, message)."""
    if code is None:
        return None, f"no result: {err.strip()[-300:]}"
    try:
        rep = json.loads(out)
    except json.JSONDecodeError:
        return None, f"exit {code}, no JSON report: {err.strip()[-300:]}"
    if want_ok and (code != 0 or rep.get("ok") is not True):
        return None, f"exit {code}, ok = {rep.get('ok')!r}"
    return rep, None


def _trial_checks(rep: dict, trials: int) -> str | None:
    for c in rep["checks"]:
        if c["failures"] != 0:
            return f"{c['failures']} failures of {c['identity']!r}"
        if c["trials"] != trials:
            return f"{c['trials']} trials of {c['identity']!r}, expected {trials}"
    return None


# --- tensor-descent -----------------------------------------------------------------

# (command, builtin, ring, trials): each report takes about half a second
# or less on the reference host. The random elements a report samples
# follow its --seed, and with them its cost; the reports are chosen so
# that this spread stays small. Descent on sc-conjugated or sc-cech at t3
# or t4 is left out for that reason (one trial costs 0.5-5 s and varies
# by 13-16% in calls with the seed; at sqz2 by 3%), and so is decompose
# on end-two-step at fat2 (1.0-1.8 M calls for two trials). Diagrams
# with top level 3 (sc-end, sc-sl2) are left out: descent crashes on them.
TENSOR_REPORTS = [
    ("descent", "sc-twist-redundant", "t3", 2),
    ("descent", "sc-twist-redundant", "t4", 2),
    ("descent", "sc-twist-redundant", "fat2", 2),
    ("descent", "sc-conjugated", "sqz2", 1),
    ("descent", "sc-cech", "sqz2", 1),
    ("gauge", "sc-cech", "t3", 4),
    ("gauge", "sc-conjugated", "t3", 2),
    ("gauge", "end-two-step", "fat2", 8),
    ("mc", "sc-conjugated", "t3", 2),
    ("mc", "sc-cech", "t3", 2),
    ("mc", "end-acyclic", "t4", 8),
    ("decompose", "end-acyclic", "sqz2", 4),
    ("decompose", "sc-twist-redundant", "sqz2", 4),
]

TENSOR_INPUTS = sorted({f"builtin:{b}" for _, b, _, _ in TENSOR_REPORTS})


def serialise_builtins(names: list) -> dict:
    """The program's own serialisation of its builtin inputs, which the
    oracle then reads; run in a child so the parent stays untouched."""
    from mcdescent.io import dgla_to_json, load_builtin, sc_to_json

    out = {}
    for name in names:
        kind, value = load_builtin(name)
        out[name] = sc_to_json(value) if kind == "sc" else dgla_to_json(value)
    return out


def _weak(table: dict, top: int) -> bool:
    for i in range(1, top + 1):
        window = {-i} | ({-i + 1} if i >= 2 else set()) | ({-i + 2} if i >= 3 else set())
        if any(table.get((i, d)) for d in window):
            return False
    return True


def _check_sampling(cmd, parts: int, trials: int):
    def check(code, out, err):
        rep, bad = _json_report(code, out, err)
        if bad:
            return bad
        if len(rep["parts"]) != parts:
            return f"{len(rep['parts'])} parts, expected {parts}"
        want = {"mc": 4, "gauge": 4, "decompose": 3}[cmd]
        if len(rep["checks"]) != want:
            return f"{len(rep['checks'])} checks, expected {want}"
        return _trial_checks(rep, trials * parts)

    return check


def _check_descent(diagram: oracle.Diagram, ring: str, trials: int):
    table = diagram.negative_cohomology()
    strong, weak = not table, _weak(table, diagram.top)
    want_table = {f"level {p}, degree {d}": h for (p, d), h in sorted(table.items())}

    def check(code, out, err):
        rep, bad = _json_report(code, out, err)
        if bad:
            return bad
        hyp = rep["hypothesis"]
        if hyp["negative_cohomology"] != want_table:
            return f"negative cohomology {hyp['negative_cohomology']} != oracle {want_table}"
        if (hyp["strong"], hyp["weak"]) != (strong, weak):
            return f"hypothesis flags {hyp['strong'], hyp['weak']} != oracle {strong, weak}"
        if weak and diagram.top >= 2 and len(rep["checks"]) != 8:
            return f"{len(rep['checks'])} descent checks, expected 8"
        bad = _trial_checks(rep, trials)
        if bad:
            return bad
        if ring == "sqz2" and strong:
            pi0 = rep["pi0"]
            if not pi0 or pi0["tot_orbit_dim"] != pi0["groupoid_orbit_dim"] or not pi0["isomorphic"]:
                return f"orbit comparison {pi0}"
        return None

    return check


def tensor_descent(seed: int, builtins: dict) -> Workload:
    rng = random.Random(seed)
    reports = []
    for cmd, name, ring, trials in TENSOR_REPORTS:
        argv = [cmd, f"builtin:{name}", "--artin", ring, "--trials", str(trials),
                "--seed", str(rng.randrange(1 << 16))]
        doc = builtins[name]
        if cmd == "descent":
            check = _check_descent(oracle.Diagram(doc), ring, trials)
        else:
            parts = len(doc["levels"]) if doc["schema"] == "scdgla/1" else 1
            check = _check_sampling(cmd, parts, trials)
        reports.append(Report(argv, check))
    return Workload(reports, TENSOR_INPUTS)


# --- pipeline-a2 ----------------------------------------------------------------------


def _check_pipeline(entry: dict):
    src, tgt, alpha = entry["source"], entry["target"], entry["alpha"]
    x, y = (src[0], src[1]), (tgt[0], tgt[1])
    want_ext = {}
    for key, (a, b) in {"FF": (src, src), "GG": (tgt, tgt), "FG": (src, tgt)}.items():
        hom = oracle.a2_hom_dim(a, b)
        want_ext[key] = (hom, hom - oracle.euler_form((a[0], a[1]), (b[0], b[1])))
    want_h0 = oracle.morphism_h0(src, tgt, alpha)
    want_chi = oracle.euler_form(x, x) + oracle.euler_form(y, y) - oracle.euler_form(x, y)

    def check(code, out, err):
        rep, bad = _json_report(code, out, err)
        if bad:
            return bad
        r = rep["report"]
        for key, (hom, ext1) in want_ext.items():
            got = r["ext"][key] + [0, 0]
            if got[0] != hom or got[1] != ext1 or any(got[2:]):
                return f"Ext {key} = {r['ext'][key]}, oracle Hom {hom}, Ext^1 {ext1}"
        h = {int(d): v for d, v in r["h_cohomology"].items()}
        if any(v and not 0 <= d <= 2 for d, v in h.items()):
            return f"H outside degrees 0..2: {h}"
        if h.get(0, 0) != want_h0:
            return f"H^0 = {h.get(0, 0)}, oracle {want_h0}"
        chi = h.get(0, 0) - h.get(1, 0) + h.get(2, 0)
        if chi != want_chi:
            return f"H^0 - H^1 + H^2 = {chi}, Euler form gives {want_chi}"
        if not r["end_matches_ext"] or not r.get("les_exact", True):
            return "end_matches_ext or les_exact is false"
        return None

    return check


def _same_h_across_opens(pairs: list):
    def check(outputs: dict):
        for i, j in pairs:
            a = json.loads(outputs[i])["report"]["h_cohomology"]
            b = json.loads(outputs[j])["report"]["h_cohomology"]
            if a != b:
                return f"1 open gives H = {a}, 2 opens give {b}"
        return None

    return check


def pipeline_a2(seed: int, gen_dir: str) -> Workload:
    entries = gen.pipeline_inputs(seed, gen_dir)
    reports = [Report(["pipeline", e["path"]], _check_pipeline(e)) for e in entries]
    first = {}
    pairs = []
    for i, e in enumerate(entries):
        if e["opens"] == 1:
            first[e["name"]] = i
        else:
            pairs.append((first[e["name"]], i))
    return Workload(reports, [e["path"] for e in entries],
                    [_same_h_across_opens(pairs)])


# --- validate-cohomology ------------------------------------------------------------

_CAP = 4  # the CLI's default --max-degree


def _betti_json(b: dict) -> dict:
    return {str(d): h for d, h in sorted(b.items()) if abs(d) <= _CAP}


def _check_validate_ok(paths: list):
    def check(code, out, err):
        rep, bad = _json_report(code, out, err)
        if bad:
            return bad
        if [r["input"] for r in rep["results"]] != paths:
            return "results do not follow the inputs"
        return None

    return check


def _check_cohomology(paths: list):
    want = []
    for p in paths:
        with open(p, encoding="utf-8") as fh:
            doc = json.load(fh)
        if doc["schema"] == "dgla/1":
            g = oracle.Dgla(doc)
            euler = sum((-1) ** (d % 2) * n for d, n in g.dims.items())
            want.append({"betti": _betti_json(g.betti()), "euler": euler})
        else:
            dg = oracle.Diagram(doc)
            want.append({"levels": [_betti_json(g.betti()) for g in dg.levels],
                         "total": _betti_json(oracle.betti(*dg.total()))})

    def check(code, out, err):
        rep, bad = _json_report(code, out, err)
        if bad:
            return bad
        if len(rep["results"]) != len(want):
            return "one result per input expected"
        for row, w in zip(rep["results"], want):
            got = {k: row.get(k) for k in w}
            if got != w:
                return f"{row['input']}: {got} != oracle {w}"
        return None

    return check


_VIOLATION_WORDS = ("d^2", "antisymmetry", "Leibniz", "Jacobi", "face", "coface")


def _check_mutants(paths: list):
    def check(code, out, err):
        rep, bad = _json_report(code, out, err, want_ok=False)
        if bad:
            return bad
        if code != 1 or rep["ok"] is not False:
            return f"exit {code}, ok = {rep['ok']!r} on axiom-broken inputs"
        for row in rep["results"]:
            named = [v for v in row["violations"] if any(w in v for w in _VIOLATION_WORDS)]
            if row["ok"] is not False or not named:
                return f"{row['input']}: no named violation"
        return None

    return check


def _check_named_input_error(code, out, err):
    if code == 2 and err.startswith("input error:"):
        return None
    last = err.strip().splitlines()[-1] if err.strip() else ""
    return f"exit {code} instead of 2 with a named input error ({last})"


def _check_refused(code, out, err):
    if code == 2:
        return None
    rep, bad = _json_report(code, out, err, want_ok=False)
    if bad:
        return bad
    if rep.get("ok") is False:
        return None
    return f"exit {code}, ok = {rep.get('ok')!r} on a dgLa that breaks Jacobi"


def validate_cohomology(seed: int, gen_dir: str) -> Workload:
    files = gen.validate_inputs(seed, gen_dir)
    vendored = files["valid"][: len(gen.VENDORED)]
    generated = files["valid"][len(gen.VENDORED):]
    fixed = files["fixed"]
    reports = [
        Report(["validate", *vendored], _check_validate_ok(vendored)),
        Report(["cohomology", *vendored], _check_cohomology(vendored)),
        Report(["validate", *generated], _check_validate_ok(generated)),
        Report(["cohomology", *generated], _check_cohomology(generated)),
        Report(["validate", *files["mutants"]], _check_mutants(files["mutants"])),
        Report(["cohomology", fixed["coface"]], _check_named_input_error,
               expected_failure="cohomology on a diagram with a zeroed coface "
               "dies with a ValueError traceback instead of a named input error"),
        Report(["mc", fixed["jacobi"]], _check_refused,
               expected_failure="mc on a dgla/1 file whose bracket breaks "
               "Jacobi reports ok: true"),
    ]
    inputs = files["valid"] + files["mutants"] + [fixed["coface"], fixed["jacobi"]]
    return Workload(reports, inputs)


NAMES = ("tensor-descent", "pipeline-a2", "validate-cohomology")


def build(name: str, seed: int, gen_dir: str, run_child) -> Workload:
    """run_child(fn, *args) runs fn in a forked child with the program
    imported; used for what must touch the program outside a report."""
    if name == "tensor-descent":
        names = [s[len("builtin:"):] for s in TENSOR_INPUTS]
        return tensor_descent(seed, run_child(serialise_builtins, names))
    os.makedirs(gen_dir, exist_ok=True)
    if name == "pipeline-a2":
        return pipeline_a2(seed, gen_dir)
    return validate_cohomology(seed, gen_dir)
