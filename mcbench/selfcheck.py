"""Self-check of the benchmark itself.

    python3 mcbench/selfcheck.py

from the root of a checkout. It verifies that

  1. a minimal-length run of each workload, untraced and traced, prints
     every metric BENCHMARK.json names, with its unit, and no other;
  2. every output check fails on a deliberately corrupted report, and
     the byte-identity check fails on a report that changes between runs;
  3. the run exits non-zero without printing a result when the program
     sources are missing.

Exits 0 when all hold; prints one line per verified property.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import harness  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

FAILURES = []


def expect(cond: bool, what: str):
    print(("ok    " if cond else "FAIL  ") + what, flush=True)
    if not cond:
        FAILURES.append(what)


def run_bench(workload: str, trace: int, cwd: str = ".") -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "mcbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def check_metric_names():
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    for key, table in (("end_to_end", metrics.END_TO_END), ("per_layer", metrics.PER_LAYER)):
        listed = [(m["name"], m["unit"], m["better"]) for m in bench[key]]
        expect(listed == list(table), f"BENCHMARK.json {key} matches metrics.py")
    for name in workloads.NAMES:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_bench(name, trace)
            try:
                res = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                expect(False, f"{name} --trace {trace} prints a result")
                continue
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            expect(proc.returncode == 0 and sorted(res) == ["attempted", "correct", "failed", "metrics"]
                   and got == want and res["correct"] is True,
                   f"{name} --trace {trace} prints every {key} metric")


# --- corrupted reports ----------------------------------------------------------


def _edit(out: str, fn) -> str:
    rep = json.loads(out)
    fn(rep)
    return json.dumps(rep, sort_keys=True, indent=2) + "\n"


def _set(path: list, value):
    def fn(rep):
        node = rep
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value(node[path[-1]]) if callable(value) else value
    return fn


def _ext2(ext: list):
    """Make Ext^2 = 1 in a list of Ext dims that may omit trailing zeros."""
    ext.extend([0] * max(0, 2 - len(ext)) + [1])
    del ext[3:]
    ext[2] = 1


def corruptions(argv: list, code: int, out: str) -> list:
    """(description, code, stdout) triples, each of which a correct check
    must refuse."""
    cmd = argv[0]
    rep = json.loads(out) if out.strip() else {}
    cases = [("exit code 1", 1, out), ("no report", 0, "")]
    if "ok" in rep and rep["ok"] is True:
        cases.append(("ok false", 0, _edit(out, _set(["ok"], False))))
    if cmd in ("mc", "gauge", "decompose", "descent") and rep.get("checks"):
        cases.append(("a failed trial", 0, _edit(out, _set(["checks", 0, "failures"], 1))))
        cases.append(("a missing trial", 0, _edit(out, _set(["checks", -1, "trials"], lambda v: v - 1))))
    if cmd in ("mc", "gauge", "decompose"):
        cases.append(("a missing part", 0, _edit(out, lambda r: r["parts"].pop())))
    if cmd == "descent":
        cases.append(("a wrong negative-cohomology table", 0, _edit(
            out, _set(["hypothesis", "negative_cohomology"], {"level 1, degree -1": 1}))))
        cases.append(("a wrong hypothesis flag", 0, _edit(out, _set(["hypothesis", "strong"], False))))
        if rep.get("pi0"):
            cases.append(("unequal orbit dimensions", 0, _edit(
                out, _set(["pi0", "groupoid_orbit_dim"], lambda v: v + 1))))
    if cmd == "pipeline":
        for key in ("FF", "GG", "FG"):
            cases.append((f"Ext {key} off by one", 0, _edit(
                out, _set(["report", "ext", key, 0], lambda v: v + 1))))
            cases.append((f"Ext^2 {key} nonzero", 0, _edit(out, lambda r, k=key: _ext2(r["report"]["ext"][k]))))
        cases.append(("H^0 off by one", 0, _edit(
            out, _set(["report", "h_cohomology", "0"], lambda v: v + 1))))
        cases.append(("H^1 shifted, Euler characteristic broken", 0, _edit(
            out, lambda r: r["report"]["h_cohomology"].update(
                {"1": r["report"]["h_cohomology"].get("1", 0) + 1}))))
        cases.append(("H in degree 3", 0, _edit(
            out, lambda r: r["report"]["h_cohomology"].update({"3": 1}))))
        cases.append(("end_matches_ext false", 0, _edit(out, _set(["report", "end_matches_ext"], False))))
        if "les_exact" in rep.get("report", {}):
            cases.append(("les_exact false", 0, _edit(out, _set(["report", "les_exact"], False))))
    if cmd == "cohomology" and rep.get("results"):
        for t, row in enumerate(rep["results"]):
            if row["kind"] == "dgla":
                cases.append(("a wrong Betti number", 0, _edit(
                    out, _set(["results", t, "betti"], lambda b: {**b, "7": 1} if not b else {k: v + 1 for k, v in b.items()}))))
                cases.append(("a wrong Euler characteristic", 0, _edit(
                    out, _set(["results", t, "euler"], lambda v: v + 1))))
            else:
                cases.append(("a wrong total Betti table", 0, _edit(
                    out, _set(["results", t, "total"], lambda b: {**b, "2": b.get("2", 0) + 1}))))
                cases.append(("a wrong level Betti table", 0, _edit(
                    out, _set(["results", t, "levels", 0], lambda b: {**b, "0": b.get("0", 0) + 1}))))
    if cmd == "validate" and rep.get("ok") is True:
        cases.append(("results out of order", 0, _edit(out, lambda r: r["results"].reverse())))
    if cmd == "validate" and rep.get("ok") is False:
        cases.append(("a mutant that passes", 1, _edit(
            out, lambda r: r["results"][0].update({"ok": True, "violations": []}))))
        cases.append(("an unnamed violation", 1, _edit(
            out, lambda r: r["results"][-1].update({"violations": ["something is wrong"]}))))
        cases.append(("exit 0 on broken inputs", 0, out))
    return [c for c in cases if (c[1], c[2]) != (code, out)]


def check_corruptions(seed: int = 1):
    harness.prepare_parent(os.path.abspath("src"))
    for name in workloads.NAMES:
        gen_dir = os.path.join("mcbench", "_generated", f"selfcheck-{name}")
        wl = workloads.build(name, seed, gen_dir, harness.run_in_child)
        outs = {}
        for i, rep in enumerate(wl.reports):
            res = harness.run_report(rep.argv)
            outs[i] = res["out"]
            verdict = rep.check(res["code"], res["out"], res["err"])
            if rep.expected_failure:
                expect(verdict is not None, f"{name}: expected failure still fails: {rep.argv[0]}")
                fixed = ((2, "", "input error: $.cofaces: zeroed coface\n")
                         if rep.argv[0] == "cohomology" else
                         (1, _edit(res["out"], _set(["ok"], False)), ""))
                expect(rep.check(*fixed) is None,
                       f"{name}: the expected failure passes once mended: {rep.argv[0]}")
                continue
            expect(verdict is None, f"{name}: {' '.join(rep.argv)[:70]} passes")
            for what, code, out in corruptions(rep.argv, res["code"], res["out"]):
                expect(rep.check(code, out, "") is not None,
                       f"{name}: {rep.argv[0]} check refuses {what}")
        for cross in wl.cross_checks:
            expect(cross(outs) is None, f"{name}: cross check passes")
            i, j = _opens_pair(wl)
            bad = dict(outs)
            bad[j] = _edit(outs[j], lambda r: r["report"]["h_cohomology"].update({"2": 5}))
            expect(cross(bad) is not None, f"{name}: cross check refuses 1 and 2 opens disagreeing")
        outcome = run.Outcome(wl)
        first = {"code": 0, "out": outs[0], "err": ""}
        outcome.see(0, first, True)
        outcome.see(0, dict(first, out=outs[0] + " "), True)
        expect(not outcome.correct, f"{name}: report bytes that change between runs are refused")


def _opens_pair(wl) -> tuple:
    seen = {}
    for i, rep in enumerate(wl.reports):
        with open(rep.argv[1], encoding="utf-8") as fh:
            doc = json.load(fh)
        key = doc["label"].split(" (")[0]
        if key in seen:
            return seen[key], i
        seen[key] = i
    raise ValueError("no instance runs with both 1 and 2 opens")


def check_missing_sources():
    bare = os.path.join("mcbench", "_selfcheck_bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    shutil.copytree("mcbench", os.path.join(bare, "mcbench"),
                    ignore=shutil.ignore_patterns("_*", "__pycache__"))
    try:
        proc = run_bench("tensor-descent", 0, cwd=bare)
        printed = any(line.startswith("{") for line in proc.stdout.splitlines())
        expect(proc.returncode != 0 and not printed,
               "without src/mcdescent the run exits non-zero and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    check_missing_sources()
    check_corruptions()
    check_metric_names()
    print(f"{len(FAILURES)} self-check failures")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
