"""Benchmark of the mcdescent CLI: one workload, one seed, one result line.

    python3 mcbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds src/mcdescent. The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics; a human summary goes to standard error.

--trace 0 prints the end-to-end metrics: report_s, report_calls, setup_s
and peak_mb (see README.md). --trace 1 prints the per-layer metrics from
runs with the wrappers of tracing.py installed, and trace.overhead_s.

The load is a closed loop: one report at a time, each in a freshly
forked child, the next starting when the previous one has finished.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import harness  # noqa: E402
import metrics  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 15
SETUP_LIMIT_S = 60.0
_ADDR_NO_RANDOMIZE = 0x0040000
_KEPT_ENV = ("PATH", "HOME", "LANG", "LC_ALL", "LD_LIBRARY_PATH")


def pin_layout(argv: list):
    """Re-execute this script once with a fixed string-hash seed, a fixed
    environment and no address-space randomisation, for itself and its
    children.

    CPython's type attribute cache keeps the attribute-name strings it
    last saw, in slots chosen by the strings' addresses, so which of them
    stay alive, and hence a report's tracemalloc peak, moves by a few
    hundred bytes with the address-space layout. Pinning the layout makes
    peak_mb repeat exactly. personality(2) acts on this process only; where
    it is refused the run goes on unpinned.
    """
    if os.environ.get("MCBENCH_PINNED") == "1":
        return
    # A fixed environment as well: its strings are copied onto the heap at
    # start-up, so a variable the launching shell adds shifts every address.
    # Bytecode caches are written first, so that the first run in a fresh
    # checkout imports the same way as every later one.
    env = {k: os.environ[k] for k in _KEPT_ENV if k in os.environ}
    env.update(MCBENCH_PINNED="1", PYTHONHASHSEED="0")
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src", HERE],
                   capture_output=True, env=env, timeout=SETUP_LIMIT_S, check=False)
    try:
        import ctypes

        libc = ctypes.CDLL(None, use_errno=True)
        cur = libc.personality(0xFFFFFFFF)
        if cur == -1 or libc.personality(cur | _ADDR_NO_RANDOMIZE) == -1:
            raise OSError(ctypes.get_errno(), "personality")
    except (OSError, AttributeError) as e:
        log(f"mcbench: address layout not pinned ({e}); peak_mb may move slightly")
    os.execve(sys.executable, [sys.executable, os.path.abspath(sys.argv[0]), *argv], env)


def log(msg: str):
    print(msg, file=sys.stderr, flush=True)


class Outcome:
    """Checks every execution of every report and keeps the tallies."""

    def __init__(self, wl: workloads.Workload):
        self.wl = wl
        self.first = {}  # report index -> (code, out) of its first run
        self.verdict = {}  # (index, code, out, err) -> None | message
        self.correct = True
        self.problems = []
        self.attempted = 0
        self.failed = 0

    def see(self, i: int, res: dict, tally: bool):
        """Check one execution of report i; tally it when it is timed."""
        rep = self.wl.reports[i]
        key = (i, res["code"], res["out"], res["err"])
        if key not in self.verdict:
            self.verdict[key] = rep.check(res["code"], res["out"], res["err"])
        msg = self.verdict[key]
        seen = self.first.setdefault(i, (res["code"], res["out"]))
        if seen != (res["code"], res["out"]):
            msg = msg or "report bytes differ between runs"
            self._problem(i, "report bytes differ between runs")
        elif msg and not rep.expected_failure:
            self._problem(i, msg)
        if tally:
            self.attempted += 1
            self.failed += msg is not None

    def _problem(self, i: int, msg: str):
        self.correct = False
        text = f"{' '.join(self.wl.reports[i].argv)}: {msg}"
        if text not in self.problems:
            self.problems.append(text)

    def cross_checks(self):
        outs = {i: out for i, (_, out) in self.first.items()}
        for check in self.wl.cross_checks:
            try:
                msg = check(outs)
            except (KeyError, ValueError) as e:
                msg = f"cross check could not read the reports: {e!r}"
            if msg:
                self.correct = False
                self.problems.append(msg)


def timed_round(wl, outcome: Outcome) -> list:
    results = []
    for i, rep in enumerate(wl.reports):
        res = harness.run_report(rep.argv)
        outcome.see(i, res, True)
        results.append(res)
    return results


def measure_setup(src: str, inputs: list) -> list:
    """Import and load every input in fresh interpreters; the first,
    which may write bytecode caches, is not counted."""
    cmd = [sys.executable, os.path.join(HERE, "setup_child.py"), src, *inputs]
    samples = []
    for k in range(SETUP_SAMPLES + 1):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_LIMIT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed: {proc.stderr.strip()[-500:]}")
        if k:
            samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples


def median_sum(per_report: list) -> float:
    """Sum over reports of each report's median across rounds."""
    return sum(statistics.median(ts) for ts in per_report)


def untraced(wl, outcome: Outcome, src: str, seconds: float) -> dict:
    t0 = time.monotonic()
    peak, calls = 0, 0
    for i, rep in enumerate(wl.reports):
        p, c = harness.run_untimed_pair(rep.argv)
        outcome.see(i, p, False)
        outcome.see(i, c, False)
        peak = max(peak, p.get("peak_bytes", 0))
        calls += c.get("calls", 0)
    t1 = time.monotonic()
    setup = measure_setup(src, wl.setup_inputs)
    log(f"untimed peak and count passes {t1 - t0:.1f} s, "
        f"set-up {time.monotonic() - t1:.1f} s")
    ref = [[] for _ in wl.reports]
    raw = [[] for _ in wl.reports]
    kern = []
    t_end = time.monotonic() + seconds
    rounds = 0
    while rounds == 0 or time.monotonic() < t_end:
        for i, res in enumerate(timed_round(wl, outcome)):
            if res["code"] is not None:
                ref[i].append(res["ref_s"])
                raw[i].append(res["raw_s"])
                kern.append(res["kernel_s"])
        rounds += 1
    if any(not ts for ts in ref):
        raise RuntimeError("a report produced no timing")
    log(f"{rounds} timed rounds of {len(wl.reports)} reports; "
        f"raw {median_sum(raw):.4f} s per round, median kernel "
        f"{statistics.median(kern) * 1e3:.2f} ms; set-up raw "
        f"{statistics.median(s['raw_s'] for s in setup):.4f} s, kernel "
        f"{statistics.median(s['kernel_s'] for s in setup) * 1e3:.2f} ms "
        f"({len(setup)} interpreters)")
    return {
        "report_s": median_sum(ref),
        "report_calls": calls,
        "setup_s": statistics.median(s["ref_s"] for s in setup),
        "peak_mb": peak / 1e6,
    }


def traced(wl, outcome: Outcome, seconds: float, trace_path: str) -> dict:
    plain = [[] for _ in wl.reports]
    timed = [[] for _ in wl.reports]
    rounds = []
    missing = set()
    t_end = time.monotonic() + seconds
    while not rounds or time.monotonic() < t_end:
        for i, res in enumerate(timed_round(wl, outcome)):
            if res["code"] is not None:
                plain[i].append(res["ref_s"])
        values: dict = {}
        spans = []
        for i, rep in enumerate(wl.reports):
            res = harness.run_traced_report(rep.argv, i, keep_spans=not rounds)
            outcome.see(i, res, True)
            if res["code"] is None:
                continue
            timed[i].append(res["ref_s"])
            missing.update(res["missing"])
            spans.extend(res["spans"])
            for k, v in res["layers"].items():
                values[k] = max(values.get(k, 0), v) if ".max_" in k else values.get(k, 0) + v
        if not rounds:
            write_spans(trace_path, spans)
        rounds.append(values)
    if missing:
        log("trace targets not found (recorded nothing): " + ", ".join(sorted(missing)))
    out = {}
    for name, _, _ in metrics.PER_LAYER:
        # median_low keeps counts whole; counts are the same in every round
        if name in metrics.RATIOS:
            num, den = metrics.RATIOS[name]
            out[name] = statistics.median_low(
                r.get(num, 0) / r[den] if r.get(den) else 0.0 for r in rounds)
        elif name != "trace.overhead_s":
            out[name] = statistics.median_low(r.get(name, 0) for r in rounds)
    out["trace.overhead_s"] = median_sum(timed) - median_sum(plain)
    log(f"{len(rounds)} traced and {len(rounds)} untraced rounds; "
        f"spans of the first traced round in {trace_path}")
    return out


def write_spans(path: str, spans: list):
    """One JSON line per span: name, start, end (s, perf_counter),
    parent (index within the same report, -1 at the top), report."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for name, start, end, parent, report in spans:
            fh.write(json.dumps({"name": name, "start": start, "end": end,
                                 "parent": parent, "report": report}) + "\n")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="mcdescent CLI benchmark")
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    pin_layout(sys.argv[1:] if argv is None else argv)

    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "mcdescent", "cli.py")):
        log("mcbench: src/mcdescent not found; run from the root of a checkout")
        return 2
    harness.prepare_parent(src)
    import mcdescent

    if not os.path.abspath(mcdescent.__file__).startswith(src + os.sep):
        log(f"mcbench: imported mcdescent from {mcdescent.__file__}, not {src}")
        return 2

    tag = f"{args.workload}-seed{args.seed}"
    gen_dir = os.path.join("mcbench", "_generated", tag)
    wl = workloads.build(args.workload, args.seed, gen_dir, harness.run_in_child)
    outcome = Outcome(wl)
    if args.trace:
        values = traced(wl, outcome, args.seconds,
                        os.path.join("mcbench", "_out", f"trace-{tag}.jsonl"))
        table = metrics.PER_LAYER
    else:
        values = untraced(wl, outcome, src, args.seconds)
        table = metrics.END_TO_END
    outcome.cross_checks()
    for msg in outcome.problems:
        log(f"CHECK FAILED: {msg}")
    for rep in wl.reports:
        if rep.expected_failure:
            log(f"expected failure: {rep.expected_failure}")
    result = {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit, _ in table},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
