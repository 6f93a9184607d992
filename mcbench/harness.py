"""Run one CLI report in a freshly forked child and collect what it did.

The parent imports the program once and never runs a report itself, so
every child starts from the same state a fresh `python -m mcdescent`
invocation would reach after its imports: no cache or lazy table carries
over from one report to the next.

A child runs a report in one of four ways:

  timed   the calibration kernel, the report, the kernel again
  count   the report under cProfile, which counts Python and C calls
  peak    the report under tracemalloc, for its peak allocation
  traced  the report with the layer wrappers of tracing.py installed,
          bracketed by the kernel like a timed report
"""

from __future__ import annotations

import contextlib
import gc
import importlib
import io
import os
import pickle
import pkgutil
import select
import signal
import sys
import time
import traceback

import calib

# A report that runs longer than this is killed and counted as failed.
REPORT_LIMIT_S = 30.0


class ChildFailed(RuntimeError):
    """The child died, overran its limit or sent nothing back."""


def start_child(fn, *args) -> tuple:
    """Fork a child that calls fn(*args) and pickles the result back;
    returns (pid, read end of the pipe). The parent starts no threads, so
    forking it is safe."""
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:  # child: never returns into the parent's code
        status = 1
        try:
            os.close(r)
            # Move the inherited heap out of the collector's sight: the
            # collector's schedule then depends only on what the report
            # allocates, so call counts and allocation peaks repeat exactly.
            gc.freeze()
            gc.collect()
            try:
                payload = pickle.dumps(("ok", fn(*args)))
            except Exception:  # noqa: BLE001 - reported to the parent
                payload = pickle.dumps(("error", traceback.format_exc()))
            with os.fdopen(w, "wb") as fh:
                fh.write(payload)
            status = 0
        finally:
            os._exit(status)
    os.close(w)
    return pid, r


def collect_child(child: tuple, limit: float = REPORT_LIMIT_S):
    """Wait for a started child's result; kill it past the limit."""
    pid, r = child
    chunks = []
    deadline = time.monotonic() + limit
    timed_out = False
    try:
        while True:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([r], [], [], left)[0]:
                timed_out = True
                os.kill(pid, signal.SIGKILL)
                break
            data = os.read(r, 1 << 16)
            if not data:
                break
            chunks.append(data)
    finally:
        os.close(r)
        os.waitpid(pid, 0)
    if timed_out:
        raise ChildFailed(f"report overran its {limit:.0f} s limit")
    if not chunks:
        raise ChildFailed("child exited without a result")
    tag, value = pickle.loads(b"".join(chunks))
    if tag != "ok":
        raise ChildFailed(value)
    return value


def run_in_child(fn, *args):
    """Call fn(*args) in a forked child and return its result."""
    return collect_child(start_child(fn, *args))


def invoke_cli(argv: list) -> tuple:
    """Run the CLI entry point in-process as a shell user would see it.

    Returns (exit code, stdout text, stderr text). An exception that
    escapes main() prints its traceback and exits 1, as the interpreter
    does for `python -m mcdescent`.
    """
    from mcdescent.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 2
        except Exception:  # noqa: BLE001 - a traceback is part of the output
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


def _time_child(argv: list) -> dict:
    k0 = calib.kernel_seconds()
    t0 = time.perf_counter()
    code, out, err = invoke_cli(argv)
    dt = time.perf_counter() - t0
    k1 = calib.kernel_seconds()
    return {"code": code, "out": out, "err": err, "raw_s": dt,
            "kernel_s": (k0 + k1) / 2, "ref_s": calib.to_ref(dt, k0, k1)}


def _count_child(argv: list) -> dict:
    import cProfile

    prof = cProfile.Profile()
    prof.enable()
    code, out, err = invoke_cli(argv)
    prof.disable()
    prof.create_stats()
    calls = sum(v[1] for v in prof.stats.values())
    return {"code": code, "out": out, "err": err, "calls": calls}


def _peak_child(argv: list) -> dict:
    import tracemalloc

    tracemalloc.start()
    code, out, err = invoke_cli(argv)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return {"code": code, "out": out, "err": err, "peak_bytes": peak}


def _trace_child(argv: list, report_id: int, keep_spans: bool) -> dict:
    import tracing

    rec = tracing.install()
    k0 = calib.kernel_seconds()
    rec.begin(report_id, keep_spans)
    t0 = time.perf_counter()
    code, out, err = invoke_cli(argv)
    dt = time.perf_counter() - t0
    rec.end()
    k1 = calib.kernel_seconds()
    scale = calib.to_ref(1.0, k0, k1)
    return {"code": code, "out": out, "err": err, "ref_s": dt * scale,
            "layers": rec.summary(scale), "spans": rec.spans,
            "missing": rec.missing}


def _outcome(child: tuple) -> dict:
    """A report's result; a killed or crashed child yields code None with
    the reason in err."""
    try:
        return collect_child(child)
    except ChildFailed as e:
        return {"code": None, "out": "", "err": str(e)}


def run_report(argv: list) -> dict:
    """One timed report."""
    return _outcome(start_child(_time_child, argv))


def run_untimed_pair(argv: list) -> tuple:
    """The peak and the count run of one report, side by side: neither is
    timed, and both numbers are exact whatever else runs."""
    peak = start_child(_peak_child, argv)
    count = start_child(_count_child, argv)
    return _outcome(peak), _outcome(count)


def run_traced_report(argv: list, report_id: int, keep_spans: bool) -> dict:
    return _outcome(start_child(_trace_child, argv, report_id, keep_spans))


def prepare_parent(src_dir: str):
    """Import every module of the program from src_dir. Children forked
    afterwards neither pay for imports nor run module code, whose
    allocations move with the address-space layout of the parent."""
    sys.path.insert(0, src_dir)
    import mcdescent

    for mod in pkgutil.iter_modules(mcdescent.__path__):
        if mod.name != "__main__":
            importlib.import_module(f"mcdescent.{mod.name}")
