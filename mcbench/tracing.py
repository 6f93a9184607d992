"""Layer spans and counters for the traced run.

install() wraps the program's public functions named below, inside the
forked child of one traced report, and returns the Recorder that holds
what they saw. Methods are patched on their class; functions are patched
in every mcdescent module that imported them by name. Hot leaves (called
hundreds of thousands of times per report) get counters only, no spans.

A span records its name, start, end, parent and the report it belongs to.
Per group of targets the recorder keeps:

  calls    spans (or counted calls) opened by the group's targets
  total_s  inclusive time, counting only the outermost span of the group
  self_s   span time minus the time covered by its direct child spans

A target that no longer exists is named in Recorder.missing and records
nothing, so a later change that renames or deletes a function still runs
the benchmark.
"""

from __future__ import annotations

import functools
import sys
import time

# group -> targets ("module:qualname") whose calls open a span
SPANS = {
    "linalg.rref": ["mcdescent.linalg:Mat.rref"],
    "linalg.solve": ["mcdescent.linalg:Mat.solve"],
    "linalg.subspace": [
        f"mcdescent.linalg:Subspace.{m}"
        for m in ("__init__", "contains", "contains_space", "eq", "intersect",
                  "annihilator_matrix")
    ],
    "linalg.cohomology": ["mcdescent.linalg:ChainComplexQ.cohomology"],
    "dgla.bracket": ["mcdescent.dgla:Elem.bracket"],
    "dgla.d": ["mcdescent.dgla:Elem.d"],
    "dgla.map_lie": ["mcdescent.dgla:Elem.map_lie"],
    "dgla.validate": ["mcdescent.dgla:Dgla.validate"],
    "dgla.map_validate": ["mcdescent.dgla:DglaMap.validate"],
    "mcgauge.gauge": ["mcdescent.mcgauge:gauge"],
    "mcgauge.bch": ["mcdescent.mcgauge:bch"],
    "mcgauge.decompose": ["mcdescent.mcgauge:decompose_path",
                          "mcdescent.mcgauge:decompose_square"],
    "mcgauge.linear_solve": ["mcdescent.mcgauge:elem_linear_solve"],
    "semicosimplicial.total_complex": ["mcdescent.semicosimplicial:total_complex"],
    "semicosimplicial.validate_sc": ["mcdescent.semicosimplicial:validate_sc"],
    "semicosimplicial.tw_mc_verify": ["mcdescent.semicosimplicial:tw_mc_verify"],
    "semicosimplicial.totdel_verify": ["mcdescent.semicosimplicial:totdel_verify"],
    "descent.check_hypothesis": ["mcdescent.descent:check_hypothesis"],
    "descent.lift": [f"mcdescent.descent:{f}" for f in
                     ("phi1_essential_lift", "tw_lift", "phi1_full_lift")],
    "descent.descend": [f"mcdescent.descent:{f}" for f in
                        ("phi_descend", "phi1_obj", "phi2_obj")],
    "descent.pi0": ["mcdescent.descent:pi0_compare_square_zero"],
    "sampling": [f"mcdescent.sampling:{f}" for f in (
        "random_elem", "random_mc", "random_tot_elem", "bump_elem",
        "random_compatible_family", "random_tw_mc", "cech_trivialized_object",
        "random_totdel_object", "random_totdel_morphism")],
    "pipeline.resolve": ["mcdescent.pipeline:resolve"],
    "pipeline.lift_morphism": ["mcdescent.pipeline:lift_morphism"],
    "pipeline.build_H": ["mcdescent.pipeline:build_H"],
    "pipeline.h_cohomology": ["mcdescent.pipeline:h_cohomology"],
    "pipeline.ext_bruteforce": ["mcdescent.pipeline:ext_bruteforce"],
    "pipeline.les_check": ["mcdescent.pipeline:les_check"],
    "io.load_document": ["mcdescent.io:load_document"],
    "io.dumps": ["mcdescent.io:dumps"],
}

# group -> target whose calls are only counted
COUNTERS = {
    "ratio.rat": "mcdescent.ratio:rat",
    "ratio.q_new": "mcdescent.ratio:Q.__new__",
    "linalg.kernel_basis": "mcdescent.linalg:Mat.kernel_basis",
    "linalg.entry": "mcdescent.linalg:Mat.entry",
    "artin.mono_mul": "mcdescent.artin:ArtinAlgebra.mono_mul",
    "forms.fkey_mul": "mcdescent.forms:fkey_mul",
    "forms.f_mul": "mcdescent.forms:f_mul",
    "forms.f_subst": "mcdescent.forms:f_subst",
    "dgla.bracket_basis": "mcdescent.dgla:Dgla.bracket_basis",
}


def _resolution_dim(res) -> int:
    return sum(res.cx.dim(d) for d in res.cx.mods)


# Extra quantities read off a call: group -> (metric suffix, fn(args, result))
MEASURES = {
    "linalg.rref": ("cells", lambda args, res: args[0].rows * args[0].cols),
    "pipeline.resolve": ("dim", lambda args, res: _resolution_dim(res)),
    "pipeline.build_H": ("level0_dim",
                         lambda args, res: sum(res.levels[0].dims.values())),
}

# Counted calls whose result is a useful outcome: group -> metric suffix
HITS = {
    "artin.mono_mul": ("nonzero", lambda res: res is not None),
    "dgla.bracket_basis": ("nonempty", lambda res: bool(res)),
}


class Recorder:
    def __init__(self):
        self.active = False
        self.report = None
        self.stack = []  # [group, start, child_time, span index]
        self.depth = {}
        self.values = {}
        self.spans = []
        self.keep_spans = False
        self.missing = []

    def begin(self, report_id, keep_spans: bool = False):
        self.report, self.keep_spans, self.active = report_id, keep_spans, True

    def end(self):
        self.active = False

    def add(self, key: str, v):
        self.values[key] = self.values.get(key, 0) + v

    def peak(self, key: str, v):
        if v > self.values.get(key, 0):
            self.values[key] = v

    def span_wrapper(self, group: str, fn):
        measure = MEASURES.get(group)
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            parent = rec.stack[-1][3] if rec.stack else -1
            idx = -1
            if rec.keep_spans:
                idx = len(rec.spans)
                rec.spans.append([group, 0.0, 0.0, parent, rec.report])
            frame = [group, time.perf_counter(), 0.0, idx]
            rec.stack.append(frame)
            rec.depth[group] = rec.depth.get(group, 0) + 1
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                rec.stack.pop()
                rec.depth[group] -= 1
                dur = t1 - frame[1]
                rec.add(group + ".calls", 1)
                rec.add(group + ".self_s", dur - frame[2])
                if rec.depth[group] == 0:
                    rec.add(group + ".total_s", dur)
                if rec.stack:
                    rec.stack[-1][2] += dur
                if idx >= 0:
                    rec.spans[idx][1:3] = [frame[1], t1]
            if measure is not None:
                v = measure[1](args, result)
                rec.add(f"{group}.{measure[0]}", v)
                rec.peak(f"{group}.max_{measure[0]}", v)
            return result

        return wrapper

    def counter_wrapper(self, group: str, fn):
        hit = HITS.get(group)
        rec, calls = self, group + ".calls"
        if hit is None:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if rec.active:
                    rec.values[calls] = rec.values.get(calls, 0) + 1
                return fn(*args, **kwargs)
            return wrapper
        hits, pred = f"{group}.{hit[0]}", hit[1]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if rec.active:
                rec.values[calls] = rec.values.get(calls, 0) + 1
                if pred(result):
                    rec.values[hits] = rec.values.get(hits, 0) + 1
            return result
        return wrapper

    def summary(self, scale: float) -> dict:
        """Additive per-report values; times converted by scale."""
        return {k: v * scale if k.endswith("_s") else v for k, v in self.values.items()}


def _patch(target: str, make) -> bool:
    """Replace target by make(original) wherever it is reachable by name."""
    modname, _, qual = target.partition(":")
    mod = sys.modules.get(modname)
    if mod is None:
        return False
    owner_path, _, attr = qual.rpartition(".")
    owner = mod
    for part in filter(None, owner_path.split(".")):
        owner = getattr(owner, part, None)
        if owner is None:
            return False
    if isinstance(owner, type):
        raw = owner.__dict__.get(attr)
        if raw is None:
            return False
        if isinstance(raw, staticmethod):
            new = staticmethod(make(raw.__func__))
        elif isinstance(raw, classmethod):
            new = classmethod(make(raw.__func__))
        elif callable(raw):
            new = make(raw)
        else:
            return False
        try:
            setattr(owner, attr, new)
        except TypeError:  # a C type such as gmpy2.mpq
            return False
        return True
    orig = getattr(owner, attr, None)
    if not callable(orig):
        return False
    new = make(orig)
    for name, m in list(sys.modules.items()):
        if name == "mcdescent" or name.startswith("mcdescent."):
            for key, val in list(vars(m).items()):
                if val is orig:
                    setattr(m, key, new)
    return True


def install() -> Recorder:
    rec = Recorder()
    for group, targets in SPANS.items():
        for t in targets:
            if not _patch(t, lambda fn, g=group: rec.span_wrapper(g, fn)):
                rec.missing.append(t)
    for group, t in COUNTERS.items():
        if not _patch(t, lambda fn, g=group: rec.counter_wrapper(g, fn)):
            rec.missing.append(t)
    return rec
