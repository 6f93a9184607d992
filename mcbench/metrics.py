"""Names, units and directions of every metric the benchmark prints.

BENCHMARK.json lists the same metrics; selfcheck.py verifies that the
two agree and that a run prints every one of them.
"""

REF_S = "ref-s"

# name, unit, better
END_TO_END = [
    ("report_s", REF_S, "lower"),
    ("report_calls", "calls", "lower"),
    # set-up time is declared in plain seconds; its value is ref-s all the same
    ("setup_s", "s", "lower"),
    ("peak_mb", "MB", "lower"),
]


def _calls(*groups):
    return [(f"{g}.calls", "count", "lower") for g in groups]


def _t(kind, *groups):
    return [(f"{g}.{kind}", REF_S, "lower") for g in groups]


PER_LAYER = (
    _calls("ratio.rat", "ratio.q_new")
    + _calls("linalg.rref") + _t("self_s", "linalg.rref")
    + [("linalg.rref.cells", "count", "lower"), ("linalg.rref.max_cells", "count", "lower")]
    + _calls("linalg.solve") + _t("total_s", "linalg.solve")
    + _calls("linalg.kernel_basis", "linalg.subspace") + _t("total_s", "linalg.subspace")
    + _calls("linalg.cohomology") + _t("total_s", "linalg.cohomology")
    + _calls("linalg.entry")
    + _calls("artin.mono_mul") + [("artin.mono_mul.nonzero_ratio", "ratio", "higher")]
    + _calls("forms.fkey_mul", "forms.f_mul", "forms.f_subst")
    + _calls("dgla.bracket") + _t("self_s", "dgla.bracket")
    + _calls("dgla.bracket_basis")
    + [("dgla.bracket_basis.nonempty_ratio", "ratio", "higher")]
    + _calls("dgla.d") + _t("self_s", "dgla.d")
    + _calls("dgla.map_lie") + _t("self_s", "dgla.map_lie")
    + _calls("dgla.validate") + _t("total_s", "dgla.validate")
    + _calls("dgla.map_validate") + _t("total_s", "dgla.map_validate")
    + _calls("mcgauge.gauge") + _t("total_s", "mcgauge.gauge")
    + _calls("mcgauge.bch") + _t("total_s", "mcgauge.bch")
    + _calls("mcgauge.decompose") + _t("total_s", "mcgauge.decompose")
    + _calls("mcgauge.linear_solve") + _t("total_s", "mcgauge.linear_solve")
    + _calls("semicosimplicial.total_complex")
    + _t("total_s", "semicosimplicial.total_complex", "semicosimplicial.validate_sc",
         "semicosimplicial.tw_mc_verify", "semicosimplicial.totdel_verify",
         "descent.check_hypothesis", "descent.lift", "descent.descend", "descent.pi0",
         "sampling", "pipeline.resolve")
    + [("pipeline.resolve.dim", "count", "lower")]
    + _t("total_s", "pipeline.lift_morphism", "pipeline.build_H")
    + [("pipeline.build_H.level0_dim", "count", "lower")]
    + _t("total_s", "pipeline.h_cohomology", "pipeline.ext_bruteforce",
         "pipeline.les_check", "io.load_document", "io.dumps")
    + [("trace.overhead_s", REF_S, "lower")]
)

# ratio metric -> (numerator key, denominator key) in the traced values
RATIOS = {
    "artin.mono_mul.nonzero_ratio": ("artin.mono_mul.nonzero", "artin.mono_mul.calls"),
    "dgla.bracket_basis.nonempty_ratio": ("dgla.bracket_basis.nonempty",
                                          "dgla.bracket_basis.calls"),
}
