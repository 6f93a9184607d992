"""Command line interface.

    mcdescent COMMAND INPUT... [options]

One parser for all commands, `parse_args`; every option applies to every
command. The options are the table `_OPTIONS`: --format, --artin, --seed,
--trials and --max-degree, each taking one value. They may stand before,
between or after the words COMMAND and INPUT. Each flag must be given in
full (there are no abbreviations), as `--flag VALUE` or `--flag=VALUE`;
VALUE is the next word even when it starts with "-", and a repeated flag
keeps its last value. A word `--` ends the options: every word after it
is an INPUT. `-h` or `--help` prints the help and exits 0. Each INPUT is
a JSON file in one of the input schemas or builtin:<name>. The commands
and their one-line help are the table `_COMMANDS`; the help lists them.

Exit codes: 0 all checks passed, 1 some check failed, 2 malformed input
(including a file input that fails its axioms, and a command line that
does not parse).
Every report is a plain JSON object built from seeded deterministic
runs, so a fixed (input, seed) pair reproduces the output byte for byte.
Each verdict sits next to the verbatim identity that was checked.
"""

from __future__ import annotations

import random
import sys
from collections import namedtuple

from .artin import ArtinError, builtin_artin, builtin_artin_names
from .descent import (
    DescentError,
    check_hypothesis,
    homotopy_endpoint,
    homotopy_verify,
    mc_pair_verify,
    phi1_essential_lift,
    phi1_full_lift,
    phi1_mor,
    phi1_obj,
    phi2_obj,
    phi_descend,
    pi0_compare_square_zero,
    tw_lift,
)
from .dgla import DglaError, TensorCtx
from .io import InputError, builtin_input_names, dumps, load_document, read_json_file
from .linalg import ChainComplexQ
from .mcgauge import (
    bch,
    decompose_path,
    decompose_square,
    embed,
    gauge,
    gauge_from_path,
    is_mc,
    morphism_equal,
    path_from_gauge,
    stabilizer_log,
)
from .pipeline import is_module_map, pipeline_report
from .sampling import (
    random_elem,
    random_mc,
    random_totdel_morphism,
    random_totdel_object,
    random_tw_mc,
)
from .semicosimplicial import (
    total_complex,
    totdel_verify,
    tw_mc_from_element,
    tw_mc_verify,
    validate_sc,
)


# Not a dataclass: importing dataclasses adds inspect, ast, dis and tokenize
# to every run's start-up (tests/test_cli.py::test_the_cli_imports_no_argparse_or_gettext).
class RunConfig(namedtuple("RunConfig", "command inputs artin seed trials fmt max_degree")):
    """One resolved invocation: the command, its inputs, and the knobs.

    trials may be zero (hypothesis-only runs); the degree cap must be
    positive. The command line parser checks everything else: the
    command, a nonempty list of inputs and the format. A fixed config
    reproduces its report bytes exactly.
    """

    __slots__ = ()

    def __new__(cls, command: str, inputs: tuple, artin: str = "t3", seed: int = 0,
                trials: int = 8, fmt: str = "json", max_degree: int = 4):
        if trials < 0:
            raise InputError("trials must be >= 0", "--trials")
        if max_degree < 1:
            raise InputError("max-degree must be >= 1", "--max-degree")
        return tuple.__new__(cls, (command, inputs, artin, seed, trials, fmt, max_degree))


def _artin_of(cfg: RunConfig):
    try:
        return builtin_artin(cfg.artin)
    except ArtinError as e:
        raise InputError(str(e), "--artin") from None


def _as_dglas(kind: str, value, spec: str) -> list:
    """The dgLas a sampling command runs over: the object itself, or the
    levels of a diagram."""
    if kind == "dgla":
        return [(value.label or spec, value)]
    if kind == "sc":
        return [(f"level {p}", g) for p, g in enumerate(value.levels)]
    raise InputError(
        "this command expects a dgla or diagram input, not a module morphism",
        spec,
    )


def _check(identity: str) -> dict:
    return {"identity": identity, "trials": 0, "failures": 0}


def _count(check: dict, passed: bool):
    check["trials"] += 1
    if not passed:
        check["failures"] += 1


def _checks_ok(checks: list) -> bool:
    return all(c["failures"] == 0 for c in checks)


# --- validate ------------------------------------------------------------------

_DGLA_IDENTITIES = [
    "d(d(x)) = 0",
    "[x, y] = -(-1)^(|x||y|) [y, x]",
    "d[x, y] = [d(x), y] + (-1)^|x| [x, d(y)]",
    "[x, [y, z]] = [[x, y], z] + (-1)^(|x||y|) [y, [x, z]]",
]

_SC_IDENTITIES = _DGLA_IDENTITIES + [
    "face maps are maps of dgLas",
    "face(i+1, k+1) o face(i, j) = face(i+1, j) o face(i, k) for j <= k",
]

_MODMAP_IDENTITY = "alpha(x . m) = x . alpha(m) for every algebra element x"


_IDENTITIES = {
    "dgla": _DGLA_IDENTITIES,
    "sc": _SC_IDENTITIES,
    "pipeline": [_MODMAP_IDENTITY],
}


def _violations(kind: str, value) -> list:
    """Every named axiom violation of a loaded input, as validate reports it."""
    if kind == "dgla":
        try:
            value.validate(mode="full")
        except DglaError as e:
            return [str(e)]
        return []
    if kind == "sc":
        return validate_sc(value)["violations"]
    if not is_module_map(value["source"], value["target"], value["alpha"]):
        return [
            "module morphism check failed: " + _MODMAP_IDENTITY
            + " does not hold on the basis"
        ]
    return []


def _load_valid(spec: str) -> tuple:
    """Load an input for a command that computes with it. A file input
    must pass validation first, so that no report rests on an object
    that breaks its axioms. Builtin inputs are built by code and are
    taken as they are. The dgLa and diagram constructors check no axiom:
    their check is the validate command, whose reports on every dgLa and
    diagram builtin are kept in the golden corpus (tests/golden/validate.*).
    A module is a representation of the quiver A2, which has no
    relations, so every arrow matrix gives one; the tests run
    FinMod.check on them."""
    kind, value = load_document(spec)
    if not spec.startswith("builtin:"):
        bad = _violations(kind, value)
        if bad:
            raise InputError(f"{bad[0]} (run validate to name every violation)", spec)
    return kind, value


def cmd_validate(cfg: RunConfig) -> dict:
    results = []
    for spec in cfg.inputs:
        kind, value = load_document(spec)
        bad = _violations(kind, value)
        results.append(
            {
                "input": spec,
                "kind": kind,
                "identities": list(_IDENTITIES[kind]),
                "ok": not bad,
                "violations": bad,
            }
        )
    return {
        "schema": "cli-validate/1",
        "command": "validate",
        "results": results,
        "ok": all(r["ok"] for r in results),
    }


# --- cohomology ------------------------------------------------------------------


def _betti_json(cx, cap: int) -> dict:
    return {str(d): n for d, n in sorted(cx.betti().items()) if abs(d) <= cap}


def cmd_cohomology(cfg: RunConfig) -> dict:
    results = []
    for spec in cfg.inputs:
        kind, value = load_document(spec)
        if kind not in ("dgla", "sc"):
            raise InputError(
                "cohomology expects a dgla or diagram input; "
                "use the pipeline command for module morphisms",
                spec,
            )
        try:
            cx = (
                ChainComplexQ(value.dims, value.diffs)
                if kind == "dgla"
                else total_complex(value)
            )
            cx.check()
        except ValueError as e:
            what = "differential" if kind == "dgla" else "total complex"
            raise InputError(
                f"the {what} is not a complex ({e}); "
                "run validate to name the broken axiom",
                spec,
            ) from None
        if kind == "dgla":
            results.append(
                {
                    "input": spec,
                    "kind": kind,
                    "betti": _betti_json(cx, cfg.max_degree),
                    "euler": cx.euler(),
                }
            )
        else:
            results.append(
                {
                    "input": spec,
                    "kind": kind,
                    "levels": [
                        _betti_json(g.complex(), cfg.max_degree)
                        for g in value.levels
                    ],
                    "total": _betti_json(cx, cfg.max_degree),
                }
            )
    return {
        "schema": "cli-cohomology/1",
        "command": "cohomology",
        "identity": "H^n = ker(d: L^n -> L^(n+1)) / im(d: L^(n-1) -> L^n)",
        "results": results,
        "ok": True,
    }


# --- mc, gauge and decompose ------------------------------------------------------


def _trial_report(cfg: RunConfig, command: str, checks: list, trial) -> dict:
    """Run cfg.trials seeded trials on each dgLa of each input and report
    the counts of checks. Each part gets a context over cfg's ring and
    its own random.Random(cfg.seed); trial(ctx, rng) runs one trial and
    counts it into checks."""
    A = _artin_of(cfg)
    parts = []
    for spec in cfg.inputs:
        kind, value = _load_valid(spec)
        for name, g in _as_dglas(kind, value, spec):
            parts.append({"input": spec, "part": name})
            ctx = TensorCtx(g, A, ())
            rng = random.Random(cfg.seed)
            for _ in range(cfg.trials):
                trial(ctx, rng)
    return {
        "schema": f"cli-{command}/1",
        "command": command,
        "ring": cfg.artin,
        "seed": cfg.seed,
        "trials": cfg.trials,
        "parts": parts,
        "checks": checks,
        "ok": _checks_ok(checks),
    }


def cmd_mc(cfg: RunConfig) -> dict:
    checks = [
        _check("d(x) + 1/2 [x, x] = 0 for gauge-exact x"),
        _check("y = gauge(a, x) satisfies d(y) + 1/2 [y, y] = 0"),
        _check("gauge(a, x) = x iff d(a) + [x, a] = 0"),
        _check("s = d(u) + [x, u] satisfies d(s) + [x, s] = 0 and gauge(s, x) = x"),
    ]

    def trial(ctx, rng):
        x = random_mc(ctx, rng)
        _count(checks[0], is_mc(x))
        a = random_elem(ctx, 0, rng)
        y = gauge(a, x)
        _count(checks[1], is_mc(y))
        flat = a.d().add(x.bracket(a)).is_zero()
        _count(checks[2], y.eq(x) == flat)
        u = random_elem(ctx, -1, rng)
        s = stabilizer_log(x, u)
        _count(checks[3], s.d().add(x.bracket(s)).is_zero() and gauge(s, x).eq(x))

    return _trial_report(cfg, "mc", checks, trial)


def cmd_gauge(cfg: RunConfig) -> dict:
    checks = [
        _check("gauge(a, gauge(b, x)) = gauge(bch(a, b), x)"),
        _check("bch(a, bch(b, c)) = bch(bch(a, b), c)"),
        _check("gauge(bch(a, -a), x) = x"),
        _check("gauge(stabilizer_log(x, u), x) = x"),
    ]

    def trial(ctx, rng):
        x = random_mc(ctx, rng)
        a = random_elem(ctx, 0, rng)
        b = random_elem(ctx, 0, rng)
        c = random_elem(ctx, 0, rng)
        ab = bch(a, b)
        _count(checks[0], gauge(a, gauge(b, x)).eq(gauge(ab, x)))
        _count(checks[1], bch(a, bch(b, c)).eq(bch(ab, c)))
        _count(checks[2], gauge(bch(a, a.neg()), x).eq(x))
        u = random_elem(ctx, -1, rng)
        _count(checks[3], gauge(stabilizer_log(x, u), x).eq(x))

    return _trial_report(cfg, "gauge", checks, trial)


# --- decompose -------------------------------------------------------------------


def _random_path_log(ctx, ctx1, rng):
    """A gauge log over one chart variable with polynomial and dt parts."""
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
    return g


def _random_square_log(ctx, ctx2, rng):
    """A gauge log over two chart variables with dt and ds parts."""
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
    return g


def _var_degree(e, var: int) -> int:
    return max((k[3][var] for k in e.terms), default=0)


def _path_shape_ok(p, bound: int) -> bool:
    return all(
        deg == 0 and S == () and 1 <= pm[0] <= bound
        for (deg, _, _, pm, S) in p.terms
    )


def _square_shape_ok(r, tb: int, sb: int) -> bool:
    for (deg, _, _, pm, S) in r.terms:
        if pm[0] > tb or pm[1] > sb:
            return False
        if deg == 0:
            if S != () or pm[0] + pm[1] < 1:
                return False
        elif deg == -1:
            if S != (1,) or pm[0] < 1:
                return False
        else:
            return False
    return True


def cmd_decompose(cfg: RunConfig) -> dict:
    checks = [
        _check(
            "decompose_path(x, xi) is t-divisible with no dt part, "
            "t-degree <= deg_t(xi) + (nu - 1), and gauge(p, x) = xi"
        ),
        _check("decompose_path(x, gauge(t a, x)) = t a and gauge_from_path = a"),
        _check(
            "decompose_square(x, xi) has shape (deg 0, no ds; deg -1, ds, "
            "t-divisible), degrees <= deg(xi) + (nu - 1), and gauge(r, x) = xi"
        ),
    ]

    def trial(ctx, rng):
        slack = ctx.artin.nu - 1
        ctx1 = ctx.with_vars(("t",))
        ctx2 = ctx.with_vars(("t", "s"))
        x = random_mc(ctx, rng)
        xe1 = embed(x, ("t",), positions=[])
        g1 = _random_path_log(ctx, ctx1, rng)
        xi = gauge(g1, xe1)
        p = decompose_path(x, xi)
        _count(
            checks[0],
            xi.subs_values({0: 0}).eq(x)
            and _path_shape_ok(p, _var_degree(xi, 0) + slack)
            and gauge(p, xe1).eq(xi),
        )
        a = random_elem(ctx, 0, rng)
        r = path_from_gauge(x, a)
        line = decompose_path(x, r)
        want = ctx1.zero()
        ae = embed(a, ("t",), positions=[])
        for (deg, idx, am, _, _), c in ae.terms.items():
            want = want.add(ctx1.term(deg, idx, c, am, (1,), ()))
        _count(checks[1], line.eq(want) and gauge_from_path(x, r).eq(a))
        xe2 = embed(x, ("t", "s"), positions=[])
        g2 = _random_square_log(ctx, ctx2, rng)
        xi2 = gauge(g2, xe2)
        r2 = decompose_square(x, xi2)
        _count(
            checks[2],
            _square_shape_ok(r2, _var_degree(xi2, 0) + slack, _var_degree(xi2, 1) + slack)
            and gauge(r2, xe2).eq(xi2),
        )

    return _trial_report(cfg, "decompose", checks, trial)


# --- descent ---------------------------------------------------------------------


def cmd_descent(cfg: RunConfig) -> dict:
    A = _artin_of(cfg)
    spec = cfg.inputs[0]
    if len(cfg.inputs) != 1:
        raise InputError("descent takes exactly one diagram input", "inputs")
    kind, sc = _load_valid(spec)
    if kind != "sc":
        raise InputError("descent expects a diagram input", spec)
    hyp = check_hypothesis(sc)
    report = {
        "schema": "cli-descent/1",
        "command": "descent",
        "input": spec,
        "ring": cfg.artin,
        "seed": cfg.seed,
        "trials": cfg.trials,
        "hypothesis": {
            "strong": hyp["strong"],
            "weak": hyp["weak"],
            "identity": "H^n(level p) = 0 for n < 0 "
            "(weak: only in the gluing window degrees -p, -p+1, -p+2)",
            "negative_cohomology": {
                f"level {p}, degree {d}": h for (p, d), h in sorted(hyp["table"].items())
            },
        },
        "checks": [],
        "notes": [],
        "refusal": None,
        "pi0": None,
    }
    rng = random.Random(cfg.seed)
    if cfg.trials == 0:
        report["notes"].append("trials = 0: hypothesis report only")
        report["ok"] = hyp["weak"]
        return report
    if not hyp["weak"]:
        try:
            phi_descend(random_tw_mc(sc, A, rng))
            report["notes"].append(
                "descent map unexpectedly accepted a family despite "
                "the failed hypothesis"
            )
        except DescentError as e:
            report["refusal"] = str(e)
    elif sc.top < 2:
        report["notes"].append(
            "diagram has no witness level; functor trials need top >= 2"
        )
    else:
        checks = [
            _check("lift1(o) is a valid solution-with-path pair"),
            _check("Phi1(lift1(o)) = o"),
            _check("lift2(o) satisfies the compatible family conditions"),
            _check("Phi2(lift2(o)) = o"),
            _check(
                "h = lift(f) is a valid homotopy with h(0) = lift1(source) "
                "and h(1) = lift1(target)"
            ),
            _check(
                "the descended morphism of lift(f) equals f up to the "
                "inessential stabilizer"
            ),
            _check("Phi(w) is a valid glued object for every compatible family w"),
            _check("Phi(w) = Phi2(window(w))"),
        ]
        for _ in range(cfg.trials):
            o = random_totdel_object(sc, A, rng)
            pair = phi1_essential_lift(o)
            _count(checks[0], mc_pair_verify(pair)["ok"])
            back = phi1_obj(pair)
            _count(checks[1], back.l.eq(o.l) and back.m.eq(o.m))
            e = tw_lift(o)
            _count(checks[2], tw_mc_verify(e)["ok"])
            out = phi2_obj(e)
            _count(checks[3], out.l.eq(o.l) and out.m.eq(o.m))
            f = random_totdel_morphism(sc, o, rng)
            h = phi1_full_lift(f)
            _count(
                checks[4],
                homotopy_verify(h)["ok"]
                and homotopy_endpoint(h, 0).eq(phi1_essential_lift(f.source))
                and homotopy_endpoint(h, 1).eq(phi1_essential_lift(f.target)),
            )
            _count(checks[5], morphism_equal(o.l, phi1_mor(h), f.a))
            w = random_tw_mc(sc, A, rng)
            od = phi_descend(w)
            _count(checks[6], totdel_verify(od)["ok"])
            od2 = phi2_obj(tw_mc_from_element(w.truncate(2) if sc.top > 2 else w))
            _count(checks[7], od.l.eq(od2.l) and od.m.eq(od2.m))
        report["checks"] = checks
    if A.is_square_zero() and (hyp["strong"] or not hyp["weak"]):
        sc_pi0 = sc.truncate(2) if sc.top > 2 else sc
        pi0 = pi0_compare_square_zero(sc_pi0, A)
        report["pi0"] = {
            "identity": "the descent map induces a bijection on gauge orbits",
            "tot_orbit_dim": pi0["tot_side"]["pi0_dim"],
            "groupoid_orbit_dim": pi0["groupoid_side"]["pi0_dim"],
            "isomorphic": pi0["isomorphic"],
        }
    elif not A.is_square_zero():
        report["notes"].append(
            "orbit comparison runs at square-zero coefficients only; "
            "pass --artin sqz2 or sqz3 to enable it"
        )
    elif hyp["weak"] and not hyp["strong"]:
        report["notes"].append(
            "hypothesis is weak but not strong; orbit comparison skipped"
        )
    ok = hyp["weak"] and _checks_ok(report["checks"])
    if report["pi0"] is not None and hyp["strong"]:
        ok = ok and report["pi0"]["isomorphic"]
    report["ok"] = ok
    return report


# --- pipeline --------------------------------------------------------------------


def cmd_pipeline(cfg: RunConfig) -> dict:
    spec = cfg.inputs[0]
    if len(cfg.inputs) != 1:
        raise InputError("pipeline takes exactly one module-morphism input", "inputs")
    kind, value = _load_valid(spec)
    if kind != "pipeline":
        raise InputError("pipeline expects a module-morphism input", spec)
    rep = pipeline_report(
        value["source"], value["target"], value["alpha"], n_opens=value["opens"]
    )
    ok = rep["end_matches_ext"] and rep["ext_matches_euler_form"] and rep.get("les_exact", True)
    return {
        "schema": "cli-pipeline/1",
        "command": "pipeline",
        "input": spec,
        "report": rep,
        "ok": ok,
    }


# --- report ----------------------------------------------------------------------


def cmd_report(cfg: RunConfig) -> dict:
    spec = cfg.inputs[0]
    if len(cfg.inputs) != 1:
        raise InputError("report takes exactly one saved JSON report", "inputs")
    raw = read_json_file(spec)
    if not isinstance(raw, dict) or not isinstance(raw.get("schema"), str):
        raise InputError("a saved report is an object with a schema field", spec)
    return raw


# --- rendering and dispatch --------------------------------------------------------


def _md_scalar(v) -> str:
    if isinstance(v, bool):
        return "yes" if v else "no"
    if v is None:
        return "none"
    return str(v)


def _md_item(lines: list, key: str, val, depth: int):
    pad = "  " * depth
    if isinstance(val, dict):
        lines.append(f"{pad}- {key}:")
        for k2, v2 in val.items():
            _md_item(lines, str(k2), v2, depth + 1)
    elif isinstance(val, list):
        if val and all(isinstance(v, dict) for v in val):
            lines.append(f"{pad}- {key}:")
            for v in val:
                inner = "; ".join(f"{k2}: {_md_scalar(v2)}" for k2, v2 in v.items())
                lines.append(f"{pad}  - {inner}")
        else:
            lines.append(
                f"{pad}- {key}: [" + ", ".join(_md_scalar(v) for v in val) + "]"
            )
    else:
        lines.append(f"{pad}- {key}: {_md_scalar(val)}")


def render_markdown(report: dict) -> str:
    title = report.get("command") or report.get("schema") or "report"
    lines = [f"# {title}"]
    for key, val in report.items():
        if key in ("schema", "command"):
            continue
        _md_item(lines, key, val, 0)
    return "\n".join(lines) + "\n"


_COMMANDS = {
    "validate": (cmd_validate, "check the axioms of each input and name every violation"),
    "cohomology": (cmd_cohomology, "betti tables of dgLa inputs and diagram totalisations"),
    "mc": (cmd_mc, "randomized Maurer-Cartan and gauge-action identity checks"),
    "gauge": (cmd_gauge, "group law, inverse, and stabilizer identity checks"),
    "decompose": (cmd_decompose, "path and square decomposition round trips"),
    "descent": (cmd_descent, "gluing hypothesis, descent functors, and orbit comparison"),
    "pipeline": (cmd_pipeline, "deform a module morphism and verify the long exact sequence"),
    "report": (cmd_report, "render a saved JSON report"),
}


def run(cfg: RunConfig) -> dict:
    return _COMMANDS[cfg.command][0](cfg)


# flag: (RunConfig field, value type, metavar, help); a tuple type lists the
# choices. The defaults are RunConfig's.
_OPTIONS = {
    "--format": ("fmt", ("json", "markdown"), "{json,markdown}", "output format"),
    "--artin": ("artin", str, "NAME", "coefficient ring, one of the rings below"),
    "--seed": ("seed", int, "N", "random seed"),
    "--trials": ("trials", int, "N", "randomized trials per check, 0 allowed where meaningful"),
    "--max-degree": ("max_degree", int, "N", "cohomological degree cap for tables"),
}

_USAGE = "usage: mcdescent [-h] COMMAND INPUT [INPUT ...] [--flag VALUE ...]\n"


class UsageError(Exception):
    """A command line that does not parse."""


def _option_value(flag: str, text: str):
    _, kind, _, _ = _OPTIONS[flag]
    if kind is int:
        try:
            return int(text)
        except ValueError:
            raise UsageError(f"argument {flag}: invalid int value: {text!r}") from None
    if kind is not str and text not in kind:
        choices = ", ".join(map(repr, kind))
        raise UsageError(f"argument {flag}: invalid choice: {text!r} (choose from {choices})")
    return text


def parse_args(argv) -> RunConfig | None:
    """The RunConfig of a command line, or None when it asks for help.

    The surface it accepts is the one the module docstring states; it
    raises UsageError on any other command line.
    """
    words, values = [], {}
    it = iter(argv)
    for word in it:
        if word == "--":
            words.extend(it)
        elif word in ("-h", "--help"):
            return None
        elif word.startswith("-"):
            flag, eq, text = word.partition("=")
            if flag not in _OPTIONS:
                raise UsageError(f"unrecognized option: {flag}")
            if not eq:
                text = next(it, None)
                if text is None:
                    raise UsageError(f"argument {flag}: expected one argument")
            values[_OPTIONS[flag][0]] = _option_value(flag, text)
        else:
            words.append(word)
    if len(words) < 2:
        missing = ["COMMAND", "INPUT"][len(words):]
        raise UsageError("the following arguments are required: " + ", ".join(missing))
    command, *inputs = words
    if command not in _COMMANDS:
        choices = ", ".join(map(repr, _COMMANDS))
        raise UsageError(f"argument COMMAND: invalid choice: {command!r} (choose from {choices})")
    return RunConfig(command=command, inputs=tuple(inputs), **values)


def help_text() -> str:
    """What -h and --help print: the usage, the options, the commands and
    every builtin input and ring name."""
    lines = [
        _USAGE,
        "Exact deformation calculus: Maurer-Cartan elements, gauge actions,",
        "totalisation, descent, and module-morphism pipelines. Each INPUT is a",
        "JSON input file or builtin:<name>. Options may stand anywhere; give",
        "each flag in full, as --flag VALUE or --flag=VALUE; -- ends the options.",
        "",
        "options:",
        "  -h, --help",
        "      show this help message and exit",
    ]
    default = RunConfig(command="", inputs=())
    for flag, (field, _, metavar, htext) in _OPTIONS.items():
        lines.append(f"  {flag} {metavar}")
        lines.append(f"      {htext} (default {getattr(default, field)})")
    width = max(map(len, _COMMANDS))
    lines += ["", "commands:"]
    lines += [f"  {name:<{width}}  {htext}" for name, (_, htext) in _COMMANDS.items()]
    names = builtin_input_names()
    lines += ["", "builtin inputs (INPUT = builtin:<name>):"]
    lines += ["  " + ", ".join(names[i:i + 4]) for i in range(0, len(names), 4)]
    lines += ["", "coefficient rings (--artin NAME):", "  " + ", ".join(builtin_artin_names())]
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    try:
        cfg = parse_args(sys.argv[1:] if argv is None else argv)
        if cfg is None:
            sys.stdout.write(help_text())
            return 0
        report = run(cfg)
    except UsageError as e:
        sys.stderr.write(f"{_USAGE}mcdescent: error: {e}\n")
        return 2
    except InputError as e:
        print(f"input error: {e}", file=sys.stderr)
        return 2
    if cfg.fmt == "markdown":
        sys.stdout.write(render_markdown(report))
    else:
        sys.stdout.write(dumps(report))
    return 0 if report.get("ok", True) else 1


if __name__ == "__main__":
    sys.exit(main())
