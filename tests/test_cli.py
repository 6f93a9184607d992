"""The command line boundary: the argument surface, exit codes and named
errors on inputs that break their axioms, run as a user runs the program."""

import json
import os
import random
import subprocess
import sys

import pytest

import mcdescent
from mcdescent.io import (
    InputError,
    dgla_from_json,
    dgla_to_json,
    load_builtin,
    pipeline_from_json,
    sc_from_json,
    sc_to_json,
)
from mcdescent.pipeline import (
    build_H,
    lift_morphism,
    random_a2_module,
    random_module_map,
    resolve,
)

SRC = os.path.dirname(os.path.dirname(mcdescent.__file__))
DATA = os.path.join(os.path.dirname(mcdescent.__file__), "data")


def run_cli(*argv):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-m", "mcdescent", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    return proc.returncode, proc.stdout, proc.stderr


def write(tmp_path, name, doc) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def zeroed_coface_file(tmp_path) -> str:
    doc = sc_to_json(load_builtin("sc-cech")[1])
    doc["cofaces"]["1,0"] = {}
    return write(tmp_path, "zeroed-coface.json", doc)


def broken_bracket_file(tmp_path) -> str:
    doc = dgla_to_json(load_builtin("sl2")[1])
    doc["brackets"][0][5] += 1
    return write(tmp_path, "broken-bracket.json", doc)


def broken_differential_file(tmp_path) -> str:
    doc = dgla_to_json(load_builtin("end-two-step")[1])
    # d^0 d^-1 sends the first basis vector of degree -1 to 1 - 2 != 0
    doc["diffs"]["-1"][4][0] = 2
    return write(tmp_path, "broken-differential.json", doc)


def non_module_file(tmp_path) -> str:
    with open(os.path.join(DATA, "morphism-simple.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    # the simple at the second vertex sent into the first vertex
    doc["alpha"] = [[1], [0]]
    return write(tmp_path, "non-module.json", doc)


def assert_input_error(code, err):
    assert code == 2
    assert err.startswith("input error:")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "make, command, word",
    [
        (zeroed_coface_file, "cohomology", "face"),
        (broken_differential_file, "cohomology", "d^2"),
        (broken_bracket_file, "mc", "Jacobi"),
        (non_module_file, "pipeline", "module morphism"),
    ],
)
def test_axiom_broken_file_is_a_named_input_error(tmp_path, make, command, word):
    path = make(tmp_path)
    code, out, err = run_cli(command, path, "--trials", "1")
    assert_input_error(code, err)
    assert path in err and "validate" in err
    assert out == ""
    code, out, err = run_cli("validate", path)
    assert code == 1 and "Traceback" not in err
    (row,) = json.loads(out)["results"]
    assert row["ok"] is False
    assert any(word in v for v in row["violations"]), row["violations"]


@pytest.mark.parametrize("command", ["gauge", "decompose", "descent"])
def test_every_computing_command_refuses_a_broken_file(tmp_path, command):
    path = zeroed_coface_file(tmp_path)
    code, _, err = run_cli(command, path, "--trials", "1")
    assert_input_error(code, err)


def not_utf8_file(tmp_path) -> str:
    path = tmp_path / "not-utf8.json"
    path.write_bytes(b"\xff\xfe{")
    return str(path)


def too_deep_file(tmp_path) -> str:
    path = tmp_path / "too-deep.json"
    path.write_text("[" * 100000, encoding="utf-8")
    return str(path)


def too_long_integer_file(tmp_path) -> str:
    path = tmp_path / "too-long-integer.json"
    path.write_text('{"schema": "dgla/1", "dims": {"0": ' + "9" * 5000 + "}}", encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("make", [not_utf8_file, too_deep_file, too_long_integer_file])
@pytest.mark.parametrize("command", ["validate", "pipeline", "report"])
def test_a_file_that_does_not_parse_is_a_named_input_error(tmp_path, make, command):
    path = make(tmp_path)
    code, out, err = run_cli(command, path)
    assert_input_error(code, err)
    assert path in err and out == ""


def morphism_with_opens(opens) -> dict:
    with open(os.path.join(DATA, "morphism-simple.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["opens"] = opens
    return doc


def test_opens_true_is_a_named_input_error(tmp_path):
    # True == 1 in Python, so a membership test alone would take it for one open
    code, out, err = run_cli("pipeline", write(tmp_path, "opens.json", morphism_with_opens(True)))
    assert_input_error(code, err)
    assert "$.opens" in err and out == ""


@pytest.mark.parametrize("opens", [True, False, 1.0, 2.0, "1", None, 0, 3])
def test_opens_must_be_the_integer_one_or_two(opens):
    with pytest.raises(InputError) as info:
        pipeline_from_json(morphism_with_opens(opens))
    assert info.value.where == "$.opens"


@pytest.mark.parametrize("name", ["sc-end", "sc-sl2"])
def test_descent_runs_on_diagrams_with_top_level_three(name):
    code, out, err = run_cli("descent", f"builtin:{name}", "--trials", "1")
    assert code == 0, err
    rep = json.loads(out)
    assert rep["ok"] is True
    assert len(rep["checks"]) == 8
    assert all(c["trials"] == 1 and c["failures"] == 0 for c in rep["checks"])


def builtin_zero_morphism():
    doc = load_builtin("morphism-zero")[1]
    return doc["source"], doc["target"], doc["alpha"]


def a2_seed2_morphism():
    rng = random.Random(2)
    f = random_a2_module(rng)
    g = random_a2_module(rng)
    return f, g, random_module_map(f, g, rng)


@pytest.mark.parametrize(
    "make, negative_degrees",
    [(builtin_zero_morphism, False), (a2_seed2_morphism, True)],
    ids=["morphism-zero", "a2-seed-2"],
)
def test_descent_runs_on_a_written_out_morphism_diagram(tmp_path, make, negative_degrees):
    """The diagram controlling a module morphism, written out and read
    back, passes every descent check. At seed 2 level 0 has a degree -1
    part, so Hinich's hypothesis fails while the paper's holds."""
    f, g, alpha = make()
    res_g = resolve(g)
    res_f, lift = lift_morphism(alpha, f, g, res_g)
    sc = build_H(res_f, res_g, lift)
    assert (sc.levels[0].dim(-1) > 0) == negative_degrees
    path = write(tmp_path, "h.json", sc_to_json(sc))
    for ring in ("t3", "sqz2"):
        code, out, err = run_cli(
            "descent", path, "--trials", "1", "--seed", "0", "--artin", ring
        )
        assert code == 0, err
        rep = json.loads(out)
        assert rep["hypothesis"]["strong"] is True
        assert len(rep["checks"]) == 8
        assert all(c["trials"] == 1 and c["failures"] == 0 for c in rep["checks"])
    assert rep["pi0"]["isomorphic"] is True


def test_pipeline_ok_needs_the_euler_form_check(monkeypatch, capsys):
    """The CLI verdict includes the Euler form check: the same report with
    that check false exits 1 with "ok": false."""
    from mcdescent import cli

    real = cli.pipeline_report

    def with_failed_check(*args, **kwargs):
        rep = real(*args, **kwargs)
        assert rep["ext_matches_euler_form"] is True
        rep["ext_matches_euler_form"] = False
        return rep

    monkeypatch.setattr(cli, "pipeline_report", with_failed_check)
    assert cli.main(["pipeline", "builtin:morphism-identity"]) == 1
    assert json.loads(capsys.readouterr().out)["ok"] is False


def test_a_failing_descent_check_is_counted(monkeypatch, capsys):
    """Check 3 (lift2(o) satisfies the compatible family conditions) can
    fail: a lift whose square polynomial carries one extra degree-0 term
    breaks a face condition, and descent counts that failure and exits 1
    instead of raising."""
    from mcdescent import cli
    from mcdescent.semicosimplicial import TwTruncMC

    real = cli.tw_lift

    def with_extra_term(o):
        e = real(o)
        A = e.artin
        extra = e.r.ctx.term(0, 0, 1, A.maximal_basis[-1], pmono=(1, 0))
        return TwTruncMC(e.sc, A, e.x, e.p, e.r.add(extra))

    monkeypatch.setattr(cli, "tw_lift", with_extra_term)
    code = cli.main(["descent", "builtin:sc-cech", "--trials", "1", "--seed", "0"])
    rep = json.loads(capsys.readouterr().out)
    assert code == 1
    assert rep["ok"] is False
    assert [c["failures"] for c in rep["checks"]] == [0, 0, 1, 0, 0, 0, 0, 0]


# --- the argument surface --------------------------------------------------------

COMMANDS = ("validate", "cohomology", "mc", "gauge", "decompose", "descent", "pipeline", "report")
OPTIONS = ["--format", "markdown", "--artin", "sqz2", "--seed", "17", "--trials", "3",
           "--max-degree", "2"]


def test_help_names_every_command_and_builtin():
    from mcdescent import cli
    from mcdescent.artin import builtin_artin_names
    from mcdescent.io import builtin_input_names

    assert tuple(cli._COMMANDS) == COMMANDS
    code, out, err = run_cli("--help")
    assert code == 0 and err == ""
    assert out.startswith("usage: mcdescent")
    lines = out.splitlines()
    for name, (_, htext) in cli._COMMANDS.items():
        assert any(line.split() == [name, *htext.split()] for line in lines), name
    for name in builtin_input_names() + builtin_artin_names():
        assert name in out


@pytest.mark.parametrize(
    "argv",
    [
        ["frobnicate", "builtin:zero"],
        ["validate"],
        ["validate", "builtin:zero", "--verbose"],
        ["validate", "builtin:zero", "--format", "xml"],
        ["mc", "builtin:sl2", "--seed", "x"],
        ["mc", "builtin:sl2", "--trials=x"],
        ["cohomology", "builtin:zero", "--max-degree", "2.5"],
        ["mc", "builtin:sl2", "--seed"],
        ["mc", "builtin:sl2", "--tri", "1"],
        [],
    ],
    ids=["unknown-command", "missing-input", "unknown-option", "format-xml", "seed-not-int",
         "trials-not-int", "max-degree-not-int", "missing-value", "abbreviation", "no-arguments"],
)
def test_a_command_line_that_does_not_parse_exits_2_with_the_usage(argv):
    code, out, err = run_cli(*argv)
    assert code == 2
    assert out == ""
    assert err.startswith("usage: mcdescent") and "mcdescent: error:" in err
    assert "Traceback" not in err


def _parsed_config(monkeypatch, argv):
    from mcdescent import cli

    seen = []

    def record(cfg):
        seen.append(cfg)
        return {"schema": "test/1", "ok": True}

    monkeypatch.setattr(cli, "run", record)
    assert cli.main(argv) == 0
    (cfg,) = seen
    return cfg


@pytest.mark.parametrize("command", COMMANDS)
def test_every_option_reaches_the_run_config_of_every_command(monkeypatch, command):
    from mcdescent.cli import RunConfig

    cfg = _parsed_config(monkeypatch, [command, "a.json", "b.json", *OPTIONS])
    assert cfg == RunConfig(
        command=command, inputs=("a.json", "b.json"), artin="sqz2", seed=17,
        trials=3, fmt="markdown", max_degree=2,
    )
    assert _parsed_config(monkeypatch, [command, "a.json"]) == RunConfig(
        command=command, inputs=("a.json",)
    )


@pytest.mark.parametrize(
    "argv",
    [
        [*OPTIONS, "mc", "a.json"],
        ["mc", *OPTIONS, "a.json"],
        ["--seed", "17", "--trials", "3", "mc", "--artin", "sqz2", "a.json",
         "--max-degree", "2", "--format", "markdown"],
    ],
    ids=["before-command", "before-input", "interleaved"],
)
def test_options_parse_wherever_they_stand(monkeypatch, argv):
    from mcdescent.cli import RunConfig

    assert _parsed_config(monkeypatch, argv) == RunConfig(
        command="mc", inputs=("a.json",), artin="sqz2", seed=17, trials=3,
        fmt="markdown", max_degree=2,
    )


@pytest.mark.parametrize(
    "argv, fields",
    [
        (["mc", "a.json", "--format=markdown", "--artin=sqz2", "--seed=17", "--trials=3",
          "--max-degree=2"],
         dict(fmt="markdown", artin="sqz2", seed=17, trials=3, max_degree=2)),
        (["mc", "a.json", "--seed", "-3"], dict(seed=-3)),
        (["mc", "--seed=-3", "a.json"], dict(seed=-3)),
        (["mc", "--trials", "1", "--", "a.json"], dict(trials=1)),
        (["mc", "--", "a.json", "--seed"], dict(inputs=("a.json", "--seed"))),
        (["mc", "a.json", "--seed", "1", "--seed=2", "--artin", "t4", "--artin", "dual"],
         dict(seed=2, artin="dual")),
    ],
    ids=["equals-form", "negative-value", "negative-equals", "double-dash",
         "double-dash-flag-as-input", "last-value-wins"],
)
def test_the_fixed_surface(monkeypatch, argv, fields):
    from mcdescent.cli import RunConfig

    want = dict(command="mc", inputs=("a.json",))
    want.update(fields)
    assert _parsed_config(monkeypatch, argv) == RunConfig(**want)


def test_short_and_long_help_print_the_same_text(capsys):
    from mcdescent import cli

    assert cli.main(["-h"]) == 0
    short = capsys.readouterr()
    assert cli.main(["mc", "--help", "--seed", "x"]) == 0
    long = capsys.readouterr()
    assert short.err == long.err == ""
    assert short.out == long.out and short.out.startswith("usage: mcdescent")


def test_the_cli_imports_no_argparse_or_gettext():
    """argparse and the gettext lookups of its first call, then dataclasses
    and the inspect, ast, dis and tokenize it imports, were most of the
    fixed cost of an invocation; nothing on the import path of the CLI
    brings them back."""
    env = dict(os.environ, PYTHONPATH=SRC)
    slow = {"argparse", "gettext", "dataclasses", "inspect", "ast", "dis", "tokenize"}
    code = f"import mcdescent.cli, sys; print(sorted({slow!r} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_a_run_config_is_a_frozen_record_with_the_documented_defaults():
    from mcdescent.cli import RunConfig

    cfg = RunConfig("mc", ("a.json",))
    assert (cfg.artin, cfg.seed, cfg.trials, cfg.fmt, cfg.max_degree) == ("t3", 0, 8, "json", 4)
    assert repr(cfg) == (
        "RunConfig(command='mc', inputs=('a.json',), artin='t3', seed=0, trials=8, "
        "fmt='json', max_degree=4)"
    )
    kw = dict(command="gauge", inputs=("a.json", "b.json"), artin="sqz2", seed=-3,
              trials=0, fmt="markdown", max_degree=1)
    assert RunConfig(**kw) == RunConfig(**kw)
    assert hash(RunConfig(**kw)) == hash(RunConfig(**kw))
    assert RunConfig(**kw) != RunConfig(**dict(kw, seed=4))
    with pytest.raises(AttributeError):
        cfg.seed = 1


@pytest.mark.parametrize(
    "field, value, message",
    [("trials", -1, "--trials: trials must be >= 0"),
     ("max_degree", 0, "--max-degree: max-degree must be >= 1")],
)
def test_a_run_config_refuses_a_negative_trial_count_or_degree_cap(field, value, message):
    from mcdescent.cli import RunConfig

    with pytest.raises(InputError) as info:
        RunConfig(command="mc", inputs=("a.json",), **{field: value})
    assert str(info.value) == message


def _set(doc, path, value):
    *head, last = path
    for key in head:
        doc = doc[key]
    doc[last] = value


FLOAT = 'floats are not exact; use an int or "p/q"'


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("diffs", "-1", 4, 0), 1.5, f"$.diffs.-1[4][0]: {FLOAT}"),
        (("diffs", "-1", 4, 0), True, "$.diffs.-1[4][0]: expected an exact number, got a boolean"),
        (("diffs", "-1", 4, 0), "1/0", "$.diffs.-1[4][0]: not a rational literal: '1/0'"),
        (("diffs", "0", 1, 3), "x", "$.diffs.0[1][3]: not a rational literal: 'x'"),
        (("brackets", 3, 5), 1.5, f"$.brackets[3]: {FLOAT}"),
        (("brackets", 3, 5), True, "$.brackets[3]: expected an exact number, got a boolean"),
        (("brackets", 3, 5), "1/0", "$.brackets[3]: not a rational literal: '1/0'"),
        (("brackets", 3, 5), "x", "$.brackets[3]: not a rational literal: 'x'"),
        (("brackets", 3, 1), 1.5, "$.brackets[3]: expected an integer"),
        (("brackets", 3, 1), True, "$.brackets[3]: expected an integer"),
        (("brackets", 3, 1), "1/0", "$.brackets[3]: expected an integer"),
        (("brackets", 3, 1), "x", "$.brackets[3]: expected an integer"),
        (("brackets", 3, 1), 99, "$.brackets[3]: index 99 out of range in degree -1"),
        (("brackets", 3, 3), 5, "$.brackets[3]: index 5 out of range in degree 1"),
        (("brackets", 3, 4), -1, "$.brackets[3]: index -1 out of range in degree 0"),
        (("brackets", 3, 0), 7, "$.brackets[3]: index 0 out of range in degree 7"),
        (("brackets", 3), [-1, 0, 0, 0, 0], "$.brackets[3]: expected [d1, i, d2, j, k, coeff]"),
        (("brackets", 3), {"a": 1}, "$.brackets[3]: expected [d1, i, d2, j, k, coeff]"),
    ],
)
def test_a_bad_number_is_named_by_its_path(path, value, message):
    """A float, a boolean, "1/0" or "x" as a matrix entry, bracket
    coefficient or bracket index, an index out of range or a misshapen
    bracket entry in end-two-step.json is refused with its JSON path."""
    with open(os.path.join(DATA, "end-two-step.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    _set(doc, path, value)
    with pytest.raises(InputError) as info:
        dgla_from_json(doc)
    assert str(info.value) == message


def test_a_bad_coface_entry_is_named_by_its_path():
    doc = sc_to_json(load_builtin("sc-cech")[1])
    doc["cofaces"]["1,0"]["0"][2][1] = 0.5
    with pytest.raises(InputError) as info:
        sc_from_json(doc)
    assert str(info.value) == f"$.cofaces['1,0'].0[2][1]: {FLOAT}"
