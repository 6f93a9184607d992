"""The command line boundary: exit codes and named errors on inputs that
break their axioms, run as a user runs the program."""

import json
import os
import subprocess
import sys

import pytest

import mcdescent
from mcdescent.io import dgla_to_json, load_builtin, sc_to_json

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


@pytest.mark.parametrize("name", ["sc-end", "sc-sl2"])
def test_descent_runs_on_diagrams_with_top_level_three(name):
    code, out, err = run_cli("descent", f"builtin:{name}", "--trials", "1")
    assert code == 0, err
    rep = json.loads(out)
    assert rep["ok"] is True
    assert len(rep["checks"]) == 8
    assert all(c["trials"] == 1 and c["failures"] == 0 for c in rep["checks"])


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
