"""Golden reports: the exit code and stdout bytes of every subcommand on
every builtin, at --trials 1 --seed 0, must stay exactly as saved in
tests/golden/. A change that means to alter a report regenerates the
corpus and says so:

    PYTHONPATH=src python tests/test_golden.py

which runs each report through `python -m mcdescent` and rewrites the
files. The test itself calls the CLI in-process.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mcdescent.cli import main
from mcdescent.io import builtin_input_names

GOLDEN = Path(__file__).parent / "golden"
CODES = GOLDEN / "exit_codes.json"

REPORT_COMMANDS = ("validate", "cohomology", "mc", "gauge", "decompose", "descent")


def corpus() -> list:
    """(command, builtin) of every golden report."""
    out = []
    for name in builtin_input_names():
        if name.startswith("morphism-"):
            out.append(("pipeline", name))
        else:
            out.extend((cmd, name) for cmd in REPORT_COMMANDS)
    return out


def argv(cmd: str, name: str) -> list:
    return [cmd, f"builtin:{name}", "--trials", "1", "--seed", "0"]


def golden_path(cmd: str, name: str) -> Path:
    return GOLDEN / f"{cmd}.{name}.out"


def test_corpus_is_complete():
    assert len(corpus()) == 81
    saved = json.loads(CODES.read_text(encoding="utf-8"))
    assert sorted(saved) == sorted(f"{c}.{n}" for c, n in corpus())
    assert sorted(p.name for p in GOLDEN.glob("*.out")) == sorted(
        golden_path(c, n).name for c, n in corpus()
    )


@pytest.mark.parametrize("cmd,name", corpus(), ids=lambda x: x)
def test_report_bytes_are_unchanged(cmd, name):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv(cmd, name))
    saved = json.loads(CODES.read_text(encoding="utf-8"))
    assert code == saved[f"{cmd}.{name}"]
    assert buf.getvalue().encode("utf-8") == golden_path(cmd, name).read_bytes()


def regenerate():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    codes = {}
    for cmd, name in corpus():
        proc = subprocess.run(
            [sys.executable, "-m", "mcdescent", *argv(cmd, name)],
            capture_output=True, env=env, timeout=300, check=False,
        )
        codes[f"{cmd}.{name}"] = proc.returncode
        golden_path(cmd, name).write_bytes(proc.stdout)
        print(f"{cmd} {name}: exit {proc.returncode}", file=sys.stderr)
    CODES.write_text(json.dumps(codes, sort_keys=True, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    regenerate()
