"""Golden reports: the exit code and stdout bytes of every subcommand on
every builtin, at --trials 1 --seed 0, must stay exactly as saved in
tests/golden/. They run over the default ring t3, which has one monomial
per level, and RING_REPORTS add decompose and descent reports over rings
with several. A change that means to alter a report regenerates the
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

# (command, builtin) pairs also run over each ring in RINGS
RING_REPORTS = (
    ("decompose", "end-acyclic"),
    ("decompose", "sc-twist-redundant"),
    ("decompose", "sc-cech"),
    ("descent", "sc-twist-redundant"),
    ("descent", "sc-cech"),
)
RINGS = ("sqz2", "fat2")


def corpus() -> list:
    """(command, builtin, ring) of every golden report; ring None is the
    CLI's default."""
    out = []
    for name in builtin_input_names():
        if name.startswith("morphism-"):
            out.append(("pipeline", name, None))
        else:
            out.extend((cmd, name, None) for cmd in REPORT_COMMANDS)
    out.extend((cmd, name, ring) for ring in RINGS for cmd, name in RING_REPORTS)
    return out


def report_id(cmd: str, name: str, ring) -> str:
    return "-".join(filter(None, (cmd, name, ring)))


def argv(cmd: str, name: str, ring) -> list:
    out = [cmd, f"builtin:{name}", "--trials", "1", "--seed", "0"]
    return out + ["--artin", ring] if ring else out


def code_key(cmd: str, name: str, ring) -> str:
    return ".".join(filter(None, (cmd, name, ring)))


def golden_path(cmd: str, name: str, ring) -> Path:
    return GOLDEN / f"{code_key(cmd, name, ring)}.out"


def test_corpus_is_complete():
    assert len(corpus()) == 91
    saved = json.loads(CODES.read_text(encoding="utf-8"))
    assert sorted(saved) == sorted(code_key(*r) for r in corpus())
    assert sorted(p.name for p in GOLDEN.glob("*.out")) == sorted(
        golden_path(*r).name for r in corpus()
    )


@pytest.mark.parametrize(
    "cmd,name,ring", corpus(), ids=[report_id(*r) for r in corpus()]
)
def test_report_bytes_are_unchanged(cmd, name, ring):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv(cmd, name, ring))
    saved = json.loads(CODES.read_text(encoding="utf-8"))
    assert code == saved[code_key(cmd, name, ring)]
    assert buf.getvalue().encode("utf-8") == golden_path(cmd, name, ring).read_bytes()


def regenerate():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    codes = {}
    for report in corpus():
        proc = subprocess.run(
            [sys.executable, "-m", "mcdescent", *argv(*report)],
            capture_output=True, env=env, timeout=300, check=False,
        )
        codes[code_key(*report)] = proc.returncode
        golden_path(*report).write_bytes(proc.stdout)
        print(f"{report_id(*report)}: exit {proc.returncode}", file=sys.stderr)
    CODES.write_text(json.dumps(codes, sort_keys=True, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    regenerate()
