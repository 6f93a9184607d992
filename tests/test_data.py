"""The JSON files shipped in mcdescent/data/ are the builtin inputs of
the same name, written out: each loads to its builtin, the dgla/1 and
scdgla/1 files are byte for byte what the serializers emit, and every
command gives the same report on the file as on its builtin, apart
from the name of the input."""

import contextlib
import io
import json
from pathlib import Path

import pytest

import mcdescent
from mcdescent.cli import main
from mcdescent.io import dgla_to_json, dumps, load_builtin, load_document, sc_to_json

DATA = Path(mcdescent.__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"

# file stem -> builtin name, where the two differ
BUILTIN_OF = {"sc-conjugated-cech": "sc-conjugated", "sc-constant-sl2": "sc-sl2"}

SERIALIZERS = {"dgla": dgla_to_json, "sc": sc_to_json}


def test_every_data_file_is_covered():
    assert sorted(p.stem for p in DATA.glob("*.json")) == [
        "end-two-step",
        "morphism-identity",
        "morphism-simple",
        "morphism-zero",
        "sc-conjugated-cech",
        "sc-constant-sl2",
        "sc-counterexample",
        "sl2",
    ]


@pytest.mark.parametrize("path", sorted(DATA.glob("*.json")), ids=lambda p: p.stem)
def test_data_file_equals_its_builtin(path):
    kind, value = load_document(str(path))
    bkind, builtin = load_builtin(BUILTIN_OF.get(path.stem, path.stem))
    assert kind == bkind
    if kind == "pipeline":
        for side in ("source", "target"):
            assert value[side].acts == builtin[side].acts
        assert value["alpha"] == builtin["alpha"]
        assert value["opens"] == builtin["opens"]
        return
    text = path.read_text(encoding="utf-8")
    to_json = SERIALIZERS[kind]
    assert dumps(to_json(value)) == text
    assert dumps(to_json(builtin)) == text


def without_inputs(stdout: str) -> str:
    """A report with its input names removed, at the top level and in
    each of its parts or results; an empty stdout stays empty."""
    if not stdout:
        return stdout
    rep = json.loads(stdout)
    rep.pop("input", None)
    for key in ("parts", "results"):
        for item in rep.get(key, ()):
            item.pop("input", None)
    return dumps(rep)


def file_reports() -> list:
    """(data file, command, golden file of the builtin) for every command
    that has a golden report on the file's builtin at the default ring."""
    out = []
    for path in sorted(DATA.glob("*.json")):
        builtin = BUILTIN_OF.get(path.stem, path.stem)
        for golden in sorted(GOLDEN.glob(f"*.{builtin}.out")):
            out.append((path, golden.name.split(".")[0], golden))
    return out


@pytest.mark.parametrize(
    "path,cmd,golden",
    file_reports(),
    ids=[f"{cmd}-{path.stem}" for path, cmd, _ in file_reports()],
)
def test_data_file_gives_its_builtins_report(path, cmd, golden):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main([cmd, str(path), "--trials", "1", "--seed", "0"])
    codes = json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))
    assert code == codes[golden.name[: -len(".out")]]
    want = golden.read_text(encoding="utf-8")
    assert without_inputs(buf.getvalue()) == without_inputs(want)
