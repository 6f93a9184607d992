"""The JSON files shipped in mcdescent/data/ are the builtin inputs of
the same name, written out: each loads to its builtin, the dgla/1 and
scdgla/1 files are byte for byte what the serializers emit, and every
command gives the same report on the file as on its builtin, apart
from the name of the input."""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

import mcdescent
from mcdescent.cli import main
from mcdescent.io import (
    builtin_input_names, dgla_to_json, dumps, load_builtin, load_document, sc_to_json,
)

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


# SHA-256 of io.dumps of every dgla and scdgla builtin: its dimensions,
# differentials, bracket table and, for a diagram, its faces
BUILTIN_SHA256 = {
    "end-acyclic": "f14f3f001f0bc87bd038a2b2f1b35cf8aba0e39cfcd5c22ed76e7485d504d269",
    "end-two-step": "24de17c33fd5aba96000644a45922e825bd35698af9a987ad4d9e30b88b3c803",
    "sc-cech": "b2d7e9a62815f8356294ab5688866b387756d62013b42f9dff5f64599dec5116",
    "sc-conjugated": "314178090a103766f86e6e21ae425e9ddf8deb40f606a4b191c4ccb6ca1eaec8",
    "sc-counterexample": "51626517a2ba14708aa72aadb72508b997068bf1ee0cffe99ee8a2847689ec88",
    "sc-end": "926465269c86484c37af8ab188e9427508d5054a3d6de35ec718ce9ee05b1726",
    "sc-sl2": "6724efc1b20f6f695097a0e688ab9d6285e8aae63ec6557de1dbde2222eed945",
    "sc-twist": "a73f8730539c865ca89857860f16b9dcc2335c34857ec03e0f8e7632b695740e",
    "sc-twist-redundant": "badc05bdccf112428e08fbef4fc5f20b2a8a92c343f226a88d7d46e2029fbdd7",
    "sc-weak-only": "cb2ea6cd32c4f54a9e1ae6c26d58d48b0f8d4767105a7d086b73a495977eb427",
    "sc-zero": "9d1c23d2c1dab5db10f20ba9205a73ea88404a084f9d2ee3579fd9c947d72389",
    "sl2": "17bdd27fe8d86f1a23f7fed49ca19c2a537c5c0b1b306af2ad82e32c0b332cb3",
    "zero": "1f7d4e01333b81041053a289ad0728001efab76caa5af1ffed86fececb2ad97a",
}


def test_every_builtin_serialises_to_its_pinned_bytes():
    """Every dgla and scdgla builtin, including the eight with no data
    file, serialises to the bytes it did when the hashes were pinned."""
    names = [n for n in builtin_input_names() if load_builtin(n)[0] != "pipeline"]
    assert sorted(BUILTIN_SHA256) == names
    for name in names:
        kind, value = load_builtin(name)
        text = dumps(SERIALIZERS[kind](value))
        assert hashlib.sha256(text.encode()).hexdigest() == BUILTIN_SHA256[name], name


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
