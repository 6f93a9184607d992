"""The JSON files shipped in mcdescent/data/ are the builtin inputs of
the same name, written out: each loads to its builtin, and the dgla/1
and scdgla/1 files are byte for byte what the serializers emit."""

from pathlib import Path

import pytest

import mcdescent
from mcdescent.io import dgla_to_json, dumps, load_builtin, load_document, sc_to_json

DATA = Path(mcdescent.__file__).parent / "data"

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
