"""Versioned JSON serialization for the command line layer.

Three input schemas, each carried in a top level "schema" field:

  dgla/1      a finite dgLa over Q: dims, differentials, bracket table
  scdgla/1    a semicosimplicial dgLa: levels (dgla/1 objects) + cofaces
  pipeline/1  a morphism of modules over the registered path algebra

Numbers are exact: JSON ints or strings like "3/4". Floats are rejected
so a file can never smuggle in rounding error. Loaders check structure
only (shapes, required keys, index ranges), so a parseable file with a
corrupted bracket loads fine. The algebraic axioms are checked once, at
the command line boundary: validate names every violation, and the
commands that compute with a file input refuse it with its first
violation. Builtin inputs are built by code and are not checked at run
time; the golden validate reports check them.

Serializers emit canonical content (sorted tables, one orientation of
the bracket) so that dumps() output is byte stable.
"""

from __future__ import annotations

import json

from .dgla import Dgla, DglaError, DglaMap
from .linalg import Mat
from .ratio import Q, rat
from .semicosimplicial import ScDgla


class InputError(ValueError):
    """Malformed input document; carries the JSON path of the offence."""

    def __init__(self, message: str, where: str = "$"):
        self.where = where
        super().__init__(f"{where}: {message}")


def dumps(obj) -> str:
    """Canonical JSON emission: sorted keys, two-space indent, newline."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# --- exact numbers -----------------------------------------------------------


def num_to_json(x):
    """An exact rational as a JSON int or a "p/q" string."""
    if x.denominator == 1:
        return int(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def num_from_json(v, where: str):
    if isinstance(v, bool):
        raise InputError("expected an exact number, got a boolean", where)
    if isinstance(v, int):
        return Q(v)
    if isinstance(v, float):
        raise InputError("floats are not exact; use an int or \"p/q\"", where)
    if isinstance(v, str):
        try:
            return rat(v)
        except (ValueError, ZeroDivisionError, TypeError):
            raise InputError(f"not a rational literal: {v!r}", where) from None
    raise InputError("expected an exact number", where)


def _int_from_json(v, where: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise InputError("expected an integer", where)
    return v


def mat_to_json(m: Mat) -> list:
    return [[num_to_json(m.entry(r, c)) for c in range(m.cols)] for r in range(m.rows)]


def mat_from_json(obj, rows: int, cols: int, where: str) -> Mat:
    if not isinstance(obj, list) or len(obj) != rows:
        raise InputError(f"expected a matrix with {rows} rows", where)
    m = Mat(rows, cols)
    for r, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != cols:
            raise InputError(
                f"expected a row of {cols} entries", f"{where}[{r}]"
            )
        out = m._rows[r]
        for c, v in enumerate(row):
            if type(v) is not int:  # an int needs no parsing, nor an error path
                v = num_from_json(v, f"{where}[{r}][{c}]")
                if v:
                    out[c] = v
            elif v:
                out[c] = Q(v)
    return m


def _require_dict(obj, where: str) -> dict:
    if not isinstance(obj, dict):
        raise InputError("expected an object", where)
    return obj


# --- dgla/1 ------------------------------------------------------------------


def dgla_to_json(g: Dgla) -> dict:
    """Serialize a dgLa. Only one orientation of the bracket is stored;
    the other is recovered from graded antisymmetry on load."""
    brackets = []
    for (d1, i, d2, j), val in sorted(g._br.items()):
        if (d1, i) <= (d2, j):
            for k, c in val:
                brackets.append([d1, i, d2, j, k, num_to_json(c)])
    return {
        "schema": "dgla/1",
        "label": g.label,
        "dims": {str(d): n for d, n in sorted(g.dims.items())},
        "diffs": {str(d): mat_to_json(m) for d, m in sorted(g.diffs.items())},
        "brackets": brackets,
    }


def _parse_int_key(key: str, where: str) -> int:
    try:
        return int(key)
    except (TypeError, ValueError):
        raise InputError(f"key {key!r} is not an integer", where) from None


_SIX_INTS = [int] * 6  # a bracket entry of five indices and an int coefficient


def dgla_from_json(obj, where: str = "$") -> Dgla:
    obj = _require_dict(obj, where)
    if obj.get("schema", "dgla/1") != "dgla/1":
        raise InputError("schema must be dgla/1", f"{where}.schema")
    dims_raw = _require_dict(obj.get("dims", {}), f"{where}.dims")
    dims = {}
    for key, n in dims_raw.items():
        d = _parse_int_key(key, f"{where}.dims")
        n = _int_from_json(n, f"{where}.dims.{key}")
        if n < 0:
            raise InputError("dimension must be >= 0", f"{where}.dims.{key}")
        dims[d] = n

    def dim(d):
        return dims.get(d, 0)

    diffs_raw = _require_dict(obj.get("diffs", {}), f"{where}.diffs")
    diffs = {}
    for key, rows in diffs_raw.items():
        d = _parse_int_key(key, f"{where}.diffs")
        diffs[d] = mat_from_json(rows, dim(d + 1), dim(d), f"{where}.diffs.{key}")

    brackets_raw = obj.get("brackets", [])
    if not isinstance(brackets_raw, list):
        raise InputError("expected a list of bracket entries", f"{where}.brackets")
    table: dict = {}
    for t, entry in enumerate(brackets_raw):
        if type(entry) is list and [*map(type, entry)] == _SIX_INTS:
            d1, i, d2, j, k, c = entry
            c = Q(c)
        else:
            ew = f"{where}.brackets[{t}]"
            if not isinstance(entry, list) or len(entry) != 6:
                raise InputError("expected [d1, i, d2, j, k, coeff]", ew)
            d1, i, d2, j, k = (_int_from_json(v, ew) for v in entry[:5])
            c = num_from_json(entry[5], ew)
        for idx, deg in ((i, d1), (j, d2), (k, d1 + d2)):
            if not 0 <= idx < dim(deg):
                raise InputError(
                    f"index {idx} out of range in degree {deg}", f"{where}.brackets[{t}]"
                )
        table.setdefault((d1, i, d2, j), []).append((k, c))

    label = obj.get("label", "")
    if not isinstance(label, str):
        raise InputError("label must be a string", f"{where}.label")
    try:
        return Dgla(dims, diffs, table, label=label)
    except DglaError as e:
        raise InputError(str(e), where) from None


# --- scdgla/1 ----------------------------------------------------------------


def sc_to_json(sc: ScDgla) -> dict:
    cofaces = {}
    for (i, k), m in sorted(sc.cofaces.items()):
        cofaces[f"{i},{k}"] = {
            str(d): mat_to_json(mat) for d, mat in sorted(m.mats.items())
        }
    return {
        "schema": "scdgla/1",
        "label": sc.label,
        "levels": [dgla_to_json(lv) for lv in sc.levels],
        "cofaces": cofaces,
    }


def sc_from_json(obj, where: str = "$") -> ScDgla:
    obj = _require_dict(obj, where)
    if obj.get("schema", "scdgla/1") != "scdgla/1":
        raise InputError("schema must be scdgla/1", f"{where}.schema")
    levels_raw = obj.get("levels")
    if not isinstance(levels_raw, list) or not levels_raw:
        raise InputError("expected a nonempty list of levels", f"{where}.levels")
    levels = [
        dgla_from_json(lv, f"{where}.levels[{p}]") for p, lv in enumerate(levels_raw)
    ]
    top = len(levels) - 1
    cof_raw = _require_dict(obj.get("cofaces", {}), f"{where}.cofaces")
    seen = {}
    for key, mats_raw in cof_raw.items():
        kw = f"{where}.cofaces[{key!r}]"
        parts = key.split(",")
        if len(parts) != 2:
            raise InputError("face keys look like \"i,k\"", kw)
        i = _parse_int_key(parts[0], kw)
        k = _parse_int_key(parts[1], kw)
        if not (1 <= i <= top and 0 <= k <= i):
            raise InputError(
                f"stray face map ({k},{i}) for a diagram with top level {top}", kw
            )
        src, tgt = levels[i - 1], levels[i]
        mats_raw = _require_dict(mats_raw, kw)
        mats = {}
        for dkey, rows in mats_raw.items():
            d = _parse_int_key(dkey, kw)
            mats[d] = mat_from_json(rows, tgt.dim(d), src.dim(d), f"{kw}.{dkey}")
        seen[(i, k)] = DglaMap(src, tgt, mats)
    for i in range(1, top + 1):
        for k in range(i + 1):
            if (i, k) not in seen:
                raise InputError(
                    f"missing face map ({k},{i})", f"{where}.cofaces[\"{i},{k}\"]"
                )
    label = obj.get("label", "")
    if not isinstance(label, str):
        raise InputError("label must be a string", f"{where}.label")
    return ScDgla(levels, seen, label=label)


# --- pipeline/1 --------------------------------------------------------------


def _module_from_json(obj, where: str):
    from .pipeline import a2_algebra, representation

    obj = _require_dict(obj, where)
    dims = obj.get("dims")
    if (
        not isinstance(dims, list)
        or len(dims) != 2
        or any(isinstance(v, bool) or not isinstance(v, int) or v < 0 for v in dims)
    ):
        raise InputError("dims must be a pair of nonnegative ints", f"{where}.dims")
    d1, d2 = dims
    arrow = mat_from_json(obj.get("arrow", []), d2, d1, f"{where}.arrow")
    return representation(a2_algebra(), (d1, d2), [arrow])


def pipeline_from_json(obj, where: str = "$") -> dict:
    obj = _require_dict(obj, where)
    if obj.get("schema", "pipeline/1") != "pipeline/1":
        raise InputError("schema must be pipeline/1", f"{where}.schema")
    if obj.get("algebra", "a2") != "a2":
        raise InputError(
            "unknown algebra; only \"a2\" is registered", f"{where}.algebra"
        )
    fmod = _module_from_json(obj.get("source"), f"{where}.source")
    gmod = _module_from_json(obj.get("target"), f"{where}.target")
    alpha = mat_from_json(obj.get("alpha", []), gmod.dim, fmod.dim, f"{where}.alpha")
    opens = _int_from_json(obj.get("opens", 1), f"{where}.opens")
    if opens not in (1, 2):
        raise InputError("opens must be 1 or 2", f"{where}.opens")
    label = obj.get("label", "")
    if not isinstance(label, str):
        raise InputError("label must be a string", f"{where}.label")
    return {
        "kind": "pipeline",
        "label": label,
        "source": fmod,
        "target": gmod,
        "alpha": alpha,
        "opens": opens,
    }


# --- documents and builtins ---------------------------------------------------


def read_json_file(path: str):
    """Parse a UTF-8 JSON file. A file that cannot be read, is not UTF-8,
    is not JSON, nests too deeply to parse or holds an integer literal too
    long to convert is an InputError naming it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as e:
        raise InputError(f"cannot read file: {e}", path) from None
    except UnicodeDecodeError as e:
        raise InputError(f"not UTF-8 text: {e}", path) from None
    except ValueError as e:
        # a JSONDecodeError, or an integer literal longer than int() converts
        raise InputError(f"invalid JSON: {e}", path) from None
    except RecursionError:
        raise InputError("JSON nested too deeply", path) from None


def document_from_json(obj, where: str = "$") -> tuple:
    """Dispatch a parsed JSON document on its schema field.

    Returns (kind, value) with kind in {"dgla", "sc", "pipeline"}.
    """
    obj = _require_dict(obj, where)
    schema = obj.get("schema")
    if schema == "dgla/1":
        return "dgla", dgla_from_json(obj, where)
    if schema == "scdgla/1":
        return "sc", sc_from_json(obj, where)
    if schema == "pipeline/1":
        return "pipeline", pipeline_from_json(obj, where)
    if schema is None:
        raise InputError("missing schema field", f"{where}.schema")
    raise InputError(f"unknown schema {schema!r}", f"{where}.schema")


def _builtin_factories() -> dict:
    from .builders import (
        acyclic_complex,
        cover_twist_redundant,
        sc_cech_conjugated,
        sc_cech_identity,
        sc_constant_end,
        sc_constant_sl2,
        sc_counterexample,
        sc_twist,
        sc_weak_only,
        sc_zero,
        two_step_complex,
        zero_dgla,
    )
    from .dgla import sl2
    from .pipeline import canonical_morphisms, end_dgla_of_complex, vector_complex
    from .semicosimplicial import cech_from_cover

    def end_of(cx, label):
        return end_dgla_of_complex(vector_complex(cx), label)[0]

    def pipeline_entry(idx):
        def make():
            name, fmod, gmod, alpha = canonical_morphisms()[idx]
            return {
                "kind": "pipeline",
                "label": name,
                "source": fmod,
                "target": gmod,
                "alpha": alpha,
                "opens": 1,
            }

        return make

    return {
        "sl2": ("dgla", sl2),
        "end-two-step": ("dgla", lambda: end_of(two_step_complex(), "end-two-step")),
        "end-acyclic": ("dgla", lambda: end_of(acyclic_complex(), "end-acyclic")),
        "zero": ("dgla", zero_dgla),
        "sc-sl2": ("sc", lambda: sc_constant_sl2(3)),
        "sc-end": ("sc", lambda: sc_constant_end(3)),
        "sc-cech": ("sc", sc_cech_identity),
        "sc-conjugated": ("sc", lambda: sc_cech_conjugated(seed=5)),
        "sc-twist": ("sc", sc_twist),
        "sc-twist-redundant": ("sc", lambda: cech_from_cover(cover_twist_redundant())),
        "sc-counterexample": ("sc", sc_counterexample),
        "sc-weak-only": ("sc", sc_weak_only),
        "sc-zero": ("sc", sc_zero),
        "morphism-zero": ("pipeline", pipeline_entry(0)),
        "morphism-identity": ("pipeline", pipeline_entry(1)),
        "morphism-simple": ("pipeline", pipeline_entry(2)),
    }


def builtin_input_names() -> list:
    return sorted(_builtin_factories())


def load_builtin(name: str) -> tuple:
    reg = _builtin_factories()
    if name not in reg:
        raise InputError(
            f"unknown builtin input {name!r}; choose from {builtin_input_names()}",
            "builtin",
        )
    kind, make = reg[name]
    return kind, make()


def load_document(spec: str) -> tuple:
    """Load an input by file path or "builtin:<name>".

    Returns (kind, value). Raises InputError on anything structurally
    wrong: unreadable file, invalid JSON, unknown schema, missing or
    misshapen fields.
    """
    if spec.startswith("builtin:"):
        return load_builtin(spec[len("builtin:"):])
    return document_from_json(read_json_file(spec))
