"""Three checks on the package source, with the standard library only.

Every name a module of the package imports is used in that module: a
name bound by an import statement must appear as a name somewhere in the
module, or be listed in its __all__.

Every function and method of the package feeds a report: the walk from
`cli.main`, from module-level code and from the names mcbench imports
from the package reaches it, unless TEST_ORACLES names it together with
the test that uses it to check code the command line does reach. The
walk goes by bare name: a name or an attribute reaches every top-level
function, class and method so called. A reached class reaches every
name its class body and its dunder methods use, since those run without
being named; any other method is reached only by its own name. So the
walk can only overcount what is reached; a function or method it
reports has no caller.

Every module of the package imports first: in a fresh interpreter, with
nothing of the package imported before it. pytest imports the modules in
its own order, which can hide an import cycle.
"""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mcdescent"
MODULES = sorted(PACKAGE.glob("*.py"))

# oracle -> the test that uses it, as "test file::test function"
TEST_ORACLES = {
    # the identity ∫∘W = id and Stokes' theorem, for whitney_map and whitney_form
    "semicosimplicial.integration_map":
        "test_semicosimplicial.py::test_integration_after_whitney_is_identity",
    "forms.integrate_simplex": "test_forms.py::test_stokes_with_alternating_faces",
    "forms.face_form": "test_forms.py::test_stokes_with_alternating_faces",
    "forms.f_eval": "test_forms.py::test_stokes_with_alternating_faces",
    # the simplicial identities of coface_images
    "forms.coface_pullback": "test_forms.py::test_cosimplicial_identity_on_pullbacks",
    "forms.coface_images": "test_forms.py::test_cosimplicial_identity_on_pullbacks",
    "forms.f_subst": "test_forms.py::test_cosimplicial_identity_on_pullbacks",
    "semicosimplicial.tw_mc_to_element": "test_descent.py::test_descend_inverts_the_lift",
    # the groupoid laws and the functoriality of phi1_full_lift
    "semicosimplicial.totdel_identity":
        "test_descent.py::test_full_lift_of_identity_is_constant",
    "semicosimplicial.totdel_compose":
        "test_descent.py::test_descent_of_composite_homotopy_is_the_composite",
    "semicosimplicial.totdel_invert": "test_semicosimplicial.py::test_totdel_morphisms_roundtrip",
    "semicosimplicial.totdel_mor_equal":
        "test_semicosimplicial.py::test_totdel_morphisms_roundtrip",
    # the naturality of phi1_obj
    "artin.base_change":
        "test_artin.py::test_base_change_of_composite_is_composite_of_base_changes",
    "dgla.elem_base_change": "test_descent.py::test_base_change_commutes_with_the_descent_functor",
    "descent.mc_pair_base_change":
        "test_descent.py::test_base_change_commutes_with_the_descent_functor",
    "descent.totdel_base_change":
        "test_descent.py::test_base_change_commutes_with_the_descent_functor",
    # invariants of what the samplers and descent maps build unchecked
    "semicosimplicial.tw_is_mc":
        "test_descent.py::test_what_the_descent_command_samples_passes_every_invariant",
    "semicosimplicial.TWElem.is_compatible":
        "test_descent.py::test_what_the_descent_command_samples_passes_every_invariant",
    "semicosimplicial.totdel_mor_verify":
        "test_descent.py::test_what_the_descent_command_samples_passes_every_invariant",
    # the consistency of the covers behind the Cech builtins, which
    # cech_from_cover reads unchecked
    "semicosimplicial.CoverModel.violations":
        "test_semicosimplicial.py::test_the_builtin_covers_are_consistent",
    # the elimination of T a = b T, the reference for every Yoneda basis
    "pipeline.hom_basis": "test_pipeline.py::test_yoneda_basis_spans_the_hom_space",
    # seeded test inputs
    "pipeline.random_a2_module": "test_pipeline.py::test_les_exact_on_random_instances",
    "pipeline.random_module_map": "test_pipeline.py::test_les_exact_on_random_instances",
    "builders.random_chain_auto":
        "test_dgla.py::test_cover_conjugated_restrictions_are_the_index_loop_conjugations",
}


# the submodules: __init__ is the package itself, and __main__ runs the
# command line when imported
SUBMODULES = [p.stem for p in MODULES if not p.stem.startswith("__")]


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [
                (a.asname or a.name.split(".")[0], node.lineno) for a in node.names
            ]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(a.asname or a.name, node.lineno) for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {e.value for e in node.value.elts}
    return [f"line {line}: {name}" for name, line in imported if name not in used]


def _names(node) -> set:
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def definitions(sources: dict):
    """The top-level functions and classes of the given {module: source}
    and the methods of those classes other than dunders, as {name:
    [("module.name" or "module.Class.name", is a function or method,
    names it uses)]}, and the names that module-level code uses (an import
    binds a name but does not use it). A class uses the names of its
    bases, decorators, class body and dunder methods."""
    defs, used = {}, set()
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            if isinstance(stmt, ast.FunctionDef):
                defs.setdefault(stmt.name, []).append((f"{module}.{stmt.name}", True, _names(stmt)))
            elif isinstance(stmt, ast.ClassDef):
                names = set().union(*map(_names, stmt.bases + stmt.decorator_list))
                for node in stmt.body:
                    if isinstance(node, ast.FunctionDef) and not _is_dunder(node.name):
                        qual = f"{module}.{stmt.name}.{node.name}"
                        defs.setdefault(node.name, []).append((qual, True, _names(node)))
                    else:
                        names |= _names(node)
                defs.setdefault(stmt.name, []).append((f"{module}.{stmt.name}", False, names))
            elif not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                used |= _names(stmt)
    return defs, used


def reach(defs: dict, roots) -> set:
    """The qualified names of the definitions reached by name from roots."""
    seen, todo, out = set(), list(roots), set()
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for qual, _, names in defs.get(name, ()):
            out.add(qual)
            todo += names
    return out


def unreached(sources: dict, roots) -> list:
    """The functions and methods that neither module-level code nor roots reach."""
    defs, used = definitions(sources)
    reached = reach(defs, used | set(roots))
    return sorted(
        qual
        for entries in defs.values()
        for qual, is_function, _ in entries
        if is_function and qual not in reached
    )


def package_sources() -> dict:
    return {p.stem: p.read_text(encoding="utf-8") for p in MODULES}


def bench_imports() -> set:
    """The names mcbench/*.py import from the package."""
    out = set()
    for path in sorted((ROOT / "mcbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("mcdescent"):
                out |= {a.name for a in node.names}
    return out


def test_the_check_sees_an_unused_import():
    assert MODULES, f"no modules found under {PACKAGE}"
    src = "from os import path, sep\nimport json\n__all__ = ['sep']\n"
    assert unused_imports(src) == ["line 1: path", "line 2: json"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_walk_sees_a_function_without_a_caller():
    sources = {
        "cli": "from .lib import run\n\ndef main():\n    return run()\n",
        "lib": (
            "from .other import orphan\n"
            "def run():\n    return _helper()\n"
            "def _helper():\n    return 1\n"
            "class Table:\n    def __len__(self):\n        return by_dunder()\n"
            "    def row(self):\n        return by_method()\n"
            "    def spare_row(self):\n        return by_spare_method()\n"
            "def by_dunder():\n    return 1\n"
            "def by_method():\n    return 2\n"
            "def by_spare_method():\n    return 3\n"
            "TABLES = {'t': Table().row}\n"
        ),
        "other": "def orphan():\n    return _helper()\n\ndef spare():\n    pass\n",
    }
    assert unreached(sources, {"main"}) == [
        "lib.Table.spare_row", "lib.by_spare_method", "other.orphan", "other.spare",
    ]
    assert unreached(sources, {"main", "orphan", "spare_row"}) == ["other.spare"]


def test_every_library_function_feeds_a_report_or_is_a_test_oracle():
    assert bench_imports(), "found no names that mcbench imports from the package"
    left = set(unreached(package_sources(), {"main"} | bench_imports()))
    assert sorted(left - set(TEST_ORACLES)) == [], "functions without a caller"
    assert sorted(set(TEST_ORACLES) - left) == [], "oracles that are gone or now reached"


def test_each_test_oracle_is_reached_from_its_test():
    package, _ = definitions(package_sources())
    for file in sorted({where.split("::")[0] for where in TEST_ORACLES.values()}):
        tests, _ = definitions({file: (ROOT / "tests" / file).read_text(encoding="utf-8")})
        defs = {n: package.get(n, []) + tests.get(n, []) for n in package.keys() | tests.keys()}
        for oracle, where in TEST_ORACLES.items():
            test = where.removeprefix(f"{file}::")
            if test == where:
                continue
            assert test in tests, f"{where} does not exist"
            assert oracle in reach(defs, {test}), f"{where} does not use {oracle}"


@pytest.mark.parametrize("module", SUBMODULES)
def test_each_module_imports_first_in_a_fresh_interpreter(module):
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    run = subprocess.run(
        [sys.executable, "-c", f"import mcdescent.{module}"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert run.returncode == 0, run.stderr
