"""Every name a module of the package imports is used in that module.

The check walks each module's syntax tree with the standard library
only: a name bound by an import statement must appear as a name
somewhere in the module, or be listed in its __all__.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "mcdescent"
MODULES = sorted(PACKAGE.glob("*.py"))


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


def test_the_check_sees_an_unused_import():
    assert MODULES, f"no modules found under {PACKAGE}"
    src = "from os import path, sep\nimport json\n__all__ = ['sep']\n"
    assert unused_imports(src) == ["line 1: path", "line 2: json"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
