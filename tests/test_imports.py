"""Every name a module of objlog imports is used there or exported.

An import that nothing reads is dead code that still ties two modules
together, so each one is either read in its module or listed in the
module's `__all__`, as the package's `__init__` re-exports its API.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "objlog"
MODULES = sorted(SRC.rglob("*.py"))


def imported_names(tree: ast.Module) -> dict:
    """The names the module's imports bind, with the line of each."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name == "*":
                    continue
                bound = alias.asname or alias.name.split(".")[0]
                names[bound] = node.lineno
    return names


def read_names(tree: ast.Module) -> set:
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def exported_names(tree: ast.Module) -> set:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return {elt.value for elt in node.value.elts}
    return set()


@pytest.mark.parametrize("path", MODULES, ids=[p.relative_to(SRC).as_posix() for p in MODULES])
def test_every_imported_name_is_read_or_exported(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = read_names(tree) | exported_names(tree)
    unused = sorted(f"{name} (line {line})"
                    for name, line in imported_names(tree).items() if name not in used)
    assert unused == [], f"{path.name} imports names it never reads: {', '.join(unused)}"


def test_the_guard_sees_an_unused_import():
    tree = ast.parse("from x import a, b\nimport c.d\n__all__ = ['b']\n")
    used = read_names(tree) | exported_names(tree)
    assert sorted(set(imported_names(tree)) - used) == ["a", "c"]
