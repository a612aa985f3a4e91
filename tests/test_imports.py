"""Every name a module of objlog imports is used there or exported, and
every import made inside a function breaks an import cycle.

An import that nothing reads is dead code that still ties two modules
together, so each one is either read in its module or listed in the
module's `__all__`, as the package's `__init__` re-exports its API.  An
import inside a function hides a dependency and runs on every call, so it
is there only when the module it names imports this one back.
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


def relative_imports(node: ast.AST) -> set:
    """(module, line) for each `from .x import` and `from . import x`
    under `node`."""
    found = set()
    for n in ast.walk(node):
        if isinstance(n, ast.ImportFrom) and n.level == 1:
            for target in [n.module] if n.module else [a.name for a in n.names]:
                found.add((target.split(".")[0], n.lineno))
    return found


def function_local_imports(tree: ast.Module) -> set:
    local = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            local |= relative_imports(node)
    return local


def import_graph(trees: dict) -> dict:
    """Module name -> the modules it imports when it is loaded."""
    return {name: {m for m, _ in relative_imports(tree) - function_local_imports(tree)}
            for name, tree in trees.items()}


def imports_back(graph: dict, start: str, target: str) -> bool:
    """Whether loading `start` loads `target`, directly or through others."""
    seen, todo = set(), [start]
    while todo:
        name = todo.pop()
        if name == target:
            return True
        if name not in seen:
            seen.add(name)
            todo.extend(graph.get(name, ()))
    return False


def cycle_free_local_imports(name: str, tree: ast.Module, graph: dict) -> list:
    return sorted(f"{m} (line {line})" for m, line in function_local_imports(tree)
                  if not imports_back(graph, m, name))


TREES = {p.stem: ast.parse(p.read_text(encoding="utf-8"), filename=str(p)) for p in MODULES}


@pytest.mark.parametrize("name", sorted(TREES))
def test_a_function_local_import_breaks_an_import_cycle(name):
    """A module imports another inside a function only when that module
    imports it back, so the import cannot stand at the top."""
    flagged = cycle_free_local_imports(name, TREES[name], import_graph(TREES))
    assert flagged == [], f"{name}.py imports inside a function with no cycle: {flagged}"


def test_the_guard_sees_a_local_import_with_no_cycle():
    trees = {"a": ast.parse("from .b import x\n"
                            "def f():\n    from .c import y\n    from .d import z\n"),
             "b": ast.parse("from . import c\n"),
             "c": ast.parse("from .a import f\n"),
             "d": ast.parse("")}
    assert cycle_free_local_imports("a", trees["a"], import_graph(trees)) == ["d (line 4)"]
