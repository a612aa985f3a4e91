"""Each job has one module: only the engine runs goals, and only the
kernel makes objects.

`clausecode` compiles clause bodies into `Goal`s and `engine` is the one
module that pushes them as continuation nodes.  Every other module hands
the machine a goal term (`Engine.solve`) or a predicate entry to enter
(`Machine.enter`, `call_once`, `call_scoped`), so none of them imports a
goal, a goal constant or a goal compiler from `clausecode`, and none
names `PushGoal`, the form a builtin would push goals in.

`Kernel.find_class` is the one place an unknown class becomes a ball and
`Kernel.instantiate` the one place `initialise` is resolved, so no other
module builds `bridge_error("unknown_class", ...)` or resolves
`initialise` itself.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "objlog"
MODULES = sorted(SRC.rglob("*.py"))

GOAL_NAMES = {"Goal", "COMMIT", "COMMIT_EXIT", "EXIT_GOAL", "late_goal", "compile_body",
              "call_goal"}


def layering_breaches(tree: ast.Module) -> list:
    """(name, line) for each goal name the module takes from `clausecode`,
    by `from .clausecode import` or as an attribute of the module, and for
    each mention of `PushGoal`."""
    found = []
    modules = set()  # the names `clausecode` is bound to here
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if node.module == "clausecode" and alias.name in GOAL_NAMES:
                    found.append((alias.name, node.lineno))
                elif node.module is None and alias.name == "clausecode":
                    modules.add(alias.asname or alias.name)
                if alias.name == "PushGoal":
                    found.append((alias.name, node.lineno))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == "PushGoal":
            found.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            if node.attr == "PushGoal" or (node.attr in GOAL_NAMES
                                           and isinstance(node.value, ast.Name)
                                           and node.value.id in modules):
                found.append((node.attr, node.lineno))
    return sorted(set(found), key=lambda f: (f[1], f[0]))


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "engine.py"],
                         ids=lambda p: p.relative_to(SRC).as_posix())
def test_only_the_engine_takes_goals_from_clause_code(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    breaches = [f"{name} (line {line})" for name, line in layering_breaches(tree)]
    assert breaches == [], f"{path.name} reaches into compiled goals: {', '.join(breaches)}"


def test_the_guard_sees_each_way_in():
    tree = ast.parse("from .clausecode import COMMIT, new_struct\n"
                     "from . import clausecode as cc\n"
                     "from .engine import PushGoal\n"
                     "def f(m):\n"
                     "    m.push(cc.COMMIT_EXIT, None, 0)\n"
                     "    return engine.PushGoal((cc.call_goal(e, ()),))\n")
    assert layering_breaches(tree) == [("COMMIT", 1), ("PushGoal", 3), ("COMMIT_EXIT", 5),
                                       ("PushGoal", 6), ("call_goal", 6)]


def _callee(call: ast.Call):
    f = call.func
    return f.attr if isinstance(f, ast.Attribute) else f.id if isinstance(f, ast.Name) else None


def creation_breaches(tree: ast.Module) -> list:
    """(what, line) for each `bridge_error("unknown_class", ...)` the
    module builds and each `resolve_method` call it makes with the
    selector `"initialise"`, as a positional or a keyword argument."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = _callee(node)
        consts = [a.value for a in node.args + [k.value for k in node.keywords]
                  if isinstance(a, ast.Constant)]
        if name == "bridge_error" and "unknown_class" in consts:
            found.append(("unknown_class", node.lineno))
        elif name == "resolve_method" and "initialise" in consts:
            found.append(("initialise", node.lineno))
    return sorted(found, key=lambda f: (f[1], f[0]))


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "kernel.py"],
                         ids=lambda p: p.relative_to(SRC).as_posix())
def test_only_the_kernel_finds_classes_and_resolves_initialise(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    breaches = [f"{what} (line {line})" for what, line in creation_breaches(tree)]
    assert breaches == [], f"{path.name} makes objects beside the kernel: {', '.join(breaches)}"


def test_the_creation_guard_sees_each_form():
    tree = ast.parse("def f(k, cls, name):\n"
                     "    raise bridge_error('unknown_class', Atom(name))\n"
                     "    raise balls.bridge_error('unknown_class', Atom(name))\n"
                     "    k.resolve_method(cls, 'initialise', 'send')\n"
                     "    resolve_method(k, cls, selector='initialise', kind='send')\n"
                     "    k.resolve_method(cls, 'width', 'send')\n"
                     "    raise bridge_error('unknown_method', Atom('initialise'))\n")
    assert creation_breaches(tree) == [("unknown_class", 2), ("unknown_class", 3),
                                       ("initialise", 4), ("initialise", 5)]
