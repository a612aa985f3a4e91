"""Each job has one module: only the engine runs goals, only the kernel
makes objects, and only the kernel writes its method memo.

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

`Kernel.resolve_method` fills the method memo `Kernel.resolved` and
`define_method` empties it; the bridge only reads it, so no other module
assigns it, stores or deletes an item of it, or calls a method that
changes it.
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


MEMO_WRITES = {"clear", "pop", "popitem", "update", "setdefault"}


def memo_breaches(tree: ast.Module) -> list:
    """(what, line) for each write of an attribute `resolved`, the kernel's
    method memo: an assignment to it, a store or delete of one of its
    items, and a call of a method that changes a dict."""
    def is_memo(node):
        return isinstance(node, ast.Attribute) and node.attr == "resolved"

    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Delete)):
            targets = node.targets if isinstance(node, (ast.Assign, ast.Delete)) else [node.target]
            for target in targets:
                for part in ast.walk(target):
                    if is_memo(part) and isinstance(part.ctx, (ast.Store, ast.Del)):
                        found.append(("assign", node.lineno))
                    elif isinstance(part, ast.Subscript) and is_memo(part.value):
                        found.append(("item", node.lineno))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in MEMO_WRITES and is_memo(node.func.value)):
            found.append((node.func.attr, node.lineno))
    return sorted(found, key=lambda f: (f[1], f[0]))


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "kernel.py"],
                         ids=lambda p: p.relative_to(SRC).as_posix())
def test_only_the_kernel_writes_its_method_memo(path):
    # `Kernel.resolve_method` fills the memo and `define_method` clears it;
    # the bridge reads it, so a write elsewhere could serve a stale method
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    breaches = [f"{what} (line {line})" for what, line in memo_breaches(tree)]
    assert breaches == [], f"{path.name} writes the method memo: {', '.join(breaches)}"


def test_the_memo_guard_sees_each_write():
    tree = ast.parse("def f(k, key, m):\n"
                     "    k.resolved = {}\n"
                     "    k.resolved[key] = m\n"
                     "    k.resolved.clear()\n"
                     "    k.resolved.pop(key)\n"
                     "    k.resolved.update({key: m})\n"
                     "    del k.resolved[key]\n"
                     "    k.rt.kernel.resolved[key] += m\n"
                     "    return k.resolved.get(key), k.resolved[key]\n")
    assert memo_breaches(tree) == [("assign", 2), ("item", 3), ("clear", 4), ("pop", 5),
                                   ("update", 6), ("item", 7), ("item", 8)]
    # the kernel itself writes it
    kernel = ast.parse((SRC / "kernel.py").read_text(encoding="utf-8"))
    assert {what for what, _line in memo_breaches(kernel)} == {"assign", "item", "clear"}
