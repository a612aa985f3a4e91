"""Independent reference implementations used to check the real ones.

The unifier here composes substitutions functionally and never mutates a
term, so it shares no code path with the destructive trail-based unifier.
The solver on top of it resolves by substitution with Python generators,
one per goal, and cuts by exception; it shares no code with the engine's
compiled clauses, continuation or choice points.
"""

from __future__ import annotations

import random

from objlog.balls import evaluation_error, instantiation_error, type_error
from objlog.terms import Atom, ObjRef, Struct, Var, deref


def oracle_walk(t, subst):
    while type(t) is Var:
        if t.ref is not None:
            t = t.ref
            continue
        got = subst.get(t)
        if got is None:
            return t
        t = got
    return t


def oracle_occurs(v, t, subst) -> bool:
    stack = [t]
    while stack:
        t = oracle_walk(stack.pop(), subst)
        if t is v:
            return True
        if type(t) is Struct:
            stack.extend(t.args)
    return False


def oracle_unify(a, b, subst=None, occurs_check=False, events=None):
    """Substitution-based unification; returns the substitution or None.

    With `occurs_check` a binding that would make a cyclic term fails, and
    is counted in `events["occurs"]` when `events` is a dict."""
    subst = dict(subst or {})
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        x = oracle_walk(x, subst)
        y = oracle_walk(y, subst)
        if x is y:
            continue
        if type(x) is not Var and type(y) is Var:
            x, y = y, x
        if type(x) is Var:
            if occurs_check and oracle_occurs(x, y, subst):
                if events is not None:
                    events["occurs"] = events.get("occurs", 0) + 1
                return None
            # keyed by the variable itself: its id() could be reused by a
            # fresh variable once nothing else holds it
            subst[x] = y
            continue
        if type(x) is not type(y):
            return None
        if type(x) is Struct:
            if x.name != y.name or len(x.args) != len(y.args):
                return None
            stack.extend(zip(x.args, y.args))
            continue
        if type(x) is Atom:
            return None
        if type(x) is ObjRef:
            if x.ref != y.ref:
                return None
            continue
        if x != y:
            return None
    return subst


def oracle_resolve(t, subst):
    """Apply a substitution exhaustively, producing a plain tree."""
    t = oracle_walk(t, subst)
    if type(t) is Struct:
        return Struct(t.name, tuple(oracle_resolve(a, subst) for a in t.args))
    return t


def oracle_rename(t, mapping: dict):
    """A copy of a program term with fresh variables."""
    t = deref(t)
    if type(t) is Var:
        got = mapping.get(id(t))
        if got is None:
            got = mapping[id(t)] = Var()
        return got
    if type(t) is Struct:
        return Struct(t.name, tuple(oracle_rename(a, mapping) for a in t.args))
    return t


def _floor_divide(a, b):
    if b == 0:
        raise OracleThrow(evaluation_error("zero_divisor").term)
    return a // b


_ORACLE_OPS = {
    ("+", 2): lambda a, b: a + b,
    ("-", 2): lambda a, b: a - b,
    ("*", 2): lambda a, b: a * b,
    ("//", 2): _floor_divide,
    ("-", 1): lambda a: -a,
}

_ORACLE_COMPARE = {
    "<": lambda a, b: a < b,
    ">": lambda a, b: a > b,
    "=<": lambda a, b: a <= b,
    ">=": lambda a, b: a >= b,
    "=:=": lambda a, b: a == b,
    "=\\=": lambda a, b: a != b,
}


def oracle_eval(t, subst):
    """The value of an integer expression under a substitution, by
    recursion: a compound of arity 1 or 2 evaluates its arguments left to
    right before its functor is looked up.  Errors are raised as the
    engine's balls."""
    t = oracle_walk(t, subst)
    if type(t) is int:
        return t
    if type(t) is Var:
        raise OracleThrow(instantiation_error("arithmetic").term)
    if type(t) is Struct and len(t.args) <= 2:
        vals = [oracle_eval(a, subst) for a in t.args]
        op = _ORACLE_OPS.get((t.name, len(t.args)))
        if op is not None:
            return op(*vals)
    raise OracleThrow(type_error("evaluable", oracle_resolve(t, subst)).term)


class _Cut(Exception):
    def __init__(self, level):
        super().__init__()
        self.level = level


class OracleThrow(Exception):
    """A ball thrown by `oracle_solve`'s throw/1, as a plain tree."""

    def __init__(self, ball):
        super().__init__(ball)
        self.ball = ball


def oracle_solve(program, goal, occurs_check=False, events=None):
    """The answers of `goal` against `program`, a list of (head, body)
    terms, as substitutions in the order of SLD resolution.

    Covers Horn clauses, `=`/2, `\\=`/2, `true`, `fail`, `,`, `;`, `->`,
    `\\+`, cut, `catch/3`, `throw/1`, and `is/2` and the six comparisons
    over integers (see `oracle_eval`).  Each goal list is a linked list of
    (goal, cut level) pairs; a cut runs its continuation and then raises
    `_Cut` up to the call that owns its level, which tries no more clauses.
    A ball is a renamed copy of the thrown term, raised as `OracleThrow`;
    catch/3 runs its goal on its own, so only balls from the goal reach it,
    and runs the recovery, opaque to cut, from the substitution it started
    with.  A
    variable ball is thrown as `instantiation_error("throw/1")`."""
    table: dict = {}
    for head, body in program:
        head = deref(head)
        n = len(head.args) if type(head) is Struct else 0
        table.setdefault((head.name, n), []).append((head, body))

    def solve(goals, subst):
        if goals is None:
            yield subst
            return
        (t, level), rest = goals
        t = oracle_walk(t, subst)
        name = t.name
        args = t.args if type(t) is Struct else ()
        key = (name, len(args))
        if key == (",", 2):
            yield from solve(((args[0], level), ((args[1], level), rest)), subst)
        elif key == ("true", 0):
            yield from solve(rest, subst)
        elif key == ("fail", 0):
            return
        elif key == ("!", 0):
            yield from solve(rest, subst)
            raise _Cut(level)
        elif key == ("=", 2):
            got = oracle_unify(args[0], args[1], subst, occurs_check, events)
            if got is not None:
                yield from solve(rest, got)
        elif key == ("\\=", 2):
            if oracle_unify(args[0], args[1], subst, occurs_check, events) is None:
                yield from solve(rest, subst)
        elif key == ("is", 2):
            got = oracle_unify(args[0], oracle_eval(args[1], subst), subst, occurs_check, events)
            if got is not None:
                yield from solve(rest, got)
        elif len(args) == 2 and name in _ORACLE_COMPARE:
            if _ORACLE_COMPARE[name](oracle_eval(args[0], subst), oracle_eval(args[1], subst)):
                yield from solve(rest, subst)
        elif key == (";", 2):
            left = oracle_walk(args[0], subst)
            if type(left) is Struct and left.name == "->" and len(left.args) == 2:
                yield from ite(left.args[0], left.args[1], args[1], level, rest, subst)
            else:
                yield from solve(((args[0], level), rest), subst)
                yield from solve(((args[1], level), rest), subst)
        elif key == ("->", 2):
            yield from ite(args[0], args[1], Atom("fail"), level, rest, subst)
        elif key == ("\\+", 1):
            yield from ite(args[0], Atom("fail"), Atom("true"), level, rest, subst)
        elif key == ("throw", 1):
            ball = oracle_resolve(args[0], subst)
            if type(ball) is Var:
                raise OracleThrow(instantiation_error("throw/1").term)
            raise OracleThrow(oracle_rename(ball, {}))
        elif key == ("catch", 3):
            own = object()
            inner = solve(((args[0], own), None), subst)
            while True:
                try:
                    got = next(inner)
                except StopIteration:
                    return
                except _Cut as cut:
                    if cut.level is not own:
                        raise
                    return
                except OracleThrow as thrown:
                    caught = oracle_unify(args[1], thrown.ball, subst, occurs_check, events)
                    if caught is None:
                        raise
                    break
                yield from solve(rest, got)
            # the recovery runs as call/1 does: a cut in it is local to it
            recovery = object()
            try:
                yield from solve(((args[2], recovery), rest), caught)
            except _Cut as cut:
                if cut.level is not recovery:
                    raise
        else:
            own = object()
            try:
                for head, body in table.get(key, ()):
                    mapping: dict = {}
                    h = oracle_rename(head, mapping)
                    got = oracle_unify(t, h, subst, occurs_check, events)
                    if got is not None:
                        yield from solve(((oracle_rename(body, mapping), own), rest), got)
            except _Cut as cut:
                if cut.level is not own:
                    raise

    def ite(cond, then, els, level, rest, subst):
        own = object()
        found = None
        inner = solve(((cond, own), None), subst)
        try:
            found = next(inner, None)
        except _Cut as cut:
            if cut.level is not own:
                raise
        finally:
            inner.close()
        if found is not None:
            yield from solve(((then, level), rest), found)
        else:
            yield from solve(((els, level), rest), subst)

    top = object()
    try:
        yield from solve(((goal, top), None), {})
    except _Cut as cut:
        if cut.level is not top:
            raise


def var_position_partition(t):
    """The positions of each distinct variable, as a canonically sorted
    partition; two terms share variables the same way iff these match."""
    positions: dict = {}
    shape: list = []

    def go(t, path):
        t = deref(t)
        if type(t) is Var:
            positions.setdefault(id(t), []).append(path)
            shape.append((path, "var"))
        elif type(t) is Struct:
            shape.append((path, t.name, len(t.args)))
            for i, a in enumerate(t.args):
                go(a, path + (i,))
        else:
            shape.append((path, repr(t)))

    go(t, ())
    return sorted(sorted(p) for p in positions.values()), shape


def random_term(rng: random.Random, max_nodes: int = 12, vars_pool=None):
    """A random term of at most max_nodes nodes."""
    if vars_pool is None:
        vars_pool = [Var(f"V{i}") for i in range(3)]
    budget = [rng.randint(1, max_nodes)]

    def gen(depth):
        budget[0] -= 1
        r = rng.random()
        if budget[0] <= 0 or depth >= 4 or r < 0.38:
            k = rng.random()
            if k < 0.35:
                return rng.choice(vars_pool)
            if k < 0.6:
                return Atom(rng.choice("abcde"))
            if k < 0.85:
                return rng.randint(-5, 5)
            return float(rng.randint(0, 3)) + 0.5
        arity = rng.randint(1, min(3, max(1, budget[0])))
        name = rng.choice("fgh")
        return Struct(name, tuple(gen(depth + 1) for _ in range(arity)))

    return gen(0)
