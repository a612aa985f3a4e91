"""Generated clause code: head matchers, goal-argument builders and
arithmetic evaluators checked against the interpreters they replace, at
and past their bounds; the shape cache; and what the per-layer tracer
relies on."""

import functools
import importlib.util
import inspect
import io
import operator
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from objlog import clausecode, engine as engine_mod
from objlog.bridge import Bridge
from objlog.builtins import ARITH_OPS
from objlog.clausecode import (
    MAX_DEPTH,
    MAX_NODES,
    SHAPE_CACHE,
    arg_builder,
    arith_evaluator,
    eval_code,
    expr_code,
    head_matcher,
    instantiate,
    program,
)
from objlog.engine import Engine, Machine, match_args
from objlog.errors import CyclicTermError, LogicError
from objlog.reader import parse_term
from objlog.terms import Atom, ObjRef, Struct, Trail, Var, deref, is_variant, mk_list, \
    resolve_copy
from objlog.writer import term_text


def generated_count(kinds=("head", "build", "guards", "compare", "value")):
    """The functions generated so far for clause code; clause switches
    ("select") only when asked for."""
    return sum(clausecode.generated_kinds[k] for k in kinds)


def solutions(rt, text):
    goal, vm = parse_term(text)
    return [{k: term_text(resolve_copy(v)) for k, v in vm.items()}
            for _ in rt.engine.solve(goal)]


def nest(depth, leaf, name="f"):
    t = leaf
    for _ in range(depth):
        t = Struct(name, (t,))
    return t


def head_program(args, slots=None):
    slots = {} if slots is None else slots
    return ("h", *(program(a, slots, None) for a in args)), slots


def new_engine(occurs_check=False, tracing=False):
    eng = Engine(occurs_check=occurs_check, out=io.StringIO())
    eng.trace = tracing
    eng.trail = Trail()  # records every binding, as under a choice point
    return eng


def snapshot(*terms):
    try:
        return resolve_copy(Struct("s", terms))
    except CyclicTermError:
        return "cyclic"


def same(a, b):
    if a == "cyclic" or b == "cyclic":
        return a == b
    return is_variant(a, b)


# -- symbolic terms, built afresh for each side of a comparison ------------------------

HEAD_VARS = ("X", "Y", "Z")
GOAL_VARS = ("A", "B")

_constant = st.sampled_from([("atom", "a"), ("atom", "b"), ("atom", "[]"), ("int", 0),
                             ("int", 1), ("float", 1.0), ("float", 0.5), ("ref", 1)])


@functools.lru_cache(maxsize=None)  # one strategy per set of names, drawn from many times
def _terms(names):
    leaf = st.one_of(st.sampled_from([("var", v) for v in names]), _constant)
    # g/1 and g/2 share a name, so the arity check counts
    tree = st.recursive(leaf, lambda sub: st.one_of(
        st.tuples(st.just("f"), sub), st.tuples(st.just("g"), sub),
        st.tuples(st.just("g"), sub, sub)), max_leaves=4)
    # a chain of f/1 around a term, from none to past the depth bound
    return st.one_of(tree, st.tuples(st.just("chain"), st.integers(0, MAX_DEPTH + 2), tree))


def build(sym, env):
    kind = sym[0]
    if kind == "var":
        return env.setdefault(sym[1], Var(sym[1]))
    if kind == "atom":
        return Atom(sym[1])
    if kind in ("int", "float"):
        return sym[1]
    if kind == "ref":
        return ObjRef(sym[1])
    if kind == "chain":
        return nest(sym[1], build(sym[2], env))
    return Struct(kind, tuple(build(a, env) for a in sym[1:]))


_goal_var = st.sampled_from([("var", v) for v in GOAL_VARS])
# a goal variable often, so that write mode and the occurs check run
_goal_replacement = st.one_of(_goal_var, _goal_var, _constant, _terms(GOAL_VARS))
_one_in_5, _one_in_4 = st.integers(0, 4), st.integers(0, 3)


def _goal_like(data, sym):
    """A goal argument: the head argument itself with its variables and some
    of its parts replaced (bound, unbound or partly bound), or any term."""
    if data.draw(_one_in_5) == 0:
        return data.draw(_terms(GOAL_VARS))
    kind = sym[0]
    if kind == "var" or data.draw(_one_in_4) == 0:
        return data.draw(_goal_replacement)
    if kind == "chain":
        return (kind, sym[1], _goal_like(data, sym[2]))
    if kind in ("f", "g"):
        return (kind, *(_goal_like(data, a) for a in sym[1:]))
    return sym


# -- matcher against matcher ---------------------------------------------------------------


def _compare_matchers(head, goal, occurs_check, tracing):
    outcomes = []
    for side in ("generated", "interpreted", "match_head"):
        names: dict = {}
        hcode, slots = head_program([build(a, names) for a in head])
        env: dict = {}
        args = tuple(build(g, env) for g in goal)
        eng = new_engine(occurs_check, tracing)
        trail = eng.trail
        vs = [None] * len(slots)
        if side == "generated":
            match, consts = head_matcher(hcode)
            ok = match(args, vs, eng, consts)
        elif side == "match_head":  # what a head too big to generate runs
            ok = engine_mod.match_head(args, vs, eng, (hcode,))
        else:
            ok = match_args(hcode, args, vs, trail, occurs_check, tracing)
            if not ok:
                trail.undo_to(0)
        outcomes.append((ok, len(trail.entries), snapshot(*args, *vs) if ok else None))
    ok, recorded, got = outcomes[0]
    for other in outcomes[1:]:
        # the same bindings, recorded alike; after a failure, none
        assert other[:2] == (ok, recorded)
        if ok:
            assert same(got, other[2])
        else:
            assert recorded == 0
    return ok


@settings(max_examples=400, deadline=None)
@given(st.lists(_terms(HEAD_VARS), min_size=1, max_size=3), st.data(),
       st.booleans(), st.booleans())
def test_generated_matcher_matches_the_interpreter(head, data, occurs_check, tracing):
    _compare_matchers(head, [_goal_like(data, a) for a in head], occurs_check, tracing)


X, Y, A, B = (("var", v) for v in "XYAB")


@pytest.mark.parametrize("head, goal, matches", [
    ([X, ("f", X)], [A, A], (False, True)),  # write mode meets the goal variable
    ([("f", X), X], [A, A], (False, True)),  # a later occurrence does
    ([X, ("g", Y, ("f", X))], [("f", A), ("g", B, A)], (False, True)),
    ([("chain", MAX_DEPTH + 1, X), X], [A, A], (False, True)),  # in the interpreter
    ([("g", X, X), ("f", Y)], [("g", A, ("f", A)), B], (False, True)),
])
@pytest.mark.parametrize("tracing", [False, True])
def test_matchers_agree_on_the_occurs_check(head, goal, matches, tracing):
    for occurs_check, expected in zip((True, False), matches):
        assert _compare_matchers(head, goal, occurs_check, tracing) == expected


# -- builder against instantiate ----------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(st.lists(_terms(HEAD_VARS), min_size=1, max_size=3), st.data(), st.booleans())
def test_generated_builder_matches_instantiate(parts, data, first_occurrences):
    # body programs read their slots; head programs (`fresh` None) make a
    # fresh variable at each first occurrence, as write mode does
    frame = {v: data.draw(_terms(GOAL_VARS)) for v in HEAD_VARS}
    outcomes = []
    for side in ("generated", "interpreted"):
        names: dict = {}
        slots: dict = {}
        prog = program(build(("args", *parts), names), slots,
                       None if first_occurrences else [])
        if type(prog) is not tuple:
            return  # ground: the goal holds its arguments as they are
        env: dict = {}
        vs = [None] * len(slots)
        if not first_occurrences:
            for name, var in names.items():
                vs[slots[id(var)]] = build(frame[name], env)
        if side == "generated":
            fn, consts = arg_builder(prog)
            got = fn(vs, consts)
        else:
            got = instantiate(prog, vs)
        outcomes.append(snapshot(Struct("t", got), *[v for v in vs if v is not None]))
    assert same(*outcomes)


# -- evaluator against eval_code --------------------------------------------------------------

_OPS = sorted(ARITH_OPS)
_expr = st.recursive(
    st.one_of(st.sampled_from([("slot", 0), ("slot", 1), ("slot", 2)]),
              st.sampled_from([("num", 0), ("num", 1), ("num", 2), ("num", -3), ("num", 0.5),
                               ("num", 2.0)])),
    lambda sub: st.one_of(
        st.tuples(st.just("op1"), st.sampled_from([k for k in _OPS if k[1] == 1]), sub),
        st.tuples(st.just("op2"), st.sampled_from([k for k in _OPS if k[1] == 2]), sub, sub)),
    max_leaves=20)
_value = st.sampled_from(["unbound", "atom", "expr", "bound", 0, 1, -2, 3, 0.5, 2.0])


def _code(sym):
    """The expression code of a symbolic expression, in postfix order."""
    kind = sym[0]
    if kind == "slot":
        return (sym[1],)
    if kind == "num":
        return ((sym[1],),)
    return (*(e for a in sym[2:] for e in _code(a)), ARITH_OPS[sym[1]])


def _frame(values):
    out = []
    for v in values:
        if v == "unbound":
            out.append(Var())
        elif v == "atom":
            out.append(Atom("a"))
        elif v == "expr":
            out.append(Struct("+", (1, 2)))
        elif v == "bound":
            x = Var()
            x.ref = 7
            out.append(x)
        else:
            out.append(v)
    return out


def _outcome(fn):
    try:
        return ("value", fn())
    except LogicError as err:
        return ("ball", term_text(err.term))
    except Exception as err:  # what the interpreter raises, the generated code must too
        return ("raised", type(err).__name__, str(err))


@settings(max_examples=400, deadline=None)
@given(_expr, _expr, st.lists(_value, min_size=3, max_size=3),
       st.sampled_from([None, operator.lt, operator.eq, operator.ge]))
def test_generated_evaluator_matches_eval_code(left, right, values, compare):
    a = _code(left)
    b = _code(right)
    fn, consts = arith_evaluator(a, b, compare) if compare else arith_evaluator(a)
    vs = _frame(values)
    if compare is None:
        expected = _outcome(lambda: eval_code(a, vs))
    else:
        expected = _outcome(lambda: compare(eval_code(a, vs), eval_code(b, vs)))
    got = _outcome(lambda: fn(vs, consts))
    assert type(got[-1]) is type(expected[-1]) and got == expected


def test_expression_code_compiles_to_what_the_differential_test_builds():
    t, _ = parse_term("X - Y * 2 + abs(Z)")
    slots: dict = {}
    code = expr_code(program(t, slots, []))
    assert code == _code(("op2", ("+", 2),
                          ("op2", ("-", 2), ("slot", 0),
                           ("op2", ("*", 2), ("slot", 1), ("num", 2))),
                          ("op1", ("abs", 1), ("slot", 2))))


# -- the bounds ---------------------------------------------------------------------------------


def _deep_key(hcode):
    return "deep" in repr(clausecode._shape(hcode[1], 1, []))


@pytest.mark.parametrize("depth", [MAX_DEPTH, MAX_DEPTH + 1])
def test_head_at_and_past_the_depth_bound(rt, depth):
    x = Var("X")
    head = Struct("d", (nest(depth, x), x))
    hcode, _ = head_program(head.args)
    assert _deep_key(hcode) == (depth > MAX_DEPTH)
    rt.engine.assert_term(head)
    # read mode all the way down
    got = Var("G")
    assert rt.engine.solve_once(Struct("d", (nest(depth, Atom("end")), got)))
    assert deref(got) is Atom("end")
    # write mode from the top, and from part way down
    for top in (0, 1, depth - 1):
        hole = Var("H")
        tail = Var("T")
        assert rt.engine.solve_once(Struct("d", (nest(top, hole), tail)))
        assert is_variant(resolve_copy(Struct("p", (hole, tail))),
                          resolve_copy(Struct("p", (nest(depth - top, tail), tail))))
    # a wrong functor at the innermost level fails and leaves nothing bound
    y = Var("Y")
    assert not rt.engine.solve_once(Struct("d", (nest(depth - 1, Struct("g", (y,))), y)))
    assert deref(y) is y


@pytest.mark.parametrize("depth", [MAX_DEPTH, MAX_DEPTH + 1])
def test_goal_argument_at_and_past_the_depth_bound(rt, depth):
    # p(X, Y) is the innermost compound, at `depth`
    term = "f(" * (depth - 1) + "p(X, Y)" + ")" * (depth - 1)
    rt.consult_text(f"arg_depth(R) :- X = v, Y = w, R = {term}.")
    goal = rt.engine.entry("user", "arg_depth", 1).clauses[0].code[-1]
    # the last constant is p's name, or the program of p kept to interpret
    assert (type(goal.args[-1]) is tuple) == (depth > MAX_DEPTH)
    assert solutions(rt, "arg_depth(R)") == [
        {"R": "f(" * (depth - 1) + "p(v, w)" + ")" * (depth - 1)}]


@pytest.mark.parametrize("arity", [MAX_NODES, MAX_NODES + 1])
def test_head_and_goal_arguments_at_and_past_the_node_bound(rt, arity):
    # a head of `arity` variables, the first one repeated last, and a body
    # goal that calls it with `arity` slots of its own frame
    xs = [Var(f"X{i}") for i in range(arity - 1)]
    rt.engine.assert_term(Struct("wide", (*xs, xs[0])))
    ys = [Var(f"Y{i}") for i in range(arity - 1)]
    goal = Struct("wide", (*ys, ys[-1]))
    rt.engine.assert_term(Struct(":-", (Struct("call_wide", (ys[0], ys[-1])), goal)))
    clause = rt.engine.entry("user", "wide", arity).clauses[0]
    body_goal = rt.engine.entry("user", "call_wide", 2).clauses[0].code[0]
    past = arity > MAX_NODES
    assert (clause.match is engine_mod.match_head) == past
    assert (body_goal.get is clausecode._instantiate) == past
    a = Var("A")
    assert rt.engine.solve_once(Struct("call_wide", (a, Struct("f", (1,)))))
    assert term_text(resolve_copy(a)) == "f(1)"
    assert not rt.engine.solve_once(Struct("wide", (1, *(Var() for _ in range(arity - 2)), 2)))


@pytest.mark.parametrize("length", [MAX_NODES, MAX_NODES + 1])
def test_expression_at_and_past_the_length_bound(rt, length):
    # a slot (and abs/1 for an even length), then a number and an operator per `+ 1`
    terms = (length - 1) // 2
    text = ("X" if length % 2 else "abs(X)") + " + 1" * terms
    t, _ = parse_term(text)
    code = expr_code(program(t, {}, []))
    assert len(code) == length
    fn, _consts = arith_evaluator(code)
    assert (fn is clausecode._eval_value) == (length > MAX_NODES)
    rt.consult_text(f"long(X, Y) :- Y is {text}. long_lt(X) :- {text} > X.")
    assert solutions(rt, "long(2, Y)") == [{"Y": str(2 + terms)}]
    assert solutions(rt, "long_lt(2)") == [{}]
    with pytest.raises(LogicError) as err:
        solutions(rt, "long(_, Y)")
    assert term_text(err.value.term) == "instantiation_error(arithmetic)"


# -- the shape cache ------------------------------------------------------------------------------


def test_thousand_facts_generate_one_head_function(rt):
    clausecode._generated.cache_clear()
    before = generated_count()
    rt.consult_text("".join(f"f({i}, a_{i}).\n" for i in range(1000)))
    assert generated_count() == before + 1
    clauses = rt.engine.entry("user", "f", 2).clauses
    assert len({c.match for c in clauses}) == 1
    assert solutions(rt, "f(517, A)") == [{"A": "a_517"}]
    assert solutions(rt, "f(N, a_3)") == [{"N": "3"}]


def test_run_time_assert_of_a_known_shape_generates_nothing(rt):
    rt.consult_text("known(1, a) :- X is 1 + 2, X > 0, g(X, [a]).\ng(_, _).")
    before = generated_count()
    got = solutions(rt, "assertz((known(2, b) :- X is 5 + 6, X > 3, g(X, [b]))), known(2, A)")
    assert [s["A"] for s in got] == ["b"]
    assert generated_count() == before


@pytest.mark.parametrize("name", ["x\n import os", "K0", ")", "'", "\\", "s0 = vs[0]"])
def test_python_text_names_match_and_generate_nothing(rt, name):
    def clauses(pred, atom, functor):
        x = Var("X")
        y = Var("Y")
        fact = Struct(pred, (atom, Struct(functor, (atom, x)), x))
        rule = Struct(":-", (Struct(pred + "_call", (y,)),
                             Struct(pred, (atom, Struct(functor, (atom, y)), y))))
        for c in (fact, rule):
            rt.engine.assert_term(c)

    clauses("plain", Atom("a"), "f")
    before = generated_count()
    odd = Atom(name)
    clauses("odd", odd, name)
    assert generated_count() == before
    hcode, _ = head_program(rt.engine.entry("user", "odd", 3).clauses[0].head.args)
    # the key the source is written from holds slots, arities and kind tags only
    todo = [clausecode._shape(p, 1, []) for p in hcode[1:]]
    while todo:
        k = todo.pop()
        if type(k) is tuple:
            todo.extend(k)
        else:
            assert type(k) is int or k in ("int", "const", "deep")
    # write mode, read mode, a wrong constant, and a call built by a body goal
    a, b = Var("A"), Var("B")
    assert rt.engine.solve_once(Struct("odd", (a, b, 1)))
    assert deref(a) is odd
    assert is_variant(resolve_copy(b), Struct(name, (odd, 1)))
    y = Var("Y")
    assert rt.engine.solve_once(Struct("odd", (odd, Struct(name, (odd, 2)), y)))
    assert deref(y) == 2
    assert not rt.engine.solve_once(Struct("odd", (Atom("a"), Var(), 1)))
    assert not rt.engine.solve_once(Struct("odd", (odd, Struct("f", (odd, 1)), 1)))
    assert rt.engine.solve_once(Struct("odd_call", (Var(),)))


def test_more_shapes_than_the_cache_holds(rt):
    # ten arguments, each an integer or an atom: a distinct head shape each
    n = SHAPE_CACHE + 20
    rows = [[i if (k >> j) & 1 else f"a{i}" for j, i in enumerate(range(10))]
            for k in range(n)]
    rt.consult_text("".join(f"wide({k}, {', '.join(map(str, row))}).\n"
                            for k, row in enumerate(rows)))
    assert clausecode._generated.cache_info().currsize == SHAPE_CACHE
    clauses = rt.engine.entry("user", "wide", 11).clauses
    assert len({c.match for c in clauses}) == n
    for k in random.Random(3).sample(range(n), 40) + [0, n - 1]:
        args = ", ".join(f"A{j}" for j in range(10))
        got = solutions(rt, f"wide({k}, {args})")
        assert got == [{f"A{j}": str(v) for j, v in enumerate(rows[k])}]
    assert len(solutions(rt, "wide(K, " + ", ".join("_" for _ in range(10)) + ")")) == n


# the state tuples of the clause switches that consulting the solver
# benchmark's program and running nrev30 and queens8 meet
SOLVER_SWITCHES = 10
CLICK_FACTS = "".join(f"count({k}, 0).\n" for k in range(4))


def test_retract_assert_cycle_on_a_called_predicate_generates_no_switch(rt):
    rt.consult_text(CLICK_FACTS)
    # the first call builds the index on the first argument, the second
    # makes the switch that uses it
    for _ in range(2):
        assert solutions(rt, "count(2, N)") == [{"N": "0"}]
    before = generated_count(("select",))
    for i in range(1, 6):
        got = solutions(rt, "retract(count(2, N)), N1 is N + 1, assertz(count(2, N1)), "
                            "count(2, M)")
        assert got == [{"N": str(i - 1), "N1": str(i), "M": str(i)}]
    assert generated_count(("select",)) == before


def test_solver_benchmark_generates_few_switches(rt):
    solver = Path(__file__).resolve().parent.parent / "perfbench" / "programs" / "solver.pl"
    clausecode._generated.cache_clear()
    before = generated_count(("select",))
    assert rt.consult_text(solver.read_text()).ok
    assert solutions(rt, f"nrev({list(range(30))}, R), R = [29|_]") != []
    assert len(solutions(rt, "queens(8, Qs)")) == 92
    # one switch source per state tuple met, shared by every predicate in it
    assert generated_count(("select",)) - before == SOLVER_SWITCHES


# -- what the per-layer tracer relies on -------------------------------------------------------


NREV = """
nrev([], []).
nrev([H|T], R) :- nrev(T, RT), app(RT, [H], R).
app([], L, L).
app([H|T], L, [H|R]) :- app(T, L, R).
"""


def test_generated_heads_call_the_engines_unify_at_run_time(rt, monkeypatch):
    rt.consult_text(NREV)
    calls = []
    unify = engine_mod.unify

    def counting(*args):
        calls.append(args)
        return unify(*args)

    # patched after the clauses are compiled, as the tracer patches it
    monkeypatch.setattr(engine_mod, "unify", counting)
    got = Var("R")
    assert rt.engine.solve_once(Struct("nrev", (mk_list(range(30)), got)))
    assert len(calls) == 32


def test_entry_points_the_tracer_wraps_keep_their_signatures():
    def names(fn):
        return list(inspect.signature(fn).parameters)

    assert names(Machine.exec_goal) == ["self", "goal", "ns", "barrier"]
    assert names(Machine.try_clause) == ["self", "clause", "args", "bodybar", "cont"]
    assert names(Engine.solve) == ["self", "goal", "ns", "protect"]


def test_the_benchmark_tracer_installs_and_uninstalls():
    # the tracer patches each entry point by name from its owner's
    # `__dict__`: one that is renamed or deleted fails here
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer_mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_mod)
    logic_send = Bridge.__dict__["logic_send"]
    exec_goal = Machine.__dict__["exec_goal"]
    tracer = tracer_mod.Tracer()
    try:
        tracer.install()
        patched = list(tracer._undo)
        assert Bridge.__dict__["logic_send"] is not logic_send
        assert Machine.__dict__["exec_goal"] is not exec_goal
    finally:
        tracer.uninstall()
    assert Bridge.__dict__["logic_send"] is logic_send
    assert Machine.__dict__["exec_goal"] is exec_goal
    assert all(owner.__dict__[attr] is value for owner, attr, value in patched)
