"""Generated clause code: head matchers and goal-argument builders checked
against the interpreters they replace, and arithmetic against
`eval_arith`, at and past their bounds; backtracking undoing a failed
head match; the shape cache; and what the per-layer tracer relies on."""

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

from objlog import builtins as _builtins, clausecode, engine as engine_mod
from objlog.bridge import Bridge
from objlog.builtins import ARITH_OPS, eval_arith
from objlog.clausecode import (
    BUILTIN,
    COMPARE,
    IS,
    MAX_NODES,
    SHAPE_CACHE,
    arg_builder,
    head_matcher,
    instantiate,
    program,
)
from objlog.engine import Clause, Engine, Machine, match_args
from objlog.errors import CyclicTermError, LogicError
from objlog.reader import parse_term
from objlog.runtime import Runtime
from objlog.terms import Atom, ObjRef, Struct, Trail, Var, bind, deref, is_variant, \
    mk_list, resolve_copy
from objlog.writer import term_text


def generated_count(kinds=("head", "build", "guards", "value")):
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

# the longest chain of f/1 the strategies draw
CHAIN = 7

_constant = st.sampled_from([("atom", "a"), ("atom", "b"), ("atom", "[]"), ("int", 0),
                             ("int", 1), ("float", 1.0), ("float", 0.5), ("ref", 1)])


@functools.lru_cache(maxsize=None)  # one strategy per set of names, drawn from many times
def _terms(names):
    leaf = st.one_of(st.sampled_from([("var", v) for v in names]), _constant)
    # g/1 and g/2 share a name, so the arity check counts
    tree = st.recursive(leaf, lambda sub: st.one_of(
        st.tuples(st.just("f"), sub), st.tuples(st.just("g"), sub),
        st.tuples(st.just("g"), sub, sub)), max_leaves=4)
    # a chain of f/1 around a term, deeper than the trees get
    return st.one_of(tree, st.tuples(st.just("chain"), st.integers(0, CHAIN), tree))


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


def _compare_matchers(head, goal, occurs_check, tracing, guards=None):
    """Run the three matchers of `head` on `goal`, each on fresh terms, and
    check they agree.  With `guards` None the trail records every binding;
    else it is the engine's own conditional trail with that many guards
    taken, so with none it records nothing."""
    outcomes = []
    for side in ("generated", "interpreted", "match_head"):
        names: dict = {}
        hcode, slots = head_program([build(a, names) for a in head])
        env: dict = {}
        args = tuple(build(g, env) for g in goal)
        eng = new_engine(occurs_check, tracing)
        if guards is not None:
            eng.trail = Trail(conditional=True)
            eng.trail.guards += guards
        trail = eng.trail
        vs = [None] * len(slots)
        if side == "generated":
            match, consts = head_matcher(hcode)
            ok = match(args, vs, eng, consts)
        elif side == "match_head":  # what a head too big to generate runs
            ok = engine_mod.match_head(args, vs, eng, (hcode,))
        else:
            ok = match_args(hcode, args, vs, trail, occurs_check, tracing)
        outcomes.append((ok, len(trail.entries), snapshot(*args, *vs) if ok else None))
    ok, recorded, got = outcomes[0]
    if guards == 0:
        assert recorded == 0
    for other in outcomes[1:]:
        # the same bindings, recorded alike: a failure leaves on the trail
        # what it bound, for the backtracking that follows to undo
        assert other[:2] == (ok, recorded)
        if ok:
            assert same(got, other[2])
    return ok


@settings(max_examples=400, deadline=None)
@given(st.lists(_terms(HEAD_VARS), min_size=1, max_size=3), st.data(),
       st.booleans(), st.booleans())
def test_generated_matcher_matches_the_interpreter(head, data, occurs_check, tracing):
    _compare_matchers(head, [_goal_like(data, a) for a in head], occurs_check, tracing)


@settings(max_examples=200, deadline=None)
@given(st.lists(_terms(HEAD_VARS), min_size=1, max_size=3), st.data(),
       st.booleans(), st.booleans(), st.sampled_from([0, 1]))
def test_generated_matcher_matches_the_interpreter_under_the_engines_trail(
        head, data, occurs_check, tracing, guards):
    # the trail records only under a guard: with none, no matcher records
    # a binding; with one, they record the same bindings
    _compare_matchers(head, [_goal_like(data, a) for a in head], occurs_check, tracing,
                      guards)


X, Y, A, B = (("var", v) for v in "XYAB")


@pytest.mark.parametrize("head, goal, matches", [
    ([X, ("f", X)], [A, A], (False, True)),  # write mode meets the goal variable
    ([("f", X), X], [A, A], (False, True)),  # a later occurrence does
    ([X, ("g", Y, ("f", X))], [("f", A), ("g", B, A)], (False, True)),
    ([("chain", 6, X), X], [A, A], (False, True)),  # six deep, generated whole
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


# -- arithmetic against eval_arith ------------------------------------------------------------

_OPS = sorted(ARITH_OPS)
_HUGE = 10 ** 400  # an int past the float range, so mixing it with a float overflows


def _expr_over(nslots):
    """Symbolic expressions over slots 0 .. nslots - 1."""
    return st.recursive(
        st.one_of(st.sampled_from([("slot", i) for i in range(nslots)]),
                  st.sampled_from([("num", 0), ("num", 1), ("num", 2), ("num", -3),
                                   ("num", 0.5), ("num", 2.0), ("num", 1.0e308),
                                   ("num", _HUGE)])),
        lambda sub: st.one_of(
            st.tuples(st.just("op1"), st.sampled_from([k for k in _OPS if k[1] == 1]), sub),
            st.tuples(st.just("op2"), st.sampled_from([k for k in _OPS if k[1] == 2]), sub,
                      sub)),
        max_leaves=20)


_expr = _expr_over(3)
_value = st.sampled_from(["unbound", "atom", "expr", "bound", 0, 1, -2, 3, 0.5, 2.0, 1.0e308,
                          _HUGE])
_COMPARE = st.sampled_from([("<", operator.lt), (">", operator.gt), ("=<", operator.le),
                            (">=", operator.ge), ("=:=", operator.eq), ("=\\=", operator.ne)])


def _expr_term(sym, leaves):
    """The term of a symbolic expression, with `leaves[i]` for slot i."""
    kind = sym[0]
    if kind == "slot":
        return leaves[sym[1]]
    if kind == "num":
        return sym[1]
    return Struct(sym[1][0], tuple(_expr_term(a, leaves) for a in sym[2:]))


def _nodes(sym):
    return 1 + sum(_nodes(a) for a in sym[2:]) if sym[0].startswith("op") else 1


@functools.lru_cache(maxsize=None)
def _builtin_table():
    eng = Engine(out=io.StringIO())
    _builtins.install(eng)
    return eng.builtins


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
@given(_expr, _expr, st.lists(_value, min_size=3, max_size=3), st.one_of(st.none(), _COMPARE))
def test_generated_arithmetic_matches_eval_arith(left, right, values, compare):
    # the goal of `ev(S0, S1, S2, R) :- R is Left` or `ev(S0, S1, S2) :-
    # Left < Right`, its own function run on a frame where the head put
    # `values`, against eval_arith on the expressions with those values
    head_vars = [Var(f"S{i}") for i in range(3)]
    if compare is None:
        r = Var("R")
        head = Struct("ev", (*head_vars, r))
        body = Struct("is", (r, _expr_term(left, head_vars)))
        too_long = _nodes(left) > MAX_NODES
    else:
        head = Struct("ev", tuple(head_vars))
        body = Struct(compare[0], (_expr_term(left, head_vars), _expr_term(right, head_vars)))
        too_long = max(_nodes(left), _nodes(right)) > MAX_NODES
    clause = Clause(head, body, "user", _builtin_table())
    goal = clause.code[0]
    if too_long:  # a builtin goal, which eval_arith runs
        assert goal.op == BUILTIN
        return
    assert goal.op == (IS if compare is None else COMPARE)
    vs = _frame(values) + [None] * (clause.nvars - 3)
    leaves = vs[:3]
    if compare is None:
        expected = _outcome(lambda: eval_arith(_expr_term(left, leaves)))
    else:
        expected = _outcome(lambda: compare[1](eval_arith(_expr_term(left, leaves)),
                                               eval_arith(_expr_term(right, leaves))))
    got = _outcome(lambda: goal.get(vs, goal.args))
    assert type(got[-1]) is type(expected[-1]) and got == expected


@settings(max_examples=300, deadline=None)
@given(_expr, _expr, _expr, _expr_over(4), _expr_over(4), st.lists(_value, min_size=3, max_size=3),
       _COMPARE, _COMPARE)
def test_generated_guard_matches_eval_arith_goal_by_goal(l1, r1, e, l2, r2, values, c1, c2):
    # the guard of `ev(S0, S1, S2) :- L1 c1 R1, Z is E, L2 c2 R2`, whose
    # goals read the same slots and the last Z too, run as one function that
    # reads each slot once, against eval_arith run goal by goal: the first
    # ball, or the first comparison that fails, ends the run
    head_vars = [Var(f"S{i}") for i in range(3)]
    z = Var("Z")
    leaves = [*head_vars, z]

    def cmp(c, left, right):
        return Struct(c[0], (_expr_term(left, leaves), _expr_term(right, leaves)))

    body = Struct(",", (cmp(c1, l1, r1), Struct(",", (Struct("is", (z, _expr_term(e, leaves))),
                                                       cmp(c2, l2, r2)))))
    clause = Clause(Struct("ev", tuple(head_vars)), body, "user", _builtin_table())
    run, consts, length = clause.guard
    assert length == len(clause.code) == 3
    vs = _frame(values) + [None] * (clause.nvars - 3)

    def goal_by_goal():
        frame = vs[:3]
        if not c1[1](eval_arith(_expr_term(l1, frame)), eval_arith(_expr_term(r1, frame))):
            return False
        frame.append(eval_arith(_expr_term(e, frame)))
        if not c2[1](eval_arith(_expr_term(l2, frame)), eval_arith(_expr_term(r2, frame))):
            return False
        return "true", frame[3]

    expected = _outcome(goal_by_goal)
    got = _outcome(lambda: run(vs, consts) and ("true", vs[3]))
    assert got == expected
    if got[0] == "value" and got[1]:
        assert type(got[1][1]) is type(expected[1][1])


def test_expression_compiles_to_its_postfix_shape_and_constants():
    # + - * and unary - run in line, tagged by their operator; abs stays a
    # call of its function, which goes to the constants with the number
    t, _ = parse_term("X - Y * 2 + abs(-Z)")
    consts: list = []
    shape = clausecode._expr_shape(program(t, {}, []), consts)
    assert shape == (0, 1, "num", "*", "-", 2, "neg", "op1", "+")
    assert consts == [2, ARITH_OPS[("abs", 1)].fn]


def test_solver_guard_reads_each_slot_once_and_calls_no_operator(rt):
    # no_attack(Q, [Q1|Qs], D) :- Q =\= Q1 + D, Q =\= Q1 - D, D1 is D + 1, ...
    solver = Path(__file__).resolve().parent.parent / "perfbench" / "programs" / "solver.pl"
    assert rt.consult_text(solver.read_text()).ok
    clause = rt.engine.entry("user", "no_attack", 3).clauses[1]
    run, consts, length = clause.guard
    key = ("guards", *[g.key for g in clause.code[:length]])
    assert [step[0] for step in key[1:]] == ["compare", "compare", "set"]
    text = clausecode._source(key)
    for slot in (0, 1, 3):
        assert text.count(f"= vs[{slot}]") == 1, text
    assert text.count("vs[") == 4  # the three reads and the write of D1
    assert consts == (1,)  # D + 1's number, and no function
    assert "K[0]" in text and "K[0](" not in text and "K[1]" not in text


def test_a_lone_and_a_leading_arithmetic_goal_share_one_function(rt):
    def arithmetic():
        return sum(clausecode.generated_kinds.values()) - generated_count(("head", "build"))

    clausecode._generated.cache_clear()
    before = arithmetic()
    rt.consult_text("""
    a(X) :- X > 17.
    b(X) :- atom(a), X > 17.
    c(X, Y) :- Z is X - 1, Y = Z.
    d(X, Y) :- atom(a), Z is X - 1, Y = Z.
    """)
    assert arithmetic() == before + 2

    def clause(name, arity):
        return rt.engine.entry("user", name, arity).clauses[0]

    assert clause("a", 1).guard[0] is clause("b", 1).code[1].get
    assert clause("c", 2).guard[0] is clause("d", 2).code[1].get
    assert solutions(rt, "a(18), b(18), c(5, Y), d(5, W)") == [{"Y": "4", "W": "4"}]
    assert solutions(rt, "b(17)") == []


# -- the bounds ---------------------------------------------------------------------------------


def _chain_head(rt, depth):
    """Assert `chain(f(...f(X)...)) :- X = end`, with `depth` f/1 compounds
    around X, and check that its head matches in read mode all the way
    down and in write mode from the top and from part way down.  Returns
    the clause."""
    x = Var("X")
    rt.engine.assert_term(Struct(":-", (Struct("chain", (nest(depth, x),)),
                                        Struct("=", (x, Atom("end"))))))
    clause = rt.engine.entry("user", "chain", 1).clauses[0]
    # read mode all the way down
    got = Var("G")
    assert rt.engine.solve_once(Struct("chain", (nest(depth, got),)))
    assert deref(got) is Atom("end")
    # write mode from the top, and from part way down
    for top in (0, 1, depth - 1):
        hole = Var("H")
        assert rt.engine.solve_once(Struct("chain", (nest(top, hole),)))
        assert is_variant(resolve_copy(hole), nest(depth - top, Atom("end")))
    # a wrong functor at the innermost level fails and leaves nothing bound
    y = Var("Y")
    assert not rt.engine.solve_once(Struct("chain", (nest(depth - 1, Struct("g", (y,))),)))
    assert deref(y) is y
    return clause


@pytest.mark.parametrize("depth", [5, 6])
def test_head_at_and_past_the_depth_bound(rt, depth):
    # generated code used to hand a compound nested past depth 5 to the
    # interpreter; now a head that fits MAX_NODES is generated whole
    assert _chain_head(rt, depth).match is not engine_mod.match_head


@pytest.mark.parametrize("depth", [5, 6])
def test_goal_argument_at_and_past_the_depth_bound(rt, depth):
    # p(X, Y) is the innermost compound, at `depth`
    term = "f(" * (depth - 1) + "p(X, Y)" + ")" * (depth - 1)
    rt.consult_text(f"arg_depth(R) :- X = v, Y = w, R = {term}.")
    goal = rt.engine.entry("user", "arg_depth", 1).clauses[0].code[-1]
    # generated whole: the constants are functor names, and no program
    # is kept to interpret
    assert goal.get is not clausecode._instantiate
    assert goal.args == ("f",) * (depth - 1) + ("p",)
    assert solutions(rt, "arg_depth(R)") == [
        {"R": "f(" * (depth - 1) + "p(v, w)" + ")" * (depth - 1)}]


def _heads_and_builders():
    return clausecode.generated_kinds["head"], clausecode.generated_kinds["build"]


def test_head_chain_at_the_node_bound(rt):
    # the deepest head that fits: MAX_NODES - 1 compounds around a variable
    clausecode._generated.cache_clear()
    before = _heads_and_builders()
    assert _chain_head(rt, MAX_NODES - 1).match is not engine_mod.match_head
    assert _heads_and_builders() == (before[0] + 1, before[1] + 1)


def test_goal_argument_chain_at_the_node_bound(rt):
    # the deepest goal argument that fits, built and then read all the way
    # down by the deepest head that fits
    clausecode._generated.cache_clear()
    _chain_head(rt, MAX_NODES - 1)
    before = _heads_and_builders()
    rt.consult_text(f"chain_goal(X) :- chain({'f(' * (MAX_NODES - 1)}X{')' * (MAX_NODES - 1)}).")
    assert _heads_and_builders() == (before[0] + 1, before[1] + 1)
    goal = rt.engine.entry("user", "chain_goal", 1).clauses[0].code[0]
    assert goal.get is not clausecode._instantiate
    x = Var("X")
    built, = goal.get([x], goal.args)
    assert is_variant(built, nest(MAX_NODES - 1, x))
    assert solutions(rt, "chain_goal(A)") == [{"A": "end"}]
    assert solutions(rt, "chain_goal(a)") == []


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
    shape = clausecode._expr_shape(program(t, {}, []), [])
    past = length > MAX_NODES
    if past:
        assert shape is None
    else:
        assert len(shape) == length
    rt.consult_text(f"long(X, Y) :- Y is {text}. long_lt(X) :- {text} > X.")
    for name in ("long", "long_lt"):
        goal = rt.engine.entry("user", name, 2 if name == "long" else 1).clauses[0].code[0]
        assert (goal.op == BUILTIN) == past
    assert solutions(rt, "long(2, Y)") == [{"Y": str(2 + terms)}]
    assert solutions(rt, "long_lt(2)") == [{}]
    with pytest.raises(LogicError) as err:
        solutions(rt, "long(_, Y)")
    assert term_text(err.value.term) == "instantiation_error(arithmetic)"


# -- backtracking undoes a failed try ---------------------------------------------------------


def _trying(rt, pad):
    """Consult `t(x, 1). t(Y, 2).` and `r(Y, 2). r(x, 1).` with no clause
    indexing, so a call tries each clause, and `u(x, 1).`; each head has
    `pad` more void arguments, none to be generated and MAX_NODES to be
    matched by `match_head`.  Returns the text that pads a goal alike."""
    rt.engine.indexing = False
    voids = ", _" * pad
    rt.consult_text(f"t(x, 1{voids}). t(Y, 2{voids}).\n"
                    f"r(Y, 2{voids}). r(x, 1{voids}).\n"
                    f"u(x, 1{voids}).\n")
    for name in "tru":
        for clause in rt.engine.entry("user", name, 2 + pad).clauses:
            assert (clause.match is engine_mod.match_head) == (pad > 0)
    return voids


@pytest.mark.parametrize("pad", [0, MAX_NODES])
def test_backtracking_undoes_a_failed_try(rt, pad):
    voids = _trying(rt, pad)
    # t(x, 1) binds A to x, then fails on 1: its clause choice point undoes it
    assert solutions(rt, f"t(A, 2{voids})") == [{"A": "A"}]
    # r(x, 1) is the last clause, tried with no choice point of its own: the
    # disjunction's undoes it
    assert solutions(rt, f"(r(A, 3{voids}) ; B = A)") == [{"A": "A", "B": "A"}]


@pytest.mark.parametrize("pad", [0, MAX_NODES])
def test_a_protected_query_undoes_a_failed_try(rt, pad):
    voids = _trying(rt, pad)
    trail = rt.engine.trail
    trail.guards += 1  # an outer guard keeps the entries, so the mark shows
    try:
        z = Var("Z")
        bind(z, Atom("z"), trail)
        mark = len(trail.entries)
        for text in (f"t(A, 3{voids})", f"r(A, 3{voids})", f"u(A, 2{voids})"):
            goal, names = parse_term(text)
            assert list(rt.engine.solve(goal, protect=True)) == []
            assert len(trail.entries) == mark
            assert type(deref(names["A"])) is Var
    finally:
        trail.undo_to(0)
        trail.release()


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
    todo = [clausecode._shape(p, []) for p in hcode[1:]]
    while todo:
        k = todo.pop()
        if type(k) is tuple:
            todo.extend(k)
        else:
            assert type(k) is int or k in ("int", "const")
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


# -- what generated code names ------------------------------------------------------------------


def _outside_tracing(text, word):
    """The lines of generated source `text` that hold `word` and are not
    inside an `if tracing:` branch."""
    lines = []
    opened = []  # the indentation of each enclosing `if tracing:`
    for line in text.splitlines():
        ind = len(line) - len(line.lstrip())
        while opened and ind <= opened[-1]:
            opened.pop()
        if line.strip() == "if tracing:":
            opened.append(ind)
        elif word in line and not opened:
            lines.append(line)
    return lines


def test_outside_tracing_sees_a_call_past_its_branch():
    text = "    if tracing:\n        x = deref(x)\n    y = deref(y)\n"
    assert _outside_tracing(text, "deref(") == ["    y = deref(y)"]


def test_generated_heads_and_builders_only_match_and_build(monkeypatch):
    # every head, builder, guard and value shape of the prelude, the
    # packaged programs and the benchmark's programs: none hands a part to
    # an interpreter, none reads or undoes the trail, which backtracking
    # alone undoes, and each dereferences, builds and binds in line, with
    # `deref` and `bind` only where a traced head names variables
    sources = []
    source = clausecode._source

    def recording(key):
        text = source(key)
        if key[0] in ("head", "build", "guards", "value"):
            sources.append((key[0], text))
        return text

    monkeypatch.setattr(clausecode, "_source", recording)
    clausecode._generated.cache_clear()
    rt = Runtime(out=io.StringIO())  # made here, so the prelude's shapes are recorded
    for name in ("my_box", "my_node", "bench"):
        assert rt.consult_program(name).ok
    programs = Path(__file__).resolve().parent.parent / "perfbench" / "programs"
    for name in ("solver.pl", "callshape.pl"):
        assert rt.consult_text((programs / name).read_text()).ok
    assert rt.consult_text("succ_of(X, Y) :- Y is X + 1.").ok  # an is/2 into a head variable
    assert {kind for kind, _ in sources} == {"head", "build", "guards", "value"}
    assert len(sources) > 20
    for _, text in sources:
        for word in ("match_args", "instantiate", "undo_to", "trail.entries", "new_struct("):
            assert word not in text, text
        for word in ("deref(", "bind("):
            assert _outside_tracing(text, word) == [], text


def _head_source(depth):
    """The source of the matcher of head `d(f(...f(X)...), X)`, with `depth`
    f/1 compounds."""
    x = Var("X")
    hcode, _ = head_program([nest(depth, x), x])
    return clausecode._source(("head", *[clausecode._shape(p, []) for p in hcode[1:]]))


def test_head_source_grows_linearly_with_its_nodes():
    # each compound is written once, under a mode flag of its own, so no
    # level repeats the build of the levels below it
    deep = MAX_NODES - 2
    assert deep + 2 == MAX_NODES  # the deepest such head generated whole
    assert len(_head_source(deep)) / deep <= 1.5 * len(_head_source(5)) / 5


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
