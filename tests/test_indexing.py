"""Clause indexing on the first bound argument that can tell the clauses
apart: answers checked against the engine without indexing and against the
substitution-based reference solver, with clauses asserted and retracted
while a query is open, and the clause tries and choice points the indexes
save pinned on the solver benchmark's predicates."""

import io

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from objlog import builtins as _builtins
from objlog import engine as _engine
from objlog import toolkit
from objlog.engine import Engine
from objlog.reader import parse_term
from objlog.runtime import Runtime
from objlog.terms import TRUE, Atom, ObjRef, Struct, Var, is_variant, resolve_copy
from objlog.writer import term_text
from oracles import (
    oracle_key,
    oracle_rename,
    oracle_resolve,
    oracle_select,
    oracle_solve,
    oracle_unify,
)

ARITY = 3
MAX_ANSWERS = 30

# -- answers against the engine without indexing and the reference solver ------------------

_leaf = st.sampled_from([("var", "X"), ("var", "Y"), ("var", "X"), ("atom", "a"),
                         ("atom", "b"), ("int", 0), ("int", 1), ("float", 1.0),
                         ("ref", 1), ("ref", 2)])
_arg = st.one_of(_leaf, st.tuples(st.just("f"), _leaf),
                 st.tuples(st.just("g"), _leaf, _leaf))
_clause = st.tuples(st.lists(_arg, min_size=ARITY, max_size=ARITY),
                    st.sampled_from(["true", "true", "!"]))
# a query argument is unbound, or a term that may itself hold variables;
# heads and queries repeat variables, so both solvers run with the occurs
# check and no cyclic term is made
_query_arg = st.one_of(st.just(("var", "Q")), st.just(("var", "Q")), _arg)
# what is done after `after` answers of the open query: assert a clause at
# the front or the back, retract the first clause that unifies with a head,
# or retract all clauses by the first argument of a head; the head is drawn,
# or it is that of clause `copy` when `copy` >= 0
_update = st.tuples(st.sampled_from(["asserta", "assertz", "retract", "retract",
                                     "retract_all"]),
                    st.lists(_arg, min_size=ARITY, max_size=ARITY),
                    st.integers(-2, 5))


def _build(sym, env):
    kind = sym[0]
    if kind == "var":
        if sym[1] == "Q":
            return Var("Q")  # each query variable is a variable of its own
        return env.setdefault(sym[1], Var(sym[1]))
    if kind == "atom":
        return Atom(sym[1])
    if kind in ("int", "float"):
        return sym[1]
    if kind == "ref":
        return ObjRef(sym[1])
    return Struct(kind, tuple(_build(a, env) for a in sym[1:]))


def _head(args):
    env: dict = {}
    return Struct("p", tuple(_build(a, env) for a in args))


def _program(clauses):
    return [(_head(args), TRUE if body == "true" else Atom("!")) for args, body in clauses]


def _reference(program, query_args):
    query = _head(query_args)
    out = []
    for subst in oracle_solve(program, query, True):
        out.append(oracle_resolve(query, subst))
        if len(out) == MAX_ANSWERS:
            break
    return out


def _reference_update(program, update):
    """The program after `update`: retract removes the first clause, in
    order, whose renamed copy unifies with the head and a body `true`;
    retract_all removes every clause whose first argument has the key of
    the head's first argument."""
    action, args = update
    head = _head(args)
    if action == "asserta":
        return [(head, TRUE)] + program
    if action == "assertz":
        return program + [(head, TRUE)]
    if action == "retract_all":
        key = oracle_key(head.args[0])
        return [c for c in program if oracle_key(c[0].args[0]) != key]
    for i, clause in enumerate(program):
        mapping: dict = {}
        h, b = oracle_rename(clause[0], mapping), oracle_rename(clause[1], mapping)
        if oracle_unify(Struct("-", (head, TRUE)), Struct("-", (h, b)), None, True) is not None:
            return program[:i] + program[i + 1:]
    return program


def _apply(engine, update):
    """Make `update`; returns whether retract removed a clause, or how
    many clauses retract_all removed."""
    action, args = update
    if action == "retract":
        return engine.retract_term(_head(args))
    if action == "retract_all":
        return engine.retract_all_clauses("user", "p", ARITY, first=_head(args).args[0])
    engine.assert_term(_head(args), front=action == "asserta")
    return None


def _engine_run(clauses, query_args, after, update, indexing):
    """The answers of the query with `update` made after `after` answers,
    what retract or retract_all removed, and the answers of the same query
    asked again afterwards."""
    engine = Engine(indexing=indexing, occurs_check=True, out=io.StringIO())
    _builtins.install(engine)
    for head, body in _program(clauses):
        engine.assert_term(Struct(":-", (head, body)))
    query = _head(query_args)
    first, removed = [], None
    q = engine.solve(query)
    for _ in q:
        if len(first) == after:
            removed = _apply(engine, update)
        first.append(resolve_copy(query))
        if len(first) == MAX_ANSWERS:
            break
    q.close()
    if len(first) <= after:  # the query ended before the update
        removed = _apply(engine, update)
    again = _head(query_args)
    second = []
    for _ in engine.solve(again):
        second.append(resolve_copy(again))
        if len(second) == MAX_ANSWERS:
            break
    return first, removed, second


def _same(ours, ref):
    return len(ours) == len(ref) and all(is_variant(a, b) for a, b in zip(ours, ref))


@settings(max_examples=300, deadline=None)
@given(st.lists(_clause, min_size=2, max_size=6),
       st.lists(_query_arg, min_size=ARITY, max_size=ARITY),
       st.integers(0, 2), _update)
def test_indexed_answers_match_unindexed_and_reference(clauses, query_args, after, update):
    action, args, copy = update
    if copy >= 0:
        args = clauses[copy % len(clauses)][0]
    # retract_all is by the key of a bound first argument
    assume(action != "retract_all" or args[0][0] != "var")
    update = action, args
    program = _program(clauses)
    before = _reference(program, query_args)
    updated = _reference_update(program, update)
    runs = [_engine_run(clauses, query_args, after, update, indexing)
            for indexing in (True, False)]
    for indexing, (first, removed, second) in zip((True, False), runs):
        # an open query keeps the clauses it started with (logical update view)
        assert _same(first, before), (indexing, [term_text(a) for a in first],
                                      [term_text(a) for a in before])
        if action == "retract":
            assert removed == (len(updated) < len(program)), indexing
        elif action == "retract_all":
            assert removed == len(program) - len(updated), indexing
        after_update = _reference(updated, query_args)
        assert _same(second, after_update), (indexing, [term_text(a) for a in second],
                                             [term_text(a) for a in after_update])


# -- the clause switch against the selection rule ------------------------------------------

_sel_leaf = st.sampled_from([("var", "X"), ("var", "Y"), ("atom", "a"), ("atom", "b"),
                             ("atom", "[]"), ("int", 0), ("int", 1), ("float", 1.0),
                             ("float", 0.5), ("ref", 1), ("ref", 2)])
# `f` at two arities, list cells against `[]`
_sel_arg = st.one_of(_sel_leaf, st.tuples(st.just("f"), _sel_leaf),
                     st.tuples(st.just("f"), _sel_leaf, _sel_leaf),
                     st.tuples(st.just("."), _sel_leaf, _sel_leaf))
_sel_args = st.lists(_sel_arg, min_size=ARITY, max_size=ARITY)
# a call argument is unbound, a term, or a variable bound to a term
_call_arg = st.one_of(st.just(("var", "Q")), _sel_arg, st.tuples(st.just("bound"), _sel_arg))


def _call_args(syms):
    out = []
    for sym in syms:
        if sym[0] == "bound":
            v = Var()
            v.ref = _build(sym[1], {})
            out.append(v)
        else:
            out.append(_build(sym, {}))
    return tuple(out)


@settings(max_examples=300, deadline=None)
@given(st.lists(_sel_args, max_size=5),
       st.lists(st.tuples(st.sampled_from(["asserta", "assertz", "retract", "retract_all"]),
                          _sel_args), max_size=10),
       st.lists(st.lists(_call_arg, min_size=ARITY, max_size=ARITY), min_size=1, max_size=4))
def test_switch_selects_what_the_rule_selects(program, updates, calls):
    engine = Engine(out=io.StringIO())
    _builtins.install(engine)
    entry = engine.entry("user", "p", ARITY, create=True)
    for args in program:
        engine.assert_term(_head(args))
    for update in [None, *updates]:
        if update is not None:
            _apply(engine, update)
        heads = [c.head for c in entry.clauses]
        # the calls after each update build indexes and make switches,
        # which the next update files into or resets
        for syms in calls:
            args = _call_args(syms)
            want = [entry.clauses[i] for i in oracle_select(heads, args)]
            assert list(entry.select(args)) == want, [term_text(a) for a in args]


# -- what the indexes save -----------------------------------------------------------------

QUEENS = """
queens(N, Qs) :- numlist(1, N, Ns), place(Ns, [], Qs).

numlist(L, H, []) :- L > H, !.
numlist(L, H, [L|T]) :- L1 is L + 1, numlist(L1, H, T).

place([], Qs, Qs).
place(Unplaced, Safe, Qs) :-
        sel(Q, Unplaced, Rest),
        no_attack(Q, Safe, 1),
        place(Rest, [Q|Safe], Qs).

sel(X, [X|T], T).
sel(X, [H|T], [H|R]) :- sel(X, T, R).

no_attack(_, [], _).
no_attack(Q, [Q1|Qs], D) :-
        Q =\\= Q1 + D,
        Q =\\= Q1 - D,
        D1 is D + 1,
        no_attack(Q, Qs, D1).
"""


def _run(rt, text):
    goal, _ = parse_term(text)
    rt.engine.clause_attempts = 0
    q = rt.engine.solve(goal)
    answers = sum(1 for _ in q)
    return answers, rt.engine.clause_attempts, q.machine.peak_cps


def test_queens8_clause_tries(rt):
    rt.consult_text(QUEENS)
    # 55 817 tries and 17 choice points with the first-argument index alone
    assert _run(rt, "queens(8, Qs)") == (92, 32_443, 9)


def test_call_told_apart_by_its_second_argument_leaves_no_choice_point(rt):
    rt.consult_text(QUEENS)
    # every clause has a variable first argument; the list tells them apart
    assert _run(rt, "no_attack(4, [1, 7, 2], 1)") == (1, 4, 0)
    assert _run(rt, "no_attack(2, [1], 1)") == (0, 1, 0)


def test_call_no_clause_can_match_tries_none(rt):
    rt.consult_text(QUEENS)
    assert _run(rt, "sel(X, [], R)") == (0, 0, 0)
    assert _run(rt, "sel(X, [a, b], R)") == (2, 4, 1)


def test_unindexed_engine_tries_every_clause():
    rt = Runtime(out=io.StringIO(), indexing=False)
    rt.consult_text(QUEENS)
    assert _run(rt, "sel(X, [], R)") == (0, 2, 1)


BUTTONS = 4
CLICKS = """
clicked(K) :- retract(click_count(K, N)), N1 is N + 1, assert(click_count(K, N1)).
""" + "".join(f"click_count({k}, 0).\n" for k in range(BUTTONS))


def test_retract_tries_only_the_clauses_the_index_selects(rt, monkeypatch):
    rt.consult_text(CLICKS)
    buttons = [rt.once(f"new(B, button(b{k}, message(@prolog, clicked, {k})))")["B"]
               for k in range(BUTTONS)]
    renamed = []
    resolve_copy = _engine.resolve_copy

    def counting(t, mapping):
        renamed.append(t)
        return resolve_copy(t, mapping)

    monkeypatch.setattr(_engine, "resolve_copy", counting)
    # each button 25 times in turn: a re-asserted count goes last, so a
    # retract that tried every clause would try all four from the second
    # click on (776 copies)
    for i in range(100):
        assert toolkit.pump_event(rt, buttons[i // 25], "button_down", 0, 0)
    # the head and the body of the one clause the first argument selects
    assert len(renamed) == 200
    facts = sorted(tuple(head.args)
                   for head, _ in rt.engine.clauses_of("user", "click_count", 2))
    assert facts == [(k, 25) for k in range(BUTTONS)]
