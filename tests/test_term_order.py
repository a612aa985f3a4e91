"""The standard order of terms (ISO/IEC 13211-1 7.2, 8.4): compare/3, the
four comparison builtins, msort/2 and sort/2."""

import io
import signal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from objlog.errors import LogicError
from objlog.reader import parse_term
from objlog.runtime import Runtime
from objlog.terms import (NIL, Atom, ObjRef, Struct, Var, list_items, mk_list, resolve_copy,
                          structural_eq)
from objlog.writer import term_text


def answers(rt, text):
    """Every answer of a query, as the text of each variable's value, or
    "ball B" for the ball it raises."""
    goal, vm = parse_term(text)
    try:
        return [{k: term_text(resolve_copy(v)) for k, v in vm.items()}
                for _ in rt.engine.solve(goal)]
    except LogicError as err:
        return "ball " + term_text(err.term)


def order(o):
    return [{"O": o}]


@pytest.mark.parametrize("query, answer", [
    # variables, then numbers, then atoms, then compounds
    ("compare(O, _, 1)", order("<")),
    ("compare(O, 1, a)", order("<")),
    ("compare(O, a, f(a))", order("<")),
    ("compare(O, f(a), _)", order(">")),
    ("compare(O, 1.0e10, a)", order("<")),
    # numbers by value; of equal value a float first
    ("compare(O, 2, 1.5)", order(">")),
    ("compare(O, -3, -2.5)", order("<")),
    ("compare(O, 1.0, 1)", order("<")),
    ("compare(O, 1, 1.0)", order(">")),
    ("compare(O, 0.0, 0.0)", order("=")),
    # atoms by code points
    ("compare(O, a, b)", order("<")),
    ("compare(O, 'B', a)", order("<")),
    ("compare(O, ab, a)", order(">")),
    ("compare(O, [], a)", order("<")),
    # compounds by arity, then name, then arguments from left to right
    ("compare(O, g(a), f(a, b))", order("<")),
    ("compare(O, f(b), g(a))", order("<")),
    ("compare(O, f(a, b), f(a, a))", order(">")),
    ("compare(O, f(a, g(b)), f(a, g(c)))", order("<")),
    ("compare(O, f(a, b), f(a, b))", order("=")),
    ("compare(O, [a], f(a))", order(">")),
    # a reference orders as `@(N)`, just before that compound itself
    ("compare(O, @3, @4)", order("<")),
    ("compare(O, @3, @nil)", order("<")),
    ("compare(O, @nil, a)", order(">")),
    ("compare(O, @3, f(a))", order("<")),
    ("compare(O, @3, '@'(3))", order("<")),
    ("compare(O, '@'(4), @3)", order(">")),
    ("compare(O, @3, @3)", order("=")),
    # the order argument
    ("compare(<, a, b)", [{}]),
    ("compare(>, a, b)", []),
    ("compare(=, X, X)", [{"X": "X"}]),
    ("X = f(Y), compare(O, X, f(Y))", [{"X": "f(Y)", "Y": "Y", "O": "="}]),
    ("compare(foo, a, b)", "ball domain_error(order, foo)"),
    ("compare(1, a, b)", "ball type_error(atom, 1)"),
    ("compare(f(<), a, b)", "ball type_error(atom, f(<))"),
    # the four comparisons
    ("a @< b", [{}]),
    ("b @< a", []),
    ("a @< a", []),
    ("a @=< a", [{}]),
    ("b @=< a", []),
    ("f(a) @> a", [{}]),
    ("a @> a", []),
    ("a @>= a", [{}]),
    ("a @>= b", []),
    ("1.0 @< 1", [{}]),
    ("X @< 1", [{"X": "X"}]),
    # msort/2 keeps duplicates; sort/2 drops `==` ones
    ("msort([b, a, c, a], L)", [{"L": "[a, a, b, c]"}]),
    ("sort([b, a, c, a], L)", [{"L": "[a, b, c]"}]),
    ("sort([1, 1.0, 1, a, f(x), 2], L)", [{"L": "[1.0, 1, 2, a, f(x)]"}]),
    ("sort([], L)", [{"L": "[]"}]),
    ("msort([], L)", [{"L": "[]"}]),
    ("sort([c, b], [b, c])", [{}]),
    ("sort([c, b], [c, b])", []),
    ("sort([b, a], [X|T])", [{"X": "a", "T": "[b]"}]),
    # the list arguments
    ("msort(L, S)", "ball instantiation_error('msort/2')"),
    ("sort([a|T], S)", "ball instantiation_error('sort/2')"),
    ("sort(foo, S)", "ball type_error(list, foo)"),
    ("msort([a|b], S)", "ball type_error(list, [a|b])"),
    ("sort([b, a], foo)", "ball type_error(list, foo)"),
    ("sort([b, a], [x|foo])", "ball type_error(list, [x|foo])"),
    # a cyclic term (the occurs check is off): the walk meets a compound
    # or list cell inside itself
    ("X = f(X), compare(O, X, X)", "ball representation_error(cyclic_term)"),
    ("X = f(X), Y = f(Y), X @< Y", "ball representation_error(cyclic_term)"),
    ("X = f(X), msort([X, X], L)", "ball representation_error(cyclic_term)"),
    ("L = [a|L], sort(L, S)", "ball representation_error(cyclic_term)"),
    # a comparison decided before the walk reaches the cycle answers
    ("\\+ \\+ (X = f(X), compare(>, X, a))", [{"X": "X"}]),
    # a term met twice off its path is shared, not cyclic
    ("X = f(Y, Y), Y = g(a), compare(O, X, f(g(a), g(b)))",
     [{"X": "f(g(a), g(a))", "Y": "g(a)", "O": "<"}]),
])
def test_the_standard_order_answers_and_balls(rt, query, answer):
    # the alarm turns a comparison that never returns into a failure
    def timed_out(signum, frame):
        raise TimeoutError(query)

    previous = signal.signal(signal.SIGALRM, timed_out)
    signal.alarm(5)
    try:
        assert answers(rt, query) == answer
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_sort_puts_variables_first_and_drops_a_variable_met_twice(rt):
    # two variables order as the implementation fixes, here by address
    query = ("sort([f(X), X, f(X), Y, X], [A, B, C]), C == f(X), "
             "(A == X, B == Y ; A == Y, B == X)")
    assert len(answers(rt, query)) == 1


def test_a_deep_term_compares_with_no_python_recursion(rt):
    def chain(n, leaf):
        t = leaf
        for _ in range(n):
            t = Struct("f", (t,))
        return t

    goal = Struct("compare", (Var("O"), chain(100000, Atom("a")), chain(100000, Atom("b"))))
    assert rt.engine.solve_once(goal)
    items = [chain(20000, Atom(n)) for n in "cab"]
    sorted_ = Var("S")
    assert rt.engine.solve_once(Struct("msort", (mk_list(items), sorted_)))
    firsts = []
    for t in list_items(sorted_):
        while type(t) is not Atom:
            t = t.args[0]
        firsts.append(t.name)
    assert firsts == ["a", "b", "c"]


# -- property: msort/2 and sort/2 against compare/3 -----------------------------

_leaf = st.one_of(
    st.integers(-3, 3).map(lambda n: ("int", n)),
    st.sampled_from([-1.5, 0.0, 1.0, 2.0, 2.5]).map(lambda f: ("float", f)),
    st.sampled_from(["a", "b", "B", "[]", "@"]).map(lambda a: ("atom", a)),
    st.sampled_from([1, 2, "nil"]).map(lambda r: ("ref", r)),
    st.sampled_from(["X", "Y"]).map(lambda v: ("var", v)),
)
_term = st.recursive(_leaf, lambda sub: st.one_of(
    st.tuples(st.just("f"), sub), st.tuples(st.just("g"), sub, sub),
    st.tuples(st.just("@"), sub)), max_leaves=5)


def _build(sym, env):
    kind = sym[0]
    if kind == "var":
        return env.setdefault(sym[1], Var(sym[1]))
    if kind == "atom":
        return NIL if sym[1] == "[]" else Atom(sym[1])
    if kind in ("int", "float"):
        return sym[1]
    if kind == "ref":
        return ObjRef(sym[1])
    return Struct(kind, tuple(_build(a, env) for a in sym[1:]))


def _compare(rt, a, b):
    o = Var("O")
    assert rt.engine.solve_once(Struct("compare", (o, a, b)))
    return o.ref.name


def _count_eq(items, t):
    return sum(1 for x in items if structural_eq(x, t))


@settings(max_examples=200, deadline=None)
@given(st.lists(_term, max_size=8))
def test_msort_and_sort_answer_what_compare_orders(syms):
    rt = Runtime(out=io.StringIO())
    env: dict = {}
    items = [_build(s, env) for s in syms]
    m_out, s_out = Var("M"), Var("S")
    assert rt.engine.solve_once(Struct("msort", (mk_list(items), m_out)))
    assert rt.engine.solve_once(Struct("sort", (mk_list(items), s_out)))
    msorted, sorted_ = list_items(m_out), list_items(s_out)
    # msort/2: a permutation, in the order compare/3 gives
    assert len(msorted) == len(items)
    assert all(_count_eq(msorted, t) == _count_eq(items, t) for t in items)
    assert all(_compare(rt, a, b) in "<=" for a, b in zip(msorted, msorted[1:]))
    # sort/2: the same with `==` duplicates removed
    assert all(_count_eq(sorted_, t) == 1 for t in items)
    assert len(sorted_) == len({i for i, t in enumerate(items)
                                if not any(structural_eq(t, u) for u in items[:i])})
    assert all(_compare(rt, a, b) == "<" for a, b in zip(sorted_, sorted_[1:]))
    # compare/3 answers `=` exactly for `==` terms, and its converse
    flip = {"<": ">", "=": "=", ">": "<"}
    for a in items:
        for b in items:
            o = _compare(rt, a, b)
            assert (o == "=") == structural_eq(a, b)
            assert _compare(rt, b, a) == flip[o]
