import gc
import io
import signal

import pytest

from objlog.clausecode import NAMESPACES
from objlog.engine import Scope
from objlog.errors import LogicError
from objlog.reader import parse_term
from objlog.runtime import Runtime
from objlog.terms import Atom, Struct, resolve_copy
from objlog.writer import term_text
from conftest import count_compiles


def solutions(rt, text):
    goal, vm = parse_term(text)
    out = []
    for _ in rt.engine.solve(goal):
        out.append({k: term_text(resolve_copy(v)) for k, v in vm.items()})
    return out


def consult(rt, src):
    report = rt.consult_text(src)
    assert report.ok, report.errors
    return report


# -- clause order and backtracking ---------------------------------------------


def test_clause_order(rt):
    consult(rt, "p(1).\np(2).\n")
    assert solutions(rt, "p(X)") == [{"X": "1"}, {"X": "2"}]


def test_conjunction_disjunction(rt):
    consult(rt, "a(1). a(2). b(x). b(y).")
    got = solutions(rt, "a(X), b(Y)")
    assert len(got) == 4
    assert got[0] == {"X": "1", "Y": "x"}
    assert solutions(rt, "(a(X) ; b(X))") == [
        {"X": "1"}, {"X": "2"}, {"X": "x"}, {"X": "y"}]


def test_if_then_else_commits(rt):
    assert solutions(rt, "(X = 1 -> Y = a ; Y = b)") == [{"X": "1", "Y": "a"}]
    assert solutions(rt, "(fail -> Y = a ; Y = b)") == [{"Y": "b"}]
    consult(rt, "c(1). c(2). d(u). d(v).")
    # the condition commits to its first solution, the branch backtracks
    assert solutions(rt, "(c(X) -> d(Y) ; fail)") == [
        {"X": "1", "Y": "u"}, {"X": "1", "Y": "v"}]


def test_negation_as_failure(rt):
    consult(rt, "p(1).")
    assert solutions(rt, "\\+ p(2)") == [{}]
    assert solutions(rt, "\\+ p(1)") == []


def test_cut_golden_table(rt):
    consult(rt, """
    a(1). a(2).
    b(x). b(y).
    q1(X, Y) :- a(X), !, b(Y).
    q2(X) :- a(X), X = 2, !.
    q3(X) :- (a(X), ! ; X = zz).
    q4 :- \\+ (a(_), !, fail).
    """)
    assert solutions(rt, "q1(X, Y)") == [{"X": "1", "Y": "x"}, {"X": "1", "Y": "y"}]
    assert solutions(rt, "q2(X)") == [{"X": "2"}]
    assert solutions(rt, "q3(X)") == [{"X": "1"}]
    assert solutions(rt, "q4") == [{}]


def test_cut_is_local_to_condition(rt):
    consult(rt, "e(1). e(2).")
    assert solutions(rt, "(( e(X), ! ) -> true ; true)") == [{"X": "1"}]
    # cut inside the condition must not kill the else branch
    assert solutions(rt, "(( fail, ! ) -> true ; true)") == [{}]


def test_once_and_call(rt):
    consult(rt, "p(1). p(2).")
    assert solutions(rt, "once(p(X))") == [{"X": "1"}]
    assert solutions(rt, "call(p, X)") == [{"X": "1"}, {"X": "2"}]
    assert solutions(rt, "G = p(X), call(G)") == [
        {"G": "p(1)", "X": "1"}, {"G": "p(2)", "X": "2"}]


def test_member_forall_append(rt):
    assert solutions(rt, "member(X, [a, b, c])") == [
        {"X": "a"}, {"X": "b"}, {"X": "c"}]
    assert solutions(rt, "forall(member(X, [1, 2]), X > 0)") == [{"X": "X"}]
    assert solutions(rt, "forall(member(X, [1, -2]), X > 0)") == []
    assert solutions(rt, "append(A, B, [1, 2])") == [
        {"A": "[]", "B": "[1, 2]"},
        {"A": "[1]", "B": "[2]"},
        {"A": "[1, 2]", "B": "[]"},
    ]


def test_arithmetic(rt):
    assert solutions(rt, "X is 2 + 3 * 4") == [{"X": "14"}]
    assert solutions(rt, "X is 7 / 2") == [{"X": "3.5"}]
    assert solutions(rt, "X is 6 / 2") == [{"X": "3"}]
    assert solutions(rt, "X is 7 // 2, Y is 7 mod 2") == [{"X": "3", "Y": "1"}]
    assert solutions(rt, "X is abs(- 3) + min(1, 2)") == [{"X": "4"}]
    assert solutions(rt, "4 > 3, 3 =< 3, 2 =:= 2, 2 =\\= 3") == [{}]
    with pytest.raises(LogicError):
        solutions(rt, "X is 1 / 0")
    with pytest.raises(LogicError):
        solutions(rt, "X is foo + 1")


def test_between(rt):
    assert [s["X"] for s in solutions(rt, "between(1, 4, X)")] == ["1", "2", "3", "4"]
    assert solutions(rt, "between(1, 4, 3)") == [{}]
    assert solutions(rt, "between(3, 1, _X)") == []


def answers(rt, text):
    try:
        return solutions(rt, text)
    except LogicError as err:
        return "ball " + term_text(err.term)


@pytest.mark.parametrize("query, answer", [
    ("between(1, 3, X)", [{"X": "1"}, {"X": "2"}, {"X": "3"}]),
    ("between(-2, 0, X)", [{"X": "-2"}, {"X": "-1"}, {"X": "0"}]),
    ("between(1, 1, X)", [{"X": "1"}]),
    ("between(3, 1, X)", []),
    ("between(1, 3, 2)", [{}]),
    ("between(1, 3, 5)", []),
    ("between(1, 3, 0)", []),
    ("between(1, 3, a)", []),
    ("between(1, 3, 2.0)", []),
    ("between(1, 3, f(X))", []),
    ("between(_, 3, X)", "ball instantiation_error('between/3')"),
    ("between(a, _, X)", "ball instantiation_error('between/3')"),
    ("between(a, 3, X)", "ball type_error(integer, a)"),
    ("between(1.0, 3, X)", "ball type_error(integer, 1.0)"),
    ("between(1, b, X)", "ball type_error(integer, b)"),
    ("assertz(between(1, 2, 3))", "ball permission_error(modify, between/3)"),
    ("between(1, 3, X), between(X, 3, Y)",
     [{"X": "1", "Y": "1"}, {"X": "1", "Y": "2"}, {"X": "1", "Y": "3"},
      {"X": "2", "Y": "2"}, {"X": "2", "Y": "3"}, {"X": "3", "Y": "3"}]),
    ("catch(between(x, 1, X), E, true)", [{"X": "X", "E": "type_error(integer, x)"}]),
])
def test_between_answers_and_balls(rt, query, answer):
    # the answers and balls of between/3 when it was a generator builtin
    assert answers(rt, query) == answer
    assert rt.engine.trail.guards == 0


def test_between_with_a_bound_value_leaves_no_choice_point(rt):
    goal, _ = parse_term("between(1, 100000, 99999)")
    q = rt.engine.solve(goal)
    next(q)
    assert q.machine.peak_cps == 0
    q.close()


def test_between_enumerates_with_one_choice_point(rt):
    # each value's call pops its choice point before it tries the next
    goal, vm = parse_term("between(1, 1000, X), X >= 1000")
    q = rt.engine.solve(goal)
    next(q)
    assert term_text(vm["X"]) == "1000"
    assert q.machine.peak_cps == 1
    q.close()


def test_a_cut_after_between_prunes_its_enumeration(rt):
    consult(rt, "first_over(N, X) :- between(1, 10, X), X > N, !.")
    assert solutions(rt, "first_over(3, X)") == [{"X": "4"}]
    assert solutions(rt, "between(1, 5, X), X >= 2, !") == [{"X": "2"}]
    assert solutions(rt, "first_over(10, X)") == []
    assert rt.engine.trail.guards == 0


def test_type_tests(rt):
    assert solutions(rt, "var(V), nonvar(a), atom(a), integer(1), float(1.5)") == [{"V": "V"}]
    assert solutions(rt, "number(1), number(1.0), atomic(a), compound(f(x)), callable(f(x)), callable(a)") == [{}]
    assert solutions(rt, "atom(1)") == []


def test_equality_family(rt):
    assert solutions(rt, "a = a, f(X) = f(1), a \\= b, f(X, X) \\= f(1, 2)") == [{"X": "1"}]
    assert solutions(rt, "f(X) == f(X), f(X) \\== f(Y)") == [{"X": "X", "Y": "Y"}]


def test_copy_term(rt):
    goal, vm = parse_term("copy_term(f(X, X, Y), C)")
    assert rt.engine.solve_once(goal)
    from objlog.terms import deref, is_variant
    copy = deref(vm["C"])
    assert is_variant(copy, parse_term("f(A, A, B)")[0])
    assert deref(copy.args[0]) is not deref(vm["X"])  # fresh variables


# -- exceptions ---------------------------------------------------------------


def test_throw_catch(rt):
    assert solutions(rt, "catch(throw(boom(1)), boom(X), R = caught(X))") == [
        {"X": "1", "R": "caught(1)"}]
    with pytest.raises(LogicError) as err:
        solutions(rt, "catch(throw(boom), other, true)")
    assert term_text(err.value.term) == "boom"


def test_catch_is_transparent_to_backtracking(rt):
    consult(rt, "p(1). p(2).")
    assert solutions(rt, "catch(p(X), _, fail)") == [{"X": "1"}, {"X": "2"}]


def test_catch_restores_bindings_on_error(rt):
    got = solutions(rt, "catch((X = 1, throw(oop)), E, true)")
    assert got == [{"X": "X", "E": "oop"}]


def test_catch_is_active_only_while_its_goal_runs(rt):
    consult(rt, "p(1). p(2). p(3).")
    # a ball from the continuation passes a catch whose goal has exited
    with pytest.raises(LogicError) as err:
        solutions(rt, "catch(p(X), _, true), X >= 2, throw(late(X))")
    assert term_text(err.value.term) == "late(2)"
    # backtracking into the goal after it exited makes the frame active again
    assert solutions(rt, "catch((p(X), (X == 2 -> throw(two) ; true)), E, "
                         "(R = caught(E), X = 9)), X >= 2") == [
        {"X": "9", "E": "two", "R": "caught(two)"}]
    assert solutions(rt, "catch(p(X), _, true), X >= 2") == [{"X": "2"}, {"X": "3"}]


def test_catch_unwinds_outward_and_its_recovery_runs_outside(rt):
    assert solutions(rt, "catch(catch(throw(a), b, R = inner), a, R = outer)") == [
        {"R": "outer"}]
    assert solutions(rt, "catch(catch(throw(a), a, throw(b)), E, true)") == [{"E": "b"}]
    # the goal is called as call/1: cut is local, a bad goal is its own error
    assert solutions(rt, "catch((member(X, [1, 2]), !), _, true)") == [{"X": "1"}]
    got = solutions(rt, "catch(G, instantiation_error(W), true)")
    assert [s["W"] for s in got] == ["call"]
    assert rt.engine.trail.guards == 0


def test_catch_recursion_is_limited_by_the_heap(rt):
    consult(rt, """
    c(0) :- !.
    c(N) :- N1 is N - 1, catch(c(N1), _, true).
    t(0) :- !, throw(bottom).
    t(N) :- N1 is N - 1, catch(t(N1), other, true).
    """)
    assert solutions(rt, "c(100000)") == [{}]
    assert solutions(rt, "catch(t(100000), B, true)") == [{"B": "bottom"}]
    assert rt.engine.trail.guards == 0


def test_exhausted_query_without_protect_leaves_bindings_unspecified(rt):
    program = "q(x). q(y). p2(A, B) :- q(A), !, B = a."
    consult(rt, program)
    goal, _ = parse_term("p2(A, B)")
    assert [term_text(resolve_copy(goal)) for _ in rt.engine.solve(goal, protect=True)] == [
        "p2(x, a)"]
    assert term_text(resolve_copy(goal)) == "p2(A, B)"
    # the same term then gives the same answers in a second engine
    again = Runtime(out=io.StringIO())
    consult(again, program)
    assert [term_text(resolve_copy(goal)) for _ in again.engine.solve(goal, protect=True)] == [
        "p2(x, a)"]


def test_unknown_predicate_raises(rt):
    with pytest.raises(LogicError) as err:
        solutions(rt, "no_such_predicate(1)")
    assert "existence_error" in term_text(err.value.term)


def test_unknown_predicate_fail_mode():
    import io
    from objlog.runtime import Runtime

    rt = Runtime(out=io.StringIO(), unknown="fail")
    assert solutions(rt, "no_such_predicate(1)") == []


def test_errors_catchable_from_builtins(rt):
    assert solutions(rt, "catch(X is 1 / 0, evaluation_error(E), true)") == [
        {"X": "X", "E": "zero_divisor"}]


# -- goals met at run time ---------------------------------------------------------

META_PROGRAM = """
a. a.
p(1). p(2).
t(X) :- G = (p(X), !), call(G).
t(last).
v(X) :- G = p(X), G.
v(last).
w(X) :- G = (p(X), !), G.
w(last).
m(X) :- M = user, M:(p(X), !).
m(last).
"""


# the answers and balls of each goal met at run time, which runs as call/1
# of it (ISO/IEC 13211-1, 7.6.2 and 7.8.3); the same under unknown=fail
# except where a column says otherwise
@pytest.mark.parametrize("query, answer, if_unknown_fails", [
    ("call(foo)", "ball existence_error(procedure, user:(foo/0))", []),
    ("call(1)", "ball type_error(callable, 1)", None),
    ("call(_)", "ball instantiation_error(call)", None),
    ("call(zz:p)", "ball domain_error(namespace, zz)", None),
    ("G = (a, !), call(G)", [{"G": "a, !"}], None),
    ("call(foo, 1)", "ball existence_error(procedure, user:(foo/1))", []),
    ("call(1, a)", "ball type_error(callable, 1)", None),
    ("call(_M:p, X)", "ball instantiation_error('namespace qualifier')", None),
    ("call(pce_principal:p, X)", "ball existence_error(procedure, pce_principal:(p/1))", []),
    ("G", "ball instantiation_error(call)", None),
    ("G = 1, G", "ball type_error(callable, 1)", None),
    ("G = foo, G", "ball existence_error(procedure, user:(foo/0))", []),
    ("call((fail, 1))", "ball type_error(callable, (fail, 1))", None),
    ("call((1, fail))", "ball type_error(callable, (1, fail))", None),
    ("t(X)", [{"X": "1"}, {"X": "last"}], None),
    ("v(X)", [{"X": "1"}, {"X": "2"}, {"X": "last"}], None),
    ("w(X)", [{"X": "1"}, {"X": "last"}], None),  # a variable goal is call/1 of it
    ("call(user:p, X)", [{"X": "1"}, {"X": "2"}], None),
    ("call(call, p, X)", [{"X": "1"}, {"X": "2"}], None),
    ("call(',', p(X), !)", [{"X": "1"}], None),
    ("call(!)", [{}], None),
    ("call(p(X)), !", [{"X": "1"}], None),
    ("call(;, p(X), X = 3)", [{"X": "1"}, {"X": "2"}, {"X": "3"}], None),
    ("call(=, X, 1)", [{"X": "1"}], None),
    ("call(between(1, 3), X)", [{"X": "1"}, {"X": "2"}, {"X": "3"}], None),
    ("call(X > 0)", "ball instantiation_error(arithmetic)", None),
    ("call(p(X), extra)", "ball existence_error(procedure, user:(p/2))", []),
    ("catch(_, E, true)", [{"E": "instantiation_error(call)"}], None),
    ("catch(1, E, true)", [{"E": "type_error(callable, 1)"}], None),
    ("catch(throw(x), x, foo)", "ball existence_error(procedure, user:(foo/0))", []),
    ("catch(throw(x), x, (p(X), !))", [{"X": "1"}], None),
    ("catch(throw(x), x, p(X))", [{"X": "1"}, {"X": "2"}], None),
    ("forall(p(X), foo)", "ball existence_error(procedure, user:(foo/0))", []),
    ("\\+ foo", "ball existence_error(procedure, user:(foo/0))", [{}]),
    ("\\+ G", "ball instantiation_error(call)", None),
    ("m(X)", [{"X": "1"}, {"X": "last"}], None),  # so is a goal under a bound qualifier
    # \+/1 and once/1 are builtin predicates (8.15.1, 8.15.2): an argument
    # that is not a body is their goal's error when it runs
    ("assertz((foo :- \\+ 1)), foo", "ball type_error(callable, 1)", None),
    ("assertz((foo :- once(1))), foo", "ball type_error(callable, 1)", None),
    ("\\+ 1", "ball type_error(callable, 1)", None),
    ("\\+ (a, 1)", "ball type_error(callable, (a, 1))", None),
    ("call((fail, \\+ 1))", [], None),
    ("assertz((baz :- (1 -> a)))", "ball type_error(callable, (1 -> a))", None),
])
@pytest.mark.parametrize("unknown", ["error", "fail"])
def test_meta_calls_answer_and_raise_alike(query, answer, if_unknown_fails, unknown):
    rt = Runtime(out=io.StringIO(), unknown=unknown)
    consult(rt, META_PROGRAM)
    if unknown == "fail" and if_unknown_fails is not None:
        answer = if_unknown_fails
    assert answers(rt, query) == answer
    assert rt.engine.trail.guards == 0 and not rt.engine.trail.entries


def test_a_goal_with_a_part_that_is_not_callable_is_refused_before_it_runs(rt):
    # ISO/IEC 13211-1, 7.8.3.3 for call/1 and 8.9.1.3 c for assert
    assert answers(rt, "call((write(a), 1))") == "ball type_error(callable, (write(a), 1))"
    assert rt.out.getvalue() == ""
    assert answers(rt, "assertz((foo :- 1))") == "ball type_error(callable, 1)"
    assert answers(rt, "assertz((foo :- a, 1))") == "ball type_error(callable, (a, 1))"
    assert rt.engine.clauses_of("user", "foo", 0) == []
    report = rt.consult_text("q(1).\np :- 1.\nq(2).\n")
    assert report.errors == [(2, "bad clause: type_error(callable, 1)")]
    assert report.clauses == 2
    assert solutions(rt, "q(X)") == [{"X": "1"}, {"X": "2"}]
    assert rt.engine.clauses_of("user", "p", 0) == []


@pytest.mark.parametrize("query", [
    "call_loop",
    "forall(between(1, 1000, X), X > 0)",
])
def test_a_meta_call_of_one_predicate_or_builtin_compiles_nothing(rt, monkeypatch, query):
    consult(rt, """
    p(_).
    call_loop :- between(1, 1000, X), call(p, X), fail.
    call_loop.
    """)
    compiled = count_compiles(monkeypatch)
    goal, _ = parse_term(query)
    assert rt.engine.solve_once(goal)
    assert compiled == []


def test_solving_a_one_builtin_goal_compiles_nothing(rt, monkeypatch):
    compiled = count_compiles(monkeypatch)
    for _ in range(1000):
        goal, _ = parse_term("X = f(Y)")
        assert rt.engine.solve_once(goal)
    assert compiled == []
    goal, _ = parse_term("X = 1, Y = 2")
    assert rt.engine.solve_once(goal)
    assert len(compiled) == 1  # a conjunction still compiles


# -- database updates ------------------------------------------------------------


def test_assert_front_back(rt):
    consult(rt, ":- dynamic(p/1).")
    assert solutions(rt, "assertz(p(1)), assertz(p(2)), asserta(p(0))") == [{}]
    assert [s["X"] for s in solutions(rt, "p(X)")] == ["0", "1", "2"]


def test_retract(rt):
    consult(rt, "p(1). p(2).")
    assert solutions(rt, "retract(p(1))") == [{}]
    assert [s["X"] for s in solutions(rt, "p(X)")] == ["2"]
    assert solutions(rt, "retract(p(9))") == []


def test_retract_keeps_the_variables_a_head_shares_with_its_body(rt):
    # the head and the body of a clause are copied with one renaming, so
    # the X of r(X) is the X of s(X, X)
    consult(rt, "r(X) :- s(X, X). r(X) :- s(X, _).")

    def left():
        return [term_text(Struct(":-", c)) for c in rt.engine.clauses_of("user", "r", 1)]

    before = left()
    assert solutions(rt, "retract((r(a) :- s(b, _)))") == []
    assert left() == before
    assert solutions(rt, "retract((r(a) :- s(a, b)))") == [{}]
    assert left() == before[:1]


def test_logical_update_view(rt):
    consult(rt, "p(1). p(2).")
    goal, vm = parse_term("p(X)")
    it = rt.engine.solve(goal)
    next(it)
    rt.engine.assert_term(parse_term("p(3)")[0])
    seen = [term_text(resolve_copy(vm["X"]))]
    for _ in it:
        seen.append(term_text(resolve_copy(vm["X"])))
    assert seen == ["1", "2"]  # the running query kept its snapshot
    assert [s["X"] for s in solutions(rt, "p(X)")] == ["1", "2", "3"]


def test_assert_on_builtin_is_permission_error(rt):
    with pytest.raises(LogicError) as err:
        solutions(rt, "assertz(writeln(1))")
    assert "permission_error" in term_text(err.value.term)


@pytest.mark.parametrize("goal", ["copy_term(X, _)", "assertz(p(X))", "asserta(p(X))"])
def test_copying_a_cyclic_term_is_a_representation_error(rt, goal):
    # with the occurs check off `X = f(X)` makes a cyclic term, which no
    # copy can hold: the ball is one catch/3 sees, and nothing is asserted
    consult(rt, ":- dynamic(p/1).")
    query, vm = parse_term(f"X = f(X), catch({goal}, E, true)")
    it = rt.engine.solve(query)
    next(it)
    assert term_text(vm["E"]) == "representation_error(cyclic_term)"
    it.close()
    assert rt.engine.clauses_of("user", "p", 1) == []


def test_a_cyclic_ball_is_a_representation_error(rt):
    # throw/1 copies its ball, which a cyclic term cannot give
    query, vm = parse_term("X = f(X), catch(throw(X), E, true)")
    it = rt.engine.solve(query)
    next(it)
    assert term_text(vm["E"]) == "representation_error(cyclic_term)"
    it.close()


def test_findall_bindings_of_a_cyclic_term_is_a_representation_error(rt):
    goal, vm = parse_term("X = f(X)")
    with pytest.raises(LogicError) as err:
        rt.engine.findall_bindings(goal, (vm["X"],))
    assert term_text(err.value.term) == "representation_error(cyclic_term)"


@pytest.mark.parametrize("query, answer", [
    ("X = f(X), Y = f(Y), X == Y", True),
    ("X = f(X), Y = f(f(Y)), X == Y", True),
    ("X = f(X), Y = f(a), X == Y", False),
    ("X = g(X, a), Y = g(Y, b), X == Y", False),
    ("X = f(X), Y = f(Y), X \\== Y", False),
])
def test_identity_of_cyclic_terms_terminates(rt, query, answer):
    # `==` compares cyclic terms as rational trees; the alarm turns a
    # comparison that never returns into a failure of this test
    def timed_out(signum, frame):
        raise TimeoutError(query)

    previous = signal.signal(signal.SIGALRM, timed_out)
    signal.alarm(5)
    try:
        assert rt.engine.solve_once(parse_term(query)[0]) is answer
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("query, answer", [
    ("X = f(X), Y = f(Y), X = Y", True),
    ("X = [a|X], Y = [a, a|Y], X = Y", True),
    ("X = [a|X], Y = [a, b|Y], X = Y", False),
])
def test_unifying_cyclic_terms_terminates(rt, query, answer):
    # `=` unifies cyclic terms as rational trees; the alarm turns a
    # unification that never returns into a failure of this test
    def timed_out(signum, frame):
        raise TimeoutError(query)

    previous = signal.signal(signal.SIGALRM, timed_out)
    signal.alarm(5)
    try:
        assert rt.engine.solve_once(parse_term(query)[0]) is answer
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_findall_bindings_releases_its_guards_when_a_copy_raises(rt):
    # the ball keeps the query's frames alive; the query is closed anyway
    goal, vm = parse_term("(X = f(X) ; X = a)")
    with pytest.raises(LogicError) as err:
        rt.engine.findall_bindings(goal, (vm["X"],))
    assert term_text(err.value.term) == "representation_error(cyclic_term)"
    assert rt.engine.trail.guards == 0 and not rt.engine.trail.entries


CYCLIC = "representation_error(cyclic_term)"


@pytest.mark.parametrize("query, ball, output", [
    ("X = f(X), write(X)", CYCLIC, ""),
    ("L = [a|L], write(L)", CYCLIC, ""),
    ("L = [a|T], T = [g(L)], write(L)", CYCLIC, ""),
    ("X = f(Y, Y), Y = g(a), write(X)", "none", "f(g(a), g(a))"),
    ("X = [Y, Y|Y], Y = [1], write(f(X, X))", "none", "f([[1], [1], 1], [[1], [1], 1])"),
])
def test_writing_a_cyclic_term_is_a_representation_error(rt, query, ball, output):
    # the writer meets a compound or list cell that is on its own path; a
    # subterm met twice off its path is shared, not cyclic.  The alarm
    # turns a write that never returns into a failure of this test
    def timed_out(signum, frame):
        raise TimeoutError(query)

    previous = signal.signal(signal.SIGALRM, timed_out)
    signal.alarm(5)
    try:
        goal, vm = parse_term(f"catch(({query}), E, true), (var(E) -> E = none ; true)")
        assert rt.engine.solve_once(goal)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert term_text(vm["E"]) == ball
    assert rt.out.getvalue() == output


# -- registration -----------------------------------------------------------------


def test_register_builtin_duplicate():
    import io
    from objlog.runtime import Runtime

    rt = Runtime(out=io.StringIO())
    rt.engine.register_builtin("my_builtin", 1, lambda m, a, ns: True)
    with pytest.raises(ValueError):
        rt.engine.register_builtin("my_builtin", 1, lambda m, a, ns: True)


def test_a_generator_builtin_is_a_type_error(rt):
    # a builtin answers True, False, None or a PushGoal; a generator is
    # none of them, so it is refused rather than taken as success
    from objlog.terms import unify

    def two(m, args, ns):
        trail = m.engine.trail

        def gen():
            for v in (Atom("one"), Atom("two")):
                mark = trail.mark()
                if unify(args[0], v, trail):
                    yield
                trail.undo_to(mark)

        return gen()

    rt.engine.register_builtin("two_ways", 1, two)
    with pytest.raises(TypeError, match="two_ways/1"):
        solutions(rt, "two_ways(X)")
    assert rt.engine.trail.guards == 0


def test_writeln_output(rt):
    solutions(rt, "writeln(hello)")
    assert rt.out.getvalue() == "hello\n"


def test_write_of_an_empty_right_operand(rt):
    # unquoted, '' has no text: the operator stays glued to nothing
    solutions(rt, "write(a - ''), nl, catch(write(x : \"\"), E, true), nl")
    assert rt.out.getvalue() == "a-\nx:\n"


# -- expansion hooks -----------------------------------------------------------------


def test_identity_hook_leaves_program_unchanged(rt):
    rt.engine.register_expansion_hook(lambda term: None)
    consult(rt, "p(1). p(2).")
    assert [s["X"] for s in solutions(rt, "p(X)")] == ["1", "2"]


def test_deleting_hook_yields_empty_predicate(rt):
    def hook(term):
        if type(term) is Struct and term.name == "drop_me":
            return []
        return None

    rt.engine.register_expansion_hook(hook)
    consult(rt, ":- dynamic(drop_me/1).\ndrop_me(1).\ndrop_me(2).")
    assert solutions(rt, "drop_me(_X)") == []


def test_one_to_many_hook(rt):
    def hook(term):
        if type(term) is Struct and term.name == "both":
            a = term.args[0]
            return [Struct("left", (a,)), Struct("right", (a,))]
        return None

    rt.engine.register_expansion_hook(hook)
    consult(rt, "both(7).")
    assert solutions(rt, "left(X), right(X)") == [{"X": "7"}]


# -- namespaces ------------------------------------------------------------------------


def test_two_namespaces(rt):
    consult(rt, "pce_principal:secret(42).\nvisible(1).")
    assert solutions(rt, "pce_principal:secret(X)") == [{"X": "42"}]
    with pytest.raises(LogicError):
        solutions(rt, "secret(X)")


def test_qualified_clause_body_runs_in_user(rt):
    consult(rt, """
    helper(ok).
    pce_principal:wrapped(X) :- user:(helper(X)).
    """)
    assert solutions(rt, "pce_principal:wrapped(X)") == [{"X": "ok"}]


# Each entry point that reads a goal's qualifiers, with the goal it runs for
# a qualifier Q and the predicate whose namespace shows where it acted (None:
# read the namespace from X, bound by q/1).
QUALIFIED_ENTRY_POINTS = {
    "call/1": ("call(Q:q(X))", None),
    "call/N": ("call(Q:q, X)", None),
    "retract/1": ("retract(Q:q(X))", None),
    "clause body": ("cb(X)", None),
    "assertz/1": ("assertz(Q:nq(1))", "nq"),
    "dynamic M:(N/A)": ("dynamic(Q:(dq/1))", "dq"),
    "dynamic (M:N)/A": ("dynamic((Q:dq)/1)", "dq"),
}

QUALIFIERS = {  # every entry point gives the same outcome for a qualifier
    "_M": "instantiation_error('namespace qualifier')",
    "zz": "domain_error(namespace, zz)",
    "1": "domain_error(namespace, 1)",
    "user": "user",
    "user:pce_principal": "pce_principal",
}


@pytest.mark.parametrize("qualifier", list(QUALIFIERS))
@pytest.mark.parametrize("entry_point", list(QUALIFIED_ENTRY_POINTS))
def test_every_entry_point_reads_qualifiers_alike(rt, entry_point, qualifier):
    """The namespace a qualified goal acts in, or the ball it raises, is the
    same from a call, call/N, assert, retract, dynamic/1 and a clause body;
    nested qualifiers resolve to the innermost."""
    goal, pred = QUALIFIED_ENTRY_POINTS[entry_point]
    consult(rt, f"""
    q(user).
    pce_principal:q(pce_principal).
    cb(X) :- {qualifier}:q(X).
    """)
    term, vm = parse_term(f"catch(({goal.replace('Q', qualifier)}), E, true)")
    assert rt.engine.solve_once(term)
    if term_text(vm["E"]) != "E":
        got = term_text(vm["E"])
    elif pred is None:
        got = term_text(vm["X"])
    else:
        got = " ".join(ns for ns in NAMESPACES if rt.engine.entry(ns, pred, 1) is not None)
    assert got == QUALIFIERS[qualifier]
    assert {key[0] for key in rt.engine.preds} <= set(NAMESPACES)


def test_a_failing_directive_is_a_warning_and_the_consult_goes_on(rt):
    report = rt.consult_text("a(1).\n:- a(2).\n:- fail.\na(3).\n")
    assert report.ok and (report.clauses, report.directives) == (2, 2)
    assert report.warnings == [(2, "directive failed: a(2)"), (3, "directive failed: fail")]
    assert solutions(rt, "a(X)") == [{"X": "1"}, {"X": "3"}]


def test_dynamic_directive_with_qualified_indicators_loads(rt):
    consult(rt, ":- dynamic user:c/2, pce_principal:d/1.")
    assert rt.engine.entry("user", "c", 2) is not None
    assert rt.engine.entry("pce_principal", "d", 1) is not None
    assert solutions(rt, "c(A, B)") == [] and solutions(rt, "pce_principal:d(A)") == []


NOT_INDICATORS = ["foo", "foo/bar", "_/1", "foo/(-1)", "(foo/1, 3)", "42", "_"]


@pytest.mark.parametrize("spec", NOT_INDICATORS)
def test_dynamic_refuses_what_is_not_a_predicate_indicator(rt, spec):
    with pytest.raises(LogicError) as err:
        solutions(rt, f"dynamic(({spec}))")
    assert term_text(err.value.term).startswith("type_error(predicate_indicator, ")
    assert ("user", "foo", -1) not in rt.engine.preds


@pytest.mark.parametrize("spec", NOT_INDICATORS + ["zz:(x/1)", "_M:(x/1)", "call/1", "e/1"])
def test_discontiguous_checks_its_argument_as_dynamic_does(rt, spec):
    balls = []
    for directive in ("discontiguous", "dynamic"):
        term, vm = parse_term(f"catch({directive}(({spec})), E, true)")
        assert rt.engine.solve_once(term)
        balls.append(term_text(vm["E"]))
        if directive == "discontiguous":
            assert ("user", "e", 1) not in rt.engine.preds  # no entry is made
    assert balls[0] == balls[1]


def test_a_discontiguous_predicate_is_still_unknown(rt):
    report = rt.consult_text(":- discontiguous e/1.")
    assert report.ok
    with pytest.raises(LogicError) as err:
        solutions(rt, "e(_)")
    assert term_text(err.value.term).startswith("existence_error(procedure, ")


# -- indexing ---------------------------------------------------------------------------


INDEX_PROGRAM = """
color(red, warm). color(blue, cool). color(yellow, warm).
color(green, cool). color(f(1), odd).
"""


def test_indexing_transparent():
    import io
    from objlog.runtime import Runtime

    queries = ["color(red, X)", "color(X, cool)", "color(f(1), X)",
               "color(blue, cool)", "color(_, _)"]
    results = []
    for indexing in (True, False):
        rt = Runtime(out=io.StringIO(), indexing=indexing)
        rt.consult_text(INDEX_PROGRAM)
        results.append([solutions(rt, q) for q in queries])
    assert results[0] == results[1]


def test_index_skips_other_buckets(rt):
    consult(rt, "k(a, 1). k(b, 2). k(c, 3). k(d, 4).")
    rt.engine.clause_attempts = 0
    assert solutions(rt, "k(c, X)") == [{"X": "3"}]
    assert rt.engine.clause_attempts == 1


# -- last-call optimization ----------------------------------------------------------------


LOOP = """
loop(0).
loop(N) :- N > 0, N1 is N - 1, loop(N1).
"""


def test_lco_constant_depth(rt):
    consult(rt, LOOP)
    peaks = []
    for n in (1000, 100_000):
        goal, _ = parse_term(f"loop({n})")
        q = rt.engine.solve(goal)
        assert sum(1 for _ in q) == 1
        peaks.append(q.machine.peak_depth)
    assert peaks[0] == peaks[1]


def test_trail_does_not_grow_without_choice_points(rt):
    consult(rt, LOOP)
    goal, _ = parse_term("loop(50000)")
    q = rt.engine.solve(goal)
    next(q)
    assert len(rt.engine.trail.entries) < 100
    q.close()


COMMITS = """
p(X) :- X = f(_, _).
p(g).
cut(0) :- !.
cut(N) :- p(_X), !, N1 is N - 1, cut(N1).
ite(0) :- !.
ite(N) :- ( p(_X) -> true ; true ), N1 is N - 1, ite(N1).
once_loop(0) :- !.
once_loop(N) :- once(p(_X)), N1 is N - 1, once_loop(N1).
c(1). c(2).
"""


def test_cut_drops_the_trail_with_the_last_guard(rt):
    # each cut prunes the last choice point, so nothing can undo the
    # bindings it leaves: they are not kept
    consult(rt, COMMITS)
    goal, _ = parse_term("cut(50000)")
    q = rt.engine.solve(goal)
    next(q)
    assert rt.engine.trail.guards == 0
    assert rt.engine.trail.entries == []
    q.close()


@pytest.mark.parametrize("loop", ["ite", "once_loop"])
def test_commit_loops_keep_the_trail_small(rt, loop):
    consult(rt, COMMITS)
    goal, _ = parse_term(f"{loop}(50000)")
    q = rt.engine.solve(goal)
    next(q)
    assert len(rt.engine.trail.entries) < 100
    q.close()


@pytest.mark.parametrize("loop", ["cut", "ite", "once_loop"])
def test_backtracking_after_a_commit_loop_undoes_bindings(rt, loop):
    # V is bound after the choice point of c/1 and before the loop's
    # commits: backtracking into c/1 must unbind it again
    consult(rt, COMMITS)
    text = f"c(C), var(V), once(p(V)), {loop}(1000)"
    assert [sol["C"] for sol in solutions(rt, text)] == ["1", "2"]


def test_last_clause_pops_its_choice_point(rt):
    # no argument tells these clauses apart, so no index can: every call
    # pushes a clause choice point, and it goes before the last clause runs
    consult(rt, "loop(_, N) :- N =< 0, !. loop(X, N) :- N1 is N - 1, loop(X, N1).")
    goal, _ = parse_term("loop(a, 20000)")
    q = rt.engine.solve(goal)
    next(q)
    assert q.machine.peak_cps == 1
    assert len(q.machine.cps) == 0
    assert len(rt.engine.trail.entries) == 0
    q.close()
    # a cut in the last clause still cuts to the call's own height
    consult(rt, "c(1). c(2). d(X, Y) :- c(X), e(Y). e(1). e(2) :- !. e(3).")
    assert solutions(rt, "d(X, Y)") == [{"X": "1", "Y": "1"}, {"X": "1", "Y": "2"},
                                        {"X": "2", "Y": "1"}, {"X": "2", "Y": "2"}]


def test_partial_unification_leaves_no_binding_without_choice_points(rt):
    # unify binds X before it meets b against c; with no choice point live
    # those bindings must still be undone where the goal goes on
    consult(rt, """
    stored(2, a). stored(1, b).
    differ(X) :- f(b, X) \\= f(c, a), var(X).
    last(_, 0) :- fail.
    last(X, _) :- f(b, X) \\= f(c, a), var(X).
    """)
    assert solutions(rt, "f(b, X) \\= f(c, a), var(X)") == [{"X": "X"}]
    assert solutions(rt, "differ(X)") == [{"X": "X"}]
    assert solutions(rt, "last(X, 1)") == [{"X": "X"}]
    assert solutions(rt, "retract(stored(1, X))") == [{"X": "b"}]
    assert rt.engine.trail.guards == 0 and not rt.engine.trail.entries


def test_trail_guards_balanced_after_mixed_work(rt):
    consult(rt, """
    p(1). p(2). p(3).
    q(X) :- p(X), X > 1.
    """)
    for text in ("p(X), q(X)", "catch((p(X), throw(t(X))), t(_), true)",
                 "\\+ q(1)", "(q(X) -> true ; true)", "between(1, 3, _B)"):
        list(solutions(rt, text))
        assert rt.engine.trail.guards == 0, text
    # an abandoned iterator must also release its guards on close
    goal, _vm = parse_term("p(X), p(Y)")
    it = rt.engine.solve(goal)
    next(it)
    it.close()
    assert rt.engine.trail.guards == 0


def test_namespace_qualified_rule_assert_and_retract(rt):
    consult(rt, ":- assertz(pce_principal:(tmp_rule(X) :- X > 3)).")
    assert solutions(rt, "pce_principal:tmp_rule(5)") == [{}]
    assert solutions(rt, "pce_principal:tmp_rule(1)") == []
    assert len(solutions(rt, "retract(pce_principal:(tmp_rule(_Y) :- _Y > 3))")) == 1
    assert solutions(rt, "pce_principal:tmp_rule(5)") == []


# -- the query protocol ------------------------------------------------------------


@pytest.mark.parametrize("protect", [False, True])
def test_closing_a_query_keeps_the_last_solutions_bindings(rt, protect):
    consult(rt, "p(a). p(b). p(c).")
    goal, vm = parse_term("p(X), Y = f(X)")
    q = rt.engine.solve(goal, protect=protect)
    next(q)
    next(q)
    q.close()
    assert term_text(resolve_copy(vm["Y"])) == "f(b)"
    assert rt.engine.trail.guards == 0


def test_an_exhausted_protected_query_undoes_its_bindings(rt):
    consult(rt, "p(a). p(b).")
    goal, vm = parse_term("p(X), Y = f(X)")
    q = rt.engine.solve(goal, protect=True)
    assert [term_text(resolve_copy(vm["Y"])) for _ in q] == ["f(a)", "f(b)"]
    assert term_text(resolve_copy(goal)) == "p(X), Y = f(X)"
    assert rt.engine.trail.guards == 0


@pytest.mark.parametrize("protect", [False, True])
@pytest.mark.parametrize("end", ["exhausted", "closed"])
def test_next_after_the_end_of_a_query_stops(rt, end, protect):
    consult(rt, "p(a). p(b).")
    goal, _ = parse_term("p(X)")
    q = rt.engine.solve(goal, protect=protect)
    next(q)
    if end == "closed":
        q.close()
    else:
        next(q)
        with pytest.raises(StopIteration):
            next(q)
    for _ in range(2):
        with pytest.raises(StopIteration):
            next(q)
    q.close()
    assert rt.engine.trail.guards == 0


class _CountedScope(Scope):
    __slots__ = ("closed",)

    def __init__(self):
        self.closed = 0

    def close(self) -> None:
        self.closed += 1


@pytest.mark.parametrize("protect", [False, True])
def test_a_ball_out_of_a_query_closes_its_scopes_and_releases_the_guard(rt, protect):
    # in_scope/0 runs bang/0 inside a scope frame of the calling machine;
    # bang's ball is caught by nothing, so it leaves the query with the
    # frame still on the stack
    consult(rt, "p(1). p(2). bang :- p(_), throw(oops).")
    scope = _CountedScope()
    entry = rt.engine.entry("user", "bang", 0)
    rt.engine.register_builtin("in_scope", 0,
                               lambda m, args, ns: m.call_scoped(entry, (), scope))
    goal, _ = parse_term("p(_), in_scope")
    q = rt.engine.solve(goal, protect=protect)
    with pytest.raises(LogicError) as err:
        next(q)
    assert term_text(err.value.term) == "oops"
    assert scope.closed == 1
    assert q.machine.cps == [] and rt.engine.trail.guards == 0
    with pytest.raises(StopIteration):
        next(q)
    q.close()
    assert scope.closed == 1


@pytest.mark.parametrize("protect", [False, True])
def test_a_query_dropped_unclosed_releases_its_guards(rt, protect):
    consult(rt, "p(a). p(b). p(c).")
    goal, _ = parse_term("p(X), p(Y)")
    q = rt.engine.solve(goal, protect=protect)
    next(q)
    assert len(q.machine.cps) == 2 and rt.engine.trail.guards > 0
    del q
    gc.collect()
    assert rt.engine.trail.guards == 0
