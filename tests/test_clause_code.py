"""The compiled clause form: control constructs that cannot be asserted,
deep clauses, late-defined callees, the --trace text, arithmetic compiled
with the clause, the argument indexes kept up to date in place, and
answer sequences checked against the substitution-based reference solver."""

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from objlog import builtins as _builtins
from objlog.cli import main
from objlog.engine import Engine
from objlog.errors import LogicError
from objlog.reader import parse_term
from objlog.terms import Atom, Struct, Var, deref, is_variant, resolve_copy
from objlog.writer import term_text
from oracles import OracleThrow, oracle_resolve, oracle_solve


def solutions(rt, text):
    goal, vm = parse_term(text)
    return [{k: term_text(resolve_copy(v)) for k, v in vm.items()}
            for _ in rt.engine.solve(goal)]


# -- control constructs cannot be asserted ---------------------------------------


CONTROL_CONSTRUCTS = [
    ("once(x)", "once/1"),
    ("call(a)", "call/1"),
    ("call(a, b)", "call/2"),
    ("\\+ a", "(\\+)/1"),
    ("throw(a)", "throw/1"),
    ("true", "true/0"),
    ("fail", "fail/0"),
    ("false", "false/0"),
    ("!", "!/0"),
    ("(a, b)", "','/2"),
    ("(a ; b)", "(;)/2"),
    ("(a -> b)", "(->)/2"),
]


@pytest.mark.parametrize("clause, indicator", CONTROL_CONSTRUCTS)
def test_asserting_a_control_construct_is_a_permission_error(rt, clause, indicator):
    with pytest.raises(LogicError) as err:
        solutions(rt, f"assertz(({clause}))")
    assert term_text(err.value.term) == f"permission_error(modify, {indicator})"
    assert term_text(parse_term(indicator)[0]) == indicator  # the indicator reads back


@pytest.mark.parametrize("indicator", [i for _, i in CONTROL_CONSTRUCTS] + ["between/3"])
def test_declaring_a_control_construct_dynamic_is_a_permission_error(rt, indicator):
    # an entry for one could never be called, so dynamic/1 refuses it as assert does
    with pytest.raises(LogicError) as err:
        solutions(rt, f"dynamic(user:({indicator}))")
    assert term_text(err.value.term) == f"permission_error(modify, {indicator})"
    name, arity = parse_term(indicator)[0].args
    assert rt.engine.entry("user", name.name, arity) is None


def test_control_constructs_still_run(rt):
    rt.consult_text("p(1). p(2).")
    assert solutions(rt, "once(p(X)), call(p, Y), \\+ fail, true") == [
        {"X": "1", "Y": "1"}, {"X": "1", "Y": "2"}]


# -- deep clauses ------------------------------------------------------------------


def nest(depth, leaf):
    t = leaf
    for _ in range(depth):
        t = Struct("f", (t,))
    return t


def test_deep_clause_asserts_runs_and_retracts(rt):
    depth = 10_000
    x = Var("X")
    head = Struct("deep", (nest(depth, x),))
    body = Struct("=", (x, nest(depth, Atom("end"))))
    rt.engine.assert_term(Struct(":-", (head, body)))
    got = Var("G")
    assert rt.engine.solve_once(Struct("deep", (got,)))
    t = deref(got)
    for _ in range(2 * depth):
        assert type(t) is Struct and t.name == "f"
        t = deref(t.args[0])
    assert t is Atom("end")
    # a goal that matches the head in read mode all the way down
    assert rt.engine.solve_once(Struct("deep", (nest(depth, Var("Y")),)))
    pattern = Struct(":-", (Struct("deep", (Var(),)), Var()))
    assert rt.engine.retract_term(pattern)
    assert rt.engine.clauses_of("user", "deep", 1) == []


def test_long_conjunction_compiles_iteratively(rt):
    goals = Atom("true")
    for i in range(10_000):
        goals = Struct(",", (Struct("=", (Var(), i)), goals))
    rt.engine.assert_term(Struct(":-", (Atom("long"), goals)))
    assert solutions(rt, "long") == [{}]


# -- head matching ------------------------------------------------------------------


def test_head_matching_keeps_the_occurs_check():
    import io as _io
    from objlog.runtime import Runtime

    for occurs_check, expected in ((True, []), (False, [{}])):
        rt = Runtime(out=_io.StringIO(), occurs_check=occurs_check)
        rt.consult_text("same(X, X). wrap(X, f(X)). deep(g(X), X).")
        # a later occurrence, write mode and a later occurrence in read mode
        for goal in ("same(A, f(A))", "wrap(A, A)", "deep(g(A), f(A))"):
            goal_term, _ = parse_term(goal)
            got = [{} for _ in rt.engine.solve(goal_term)]
            assert got == expected, (occurs_check, goal)


def test_first_occurrences_share_the_goal_term(rt):
    rt.consult_text("pair(X, Y, p(X, Y)). twice(X, X).")
    assert solutions(rt, "pair(A, B, P), A = 1") == [{"A": "1", "B": "B", "P": "p(1, B)"}]
    assert solutions(rt, "twice(A, B), B = 2") == [{"A": "2", "B": "2"}]
    assert solutions(rt, "twice(f(A), f(2))") == [{"A": "2"}]
    assert solutions(rt, "twice(1, 1.0)") == []


# -- callees resolved at run time ---------------------------------------------------


def test_caller_compiled_before_callee_sees_its_later_clauses(rt):
    rt.consult_text("caller(X) :- callee(X).")
    with pytest.raises(LogicError):
        solutions(rt, "caller(X)")
    rt.consult_text("callee(1).")
    assert solutions(rt, "caller(X)") == [{"X": "1"}]
    rt.engine.assert_term(parse_term("callee(2)")[0])
    assert solutions(rt, "caller(X)") == [{"X": "1"}, {"X": "2"}]


def test_undefined_callee_raises_and_creates_no_entry(rt):
    rt.consult_text("lonely :- nowhere(1).")
    for _ in range(2):
        with pytest.raises(LogicError) as err:
            solutions(rt, "lonely")
        assert term_text(err.value.term) == \
            "existence_error(procedure, user:(nowhere/1))"
    assert rt.engine.entry("user", "nowhere", 1) is None


# -- the --trace text ------------------------------------------------------------------

TRACE_PROGRAM = """
app([], L, L).
app([H|T], L, [H|R]) :- app(T, L, R).
pick(X) :- member(X, [a, b, c]), X \\== a, !.
test(R) :- app([1], [2], L), pick(P),
    ( P == b -> Q = yes ; Q = no ),
    \\+ app([q], _, [x|_]),
    once(member(M, L)),
    call(app, [M], [], Y),
    pce_principal:dynamic(tmp/1),
    catch(throw(oops), E, true),
    forall(member(Z, Y), Z > 0),
    R = r(Q, Y, E).
"""

# the output of the engine before clauses were compiled
TRACE_GOLDEN = """\
CALL test(R)
CALL app([1], [2], _G1)
CALL app([], [2], _G1)
CALL pick(_G1)
CALL member(_G1, [a, b, c])
CALL a \\== a
CALL member(_G1, [b, c])
CALL b \\== a
CALL b == b
CALL _G1 = yes
CALL app([q], _G1, [x|_G2])
CALL member(_G1, [1, 2])
CALL app([1], [], _G1)
CALL app([], [], _G1)
CALL pce_principal:dynamic tmp/1
CALL catch(throw(oops), _G1, true)
CALL forall(member(_G1, [1]), _G1 > 0)
CALL member(_G1, [1])
CALL 1 > 0
CALL member(_G1, [])
CALL _G1 = r(yes, [1], oops)
R = r(yes, [1], oops)
"""


def test_trace_call_lines_are_unchanged(tmp_path, capsys):
    path = tmp_path / "prog.pl"
    path.write_text(TRACE_PROGRAM)
    assert main(["--trace", "--consult", str(path), "--goal", "test(R)"]) == 0
    assert capsys.readouterr().out == TRACE_GOLDEN


# classic sends and gets: an int argument, a prolog argument, a logic get,
# send_class/3 and catch/3 around a failing send
METHOD_TRACE_PROGRAM = """
:- pce_begin_class(counter, object).
variable(count, int, both, "the count").
initialise(O) :-> send(O, count, 0).
bump(O, N:int) :-> get(O, count, C), C1 is C + N, send(O, count, C1).
note(_O, T:prolog) :-> T = noted(_).
total(O, Extra:int, T) :<- get(O, count, C), T is C + Extra.
refuse(_O) :-> fail.
:- pce_end_class(counter).

:- pce_begin_class(sub_counter, counter).
bump(O, N:int) :-> send_class(O, counter, bump(N)), send(O, note(_)).
:- pce_end_class(sub_counter).

test(R) :- new(O, sub_counter), send(O, bump(2)), send(O, note(X)),
    get(O, total(1), T), send_class(O, counter, bump(3)),
    ( catch(send(O, refuse), _, true) -> F = yes ; F = no ),
    free(O), R = r(X, T, F).
"""

# the output of the engine that ran each classic method in a nested solve
METHOD_TRACE_GOLDEN = """\
CALL pce_begin_class(counter, object)
CALL pce_end_class(counter)
CALL pce_begin_class(sub_counter, counter)
CALL pce_end_class(sub_counter)
CALL test(R)
CALL new(_G1, sub_counter)
CALL pce_principal:pce_class(sub_counter, Super)
CALL pce_principal:pce_class(counter, Super)
CALL pce_principal:pce_slot(counter, _G1, _G2, _G3, _G4)
CALL pce_principal:pce_pure(counter, _G1)
CALL pce_principal:pce_method(counter, _G1, _G2, _G3, _G4, _G5)
CALL pce_principal:pce_slot(sub_counter, _G1, _G2, _G3, _G4)
CALL pce_principal:pce_pure(sub_counter, _G1)
CALL pce_principal:pce_method(sub_counter, _G1, _G2, _G3, _G4, _G5)
CALL pce_principal:send_implementation('counter->initialise', initialise, @3)
CALL send(@3, count(0))
CALL send(@3, bump(2))
CALL pce_principal:send_implementation('sub_counter->bump', bump(2), @3)
CALL send_class(@3, counter, bump(2))
CALL pce_principal:send_implementation('counter->bump', bump(2), @3)
CALL get(@3, count, _G1)
CALL _G1 is 0+2
CALL send(@3, count(2))
CALL send(@3, note(_G1))
CALL pce_principal:send_implementation('counter->note', note(_G1), @3)
CALL _G1 = noted(_G2)
CALL send(@3, note(_G1))
CALL pce_principal:send_implementation('counter->note', note(_G1), @3)
CALL _G1 = noted(_G2)
CALL get(@3, total(1), _G1)
CALL pce_principal:get_implementation('counter<-total', total(1), @3, Result)
CALL get(@3, count, _G1)
CALL _G1 is 2+1
CALL send_class(@3, counter, bump(3))
CALL pce_principal:send_implementation('counter->bump', bump(3), @3)
CALL get(@3, count, _G1)
CALL _G1 is 2+3
CALL send(@3, count(5))
CALL catch(send(@3, refuse), _G1, true)
CALL send(@3, refuse)
CALL pce_principal:send_implementation('counter->refuse', refuse, @3)
CALL _G1 = no
CALL free(@3)
CALL _G1 = r(noted(_G2), 3, no)
R = r(noted(_G1), 3, no)
"""


def test_trace_of_classic_method_calls_is_unchanged(tmp_path, capsys):
    path = tmp_path / "prog.pl"
    path.write_text(METHOD_TRACE_PROGRAM)
    assert main(["--trace", "--consult", str(path), "--goal", "test(R)"]) == 0
    assert capsys.readouterr().out == METHOD_TRACE_GOLDEN


# meta-calls: call/2, call/1 of a bound variable, forall/2, \+ of a bound
# variable, call/2 under \+, and catch/3 whose recoveries run
META_TRACE_PROGRAM = """
p(1).
p(2).
q(X) :- X > 1.
test(R) :- call(p, A), A > 1,
    G = q(A), call(G),
    forall(p(X), X > 0),
    N = p(3), \\+ N,
    C = q, \\+ call(C, 0),
    catch(call(r, A), existence_error(_, _), (p(B), B > 1)),
    catch(throw(ball(A)), ball(Y), call(p, Y)),
    R = r(A, B, Y).
"""

# the output of the engine that compiled every goal met at run time
META_TRACE_GOLDEN = """\
CALL test(R)
CALL p(_G1)
CALL 1 > 1
CALL 2 > 1
CALL _G1 = q(2)
CALL q(2)
CALL 2 > 1
CALL forall(p(_G1), _G1 > 0)
CALL p(_G1)
CALL 1 > 0
CALL 2 > 0
CALL _G1 = p(3)
CALL p(3)
CALL _G1 = q
CALL q(0)
CALL 0 > 1
CALL catch(call(r, 2), existence_error(_G1, _G2), (p(_G3), _G3 > 1))
CALL p(_G1)
CALL 1 > 1
CALL 2 > 1
CALL catch(throw(ball(2)), ball(_G1), call(p, _G1))
CALL p(2)
CALL _G1 = r(2, 2, 2)
R = r(2, 2, 2)
"""


def test_trace_of_meta_calls_is_unchanged(tmp_path, capsys):
    path = tmp_path / "prog.pl"
    path.write_text(META_TRACE_PROGRAM)
    assert main(["--trace", "--consult", str(path), "--goal", "test(R)"]) == 0
    assert capsys.readouterr().out == META_TRACE_GOLDEN


# a clause whose body opens with arithmetic: its guard, fused into the
# clause try when untraced, prints its CALL lines under --trace
GUARD_TRACE_PROGRAM = """
count(0) :- !.
count(N) :- N > 0, N1 is N - 1, count(N1).
no_attack(_, [], _).
no_attack(Q, [Q1|Qs], D) :-
    Q =\\= Q1 + D,
    Q =\\= Q1 - D,
    D1 is D + 1,
    no_attack(Q, Qs, D1).
positive(X) :- X > 0.
test(R) :- count(2), positive(3),
    ( no_attack(2, [1], 1) -> R = safe ; R = attacked ).
"""

# the output of the engine that ran every guard as a goal of its own
GUARD_TRACE_GOLDEN = """\
CALL test(R)
CALL count(2)
CALL 2 > 0
CALL _G1 is 2-1
CALL count(1)
CALL 1 > 0
CALL _G1 is 1-1
CALL count(0)
CALL positive(3)
CALL 3 > 0
CALL no_attack(2, [1], 1)
CALL 2 =\\= 1+1
CALL _G1 = attacked
R = attacked
"""


def test_trace_of_guarded_clauses_prints_each_guard_goal(tmp_path, capsys):
    path = tmp_path / "prog.pl"
    path.write_text(GUARD_TRACE_PROGRAM)
    assert main(["--trace", "--consult", str(path), "--goal", "test(R)"]) == 0
    assert capsys.readouterr().out == GUARD_TRACE_GOLDEN


# -- arithmetic compiled with the clause -------------------------------------------------

@pytest.mark.parametrize("head, body, expected", [
    ("undone", "( X is 1, fail ; true ), var(X)", [{}]),
    ("tens(X)", "member(A, [1, 2]), B is A * 10, X = B", [{"X": "10"}, {"X": "20"}]),
    ("self_ref(X)", "X is X + 1", "instantiation_error(arithmetic)"),
    ("unknown(X)", "X is foo + 1", "type_error(evaluable, foo/0)"),
    ("unknown2(X)", "X is foo(1, 2)", "type_error(evaluable, foo/2)"),
    ("by_zero(X)", "X is 1 / 0", "evaluation_error(zero_divisor)"),
    ("checks", "3 is 1 + 2, 1 + 1 =:= 2.0", [{}]),
    ("held(Y)", "X = 1 + 2, Y is X", [{"Y": "3"}]),
    # the ISO evaluables of 9.1 and 9.4 past the four operations
    ("bits(X)", "X is 6 /\\ 3 + (6 \\/ 3) * 10 + \\ 5 * 100", [{"X": "-528"}]),
    ("signs(X, Y, Z)", "X is sign(-3), Y is sign(2.5), Z is sign(0)",
     [{"X": "-1", "Y": "1.0", "Z": "0"}]),
    ("floats(X, Y)", "X is float(3), Y is float(-0.5)", [{"X": "3.0", "Y": "-0.5"}]),
    ("truncs(X, Y)", "X is truncate(-2.5), Y is truncate(2.5)", [{"X": "-2", "Y": "2"}]),
    ("float_and(X)", "X is 1.0 /\\ 3", "type_error(integer, 1.0)"),
    ("float_or(X)", "X is 3 \\/ 0.5", "type_error(integer, 0.5)"),
    ("float_not(X)", "X is \\ 2.0", "type_error(integer, 2.0)"),
    ("huge(X)", f"X is float({10 ** 400})", "evaluation_error(float_overflow)"),
    ("int_trunc(X)", "X is truncate(3)", "type_error(float, 3)"),
    ("inf_trunc(X)", "X is truncate(1.0e308 * 10)", "evaluation_error(float_overflow)"),
    # a float past the float range is made by none of + - * / (ISO/IEC 13211-1 9.1.4)
    ("over_add(X)", "X is 1.0e308 + 1.0e308", "evaluation_error(float_overflow)"),
    ("over_sub(X)", "Y = 1.0e308, X is -Y - Y", "evaluation_error(float_overflow)"),
    ("over_div(X)", "X is 1.0e308 / 0.5", "evaluation_error(float_overflow)"),
    ("huge_mix(X)", f"C = {10 ** 400}, X is C + 0.5", "evaluation_error(float_overflow)"),
    ("huge_div(X)", f"C = {10 ** 400}, X is C / 3", "evaluation_error(float_overflow)"),
    ("huge_ok(X)", f"C = {10 ** 400}, X is C * 0 + 0.5", [{"X": "0.5"}]),
])
def test_compiled_arithmetic_answers_as_the_query_does(rt, head, body, expected):
    # the clause body's arithmetic runs generated code, and the same goals
    # run as a query are evaluated by eval_arith
    report = rt.consult_text(f"{head} :- {body}.")
    assert report.ok, report.errors
    names = set(parse_term(head)[1])

    def answers(text):
        try:
            return [{k: v for k, v in a.items() if k in names} for a in solutions(rt, text)]
        except LogicError as err:
            return term_text(err.term)

    assert answers(head) == expected
    assert answers(body) == expected


def test_a_float_overflow_in_a_clause_body_is_a_ball_catch_catches(rt):
    # an int too large to mix with a float made Python's OverflowError,
    # which no catch/3 caught
    rt.consult_text("mix(C, Y) :- Y is C + 0.5. div(C, Y) :- Y is C / 3.")
    for name in ("mix", "div"):
        assert solutions(rt, f"catch({name}({10 ** 400}, _), E, true)") == [
            {"E": "evaluation_error(float_overflow)"}]


def test_truncate_of_a_float_from_outside_the_range_is_undefined():
    # no arithmetic makes an inf now, but a host value can be one
    with pytest.raises(LogicError) as err:
        _builtins.eval_arith(Struct("truncate", (float("inf"),)))
    assert term_text(err.value.term) == "evaluation_error(undefined)"


def test_new_is_variable_gets_no_fresh_variable(rt):
    rt.consult_text("top(Y) :- X is 1, Y = X. nested(Y) :- ( X is 1 ; true ), Y = X.")
    assert rt.engine.entry("user", "top", 1).clauses[0].fresh == ()
    assert rt.engine.entry("user", "nested", 1).clauses[0].fresh == (1,)
    assert solutions(rt, "top(Y)") == [{"Y": "1"}]
    assert solutions(rt, "nested(Y)") == [{"Y": "1"}, {"Y": "_G1"}]


def test_cyclic_expression_is_a_representation_error(rt):
    rt.consult_text("cyc(Y) :- X = X + 1, Y is X.")
    for goal in ("cyc(Y)", "X = X + 1, Y is X", "X = X + 1, X > 0"):
        with pytest.raises(LogicError) as err:
            solutions(rt, goal)
        assert term_text(err.value.term) == "representation_error(cyclic_term)"
    # a term shared within an expression is not a cycle
    assert solutions(rt, "X = 1 + 1, Y = X * X, Z is Y") == [
        {"X": "1+1", "Y": "(1+1) * (1+1)", "Z": "4"}]


def test_deep_expressions_evaluate_without_recursion(rt):
    depth = 100_000
    total = Struct("+", (0, 1))
    for i in range(2, depth + 1):
        total = Struct("+", (total, i))
    x = Var("X")
    assert rt.engine.solve_once(Struct("is", (x, total)))
    assert deref(x) == depth * (depth + 1) // 2
    # the same expression over a frame slot, compiled with its clause
    y = Var("Y")
    deep = Struct("+", (y, 1))
    for _ in range(depth):
        deep = Struct("+", (deep, 1))
    r = Var("R")
    rt.engine.assert_term(Struct(":-", (Struct("deep_sum", (y, r)), Struct("is", (r, deep)))))
    got = Var("G")
    assert rt.engine.solve_once(Struct("deep_sum", (5, got)))
    assert deref(got) == 5 + depth + 1


# -- clause guards --------------------------------------------------------------------------


def test_guard_is_the_leading_run_of_compiled_arithmetic(rt):
    rt.consult_text(GUARD_TRACE_PROGRAM + """
    late(X, Y) :- X > 0, Y = 1, Y < 2.
    none(X) :- X = 1, X > 0.
    atom_operand(X) :- X > a, X < 2.
    """)

    def guard_length(name, arity):
        guard = rt.engine.entry("user", name, arity).clauses[-1].guard
        return None if guard is None else guard[2]

    assert guard_length("count", 1) == 2
    assert guard_length("no_attack", 3) == 3
    assert guard_length("positive", 1) == 1
    assert guard_length("late", 2) == 1
    assert guard_length("none", 1) is None
    # `X > a` is not evaluable as written, so it is a builtin call
    assert guard_length("atom_operand", 1) is None
    assert solutions(rt, "count(5), positive(1), late(1, Y)") == [{"Y": "1"}]
    assert solutions(rt, "late(0, Y)") == []


def test_ball_from_a_guard_reaches_the_catch_around_the_call(rt):
    rt.consult_text("""
    p(_, a).
    p(X, b) :- X > 0, true.
    r(N) :- N > 0, N1 is N // 0, r(N1).
    """ + GUARD_TRACE_PROGRAM)
    # the second clause is tried on backtracking, from the clause choice point
    assert solutions(rt, "catch((p(_, R), R == b), E, true)") == [
        {"R": "R", "E": "instantiation_error(arithmetic)"}]
    # and so it is after the catch has exited: the ball goes to the catch
    # whose goal made the choice point, not to the goals after it
    assert solutions(rt, "catch(p(_, R), E, true), R \\== a") == [
        {"R": "R", "E": "instantiation_error(arithmetic)"}]
    assert solutions(rt, "catch(r(1), E, true)") == [
        {"E": "evaluation_error(zero_divisor)"}]
    # a guard that fails leaves no guard and no binding on the trail
    assert solutions(rt, "no_attack(2, [1], 1)") == []
    assert rt.engine.trail.guards == 0 and rt.engine.trail.entries == []


# -- the argument indexes ----------------------------------------------------------------


def _built_indexes(entry):
    """A copy of every index the entry has built, by argument position."""
    return {pos: (dict(ix[0]), ix[1]) for pos, ix in enumerate(entry._index) if ix is not None}


def test_index_built_in_place_matches_a_rebuild(rt):
    rt.consult_text("k(a, 1). k(X, 2). k(b, 3). k(f(1), 4). k(a, 5). k(1, 6). k(1.0, 7).")
    entry = rt.engine.entry("user", "k", 2)
    assert _built_indexes(entry) == {}  # nothing is built before a call needs it
    # a call whose first argument is unbound builds the index on the second
    assert solutions(rt, "k(K, 6)") == [{"K": "1"}]
    assert sorted(_built_indexes(entry)) == [1]
    # one whose first argument is bound builds the index on the first
    assert solutions(rt, "k(b, N)") == [{"N": "2"}, {"N": "3"}]
    for text, front in (("k(b, 0)", True), ("k(_, 8)", False), ("k(c, _)", False),
                        ("k(d, 6)", True), ("k(_, _)", True)):
        rt.engine.assert_term(parse_term(text)[0], front=front)
    built = _built_indexes(entry)
    assert sorted(built) == [0, 1]
    for pos, index in built.items():
        assert index == tuple(entry._build_index(pos)), pos
    assert solutions(rt, "k(1, N)") == [{"N": "N"}, {"N": "2"}, {"N": "6"}, {"N": "8"}]
    assert solutions(rt, "k(K, 6)") == [{"K": "K"}, {"K": "d"}, {"K": "1"}, {"K": "c"}]


def test_retract_all_by_first_argument_leaves_other_clauses(rt):
    rt.consult_text("m(a, 1). m(b, 2). m(X, 3). m(a, 4).")
    entry = rt.engine.entry("user", "m", 2)
    assert solutions(rt, "m(K, 2)") == [{"K": "b"}]
    before = entry.clauses
    second = entry._index[1]
    built = _built_indexes(entry)
    assert sorted(built) == [1]
    # removing nothing builds the first-argument index it reads and keeps the rest
    assert rt.engine.retract_all_clauses("user", "m", 2, first=Atom("zz")) == 0
    assert entry.clauses is before and entry._index[1] is second
    after = _built_indexes(entry)
    assert sorted(after) == [0, 1] and after[1] == built[1]
    assert after[0] == tuple(entry._build_index(0))
    assert rt.engine.retract_all_clauses("user", "m", 2, first=Atom("a")) == 2
    assert _built_indexes(entry) == {}  # a removal resets every index
    assert solutions(rt, "m(K, N)") == [{"K": "b", "N": "2"}, {"K": "K", "N": "3"}]
    assert solutions(rt, "m(K, 3)") == [{"K": "K"}]
    assert solutions(rt, "m(b, N)") == [{"N": "2"}, {"N": "3"}]
    built = _built_indexes(entry)
    assert sorted(built) == [0, 1]
    for pos, index in built.items():
        assert index == tuple(entry._build_index(pos)), pos


# -- answers against the reference solver ---------------------------------------------

VARS = ("X", "Y")
NUM = "Z"  # only ever the left side of is/2 or a use after it, so its is/2 can be its first
PREDS = 3


_leaf = st.one_of(st.sampled_from([("var", v) for v in VARS]),
                  st.sampled_from([("atom", "a"), ("atom", "b"), ("int", 0), ("int", 1)]))
_term = st.recursive(_leaf, lambda sub: st.one_of(
    st.tuples(st.just("f"), sub), st.tuples(st.just("g"), sub, sub)), max_leaves=3)

# integer expressions; `a` and f/1 are not evaluable, `//` can divide by zero
_expr = st.recursive(
    st.sampled_from([("var", "X"), ("var", "Y"), ("var", NUM), ("int", 0), ("int", 1),
                     ("int", 2), ("int", 3), ("atom", "a")]),
    lambda sub: st.one_of(
        st.tuples(st.sampled_from(["+", "-", "*", "+", "-", "*", "//"]), sub, sub),
        st.tuples(st.sampled_from(["-", "f"]), sub)),
    max_leaves=3)
_compare = st.tuples(st.sampled_from(["<", ">", "=<", ">=", "=:=", "=\\="]), _expr, _expr)
_is = st.tuples(st.just("is"), st.one_of(st.just(("var", NUM)), _leaf), _expr)


META_FORMS = ("call2", "call3", "call1", "var", "cut", "varcut")


def _goal(level):
    # calls are listed twice to draw them more often than the other goals
    calls = [st.tuples(st.just("call"), st.just(j), st.lists(_term, min_size=2, max_size=2))
             for j in range(level)] * 2
    # calls made at run time: call(pJ(A), B), call(pJ, A, B), call(pJ(A, B)),
    # G = pJ(A, B) then G, call((pJ(A, B), !)) and G = (pJ(A, B), !) then G,
    # with variables for A and B, so that the call matches some clauses more
    # often than not
    var = st.sampled_from([("var", v) for v in VARS])
    metas = [st.tuples(st.just("meta"), st.sampled_from(META_FORMS), st.just(j), var, var)
             for j in range(level)]
    simple = st.one_of(
        st.tuples(st.sampled_from(["=", "=", "\\="]), _term, _term),
        st.sampled_from([("!",), ("true",), ("fail",)]),
        st.tuples(st.just("throw"), _term),
        _is, _compare,
        *calls, *metas)
    inner = st.one_of(simple, st.tuples(st.just(","), simple, simple))
    # \+ of a body, or now and then of a term that is not one: `\+ 1` and
    # `\+ (G, 1)` raise when they run, as \+ call(1) and \+ call((G, 1))
    negated = st.one_of(inner, inner, inner, st.just(("int", 1)),
                        st.tuples(st.just(","), simple, st.just(("int", 1))))
    # a use of NUM after the is/2 that may have set it
    use = st.one_of(
        st.tuples(st.just("="), st.just(("var", NUM)), _term),
        st.tuples(st.sampled_from(["<", "=:="]), st.just(("var", NUM)), _expr),
        *[st.tuples(st.just("call"), st.just(j), st.tuples(st.just(("var", NUM)), _term))
          for j in range(level)])
    new_is = st.tuples(st.just("is"), st.just(("var", NUM)), _expr)
    arith = [
        # a top-level is/2 on a new variable after a call that leaves choice points
        *[st.tuples(st.just("seq"), call, new_is, use) for call in calls[:level]],
        # an is/2 inside ; or -> whose variable is used after the construct
        st.tuples(st.just("seq"), st.tuples(st.just("alt"), st.tuples(st.just(","), new_is, inner),
                                            inner), use),
        st.tuples(st.just("seq"), st.tuples(st.just("ite"), inner, new_is, inner), use),
        st.tuples(st.just("seq"), st.tuples(st.just("ite"), new_is, inner, inner), use),
    ]
    return st.one_of(
        simple, *calls,
        st.tuples(st.just("ite"), inner, inner, inner),
        st.tuples(st.just("alt"), inner, inner),
        st.tuples(st.just("not"), negated),
        st.tuples(st.just("catch"), inner, _term, inner),
        *arith)


def _program():
    def pred(level):
        clause = st.tuples(st.lists(_term, min_size=2, max_size=2),
                           st.lists(_goal(level), max_size=3 if level else 0))
        return st.lists(clause, min_size=2, max_size=4)

    return st.tuples(*(pred(level) for level in range(PREDS)))


def _build(sym, env):
    kind = sym[0]
    if kind == "var":
        return env.setdefault(sym[1], Var(sym[1]))
    if kind == "atom":
        return Atom(sym[1])
    if kind == "int":
        return sym[1]
    if kind == "call":
        return Struct(f"p{sym[1]}", tuple(_build(a, env) for a in sym[2]))
    if kind == "meta":
        form, j, a, b = sym[1:]
        a, b = _build(a, env), _build(b, env)
        if form == "call2":
            return Struct("call", (Struct(f"p{j}", (a,)), b))
        if form == "call3":
            return Struct("call", (Atom(f"p{j}"), a, b))
        goal = Struct(f"p{j}", (a, b))
        if form == "call1":
            return Struct("call", (goal,))
        if form == "cut":
            return Struct("call", (Struct(",", (goal, Atom("!"))),))
        if form == "varcut":
            goal = Struct(",", (goal, Atom("!")))
        g = env.setdefault("G", Var("G"))  # bound right before it is called
        return Struct(",", (Struct("=", (g, goal)), g))
    if kind == "ite":
        cond, then, els = (_build(g, env) for g in sym[1:])
        return Struct(";", (Struct("->", (cond, then)), els))
    if kind == "alt":
        return Struct(";", tuple(_build(g, env) for g in sym[1:]))
    if kind == "not":
        return Struct("\\+", (_build(sym[1], env),))
    if kind == "seq":
        body = _build(sym[-1], env)
        for g in reversed(sym[1:-1]):
            body = Struct(",", (_build(g, env), body))
        return body
    if len(sym) == 1:
        return Atom(sym[0])
    return Struct(sym[0], tuple(_build(a, env) for a in sym[1:]))


def _clauses(program):
    out = []
    for level, clauses in enumerate(program):
        for args, goals in clauses:
            env: dict = {}
            head = Struct(f"p{level}", tuple(_build(a, env) for a in args))
            body = Atom("true")
            for g in reversed(goals):
                body = _build(g, env) if body is Atom("true") else \
                    Struct(",", (_build(g, env), body))
            out.append((head, body))
    return out


MAX_ANSWERS = 40


def _query():
    return Struct(f"p{PREDS - 1}", (Var("A"), Var("B")))


def _engine_answers(clauses, indexing, occurs_check):
    query = _query()
    engine = Engine(indexing=indexing, occurs_check=occurs_check, out=io.StringIO())
    _builtins.install(engine)
    for head, body in clauses:
        engine.assert_term(Struct(":-", (head, body)))
    out = []
    q = engine.solve(query)
    try:
        for _ in q:
            out.append(resolve_copy(query))
            if len(out) == MAX_ANSWERS:
                break
    except LogicError as err:
        out.append(Struct("uncaught", (err.term,)))
    q.close()
    return out


def _reference_answers(clauses, occurs_check, events):
    query = _query()
    out = []
    try:
        for subst in oracle_solve(clauses, query, occurs_check, events):
            out.append(oracle_resolve(query, subst))
            if len(out) == MAX_ANSWERS:
                break
    except OracleThrow as thrown:
        out.append(Struct("uncaught", (thrown.ball,)))
    return out


def _same(ours, ref):
    return len(ours) == len(ref) and all(is_variant(a, b) for a, b in zip(ours, ref))


@settings(max_examples=300, deadline=None)
@given(_program())
def test_answers_match_the_reference_solver(program):
    clauses = _clauses(program)
    events: dict = {}
    ref = _reference_answers(clauses, True, events)
    modes = [True]
    if not events:
        # no unification met the occurs check, so without it no cyclic term
        # is made and the answers are the same
        modes.append(False)
    for occurs_check in modes:
        for indexing in (True, False):
            ours = _engine_answers(clauses, indexing, occurs_check)
            assert _same(ours, ref), (indexing, occurs_check,
                                      [term_text(a) for a in ours],
                                      [term_text(a) for a in ref])


# clause bodies that open with a run of comparisons and is/2 into a new
# variable, with operands that raise (an atom, a compound, `//` by 0, an
# unbound variable), followed by other goals and a use of the new variable.
# Most of `_expr` has a head variable, unbound in most calls, so half the
# run's goals take their numbers from constants and the new variable alone:
# those pass and fail as well as raise.
_num = st.recursive(
    st.sampled_from([("int", 0), ("int", 1), ("int", 2), ("int", 3), ("var", NUM)]),
    lambda sub: st.one_of(st.tuples(st.sampled_from(["+", "-", "*", "//"]), sub, sub),
                          st.tuples(st.just("-"), sub)),
    max_leaves=3)
_guard = st.one_of(
    _compare, st.tuples(st.just("is"), st.just(("var", NUM)), _expr),
    st.tuples(st.sampled_from(["<", ">", "=<", ">=", "=:=", "=\\="]), _num, _num),
    st.tuples(st.just("is"), st.just(("var", NUM)), _num))


def _guarded_program():
    def pred(level):
        use = st.one_of(
            st.tuples(st.just("="), st.just(("var", NUM)), _term),
            st.tuples(st.sampled_from(["<", "=:="]), st.just(("var", NUM)), _expr),
            *[st.tuples(st.just("call"), st.just(j), st.tuples(st.just(("var", NUM)), _term))
              for j in range(level)])
        body = st.tuples(st.lists(_guard, min_size=1, max_size=3),
                         st.lists(_goal(level), max_size=2), use)
        clause = st.tuples(st.lists(_term, min_size=2, max_size=2),
                           body.map(lambda b: [*b[0], *b[1], b[2]]))
        return st.lists(clause, min_size=2, max_size=4)

    return st.tuples(*(pred(level) for level in range(PREDS)))


@settings(max_examples=300, deadline=None)
@given(_guarded_program())
def test_guarded_clauses_answer_as_the_reference_solver(program):
    clauses = _clauses(program)
    events: dict = {}
    ref = _reference_answers(clauses, True, events)
    modes = [True] if events else [True, False]
    for occurs_check in modes:
        for indexing in (True, False):
            ours = _engine_answers(clauses, indexing, occurs_check)
            assert _same(ours, ref), (indexing, occurs_check,
                                      [term_text(a) for a in ours],
                                      [term_text(a) for a in ref])
