import pytest

from objlog import toolkit
from objlog.balls import bridge_kind
from objlog.engine import Engine, Machine
from objlog.errors import LogicError
from objlog.reader import parse_term
from objlog.terms import Atom, ObjRef, resolve_copy, structural_eq
from objlog.writer import term_text


def t(text):
    return parse_term(text)[0]


def sols(rt, text):
    goal, vm = parse_term(text)
    out = []
    for _ in rt.engine.solve(goal):
        out.append({k: resolve_copy(v) for k, v in vm.items()})
    return out


def once(rt, text):
    return rt.once(text)


def err_kind(rt, text):
    with pytest.raises(LogicError) as err:
        rt.once(text)
    return bridge_kind(err.value) or term_text(err.value.term)


def err_text(rt, text):
    with pytest.raises(LogicError) as err:
        rt.once(text)
    return term_text(err.value.term)


# -- new/2 ------------------------------------------------------------------------


def test_new_binds_reference(rt):
    sol = once(rt, "new(X, box(100, 100))")
    assert type(sol["X"]) is ObjRef
    obj = rt.kernel.fetch(sol["X"].ref)
    assert obj.kclass.name == "box"
    assert obj.slots["width"] == 100 and obj.slots["height"] == 100


def test_new_atom_spec(rt):
    sol = once(rt, "new(X, picture)")
    assert rt.kernel.fetch(sol["X"].ref).kclass.name == "picture"


def test_new_bound_reference_is_error(rt):
    assert err_kind(rt, "new(already, box(1, 1))") == "instantiation"


def test_new_unknown_class(rt):
    assert err_kind(rt, "new(_X, no_such_class(1))") == "unknown_class"


def test_new_var_spec_is_error(rt):
    assert err_kind(rt, "new(_X, _Spec)") == "instantiation"


def test_new_arg_conversion_error(rt):
    assert err_kind(rt, "new(_X, box(a, 1))") == "type_mismatch"


def test_new_unbound_init_arg_is_error(rt):
    assert err_kind(rt, "new(_X, box(_W, 1))") == "instantiation"


# -- send/2..N -------------------------------------------------------------------


def test_send_compound_and_spread_forms(rt):
    sol = once(rt, "new(B, box(10, 10)), send(B, width(42)), get(B, width, W)")
    assert sol["W"] == 42
    sol = once(rt, "new(B, box(10, 10)), send(B, width, 43), get(B, width, W)")
    assert sol["W"] == 43


def test_send_display_creates_compound_args(rt):
    before = rt.kernel.live_count_of("box")
    sol = once(rt, "new(P, picture), send(P, display(box(100, 50), point(20, 20)))")
    assert rt.kernel.live_count_of("box") == before + 1
    pic = rt.kernel.fetch(sol["P"].ref)
    contents = pic.slots["contents"].elements
    assert len(contents) == 1
    box = contents[0]
    assert box.slots["width"] == 100 and box.slots["height"] == 50
    pos = box.slots["position"]
    assert pos.slots["x"] == 20 and pos.slots["y"] == 20


def test_send_failure_is_failure_not_error(rt):
    rt.consult_text("""
    :- pce_begin_class(refuser, object).
    nope(_O) :-> fail.
    :- pce_end_class(refuser).
    """)
    assert once(rt, "new(R, refuser)") is not None
    assert sols(rt, "new(R, refuser), send(R, nope)") == []


def test_send_to_freed_object(rt):
    sol = once(rt, "new(B, box(1, 1))")
    ref = term_text(sol["B"])
    assert rt.call(f"free({ref})")
    assert err_kind(rt, f"send({ref}, width(5))") == "freed_object"


def test_send_unknown_method(rt):
    assert err_kind(rt, "new(B, box(1, 1)), send(B, no_such_method)") == "unknown_method"


def test_send_prolog_proxy_writeln(rt):
    assert rt.call("send(@prolog, writeln('Hello World'))")
    assert rt.out.getvalue() == "Hello World\n"


def test_send_prolog_proxy_call_form(rt):
    assert rt.call("send(@prolog, call, writeln, 'Hello World')")
    assert rt.out.getvalue() == "Hello World\n"


def test_callback_failure_propagates(rt):
    rt.consult_text("only_even(X) :- 0 =:= X mod 2.")
    assert rt.call("send(@prolog, only_even(4))")
    assert not rt.call("send(@prolog, only_even(3))")


def test_callback_unknown_predicate_is_error(rt):
    with pytest.raises(LogicError) as err:
        rt.once("send(@prolog, no_pred_here(1))")
    assert "existence_error" in term_text(err.value.term)


def test_callback_object_argument_arrives_as_reference(rt):
    rt.consult_text(""":- dynamic(seen/1).
    note(X) :- assertz(seen(X)).""")
    sol = once(rt, "new(B, box(3, 3)), send(@prolog, note(B))")
    got = sols(rt, "seen(V)")
    assert got == [{"V": sol["B"]}]


# -- get/3..N ------------------------------------------------------------------------


def test_get_visible_x_transcript(rt):
    sol = once(rt, "new(P, picture), get(P, visible, Visible), get(Visible, x, X)")
    assert sol["X"] == 0
    assert type(sol["Visible"]) is ObjRef


def test_get_result_unification_failure(rt):
    assert sols(rt, "new(B, box(8, 9)), get(B, width, 999)") == []
    sol = once(rt, "new(B, box(8, 9)), get(B, width, 8)")
    assert sol is not None


def test_get_object_identity_stable(rt):
    sol = once(rt, "new(P, picture), get(P, visible, V1), get(P, visible, V2)")
    assert sol["V1"] == sol["V2"]


def test_get_spread_form(rt):
    rt.consult_text("""
    :- pce_begin_class(adder, object).
    plus(_O, X:int, Y:int, R:int) :<- R is X + Y.
    :- pce_end_class(adder).
    """)
    sol = once(rt, "new(A, adder), get(A, plus, 2, 3, R)")
    assert sol["R"] == 5
    sol = once(rt, "new(A, adder), get(A, plus(4, 5), R)")
    assert sol["R"] == 9


FAILER = """
:- pce_begin_class(failer, object).
initialise(_O, _X:int) :-> fail.
:- pce_end_class(failer).
:- pce_begin_class(maker, object).
make(_O, R) :<- R = failer(1).
:- pce_end_class(maker).
"""


@pytest.mark.parametrize("caller", ["logic", "native"])
def test_get_whose_result_initialise_fails_fails(rt, caller):
    # an `any` result that names a class is instantiated, as an argument
    # is; when its initialise fails the get fails, as a call whose
    # argument's initialise fails does
    rt.consult_text(FAILER)
    if caller == "logic":
        assert rt.once("new(O, maker), catch(get(O, make, R), E, true)") is None
    else:
        k = rt.kernel
        obj = k.fetch(once(rt, "new(O, maker)")["O"].ref)
        with rt.hostdata.bridge_call():
            assert k.invoke_get(obj, k.method_of(obj, "make", "get"), []) is None
    assert rt.audit_refcounts() == [] and rt.hostdata.ledgers == []
    assert rt.kernel.live_count_of("failer") == 0


# -- free/1 --------------------------------------------------------------------------


def test_free_then_send(rt):
    sol = once(rt, "new(B, box(1, 1)), free(B), catch(send(B, width(1)), E, true)")
    assert term_text(sol["E"]).startswith("bridge_error(freed_object")


def test_double_free(rt):
    sol = once(rt, "new(B, box(1, 1))")
    ref = term_text(sol["B"])
    assert rt.call(f"free({ref})")
    assert err_kind(rt, f"free({ref})") == "freed_object"


def test_free_nil_is_permission_error(rt):
    with pytest.raises(LogicError) as err:
        rt.once("free(@nil)")
    assert "permission_error" in term_text(err.value.term)


def test_free_stale_reference(rt):
    assert err_kind(rt, "free(@999999)") == "stale_reference"


# -- conversion properties ---------------------------------------------------------------


def test_primitive_round_trip(rt):
    from objlog.kernel import ANY_T

    for term in (42, -3, 2.5, Atom("hello"), Atom("Hello World")):
        with rt.hostdata.bridge_call():
            v = rt.bridge.term_to_value(term, ANY_T, "t", 0)
            back = rt.bridge.value_to_term(v)
            assert structural_eq(back, term)
            assert type(back) is type(term)


def test_object_converts_to_same_reference_twice(rt):
    obj = rt.bridge.new_from_spec(t("box(2, 2)"))
    assert rt.bridge.value_to_term(obj) == rt.bridge.value_to_term(obj) == ObjRef(obj.oid)


def test_nil_and_prolog_named_references(rt):
    assert rt.bridge.value_to_term(rt.kernel.nil) == ObjRef("nil")
    assert rt.bridge.value_to_term(rt.kernel.prolog_proxy) == ObjRef("prolog")


def test_kernel_balls_name_well_known_objects_as_the_bridge_does(rt):
    # a message's stored arguments reach the kernel as values, not terms
    for ref in ("@nil", "@prolog"):
        assert err_text(rt, f"new(B, box(1, 1)), new(M, message(B, width, {ref})), "
                            "send(M, execute)") == \
            f"bridge_error(type_mismatch, context(width, 1, int, {ref}))"
        assert err_text(rt, f"new(B, box(1, 1)), send(B, width({ref}))") == \
            f"bridge_error(type_mismatch, context(width, 1, int, {ref}))"
        assert err_text(rt, f"free({ref})") == f"permission_error(free, {ref})"


# One soft-type check: each spec against each kind of argument, sent from
# logic (send/2, the bridge converts the term) and from native code
# (Kernel.send_value, the value is already converted).  Per argument in
# ARG_TEXTS: o = passes as written, f = passes as a float, x = type_mismatch,
# i = instantiation error.
TYPED = """
:- dynamic(took/1).
note(X) :- ( var(X) -> T = var ; T = X ), assertz(took(T)).
:- pce_begin_class(typed, object).
t_int(_O, X:int) :-> note(X).
t_float(_O, X:float) :-> note(X).
t_atom(_O, X:atom) :-> note(X).
t_any(_O, X:any) :-> note(X).
t_prolog(_O, X:prolog) :-> note(X).
t_box(_O, X:box) :-> note(X).
t_nil_or(_O, X:nil_or(box)) :-> note(X).
:- pce_end_class(typed).
"""
ARG_TEXTS = ("1", "1.5", "a", "@nil", "@prolog", "Box", "Point", "_")
SPEC_TABLE = [
    # method, spec as a mismatch ball shows it, outcome per argument
    ("t_int", "int", "oxxxxxxi"),
    ("t_float", "float", "foxxxxxi"),
    ("t_atom", "atom", "xxoxxxxi"),
    ("t_any", "any", "oooooooi"),
    ("t_prolog", "prolog", "oooooooo"),
    ("t_box", "box", "xxxxxoxi"),
    ("t_nil_or", "nil_or(box)", "xxxoxoxi"),
]


def _typed_outcome(rt, run):
    try:
        run()
    except LogicError as err:
        return "ball", term_text(err.term)
    sol = rt.once("retract(took(T))")
    return "took", term_text(sol["T"])


@pytest.mark.parametrize("selector, shown, outcomes", SPEC_TABLE)
def test_one_type_check_for_logic_and_native_calls(rt, selector, shown, outcomes):
    rt.consult_text(TYPED)
    sol = once(rt, "new(T, typed), new(B, box(1, 1)), new(P, point(1, 2))")
    k = rt.kernel
    receiver = k.fetch(sol["T"].ref)
    refs = {"Box": term_text(sol["B"]), "Point": term_text(sol["P"])}
    values = (1, 1.5, Atom("a"), k.nil, k.prolog_proxy,
              k.fetch(sol["B"].ref), k.fetch(sol["P"].ref), None)
    for text, value, outcome in zip(ARG_TEXTS, values, outcomes):
        written = refs.get(text, text)
        want = {"o": ("took", "var" if text == "_" else written),
                "f": ("took", "1.0"),
                "x": ("ball", f"bridge_error(type_mismatch, "
                              f"context({selector}, 1, {shown}, {written}))"),
                "i": ("ball", f"bridge_error(instantiation, context({selector}, 1))"),
                }[outcome]
        got = _typed_outcome(rt, lambda: rt.once(
            f"send({term_text(sol['T'])}, {selector}({written}))"))
        assert got == want, (selector, text)
        if value is not None:  # native code has no unbound argument
            got = _typed_outcome(rt, lambda: k.send_value(receiver, selector, [value]))
            assert got == want, (selector, text, "native")
    assert rt.hostdata.ledgers == [] and rt.audit_refcounts() == []


# Balls whose form is part of the interface, pinned as they stand:
# (set-up, call, ball), `{V}` standing for the reference set-up bound to V.
PINNED_BALLS = [
    ("new(P, picture)", "send(P, display(colour(red)))",
     "bridge_error(type_mismatch, context(display, 1, graphical, colour(red)))"),
    ("new(B, box(1, 1)), new(C, box(1, 1)), free(C)", "send(B, width(C))",
     "bridge_error(type_mismatch, context(width, 1, int, {C}))"),
    ("true", "new(_, box(1, 2, 3))", "bridge_error(type_mismatch, arity(box, 2, 3))"),
    ("true", "new(_, box(a, 1))", "bridge_error(type_mismatch, context(box, 1, int, a))"),
    ("new(C, chain)", "send(C, append(_))",
     "bridge_error(instantiation, context(append, 1))"),
]


@pytest.mark.parametrize("setup, call, ball", PINNED_BALLS)
def test_pinned_balls(rt, setup, call, ball):
    sol = once(rt, f"{setup}, catch({call}, E, true)")
    names = {k: term_text(v) for k, v in sol.items() if k != "E"}
    assert term_text(sol["E"]) == ball.format(**names)


def test_slot_send_get_symmetry_over_value_kinds(rt):
    rt.consult_text("""
    :- pce_begin_class(bag, object).
    variable(item, any, both, "anything").
    variable(blob, prolog, both, "a term").
    :- pce_end_class(bag).
    """)
    ref = term_text(once(rt, "new(B, bag)")["B"])
    cases = ["7", "2.5", "hello", "@nil"]
    for text in cases:
        sol = once(rt, f"send({ref}, item, {text}), get({ref}, item, R)")
        assert structural_eq(sol["R"], t(text)), text
    box_ref = term_text(once(rt, "new(X, box(1, 1))")["X"])
    sol = once(rt, f"send({ref}, item, {box_ref}), get({ref}, item, R)")
    assert sol["R"] == t(box_ref)
    # a term through the prolog-typed slot
    sol = once(rt, f"send({ref}, blob, f(g(1), [a, b])), get({ref}, blob, R)")
    assert structural_eq(sol["R"], t("f(g(1), [a, b])"))


def test_conversion_atomicity_no_leaks(rt):
    rt.consult_text("""
    :- pce_begin_class(strict2, object).
    pair(_O, _A:int, _B:int) :-> true.
    :- pce_end_class(strict2).
    """)
    ref = term_text(once(rt, "new(S, strict2)")["S"])
    baseline = rt.kernel.live_count
    for bad_at in ("send(%s, pair(nope, 2))", "send(%s, pair(1, nope))"):
        with pytest.raises(LogicError) as err:
            rt.once(bad_at % ref)
        assert bridge_kind(err.value) == "type_mismatch"
        assert rt.kernel.live_count == baseline
        assert rt.audit_refcounts() == []


def test_transient_compound_collected_on_later_error(rt):
    # first argument builds a transient box, second argument fails to convert
    boxes = rt.kernel.live_count_of("box")
    with pytest.raises(LogicError):
        rt.once("new(P, picture), send(P, display(box(5, 5), 17))")
    # the transient box was released by the post-call protocol
    assert rt.kernel.live_count_of("box") == boxes
    assert rt.audit_refcounts() == []


def test_transient_unused_compound_collected(rt):
    rt.consult_text("""
    :- pce_begin_class(sink, object).
    swallow(_O, _B:box) :-> true.
    :- pce_end_class(sink).
    """)
    ref = term_text(once(rt, "new(S, sink)")["S"])
    before = rt.kernel.live_count_of("box")
    assert rt.call(f"send({ref}, swallow(box(9, 9)))")
    assert rt.kernel.live_count_of("box") == before
    assert rt.audit_refcounts() == []


# -- send_class ----------------------------------------------------------------------------


def test_send_class_starts_at_named_ancestor(rt):
    rt.consult_program("my_box")
    # dispatching `event` from class box skips my_box's own handler, so the
    # fill pattern stays untouched even for an enter event
    sol = once(rt, "new(B, my_box(10, 10)), "
                   "send_class(B, box, event(event(area_enter, 1, 1)))")
    obj = rt.kernel.fetch(sol["B"].ref)
    assert obj.slots["fill_pattern"] is rt.kernel.nil


def test_send_class_non_ancestor_is_error(rt):
    assert err_kind(rt, "new(B, box(1, 1)), send_class(B, picture, event(x))") \
        == "type_mismatch"


def test_send_class_unknown_class(rt):
    assert err_kind(rt, "new(B, box(1, 1)), send_class(B, zzz, event(x))") \
        == "unknown_class"


PURE_PICK = """
:- pce_begin_class(pk, object).
:- pce_pure_prolog(pick).
pick(_O, X) :-> member(X, [a, b, c]).
:- pce_end_class(pk).
:- pce_begin_class(pk_sub, pk).
:- pce_pure_prolog(pick).
pick(O, X) :-> send_super(O, pick(X)).
:- pce_end_class(pk_sub).
"""


@pytest.mark.parametrize("goal", ["send(O, pick(X))", "send_class(O, pk, pick(X))",
                                  "send(S, pick(X))"])
def test_send_class_and_send_super_keep_pure_logic_dispatch(rt, goal):
    rt.consult_text(PURE_PICK)
    refs = once(rt, "new(O, pk), new(S, pk_sub)")
    goal = goal.replace("O", term_text(refs["O"])).replace("S", term_text(refs["S"]))
    assert [term_text(s["X"]) for s in rt.query(goal)] == ["a", "b", "c"]


# -- re-entrancy -----------------------------------------------------------------------------


def test_logic_to_kernel_to_logic_nesting(rt):
    rt.consult_text("""
    :- pce_begin_class(echoer, object).
    relay(_O, N:int) :->
        ( N > 0 -> N1 is N - 1, new(E, echoer), send(E, relay(N1)), free(E)
        ; true ).
    :- pce_end_class(echoer).
    """)
    assert rt.call("new(E, echoer), send(E, relay(12)), free(E)")
    assert rt.kernel.live_count == rt.baseline_live
    assert rt.audit_refcounts() == []


def test_nondet_dispatch_keeps_last_call_optimization(rt):
    rt.consult_text("""
    :- pce_begin_class(spinner, object).
    :- pce_pure_prolog(spin).
    spin(O, N:prolog) :->
        ( N > 0 -> N1 is N - 1, send(O, spin(N1)) ; true ).
    :- pce_end_class(spinner).
    """)
    ref = term_text(once(rt, "new(S, spinner)")["S"])
    peaks = []
    for n in (100, 10_000):
        goal, _ = parse_term(f"send({ref}, spin({n}))")
        q = rt.engine.solve(goal)
        assert sum(1 for _ in q) == 1
        peaks.append(q.machine.peak_depth)
    assert peaks[0] == peaks[1]


# -- classic calls run in the calling machine ------------------------------------------

SCOPED = """
:- pce_begin_class(scoped, object).
variable(data, prolog, both, "the last term stored").
fails(O, _B:box, T:prolog) :-> send(O, data, T), fail.
throws(O, _B:box, T:prolog) :-> send(O, data, T), throw(oops).
picks(O, _B:box, T:prolog) :-> member(_, [1, 2, 3]), send(O, data, T).
:- pce_end_class(scoped).
"""


@pytest.mark.parametrize("in_catch", [False, True])
@pytest.mark.parametrize("method", ["fails", "throws", "picks"])
def test_scope_closes_on_failure_exception_and_backtracking(rt, method, in_catch):
    # `picks` succeeds, then its caller backtracks into the committed call
    rt.consult_text(SCOPED)
    ref = term_text(once(rt, "new(O, scoped)")["O"])
    goal = f"send({ref}, {method}(box(1, 1), t(a))), fail"
    if in_catch:
        goal = f"catch(({goal}), E, true)"
    if method == "throws" and not in_catch:
        with pytest.raises(LogicError) as err:
            rt.once(goal)
        assert term_text(err.value.term) == "oops"
    elif method == "throws":
        assert term_text(rt.once(goal)["E"]) == "oops"
    else:
        assert rt.once(goal) is None
    assert rt.hostdata.ledgers == [] and rt.audit_refcounts() == []
    assert rt.kernel.live_count_of("box") == 0
    assert rt.store.records_live == 1 and rt.hostdata.wrappers_live == 1
    assert term_text(once(rt, f"get({ref}, data, D)")["D"]) == "t(a)"
    assert rt.call(f"free({ref})")
    assert rt.kernel.live_count == rt.baseline_live
    assert rt.store.records_live == 0 and rt.engine.trail.guards == 0


# sub_callee's noarg fails, so send_class/3 succeeding shows it ran callee's
CALLEE = """
:- pce_begin_class(callee, object).
noarg(_O) :-> true.
intarg(_O, _N:int) :-> true.
termarg(_O, _T:prolog) :-> true.
answer(_O, R:int) :<- R = 7.
:- pce_pure_prolog(pick).
pick(_O, X) :-> member(X, [a, b, c]).
:- pce_end_class(callee).
:- pce_begin_class(sub_callee, callee).
noarg(_O) :-> fail.
:- pce_end_class(sub_callee).
"""


@pytest.mark.parametrize("call, answers", [
    ("send({o}, noarg)", 0),
    ("send({o}, intarg(1))", 1),
    ("send({o}, termarg(t(a, _)))", 1),
    ("get({o}, answer, R)", 1),
    ("send_class({o}, callee, noarg)", 1),
    ("send({o}, pick(X))", 3),
], ids=["noarg", "intarg", "termarg", "get", "send_class", "pure"])
def test_sends_and_gets_from_logic_compile_nothing(rt, monkeypatch, call, answers):
    # the implementation call arrives compiled, its predicate resolved:
    # the query is the only goal compiled at run time
    rt.consult_text(CALLEE)
    ref = term_text(once(rt, "new(O, sub_callee)")["O"])
    goal, _ = parse_term(call.format(o=ref))
    compiled = []
    compile_goal = Engine.compile_goal

    def counting(engine, g, ns):
        compiled.append(g)
        return compile_goal(engine, g, ns)

    resolved = []
    exec_goal = Machine.exec_goal

    def watching(m, g, ns, barrier):
        if g.name.endswith("_implementation"):
            resolved.append(g.entry is not None)
        return exec_goal(m, g, ns, barrier)

    monkeypatch.setattr(Engine, "compile_goal", counting)
    monkeypatch.setattr(Machine, "exec_goal", watching)
    assert sum(1 for _ in rt.engine.solve(goal)) == answers
    assert [g for g in compiled if g is not goal] == []
    assert resolved == [True]


PINGED = """
:- pce_begin_class(pinged, object).
variable(count, int, both, "pings so far").
initialise(O) :-> send(O, count, 0).
ping(O, N:int) :-> get(O, count, C), C1 is C + N, send(O, count, C1).
:- pce_end_class(pinged).
"""


@pytest.mark.parametrize("case", ["send_value", "new", "event"])
def test_native_calls_of_logic_methods_compile_nothing(rt, monkeypatch, case):
    # a call from native code runs the method's compiled call goal in a
    # nested solve: only a query is compiled at run time
    rt.consult_text(PINGED)
    rt.consult_program("my_box")
    ref = once(rt, "new(O, pinged)")["O"]
    box = once(rt, "new(B, my_box(10, 10))")["B"]
    compiled = []
    compile_goal = Engine.compile_goal

    def counting(engine, g, ns):
        compiled.append(g)
        return compile_goal(engine, g, ns)

    monkeypatch.setattr(Engine, "compile_goal", counting)
    if case == "send_value":
        obj = rt.kernel.fetch(ref.ref)
        for i in range(100):
            assert rt.kernel.send_value(obj, "ping", [i])
        assert obj.slots["count"] == sum(range(100))
    elif case == "new":
        assert once(rt, "new(P, pinged), get(P, count, C)")["C"] == 0
        assert len(compiled) == 1  # the query
        compiled.clear()
    else:
        assert toolkit.pump_event(rt, box, "area_enter", 1, 1)
        fill = rt.kernel.fetch(box.ref).slots["fill_pattern"]
        assert fill.slots["name"] is Atom("red")
    assert compiled == []


DEEP = 100_000

RECURSIVE = """
:- pce_begin_class(recursive, object).
down(O, N:int) :-> ( N > 0 -> N1 is N - 1, send(O, down(N1)) ; true ).
depth(O, N:int, D) :<- ( N > 0 -> N1 is N - 1, get(O, depth(N1), D0), D is D0 + 1 ; D = 0 ).
bind(_O) :-> X = f(Y), Y = 1, X = f(_).
:- pce_end_class(recursive).

spin(0, _) :- !.
spin(N, O) :- send(O, bind), N1 is N - 1, spin(N1, O).
"""


def test_send_and_get_recursion_is_limited_by_the_heap(rt):
    rt.consult_text(RECURSIVE)
    ref = term_text(once(rt, "new(O, recursive)")["O"])
    assert rt.call(f"send({ref}, down({DEEP}))")
    assert once(rt, f"get({ref}, depth({DEEP}), D)")["D"] == DEEP
    assert rt.hostdata.ledgers == [] and rt.engine.trail.guards == 0


def test_loop_of_classic_sends_keeps_the_trail_short(rt):
    rt.consult_text(RECURSIVE)
    ref = term_text(once(rt, "new(O, recursive)")["O"])
    goal, _ = parse_term(f"spin({DEEP}, {ref})")
    q = rt.engine.solve(goal)
    next(q)
    assert len(rt.engine.trail.entries) < 10
    q.close()
