import io

import pytest

from objlog import toolkit
from objlog.balls import bridge_kind
from objlog.bridge import Bridge
from objlog.engine import Machine
from objlog.errors import LogicError
from objlog.hostdata import HostData
from objlog.kernel import PROLOG_T, InstanceOf, Kernel, KMethod, LogicImpl, NativeImpl
from objlog.reader import parse_term
from objlog.runtime import Runtime
from objlog.terms import (Atom, ObjRef, TermStore, Var, is_variant, resolve_copy,
                          structural_eq, unify)
from objlog.writer import term_text
from conftest import count_compiles


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


REFUSING = """
:- pce_begin_class(refusing, object).
initialise(_O, N:int) :-> N > 0.
:- pce_end_class(refusing).
:- pce_begin_class(throwing, object).
initialise(_O) :-> throw(no_way).
:- pce_end_class(throwing).
"""


def test_new_fails_or_throws_as_its_logic_initialise_does(rt):
    # the partial instance is destroyed either way, and the ball of a
    # throwing initialise reaches the catch/3 around new/2
    rt.consult_text(REFUSING)
    created = rt.kernel.created_total
    live = rt.kernel.live_count
    assert once(rt, "new(O, refusing(1))") is not None
    assert once(rt, "new(O, refusing(0))") is None
    assert term_text(once(rt, "catch(new(O, throwing), E, true)")["E"]) == "no_way"
    assert rt.kernel.created_total == created + 3
    assert rt.kernel.live_count == live + 1
    assert rt.kernel.live_count_of("throwing") == 0
    assert rt.audit_refcounts() == [] and rt.hostdata.ledgers == []


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


# what a message to @prolog answers or raises when it names a builtin, a
# control construct, an unknown predicate or a user predicate, as it did
# when only a user predicate was called through its entry; the third column
# is the outcome under unknown=fail where it differs
@pytest.mark.parametrize("goal, answer, if_unknown_fails", [
    ("send(@prolog, no_pred_here(1))",
     "ball existence_error(procedure, user:(no_pred_here/1))", "fails"),
    ("send(@prolog, call, no_pred_here)",
     "ball existence_error(procedure, user:(no_pred_here/0))", "fails"),
    ("send(@prolog, pce_principal:even(2))",
     "ball existence_error(procedure, pce_principal:(even/1))", "fails"),
    ("send(@prolog, call, writeln, hi)", "succeeds", None),
    ("send(@prolog, between(1, 3, 2))", "succeeds", None),
    ("send(@prolog, between(1, 3, 5))", "fails", None),
    ("send(@prolog, fail)", "fails", None),
    ("send(@prolog, throw(x))", "ball x", None),
    ("send(@prolog, once, even(2))", "succeeds", None),
    ("send(@prolog, '\\\\+', even(3))", "succeeds", None),
    ("send(@prolog, ',', true, even(2))", "succeeds", None),
    ("send(@prolog, even(3))", "fails", None),
])
@pytest.mark.parametrize("unknown", ["error", "fail"])
def test_a_message_to_prolog_runs_as_the_goal_from_logic(goal, answer, if_unknown_fails, unknown):
    rt = Runtime(out=io.StringIO(), unknown=unknown)
    assert rt.consult_text("even(X) :- 0 =:= X mod 2.").ok
    if unknown == "fail" and if_unknown_fails is not None:
        answer = if_unknown_fails
    try:
        got = "succeeds" if rt.call(goal) else "fails"
    except LogicError as err:
        got = "ball " + term_text(err.term)
    assert got == answer
    assert rt.engine.trail.guards == 0 and rt.hostdata.ledgers == []


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


@pytest.mark.parametrize("goal, ball", [
    ("free(_)", "bridge_error(instantiation, free)"),
    ("free(foo)", "bridge_error(type_mismatch, context(free, object_reference, foo))"),
    ("pump_event(_, area_enter, 1, 1)", "bridge_error(instantiation, pump_event)"),
    ("pump_event(foo, area_enter, 1, 1)",
     "bridge_error(type_mismatch, context(pump_event, object_reference, foo))"),
    ("new(B, box(1, 1)), pump_event(B, _, 1, 1)", "bridge_error(instantiation, pump_event)"),
    ("new(B, box(1, 1)), pump_event(B, 3, 1, 1)",
     "bridge_error(type_mismatch, context(pump_event, event_kind, 3))"),
    ("new(B, box(1, 1)), pump_event(B, button_down, _, 1)",
     "bridge_error(instantiation, pump_event)"),
    ("new(B, box(1, 1)), pump_event(B, button_down, 1, _)",
     "bridge_error(instantiation, pump_event)"),
])
def test_free_and_pump_event_read_their_arguments_as_send_does(rt, goal, ball):
    assert err_text(rt, goal) == ball


@pytest.mark.parametrize("goal, ball", [
    ("new(O, box(1, 2)), send(O, S, 1)", "bridge_error(instantiation, message)"),
    ("new(O, box(1, 2)), send(O, S)", "bridge_error(instantiation, message)"),
    ("new(O, box(1, 2)), get(O, S, 1, R)", "bridge_error(instantiation, message)"),
    ("new(O, box(1, 2)), get(O, S, R)", "bridge_error(instantiation, message)"),
    ("new(O, box(1, 2)), send_class(O, C, width(3))",
     "bridge_error(instantiation, send_class)"),
    ("new(O, box(1, 2)), send_class(O, 3, width(3))",
     "bridge_error(type_mismatch, context(send_class, 3))"),
])
def test_an_unbound_selector_or_class_is_an_instantiation_ball(rt, goal, ball):
    assert err_text(rt, goal) == ball


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


def test_the_audit_counts_the_transient_hold_of_a_running_call(rt):
    # a native method audits while the box made from its compound argument
    # is held by the call's ledger alone
    k = rt.kernel
    seen = []

    def audit(rt_, obj, vals):
        seen.append((vals[0].oid, rt_.hostdata.transient_holds(), rt_.audit_refcounts()))
        return True

    cls = k.define_class("auditor", "object")
    k.define_method(cls, KMethod("check", "send", (InstanceOf("box"),), impl=NativeImpl(audit)))
    ref = term_text(once(rt, "new(A, auditor)")["A"])
    assert rt.call(f"send({ref}, check(box(3, 4)))")
    [(oid, holds, found)] = seen
    assert holds == {oid: 1} and found == []
    assert rt.kernel.live_count_of("box") == 0


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
objarg(_O, _B:box) :-> true.
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
    # the builtin enters the implementation predicate itself, through its
    # pinned entry: the query is the only goal compiled at run time
    rt.consult_text(CALLEE)
    ref = term_text(once(rt, "new(O, sub_callee)")["O"])
    goal, _ = parse_term(call.format(o=ref))
    entered = []
    enter = Machine.enter

    def watching(m, entry, args):
        if entry.name.endswith("_implementation"):
            entered.append(rt.engine.entry(entry.ns, entry.name, entry.arity) is entry)
        return enter(m, entry, args)

    compiled = count_compiles(monkeypatch)
    monkeypatch.setattr(Machine, "enter", watching)
    assert sum(1 for _ in rt.engine.solve(goal)) == answers
    assert [g for g in compiled if g is not goal] == []
    assert entered == [True]


PINGED = """
:- pce_begin_class(pinged, object).
variable(count, int, both, "pings so far").
initialise(O) :-> send(O, count, 0).
ping(O, N:int) :-> get(O, count, C), C1 is C + N, send(O, count, C1).
:- pce_end_class(pinged).
"""


CLICKED = """
clicked(K) :- retract(click_count(K, N)), N1 is N + 1, assert(click_count(K, N1)).
click_count(0, 0).
"""


@pytest.mark.parametrize("case", ["send_value", "new", "event", "callback"])
def test_native_calls_of_logic_methods_compile_nothing(rt, monkeypatch, case):
    # a call from native code runs the method's compiled call goal in a
    # nested solve, and a message to @prolog calls its user predicate the
    # same way: only a query is compiled at run time
    rt.consult_text(PINGED + CLICKED)
    rt.consult_program("my_box")
    ref = once(rt, "new(O, pinged)")["O"]
    box = once(rt, "new(B, my_box(10, 10))")["B"]
    button = once(rt, "new(B, button(b0, message(@prolog, clicked, 0)))")["B"]
    compiled = count_compiles(monkeypatch)
    if case == "send_value":
        obj = rt.kernel.fetch(ref.ref)
        for i in range(100):
            assert rt.kernel.send_value(obj, "ping", [i])
        assert obj.slots["count"] == sum(range(100))
    elif case == "new":
        assert once(rt, "new(P, pinged), get(P, count, C)")["C"] == 0
        assert len(compiled) == 1  # the query
        compiled.clear()
    elif case == "event":
        assert toolkit.pump_event(rt, box, "area_enter", 1, 1)
        fill = rt.kernel.fetch(box.ref).slots["fill_pattern"]
        assert fill.slots["name"] is Atom("red")
    else:
        for _ in range(100):
            assert toolkit.pump_event(rt, button, "button_down", 0, 0)
        [(head, _body)] = rt.engine.clauses_of("user", "click_count", 2)
        assert head.args == (0, 100)
    assert compiled == []


NATIVE_CALL = ["invoke_send", "logic_send"]


@pytest.mark.parametrize("call, seen", [
    ("send({o}, noarg)", []),
    ("send({o}, intarg(1))", []),
    ("send({o}, termarg(t(a, _)))", []),
    ("get({o}, answer, R)", []),
    ("send_class({o}, callee, noarg)", []),
    ("send_value", NATIVE_CALL),
    ("new", NATIVE_CALL),
], ids=["noarg", "intarg", "termarg", "get", "send_class", "send_value", "new"])
def test_only_native_calls_reach_the_kernels_logic_hooks(rt, monkeypatch, call, seen):
    # a classic send or get from logic builds its implementation goal in
    # the bridge; the kernel's logic dispatch and the bridge's logic_send
    # and logic_get serve native callers
    rt.consult_text(CALLEE + PINGED)
    obj = rt.kernel.fetch(once(rt, "new(O, callee)")["O"].ref)
    calls = []

    def hook(name, inner):
        def counting(*args):
            calls.append(name)
            return inner(*args)
        return counting

    def invoke(name, inner):
        def logic_only(k, o, method, vals):
            if type(method.impl) is LogicImpl:
                calls.append(name)
            return inner(k, o, method, vals)
        return logic_only

    for name in ("logic_send", "logic_get"):
        monkeypatch.setattr(rt.bridge, name, hook(name, getattr(rt.bridge, name)))
    for name in ("invoke_send", "invoke_get"):
        monkeypatch.setattr(Kernel, name, invoke(name, getattr(Kernel, name)))
    if call == "send_value":
        assert rt.kernel.send_value(obj, "intarg", [1])
    elif call == "new":
        assert once(rt, "new(P, pinged)") is not None
    else:
        assert rt.once(call.format(o=f"@{obj.oid}")) is not None
    assert calls == seen


def test_the_kernel_calls_the_bridge_it_finds_at_each_call(rt, monkeypatch):
    # the kernel keeps no copy of the bridge's methods: a patch of the
    # class made after the runtime was built sees a native send
    rt.consult_text(PINGED)
    obj = rt.kernel.fetch(once(rt, "new(P, pinged)")["P"].ref)
    seen = []
    logic_send = Bridge.logic_send

    def counting(bridge, method, o, values):
        seen.append((method.selector, o is obj, list(values)))
        return logic_send(bridge, method, o, values)

    monkeypatch.setattr(Bridge, "logic_send", counting)
    assert rt.kernel.send_value(obj, "ping", [3])
    assert seen == [("ping", True, [3])]
    assert obj.slots["count"] == 3


def _counting(monkeypatch, owner, name, counts):
    inner = getattr(owner, name)

    def counting(*args):
        counts[name] = counts.get(name, 0) + 1
        return inner(*args)

    monkeypatch.setattr(owner, name, counting)


@pytest.mark.parametrize("case, scopes, frames", [
    ("send({area}, normalise)", 1, 0),
    ("send({o}, intarg(1))", 1, 0),
    ("send({o}, termarg(t(a, _)))", 1, 1),
    # the call's, closed before the method runs, then its result step's
    ("get({o}, answer, R)", 2, 0),
    # ping's get and send from logic, each its own scope; none of its own
    ("send_value", 2, 0),
    # the pump's, which holds the event, then the handler's two sends
    # from logic, the second holding `colour(red)`; none for the nested call
    ("event", 3, 2),
    # the pump's only: the message to @prolog opens none
    ("callback", 1, 1),
], ids=["native", "classic_int", "classic_prolog", "classic_get", "send_value",
        "event", "callback"])
def test_scopes_and_frames_of_each_crossing(rt, monkeypatch, case, scopes, frames):
    # a send, get or send_class from logic opens one scope, whichever path
    # it takes; a native->logic call and a callback open none of their own
    rt.consult_text(CALLEE + PINGED + CLICKED)
    rt.consult_program("my_box")
    objs = {name: rt.kernel.fetch(once(rt, f"new(O, {spec})")["O"].ref) for name, spec in [
        ("o", "callee"), ("pinged", "pinged"), ("area", "area(0, 0, 10, 10)"),
        ("box", "my_box(10, 10)"), ("button", "button(b0, message(@prolog, clicked, 0))")]}
    counts = {}
    for owner, name in ((HostData, "open_scope"), (HostData, "close_scope"),
                        (TermStore, "open_frame")):
        _counting(monkeypatch, owner, name, counts)
    if case == "send_value":
        assert rt.kernel.send_value(objs["pinged"], "ping", [1])
    elif case == "event":
        assert toolkit.pump_event(rt, objs["box"], "area_enter", 1, 1)
    elif case == "callback":
        assert toolkit.pump_event(rt, objs["button"], "button_down", 0, 0)
    else:
        assert rt.once(case.format(**{k: f"@{v.oid}" for k, v in objs.items()})) is not None
    assert counts.get("open_scope", 0) == counts.get("close_scope", 0) == scopes
    assert counts.get("open_frame", 0) == frames


@pytest.mark.parametrize("call", [
    "send({area}, normalise)",
    "send({area}, x, 3)",
    "send({o}, intarg(1))",
    "send({o}, pick(X))",
    "send_class({o}, callee, noarg)",
    "get({o}, answer, R)",
    "get({area}, x, X)",
    "send({o}, intarg(a))",
], ids=["native", "slot", "classic", "pure", "send_class", "get", "slot_get", "mismatch"])
def test_each_send_and_get_dispatches_once(rt, monkeypatch, call):
    rt.consult_text(CALLEE)
    refs = {"o": term_text(once(rt, "new(O, callee)")["O"]),
            "area": term_text(once(rt, "new(A, area(0, 0, 10, 10))")["A"])}
    counts = {}
    _counting(monkeypatch, Bridge, "_dispatch", counts)
    query, _ = parse_term(f"catch({call.format(**refs)}, _, true)")
    for _ in rt.engine.solve(query):
        pass
    assert counts == {"_dispatch": 1}


PAIRED = FAILER + """
:- pce_begin_class(paired, object).
pair(_O, _T:prolog, _N:int) :-> true.
with_failer(_O, _T:prolog, _F:failer) :-> true.
:- pce_end_class(paired).
"""


@pytest.mark.parametrize("call, ball", [
    ("pair(t(a), x)", "type_mismatch"),
    ("with_failer(t(a), failer(1))", None),
], ids=["type_mismatch", "initialise_fails"])
def test_scope_closes_when_a_later_argument_fails(rt, call, ball):
    # the first argument is wrapped, which opens the call's frame; the
    # second fails its check or its initialise, and the scope still closes
    rt.consult_text(PAIRED)
    ref = term_text(once(rt, "new(O, paired)")["O"])
    live = rt.hostdata.wrappers_live
    if ball is None:
        assert rt.once(f"send({ref}, {call})") is None
    else:
        assert err_kind(rt, f"send({ref}, {call})") == ball
    assert rt.hostdata.ledgers == [] and rt.store.current_frame() is None
    assert rt.hostdata.wrappers_live == live and rt.audit_refcounts() == []
    assert rt.kernel.live_count_of("failer") == 0


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


# -- a send whose conversion made no scope commits as once/1 does ------------------------


@pytest.mark.parametrize("call, frames", [
    ("send({o}, noarg)", 0),
    ("send({o}, intarg(1))", 0),
    ("send_class({o}, callee, noarg)", 0),
    ("send({o}, termarg(f(x)))", 0),
    ("send({o}, objarg(box(1, 1)))", 1),
    ("get({o}, answer, R)", 0),
], ids=["noarg", "intarg", "send_class", "termarg", "objarg", "get"])
def test_only_a_get_or_a_send_that_made_a_frame_runs_in_a_scope_frame(
        rt, monkeypatch, call, frames):
    # a send or get whose scope holds no transient object closes it before
    # the method runs, discarding a `prolog` argument's wrapper, whose term
    # is in the call already, and a get converts its result in a step after
    # the call; a send or get holding an object built from an argument
    # keeps the frame
    rt.consult_text(CALLEE)
    ref = term_text(once(rt, "new(O, callee)")["O"])
    counts = {}
    _counting(monkeypatch, Machine, "call_scoped", counts)
    assert rt.once(call.format(o=ref)) is not None
    assert counts.get("call_scoped", 0) == frames


BAD_ANSWER = """
:- pce_begin_class(bad_answer, object).
bad(_O, V:int) :<- V = abc.
:- pce_end_class(bad_answer).
:- pce_begin_class(bad_boxed_answer, object).
bad(_O, _B:box, V:int) :<- V = abc.
:- pce_end_class(bad_boxed_answer).
"""


@pytest.mark.parametrize("cls, call, frames", [
    ("bad_answer", "get({o}, bad, _)", 0),
    ("bad_boxed_answer", "get({o}, bad(box(1, 1)), _)", 1),
], ids=["committed", "scope_frame"])
def test_a_get_whose_answer_fails_its_type_closes_every_scope(
        rt, monkeypatch, cls, call, frames):
    # the exit step's conversion raises; the step still ends the scope the
    # answer converted in, its own or the one the frame kept open
    rt.consult_text(BAD_ANSWER)
    ref = term_text(once(rt, f"new(O, {cls})")["O"])
    counts = {}
    _counting(monkeypatch, Machine, "call_scoped", counts)
    assert err_text(rt, call.format(o=ref)) == \
        "bridge_error(type_mismatch, context(bad, 0, int, abc))"
    assert counts.get("call_scoped", 0) == frames
    assert rt.hostdata.ledgers == [] and rt.store.current_frame() is None
    assert rt.audit_refcounts() == []


COMMITTED = """
:- pce_begin_class(committed, object).
two(_O) :-> send(@prolog, write, one).
probe(_O) :-> open_scopes(0).
nope(_O) :-> fail.
throws(_O) :-> throw(oops).
makes(_O) :-> new(S, scoped), send(S, data, f(x, _)), free(S),
               new(K, scoped), send(K, data, g(y)).
measures(_O, B:box) :-> get(B, width, 10).
:- pce_end_class(committed).
"""


@pytest.fixture
def committed(rt):
    # open_scopes/1 reads the number of host-data scopes open as it runs
    rt.engine.register_builtin(
        "open_scopes", 1, lambda m, args, ns: unify(args[0], len(rt.hostdata.ledgers),
                                                    m.engine.trail))
    rt.consult_text(SCOPED + COMMITTED)
    return term_text(once(rt, "new(O, committed)")["O"])


def test_a_send_that_converts_nothing_leaves_no_choice_point(rt, committed):
    goal, _ = parse_term(f"send({committed}, probe)")
    q = rt.engine.solve(goal)
    assert sum(1 for _ in q) == 1
    assert q.machine.peak_cps == 0


def test_a_send_that_converts_nothing_commits_to_its_first_clause(rt, committed):
    rt.call("assertz(pce_principal:(send_implementation('committed->two', two, _) :- "
            "send(@prolog, write, two)))")
    assert len(rt.engine.clauses_of("pce_principal", "send_implementation", 3)) > 1
    assert rt.once(f"send({committed}, two), fail") is None
    assert rt.out.getvalue() == "one"


def test_a_send_that_converts_nothing_fails_and_throws_with_no_scope_open(rt, committed):
    assert rt.once(f"send({committed}, nope)") is None
    sol = rt.once(f"catch(send({committed}, throws), E, open_scopes(N))")
    assert term_text(sol["E"]) == "oops" and sol["N"] == 0
    assert rt.hostdata.ledgers == [] and rt.engine.trail.guards == 0


def test_an_object_built_from_an_argument_lives_until_the_body_returns(rt, committed):
    # the send's transient hold made its scope, which the frame keeps open
    assert rt.call(f"send({committed}, measures(box(10, 20)))")
    assert rt.kernel.live_count_of("box") == 0 and rt.audit_refcounts() == []


def test_a_body_that_converts_keeps_every_object_counted(rt, committed):
    # the send has closed its scope, so each crossing in its body opens its own
    assert rt.call(f"send({committed}, makes)")
    assert rt.audit_refcounts() == []
    assert rt.kernel.live_count_of("scoped") == 1
    assert rt.store.records_live == 1 and rt.hostdata.wrappers_live == 1


# -- a send or get enters its method's clauses in place --------------------------------

SINK = """
:- pce_begin_class(sink, object).
variable(data, prolog, both, "the last term stored").
stores(O, T:prolog) :-> send(O, data, T).
fails(O, T:prolog) :-> send(O, data, T), fail.
throws(O, T:prolog) :-> send(O, data, T), throw(oops).
cuts(_O) :-> member(_, [a, b]), !.
cut(_O, X) :<- member(X, [a, b]), !.
:- pce_pure_prolog(pick).
pick(_O, X) :-> member(X, [a, b]).
:- pce_pure_prolog(pick_one).
pick_one(_O, X) :-> member(X, [a, b]), !.
:- pce_end_class(sink).
"""


@pytest.mark.parametrize("method, answer", [
    ("stores", "true"), ("fails", "false"), ("throws", "oops"),
])
def test_a_prolog_argument_of_a_classic_send_leaves_nothing_behind(rt, method, answer):
    # the wrapper made for the argument is discarded before the body runs;
    # the body's own slot send wraps and records the term it stores
    rt.consult_text(SINK)
    ref = term_text(once(rt, "new(O, sink)")["O"])
    assert rt.call(f"send({ref}, data, old(x))")
    live = rt.hostdata.stats()["wrappers-live"]
    sol = rt.once(f"T = t(A, f(A, _), [x]), "
                  f"catch((send({ref}, {method}(T)) -> R = true ; R = false), R, true)")
    assert term_text(sol["R"]) == answer
    assert rt.hostdata.ledgers == [] and rt.audit_refcounts() == []
    assert rt.hostdata.stats()["wrappers-live"] == live
    assert is_variant(once(rt, f"get({ref}, data, D)")["D"], t("t(A, f(A, _), [x])"))


@pytest.mark.parametrize("call", [
    "send({o}, cuts)", "get({o}, cut, _)", "send({o}, pick_one(_))",
], ids=["classic_send", "classic_get", "pure"])
def test_a_cut_in_a_method_body_stays_local(rt, call):
    # a cut that reached past the entry would prune the caller's member/2
    rt.consult_text(SINK)
    ref = term_text(once(rt, "new(O, sink)")["O"])
    assert [s["N"] for s in sols(rt, f"member(N, [1, 2, 3]), {call.format(o=ref)}")] == \
        [1, 2, 3]


def test_a_pure_method_entered_from_the_builtin_enumerates_its_clauses(rt):
    rt.consult_text(SINK)
    ref = term_text(once(rt, "new(O, sink)")["O"])
    rt.call("assertz(pce_principal:(send_implementation('sink->pick', pick(X), _) :- "
            "user:member(X, [d, e])))")
    assert [term_text(s["X"]) for s in sols(rt, f"send({ref}, pick(X))")] == \
        ["a", "b", "d", "e"]


@pytest.mark.parametrize("call", [
    "catch(send({o}, explode(t(a, _))), E, true)",
    "catch(get({o}, explode(t(a, _)), _), E, true)",
    "catch(send({o}, relay), E, true)",
], ids=["send", "get", "send_value"])
def test_a_native_exception_is_caught_with_every_scope_closed(rt, call):
    # the term argument opens a scope's frame; relay reaches the native
    # method from logic through Kernel.send_value
    k = rt.kernel
    cls = k.define_class("exploder", "object")
    explode = NativeImpl(lambda rt_, o, v: 1 // 0)
    k.define_method(cls, KMethod("explode", "send", (PROLOG_T,), impl=explode))
    k.define_method(cls, KMethod("explode", "get", (PROLOG_T,), impl=explode))
    k.define_method(cls, KMethod("relay", "send", impl=NativeImpl(
        lambda rt_, o, v: rt_.kernel.send_value(o, "explode", [Atom("x")]))))
    ref = term_text(once(rt, "new(O, exploder)")["O"])
    sol = rt.once(call.format(o=ref))
    assert term_text(sol["E"]) == \
        "bridge_error(native_exception, context(exploder, explode, 'ZeroDivisionError'))"
    assert rt.hostdata.ledgers == [] and rt.store.current_frame() is None
    assert rt.hostdata.wrappers_live == 0 and rt.audit_refcounts() == []


@pytest.mark.parametrize("call", [
    "catch(boom, E, true)",
    "catch(send(@prolog, boom), E, true)",
    "catch(send({o}, callback), E, true)",
], ids=["logic", "prolog_object", "native_callback"])
def test_a_python_error_raised_in_logic_is_no_native_exception(rt, call):
    # boom/0 is a builtin with a bug; a message to @prolog and a native
    # method that calls back into logic pass its error on as logic does
    rt.engine.register_builtin("boom", 0, lambda m, args, ns: 1 // 0)
    k = rt.kernel
    cls = k.define_class("caller", "object")
    k.define_method(cls, KMethod("callback", "send", impl=NativeImpl(
        lambda rt_, o, v: rt_.bridge.callback_call("boom", []))))
    ref = term_text(once(rt, "new(O, caller)")["O"])
    with pytest.raises(ZeroDivisionError) as info:
        rt.once(call.format(o=ref))
    assert info.value.__cause__ is None
    assert rt.hostdata.ledgers == [] and rt.store.current_frame() is None
    assert rt.audit_refcounts() == []


# -- a classic get commits as a send does, with no frame ---------------------------------

GETTER = """
:- pce_begin_class(getter, object).
nope(_O, _R) :<- fail.
throws(_O, _R) :<- throw(oops).
binds(_O, T:prolog, R) :<- T = t(X, _), X = bound, R = done.
made(_O, R) :<- R = box(2, 3).
wide(_O, B:box, W:int) :<- get(B, width, W).
:- pce_end_class(getter).
"""


@pytest.fixture
def getter(rt, monkeypatch):
    # the ref, and the number of scope frames the gets have pushed
    rt.consult_text(GETTER)
    frames = {}
    _counting(monkeypatch, Machine, "call_scoped", frames)
    return term_text(once(rt, "new(O, getter)")["O"]), frames


def test_a_get_whose_body_fails_fails(rt, getter):
    ref, frames = getter
    assert rt.once(f"get({ref}, nope, _)") is None
    assert rt.audit_refcounts() == [] and frames == {}


def test_a_native_call_of_a_get_whose_body_fails_answers_none(rt, getter):
    ref, frames = getter
    k = rt.kernel
    obj = k.fetch(int(ref[1:]))
    assert k.invoke_get(obj, k.method_of(obj, "nope", "get"), []) is None
    assert rt.audit_refcounts() == [] and frames == {}


def test_a_get_whose_body_throws_is_caught(rt, getter):
    ref, frames = getter
    assert term_text(rt.once(f"catch(get({ref}, throws, _), E, true)")["E"]) == "oops"
    assert rt.audit_refcounts() == [] and frames == {}


def test_a_get_that_binds_its_prolog_argument_binds_the_callers_term(rt, getter):
    ref, frames = getter
    live = rt.hostdata.stats()["wrappers-live"]
    sol = rt.once(f"T = t(A, B), get({ref}, binds(T), R)")
    assert term_text(sol["A"]) == "bound" and term_text(sol["R"]) == "done"
    assert type(sol["B"]) is Var
    assert rt.hostdata.stats()["wrappers-live"] == live
    assert rt.audit_refcounts() == [] and frames == {}


def test_a_compound_answer_for_an_untyped_result_is_a_transient_object(rt, getter):
    # the result step's own scope holds the box made from the answer, and
    # its end destroys it
    ref, frames = getter
    created = rt.kernel.created_total
    answer = once(rt, f"get({ref}, made, R)")["R"]
    assert type(answer) is ObjRef
    assert rt.kernel.created_total == created + 1
    assert rt.kernel.live_count_of("box") == 0
    assert rt.audit_refcounts() == [] and frames == {}


def test_a_get_that_builds_an_object_from_an_argument_keeps_its_frame(rt, getter):
    ref, frames = getter
    assert once(rt, f"get({ref}, wide(box(4, 5)), W)")["W"] == 4
    assert frames == {"call_scoped": 1}
    assert rt.kernel.live_count_of("box") == 0 and rt.audit_refcounts() == []
