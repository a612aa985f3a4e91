import pytest

from objlog.balls import bridge_kind
from objlog.errors import LogicError, RuntimeBugError, StaleTermRefError
from objlog.kernel import (
    ANY_T,
    ATOM_T,
    FLOAT_T,
    INT_T,
    PROLOG_T,
    InstanceOf,
    KMethod,
    NativeImpl,
    NilOr,
    SlotDef,
    parse_type_term,
)
from objlog.reader import parse_term
from objlog.terms import Atom
from objlog.toolkit import EVENT_PARENT, event_is_a
from objlog.writer import term_text


def t(text):
    return parse_term(text)[0]


# -- class table -----------------------------------------------------------------


def test_define_class_and_chain(rt):
    k = rt.kernel
    c = k.define_class("thing", "object")
    d = k.define_class("gadget", "thing")
    assert [x.name for x in d.chain()] == ["gadget", "thing", "object"]
    assert d.is_a("object") and not c.is_a("gadget")


def test_duplicate_class_is_error(rt):
    rt.kernel.define_class("dup", "object")
    with pytest.raises(LogicError):
        rt.kernel.define_class("dup", "object")


def test_self_super_is_unknown_class(rt):
    with pytest.raises(LogicError) as err:
        rt.kernel.define_class("selfish", "selfish")
    assert bridge_kind(err.value) == "unknown_class"


def test_slot_accessors_generated_by_access_mode(rt):
    k = rt.kernel
    c = k.define_class("acc", "object")
    k.define_slot(c, SlotDef("both_slot", INT_T, "both"))
    k.define_slot(c, SlotDef("get_slot", INT_T, "get"))
    k.define_slot(c, SlotDef("send_slot", INT_T, "send"))
    k.define_slot(c, SlotDef("none_slot", INT_T, "none"))
    assert "both_slot" in c.send_methods and "both_slot" in c.get_methods
    assert "get_slot" in c.get_methods and "get_slot" not in c.send_methods
    assert "send_slot" in c.send_methods and "send_slot" not in c.get_methods
    assert "none_slot" not in c.send_methods and "none_slot" not in c.get_methods


def test_get_only_slot_rejects_send(rt):
    k = rt.kernel
    c = k.define_class("ro", "object")
    k.define_slot(c, SlotDef("r", INT_T, "get"))
    obj = k.instantiate(c, [])
    with pytest.raises(LogicError) as err:
        k.send_value(obj, "r", [1])
    assert bridge_kind(err.value) == "unknown_method"
    k.release(obj)


def test_duplicate_slot_anywhere_on_chain(rt):
    k = rt.kernel
    c = k.define_class("s1", "object")
    k.define_slot(c, SlotDef("v", INT_T))
    d = k.define_class("s2", "s1")
    with pytest.raises(LogicError):
        k.define_slot(d, SlotDef("v", INT_T))


def test_slot_defined_on_an_ancestor_reaches_later_instances(rt):
    k = rt.kernel
    base = k.define_class("lay_base", "object")
    k.define_slot(base, SlotDef("a", INT_T))
    sub = k.define_class("lay_sub", "lay_base")
    k.define_slot(sub, SlotDef("b", INT_T))
    old = k.instantiate(sub, [])
    assert list(old.slots) == ["a", "b"]
    k.define_slot(base, SlotDef("c", ANY_T))
    new = k.instantiate(sub, [])
    assert list(new.slots) == [s.name for s in sub.all_slots()] == ["a", "c", "b"]
    assert all(v is k.nil for v in new.slots.values())
    assert list(old.slots) == ["a", "b"]
    plain = k.instantiate(base, [])
    assert list(plain.slots) == ["a", "c"]
    for obj in (old, new, plain):
        k.release(obj)


def test_method_resolution_walks_up(rt):
    k = rt.kernel
    box = k.find_class("box")
    my = k.define_class("my_box_native", "box")
    assert k.resolve_method(my, "fill_pattern", "send") is not None
    assert k.resolve_method(my, "fill_pattern", "send") is \
        k.resolve_method(box, "fill_pattern", "send")
    assert k.resolve_method(box, "no_such", "send") is None


def test_shadowing_three_level_chain(rt):
    k = rt.kernel
    log = []

    def impl(tag):
        return NativeImpl(lambda rt_, o, v, _tag=tag: (log.append(_tag), True)[1])

    a = k.define_class("lvl_a", "object")
    b = k.define_class("lvl_b", "lvl_a")
    c = k.define_class("lvl_c", "lvl_b")
    k.define_method(a, KMethod("speak", "send", impl=impl("a")))
    k.define_method(c, KMethod("speak", "send", impl=impl("c")))
    for cls, expect in ((a, "a"), (b, "a"), (c, "c")):
        obj = k.instantiate(cls, [])
        log.clear()
        assert k.send_value(obj, "speak", [])
        assert log == [expect]
        k.release(obj)
    # super dispatch from the shadowing class reaches the shadowed one
    obj = k.instantiate(c, [])
    log.clear()
    assert k.invoke_send(obj, k.resolve_from(obj, "lvl_b", "speak", "send"), [])
    assert log == ["a"]
    k.release(obj)


def test_dispatch_is_pure_function_of_class_table(rt):
    k = rt.kernel
    box = k.find_class("box")
    m1 = k.resolve_method(box, "event", "send")
    m2 = k.resolve_method(box, "event", "send")
    assert m1 is m2


# -- the resolution memo: each change to a class table reaches the next send --------


def _logged(log, tag):
    return NativeImpl(lambda rt_, o, v: (log.append(tag), True)[1])


def test_a_replaced_method_reaches_the_next_send(rt):
    k = rt.kernel
    log = []
    cls = k.define_class("memo_replaced", "object")
    k.define_method(cls, KMethod("speak", "send", impl=_logged(log, "old")))
    obj = k.instantiate(cls, [])
    assert k.send_value(obj, "speak", [])
    k.define_method(cls, KMethod("speak", "send", impl=_logged(log, "new")), replace=True)
    assert k.send_value(obj, "speak", [])
    assert log == ["old", "new"]
    k.release(obj)


def test_a_method_defined_between_shadows_what_a_subclass_resolved(rt):
    k = rt.kernel
    log = []
    a = k.define_class("memo_a", "object")
    b = k.define_class("memo_b", "memo_a")
    c = k.define_class("memo_c", "memo_b")
    k.define_method(a, KMethod("speak", "send", impl=_logged(log, "a")))
    obj = k.instantiate(c, [])
    ref = f"@{obj.oid}"
    assert rt.call(f"send({ref}, speak)") and k.send_value(obj, "speak", [])
    assert rt.call(f"send_class({ref}, memo_b, speak)")
    k.define_method(b, KMethod("speak", "send", impl=_logged(log, "b")))
    assert rt.call(f"send({ref}, speak)") and k.send_value(obj, "speak", [])
    assert rt.call(f"send_class({ref}, memo_b, speak)")
    assert log == ["a", "a", "a", "b", "b", "b"]
    k.release(obj)


def test_a_slot_defined_later_reaches_the_next_get(rt):
    # the slot's accessors shadow the inherited get-method already resolved
    k = rt.kernel
    base = k.define_class("memo_base", "object")
    k.define_method(base, KMethod("v", "get", impl=NativeImpl(lambda rt_, o, v: 0)))
    sub = k.define_class("memo_sub", "memo_base")
    obj = k.instantiate(sub, [])
    ref = f"@{obj.oid}"
    assert rt.once(f"get({ref}, v, V)")["V"] == 0
    k.define_slot(sub, SlotDef("v", INT_T))
    assert rt.once(f"send({ref}, v(5)), get({ref}, v, V)")["V"] == 5
    k.release(obj)


def test_pure_prolog_applied_after_a_classic_send_reaches_the_next_send(rt):
    rt.consult_text("""
    :- pce_begin_class(memo_picker, object).
    pick(_O, X:prolog) :-> member(X, [a, b, c]).
    :- pce_end_class(memo_picker).
    """)
    ref = term_text(rt.once("new(P, memo_picker)")["P"])
    assert len(list(rt.query(f"send({ref}, pick(X))"))) == 1
    rt.consult_text("""
    :- pce_begin_class(memo_picker, object).
    :- pce_pure_prolog(pick).
    :- pce_end_class(memo_picker).
    """)
    assert len(list(rt.query(f"send({ref}, pick(X))"))) == 3


def test_an_unknown_selector_is_unknown_at_every_send(rt):
    k = rt.kernel
    cls = k.define_class("memo_unknown", "object")
    obj = k.instantiate(cls, [])
    for _ in range(2):
        with pytest.raises(LogicError) as err:
            rt.once(f"send(@{obj.oid}, later)")
        assert bridge_kind(err.value) == "unknown_method"
        with pytest.raises(LogicError) as err:
            k.send_value(obj, "later", [])
        assert bridge_kind(err.value) == "unknown_method"
    k.define_method(cls, KMethod("later", "send", impl=NativeImpl(lambda rt_, o, v: True)))
    assert rt.call(f"send(@{obj.oid}, later)")
    k.release(obj)


# -- a Python exception from a native method ------------------------------------------


def _raising(k, exc):
    cls = k.define_class("exploder", "object")

    def fn(rt_, o, v):
        raise exc

    k.define_method(cls, KMethod("explode", "send", impl=NativeImpl(fn)))
    k.define_method(cls, KMethod("explode", "get", impl=NativeImpl(fn)))
    return k.instantiate(cls, [])


@pytest.mark.parametrize("kind", ["send", "get"])
def test_a_native_exception_is_a_bridge_error_ball(rt, kind):
    k = rt.kernel
    obj = _raising(k, ZeroDivisionError("division by zero"))
    method = k.method_of(obj, "explode", kind)
    invoke = k.invoke_send if kind == "send" else k.invoke_get
    with pytest.raises(LogicError) as err:
        invoke(obj, method, [])
    assert term_text(err.value.term) == \
        "bridge_error(native_exception, context(exploder, explode, 'ZeroDivisionError'))"
    assert type(err.value.__cause__) is ZeroDivisionError
    k.release(obj)


@pytest.mark.parametrize("exc", [
    LogicError(Atom("oops")),
    RuntimeBugError("a bug trap"),
    StaleTermRefError("a stale reference"),
    RecursionError("too deep"),
    KeyboardInterrupt(),
], ids=lambda e: type(e).__name__)
def test_balls_bug_traps_store_errors_and_non_exceptions_pass_as_they_are(rt, exc):
    k = rt.kernel
    obj = _raising(k, exc)
    with pytest.raises(type(exc)) as err:
        k.send_value(obj, "explode", [])
    assert err.value is exc
    k.release(obj)


# -- soft typing ----------------------------------------------------------------------


def test_type_check_int_to_float_widening(rt):
    assert rt.kernel.type_check_value(3, FLOAT_T) == 3.0
    assert type(rt.kernel.type_check_value(3, FLOAT_T)) is float


def test_type_check_rejections(rt):
    k = rt.kernel
    with pytest.raises(LogicError) as err:
        k.type_check_value(Atom("a"), INT_T)
    assert bridge_kind(err.value) == "type_mismatch"
    with pytest.raises(LogicError):
        k.type_check_value(1.5, INT_T)  # no float->int narrowing
    with pytest.raises(LogicError):
        k.type_check_value(1, ATOM_T)


def test_type_check_instance_of_accepts_subclass(rt):
    k = rt.kernel
    my = k.define_class("my_box_t", "box")
    obj = k.instantiate(my, [10, 10])
    assert k.type_check_value(obj, InstanceOf("box")) is obj
    assert k.type_check_value(obj, InstanceOf("graphical")) is obj
    with pytest.raises(LogicError):
        k.type_check_value(obj, InstanceOf("picture"))
    k.release(obj)


def test_type_check_nil_or(rt):
    k = rt.kernel
    spec = NilOr(InstanceOf("colour"))
    assert k.type_check_value(k.nil, spec) is k.nil
    col = k.instantiate(k.find_class("colour"), [Atom("red")])
    assert k.type_check_value(col, spec) is col
    with pytest.raises(LogicError):
        k.type_check_value(7, spec)
    k.release(col)


def test_prolog_spec_admits_everything(rt):
    k = rt.kernel
    for v in (1, 1.5, Atom("x"), k.nil):
        assert k.type_check_value(v, PROLOG_T) is v or v == k.type_check_value(v, PROLOG_T)


def test_parse_type_term():
    assert parse_type_term(t("int")) is INT_T
    assert parse_type_term(t("prolog")) is PROLOG_T
    assert type(parse_type_term(t("event"))) is InstanceOf
    spec = parse_type_term(t("nil_or(colour)"))
    assert type(spec) is NilOr and spec.inner.cname == "colour"
    with pytest.raises(LogicError):
        parse_type_term(t("f(a, b)"))


def test_arity_mismatch_is_error(rt):
    k = rt.kernel
    box = k.instantiate(k.find_class("box"), [5, 5])
    with pytest.raises(LogicError) as err:
        k.send_value(box, "width", [1, 2])
    assert bridge_kind(err.value) == "type_mismatch"
    k.release(box)


# -- lifetime --------------------------------------------------------------------------


def test_release_creation_hold_destroys(rt):
    k = rt.kernel
    before = k.live_count
    obj = k.instantiate(k.find_class("point"), [1, 2])
    assert k.live_count == before + 1
    k.release(obj)
    assert obj.freed
    assert k.live_count == before


def test_stored_object_survives_transient_release(rt):
    k = rt.kernel
    holder = k.instantiate(k.find_class("box"), [5, 5])
    col = k.instantiate(k.find_class("colour"), [Atom("red")])
    k.slot_set(holder, "fill_pattern", col)
    k.release(col)  # drop the creation hold
    assert not col.freed and col.refcount == 1
    # overwriting the slot releases it
    k.slot_set(holder, "fill_pattern", k.nil)
    assert col.freed
    k.release(holder)


def test_destroy_then_use_is_freed_error(rt):
    k = rt.kernel
    obj = k.instantiate(k.find_class("point"), [0, 0])
    k.destroy(obj)
    with pytest.raises(LogicError) as err:
        k.send_value(obj, "x", [1])
    assert bridge_kind(err.value) == "freed_object"
    with pytest.raises(LogicError):
        k.destroy(obj)  # double free


def test_freed_objects_leave_the_table(rt):
    before = len(rt.kernel.objects)
    for _ in range(20_000):
        assert rt.call("new(B, box(1, 1)), free(B)")
    assert len(rt.kernel.objects) == before
    ref = rt.once("new(B, box(1, 1))")["B"]
    assert rt.call(f"free(@{ref.ref})")
    with pytest.raises(LogicError) as err:
        rt.kernel.fetch(ref.ref)
    assert bridge_kind(err.value) == "freed_object"
    for oid in (0, -1, 999_999):
        with pytest.raises(LogicError) as err:
            rt.kernel.fetch(oid)
        assert bridge_kind(err.value) == "stale_reference"


def test_lock_prevents_collection(rt):
    k = rt.kernel
    obj = k.instantiate(k.find_class("point"), [0, 0])
    k.lock(obj)
    k.release(obj)  # creation hold gone, lock remains
    assert not obj.freed
    k.unlock(obj)
    assert obj.freed


def test_nil_is_not_destroyable(rt):
    with pytest.raises(LogicError) as err:
        rt.kernel.destroy(rt.kernel.nil)
    assert "permission_error" in str(err.value)


def test_initialise_failure_leaves_nothing(rt):
    k = rt.kernel
    cls = k.define_class("flaky", "object")
    k.define_method(cls, KMethod("initialise", "send",
                                 impl=NativeImpl(lambda rt_, o, v: False)))
    before = k.live_count
    assert k.instantiate(cls, []) is None
    assert k.live_count == before


def test_a_creation_type_error_names_the_class_and_allocates_nothing(rt):
    # the ball new/2 raises on the same arguments, and no object is made to be destroyed
    k = rt.kernel
    made = k.created_total
    with pytest.raises(LogicError) as err:
        k.instantiate(k.find_class("box"), [Atom("a"), 2])
    assert term_text(err.value.term) == "bridge_error(type_mismatch, context(box, 1, int, a))"
    assert k.created_total == made


def test_destroy_cascades_through_slots(rt):
    k = rt.kernel
    holder = k.instantiate(k.find_class("box"), [5, 5])
    col = k.instantiate(k.find_class("colour"), [Atom("red")])
    k.slot_set(holder, "fill_pattern", col)
    k.release(col)
    before = k.live_count
    k.destroy(holder)
    assert col.freed
    assert k.live_count == before - 2


def test_deep_cascade_does_not_recurse(rt):
    k = rt.kernel
    cls = k.define_class("link", "object")
    k.define_slot(cls, SlotDef("next", ANY_T))
    first = k.instantiate(cls, [])
    cur = first
    for _ in range(5000):
        nxt = k.instantiate(cls, [])
        k.slot_set(cur, "next", nxt)
        k.release(nxt)
        cur = nxt
    before = k.live_count
    k.destroy(first)
    assert k.live_count == before - 5001


def test_audit_detects_manual_corruption(rt):
    k = rt.kernel
    obj = k.instantiate(k.find_class("point"), [0, 0])
    k.lock(obj)
    k.release(obj)  # only the audited lock reference remains
    assert rt.audit_refcounts() == []
    obj.refcount += 1  # corrupt it
    bad = rt.audit_refcounts()
    assert bad and bad[0][0] == obj.oid
    obj.refcount -= 1
    k.unlock(obj)


def test_unreachable_cycle_reported(rt):
    k = rt.kernel
    cls = k.define_class("looper", "object")
    k.define_slot(cls, SlotDef("next", ANY_T))
    a = k.instantiate(cls, [])
    b = k.instantiate(cls, [])
    k.slot_set(a, "next", b)
    k.slot_set(b, "next", a)
    k.release(a)
    k.release(b)
    # pure refcounting cannot collect the pair; the auditor reports it
    assert not a.freed and not b.freed
    cyc = {o.oid for o in rt.kernel.unreachable_cycles(rt.hostdata.transient_holds())}
    assert {a.oid, b.oid} <= cyc
    assert rt.audit_refcounts() == []


# -- events and messages ---------------------------------------------------------------


def _closure(kind):
    out = {kind}
    k = kind
    while EVENT_PARENT.get(k) is not None:
        k = EVENT_PARENT[k]
        out.add(k)
    return out


def test_event_taxonomy_reflexive_transitive():
    for kind in EVENT_PARENT:
        ups = _closure(kind)
        for other in EVENT_PARENT:
            assert event_is_a(kind, other) == (other in ups)


def test_event_is_a_through_send(rt):
    k = rt.kernel
    ev = k.instantiate(k.find_class("event"), [Atom("area_enter"), 1, 2])
    assert k.send_value(ev, "is_a", [Atom("area_enter")])
    assert k.send_value(ev, "is_a", [Atom("area")])
    assert k.send_value(ev, "is_a", [Atom("any")])
    assert not k.send_value(ev, "is_a", [Atom("button")])
    k.release(ev)


def test_message_execute_is_a_send(rt):
    k = rt.kernel
    box = k.instantiate(k.find_class("box"), [5, 5])
    msg = k.instantiate(k.find_class("message"),
                        [box, Atom("width"), 77])
    assert k.send_value(msg, "execute", [])
    assert box.slots["width"] == 77
    k.release(msg)
    k.release(box)


def test_message_execute_to_prolog_proxy(rt):
    k = rt.kernel
    rt.consult_text(":- dynamic(poked/1).")
    msg = k.instantiate(k.find_class("message"),
                        [k.prolog_proxy, Atom("call"), Atom("assertz"),
                         ])
    # message(@prolog, call, assertz) with the clause passed at execute time
    assert k.send_value(msg, "execute", [Atom("nothing")]) is not None
    k.release(msg)


def test_message_with_freed_receiver_errors(rt):
    k = rt.kernel
    box = k.instantiate(k.find_class("box"), [5, 5])
    msg = k.instantiate(k.find_class("message"), [box, Atom("width"), 1])
    k.destroy(box)
    with pytest.raises(LogicError) as err:
        k.send_value(msg, "execute", [])
    assert bridge_kind(err.value) == "freed_object"
    k.release(msg)
