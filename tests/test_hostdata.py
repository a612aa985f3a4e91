import pytest

from objlog.balls import bridge_kind
from objlog.errors import LogicError, RuntimeBugError
from objlog.hostdata import HostTermObject
from objlog.reader import parse_term
from objlog.terms import Atom, deref, is_variant, structural_eq
from objlog.writer import term_text

HOLDER = """
:- pce_begin_class(cell, object).
variable(data, prolog, both, "payload").
ignore(_O, _X:prolog) :-> true.
stash(O, X:prolog) :-> send(O, data, X).
:- pce_end_class(cell).
"""


def t(text):
    return parse_term(text)[0]


def new_cell(rt):
    rt.consult_text(HOLDER)
    return term_text(rt.once("new(C, cell)")["C"])


# -- wrapping decisions ----------------------------------------------------------


def test_primitive_under_prolog_type_not_wrapped(rt):
    ref = new_cell(rt)
    made = rt.hostdata.wrappers_made
    assert rt.call(f"send({ref}, ignore(42))")
    assert rt.call(f"send({ref}, ignore(2.5))")
    assert rt.call(f"send({ref}, ignore(plain_atom))")
    assert rt.hostdata.wrappers_made == made


def test_compound_under_prolog_type_wrapped_and_discarded(rt):
    ref = new_cell(rt)
    made = rt.hostdata.wrappers_made
    assert rt.call(f"send({ref}, ignore(hello(world)))")
    assert rt.hostdata.wrappers_made == made + 1
    assert rt.hostdata.wrappers_live == 0
    assert rt.store.records_live == 0


def test_body_sees_the_term_itself(rt):
    rt.consult_text(HOLDER)
    rt.consult_text("""
    :- pce_begin_class(checker, object).
    expect(_O, X:prolog) :-> X = hello(world).
    :- pce_end_class(checker).
    """)
    assert rt.call("new(C, checker), send(C, expect(hello(world)))")
    assert not rt.call("new(C, checker), send(C, expect(other))")


def test_stored_wrapper_becomes_record(rt):
    ref = new_cell(rt)
    assert rt.call(f"send({ref}, stash(f(g(1), X)))")
    assert rt.hostdata.wrappers_live == 1
    assert rt.hostdata.wrappers_recorded_total == 1
    assert rt.store.records_live == 1
    # readable after every frame closed, structurally equal, fresh variables
    sol = rt.once(f"get({ref}, data, D)")
    assert is_variant(sol["D"], t("f(g(1), X)"))


def test_record_read_twice_gives_fresh_copies(rt):
    ref = new_cell(rt)
    rt.call(f"send({ref}, stash(p(Hole)))")
    sol = rt.once(f"get({ref}, data, D1), get({ref}, data, D2), D1 = p(1)")
    # instantiating one replayed copy leaves the other open
    assert term_text(sol["D1"]) == "p(1)"
    assert is_variant(sol["D2"], t("p(X)"))


def test_owner_free_destroys_record(rt):
    ref = new_cell(rt)
    rt.call(f"send({ref}, stash(payload(1)))")
    assert rt.store.records_live == 1
    assert rt.call(f"free({ref})")
    assert rt.store.records_live == 0
    assert rt.hostdata.wrappers_live == 0


def test_overwriting_slot_destroys_old_record(rt):
    ref = new_cell(rt)
    rt.call(f"send({ref}, stash(one(1)))")
    rt.call(f"send({ref}, stash(two(2)))")
    assert rt.store.records_live == 1
    sol = rt.once(f"get({ref}, data, D)")
    assert structural_eq(sol["D"], t("two(2)"))
    rt.call(f"free({ref})")
    assert rt.store.records_live == 0


def test_ledger_cleanup_on_method_error(rt):
    rt.consult_text(HOLDER)
    rt.consult_text("""
    :- pce_begin_class(bomber, object).
    boom(_O, _X:prolog) :-> throw(kaboom).
    :- pce_end_class(bomber).
    """)
    ref = term_text(rt.once("new(B, bomber)")["B"])
    with pytest.raises(LogicError):
        rt.once(f"send({ref}, boom(f(1)))")
    assert rt.hostdata.wrappers_live == 0
    assert rt.store.records_live == 0
    assert rt.audit_refcounts() == []


def test_no_live_wrappers_at_quiescence(rt):
    ref = new_cell(rt)
    rt.call(f"send({ref}, stash(f(a)))")
    rt.call(f"send({ref}, ignore(g(b)))")
    for obj in rt.kernel.live_objects():
        if isinstance(obj, HostTermObject):
            assert obj.state == "recorded"


def test_read_after_owner_destroyed_is_freed_error(rt):
    ref = new_cell(rt)
    rt.call(f"send({ref}, stash(f(1)))")
    wrapper = next(o for o in rt.kernel.live_objects()
                   if isinstance(o, HostTermObject))
    rt.call(f"free({ref})")
    with pytest.raises(LogicError) as err:
        rt.hostdata.read_back(wrapper)
    assert bridge_kind(err.value) == "freed_object"


def test_wrapper_stored_elsewhere_survives_owner(rt):
    rt.consult_text(HOLDER)
    a = term_text(rt.once("new(A, cell)")["A"])
    b = term_text(rt.once("new(B, cell)")["B"])
    # share one wrapper between two owners through logic
    assert rt.call(f"get({a}, data, _) -> true ; true")
    rt.call(f"send({a}, stash(shared(1)))")
    sol = rt.once(f"get({a}, data, D), send({b}, data(D))")
    assert sol is not None
    # two independent records now exist (each store made its own copy)
    assert rt.store.records_live == 2
    rt.call(f"free({a})")
    assert rt.store.records_live == 1
    sol = rt.once(f"get({b}, data, D)")
    assert structural_eq(sol["D"], t("shared(1)"))
    rt.call(f"free({b})")
    assert rt.store.records_live == 0


def test_by_reference_binding_within_call(rt):
    rt.consult_text("""
    :- pce_begin_class(filler, object).
    fill(_O, T:prolog) :-> T = f(filled, _).
    :- pce_end_class(filler).
    """)
    ref = term_text(rt.once("new(F, filler)")["F"])
    goal, vm = parse_term(f"send({ref}, fill(f(X, Y)))")
    assert rt.engine.solve_once(goal)
    assert deref(vm["X"]) is Atom("filled")


def test_binding_undone_on_backtracking(rt):
    rt.consult_text("""
    :- pce_begin_class(filler2, object).
    fill(_O, T:prolog) :-> T = marker.
    :- pce_end_class(filler2).
    """)
    ref = term_text(rt.once("new(F, filler2)")["F"])
    goal, vm = parse_term(f"( send({ref}, fill(X)) ; true )")
    states = []
    for _ in rt.engine.solve(goal):
        x = deref(vm["X"])
        states.append(term_text(x))
    assert states[0] == "marker"
    assert states[1] == "X"  # unbound again after backtracking


def test_record_size_limit():
    import io
    from objlog.runtime import Runtime

    rt = Runtime(out=io.StringIO(), record_node_limit=50)
    rt.consult_text(HOLDER)
    ref = term_text(rt.once("new(C, cell)")["C"])
    deep = "f(" * 60 + "x" + ")" * 60
    with pytest.raises(Exception):
        rt.once(f"send({ref}, stash({deep}))")


def test_live_wrapper_shares_bindings_on_ledger(rt):
    # inside one bridge call the wrapper presents the caller's very term
    with rt.hostdata.bridge_call():
        src, vm = parse_term("f(X)")
        w = rt.hostdata.wrap_term(src)
        seen = rt.hostdata.read_back(w)
        assert seen is src


def test_shared_wrapper_survives_one_owner(rt):
    rt.consult_text(HOLDER)
    k = rt.kernel
    a = k.instantiate(k.find_class("cell"), [])
    b = k.instantiate(k.find_class("cell"), [])
    with rt.hostdata.bridge_call():
        w = rt.hostdata.wrap_term(t("shared(x)"))
        k.slot_set(a, "data", w)
        k.slot_set(b, "data", w)
    # one wrapper, one record, two owners
    assert rt.store.records_live == 1
    k.destroy(a)
    assert not w.freed and rt.store.records_live == 1
    with rt.hostdata.bridge_call():
        assert structural_eq(rt.hostdata.read_back(b.slots["data"]),
                             t("shared(x)"))
    k.destroy(b)
    assert w.freed and rt.store.records_live == 0


# -- lazy scopes: a crossing makes its frame and ledger only when it needs them ---

LAZY = """
:- pce_begin_class(lazy, object).
variable(data, prolog, both, "payload").
noarg(_O) :-> true.
intarg(_O, _V:int) :-> true.
termarg(_O, _V:prolog) :-> true.
stash(O, X:prolog) :-> send(O, data, X).
fetch(O, X:prolog) :<- get(O, data, X).
fresh(_O, X:prolog) :<- X = made(_).
boom(_O, _X:prolog) :-> throw(kaboom).
:- pce_end_class(lazy).
"""


def count_frames(rt, monkeypatch) -> list:
    """The ids of the term frames opened from now on."""
    opened = []
    open_frame = rt.store.open_frame

    def counting():
        opened.append(open_frame())
        return opened[-1]

    monkeypatch.setattr(rt.store, "open_frame", counting)
    return opened


def assert_quiet(rt):
    assert rt.hostdata.ledgers == []
    assert rt.store.current_frame() is None
    assert rt.audit_refcounts() == []


def stats_delta(rt, before: dict) -> dict:
    return {k: v - before[k] for k, v in rt.stats().items() if v != before[k]}


@pytest.mark.parametrize("setup, call, frames", [
    ("new(O, area(0, 0, -2, 3))", "send({O}, normalise)", 0),
    ("new(O, area)", "send({O}, x(1))", 0),
    ("new(O, lazy)", "send({O}, noarg)", 0),
    ("new(O, lazy)", "send({O}, intarg(1))", 0),
    ("new(O, lazy)", "send({O}, termarg(hello(world)))", 1),
])
def test_a_crossing_opens_a_frame_only_to_wrap(rt, monkeypatch, setup, call, frames):
    rt.consult_text(LAZY)
    ref = term_text(rt.once(setup)["O"])
    made = rt.hostdata.wrappers_made
    opened = count_frames(rt, monkeypatch)
    assert rt.call(call.format(O=ref))
    assert len(opened) == frames
    assert rt.hostdata.wrappers_made == made + frames
    assert_quiet(rt)


def test_nested_store_from_a_logic_method(rt, monkeypatch):
    # the classic send wraps its argument; the slot send in its body wraps
    # the term again and keeps that wrapper, which is recorded
    rt.consult_text(LAZY)
    ref = term_text(rt.once("new(O, lazy)")["O"])
    before = rt.stats()
    opened = count_frames(rt, monkeypatch)
    assert rt.call(f"send({ref}, stash(f(g(1), X)))")
    assert len(opened) == 2
    assert stats_delta(rt, before) == {
        "records-live": 1, "records-made": 1, "wrappers-live": 1,
        "wrappers-recorded-total": 1, "objects-live": 1, "objects-created": 2,
        "objects-destroyed": 1}
    assert_quiet(rt)


def test_classic_get_returns_a_recorded_wrapper(rt, monkeypatch):
    # the slot get reads the record back with no frame; the get's own
    # result is wrapped at its exit and discarded when its scope closes
    rt.consult_text(LAZY)
    ref = term_text(rt.once("new(O, lazy)")["O"])
    assert rt.call(f"send({ref}, stash(f(g(1), X)))")
    before = rt.stats()
    opened = count_frames(rt, monkeypatch)
    sol = rt.once(f"get({ref}, fetch, D)")
    assert is_variant(sol["D"], t("f(g(1), X)"))
    assert len(opened) == 1
    assert stats_delta(rt, before) == {"objects-created": 1, "objects-destroyed": 1}
    assert_quiet(rt)


def test_nested_logic_get_joins_the_enclosing_call(rt, monkeypatch):
    # native code runs a logic get in a nested solve; the fresh wrapper made
    # for its result joins the enclosing scope, opened only then
    rt.consult_text(LAZY)
    k = rt.kernel
    obj = k.fetch(rt.once("new(O, lazy)")["O"].ref)
    method = k.method_of(obj, "fresh", "get")
    before = rt.stats()
    opened = count_frames(rt, monkeypatch)
    with rt.hostdata.bridge_call():
        w = k.invoke_get(obj, method, [])
        assert isinstance(w, HostTermObject) and w.state == "live"
        assert is_variant(rt.hostdata.read_back(w), t("made(_)"))
        assert rt.hostdata.ledgers == [(opened[0], [w])]
    assert len(opened) == 1 and w.freed
    assert stats_delta(rt, before) == {"objects-created": 1, "objects-destroyed": 1}
    assert_quiet(rt)


def test_ball_after_a_scope_opened_is_caught(rt, monkeypatch):
    rt.consult_text(LAZY)
    ref = term_text(rt.once("new(O, lazy)")["O"])
    before = rt.stats()
    opened = count_frames(rt, monkeypatch)
    sol = rt.once(f"catch(send({ref}, boom(f(1))), E, true)")
    assert term_text(sol["E"]) == "kaboom"
    assert len(opened) == 1
    assert stats_delta(rt, before) == {"objects-created": 1, "objects-destroyed": 1}
    assert_quiet(rt)


def test_transients_outside_any_scope_are_a_bug(rt):
    # a scope that was never opened lends no ledger
    with pytest.raises(RuntimeBugError):
        rt.hostdata.wrap_term(t("f(x)"))
    with rt.hostdata.bridge_call():
        assert rt.hostdata.transient_holds() == {}
        w = rt.hostdata.wrap_term(t("f(x)"))
        assert rt.hostdata.transient_holds() == {w.oid: 1}
        with rt.hostdata.bridge_call():
            assert rt.hostdata.ledgers[-1] is None
            assert rt.hostdata.transient_holds() == {w.oid: 1}
    assert_quiet(rt)
    with pytest.raises(RuntimeBugError):
        rt.hostdata.register_transient(w)
