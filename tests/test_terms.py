import pytest
from hypothesis import given, settings, strategies as st

from objlog.errors import (
    CyclicTermError,
    DeadRecordError,
    FrameOrderError,
    StaleTermRefError,
    TermSizeLimitError,
)
from objlog.reader import parse_term
from objlog.terms import (
    Atom,
    ObjRef,
    Struct,
    TermStore,
    Trail,
    Var,
    deref,
    is_variant,
    resolve_copy,
    structural_eq,
    unify,
)

from oracles import (
    oracle_resolve,
    oracle_unify,
    random_term,
    var_position_partition,
)


def t(text):
    return parse_term(text)[0]


# -- basic unification --------------------------------------------------------


def test_unify_var_to_constant():
    x = Var("X")
    tr = Trail()
    assert unify(x, 7, tr)
    assert deref(x) == 7


def test_unify_structural():
    a, vm = parse_term("f(X, a)")
    b, vm2 = parse_term("f(b, Y)")
    tr = Trail()
    assert unify(a, b, tr)
    assert deref(vm["X"]) is Atom("b")
    assert deref(vm2["Y"]) is Atom("a")


def test_unify_functor_clash_leaves_no_bindings():
    a, vm = parse_term("f(X)")
    b = t("g(a)")
    tr = Trail()
    assert not unify(a, b, tr)
    assert vm["X"].ref is None
    assert tr.mark() == 0


def test_unify_partial_failure_restores_trail():
    a, vm = parse_term("f(X, Y, b)")
    b = t("f(1, 2, c)")
    tr = Trail()
    assert not unify(a, b, tr)
    assert vm["X"].ref is None and vm["Y"].ref is None


def test_no_numeric_coercion():
    tr = Trail()
    assert not unify(1, 1.0, tr)
    assert unify(1.5, 1.5, tr)
    assert unify(3, 3, tr)


def test_atoms_are_interned():
    assert Atom("hello") is Atom("hello")
    assert Atom("hello") is not Atom("world")


def test_objref_equality():
    tr = Trail()
    assert unify(ObjRef(4), ObjRef(4), tr)
    assert not unify(ObjRef(4), ObjRef(5), tr)
    assert not unify(ObjRef(4), ObjRef("nil"), tr)


def test_occurs_check_flag():
    x = Var("X")
    tr = Trail()
    assert unify(x, Struct("f", (x,)), tr, occurs_check=True) is False
    assert x.ref is None
    # off by default: the binding is admitted (rational trees are not
    # traversed, only created)
    assert unify(x, Struct("f", (x,)), tr)


def test_trail_undo_unbinds_everything():
    xs = [Var() for _ in range(5)]
    tr = Trail()
    mark = tr.mark()
    for i, x in enumerate(xs):
        assert unify(x, i, tr)
    tr.undo_to(mark)
    assert all(x.ref is None for x in xs)


# -- randomized unification against the oracle ----------------------------------


def test_unify_matches_oracle_randomized(rng):
    mismatches = 0
    for _ in range(2000):
        a = random_term(rng)
        b = random_term(rng)
        ours_tr = Trail()
        ours = unify(a, b, ours_tr)
        subst = oracle_unify(a, b)
        if ours != (subst is not None):
            mismatches += 1
        elif ours:
            mine = resolve_copy(a)
            theirs = oracle_resolve(a, subst)
            if not is_variant(mine, theirs):
                mismatches += 1
        ours_tr.undo_to(0)
    assert mismatches == 0


def test_unify_symmetry_randomized(rng):
    for _ in range(1000):
        a = random_term(rng)
        b = random_term(rng)
        tr = Trail()
        r1 = unify(a, b, tr)
        s1 = resolve_copy(Struct("p", (a, b))) if r1 else None
        tr.undo_to(0)
        r2 = unify(b, a, tr)
        s2 = resolve_copy(Struct("p", (a, b))) if r2 else None
        tr.undo_to(0)
        assert r1 == r2
        if r1:
            assert is_variant(s1, s2)


# -- hypothesis property: backtracking soundness ---------------------------------


@st.composite
def term_pairs(draw):
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    import random as _random

    r = _random.Random(seed)
    return random_term(r), random_term(r)


@given(term_pairs())
@settings(max_examples=300, deadline=None)
def test_backtracking_soundness(pair):
    a, b = pair
    tr = Trail()
    mark = tr.mark()
    unify(a, b, tr)
    tr.undo_to(mark)

    def all_unbound(t, seen=None):
        stack = [t]
        while stack:
            x = stack.pop()
            if type(x) is Var:
                if x.ref is not None:
                    return False
            elif type(x) is Struct:
                stack.extend(x.args)
        return True

    assert all_unbound(a) and all_unbound(b)


# -- copying ------------------------------------------------------------------


def test_rename_preserves_sharing():
    x = Var("X")
    term = Struct("f", (x, x, Var("Y")))
    out = resolve_copy(term)
    assert out.args[0] is out.args[1]
    assert out.args[0] is not x
    assert out.args[2] is not out.args[0]
    # one mapping across two copies, as retract/1 copies a head and a body
    mapping: dict = {}
    head = resolve_copy(Struct("r", (x,)), mapping)
    body = resolve_copy(Struct("s", (x, Var("Z"))), mapping)
    assert head.args[0] is body.args[0]
    assert head.args[0] is not x
    assert mapping[id(x)] is head.args[0]


def test_resolve_copy_resolves_bindings():
    src, vm = parse_term("f(X, g(X))")
    tr = Trail()
    unify(vm["X"], t("h(1)"), tr)
    snap = resolve_copy(src)
    tr.undo_to(0)
    assert structural_eq(snap, t("f(h(1), g(h(1)))"))


def test_resolve_copy_rejects_cycles():
    x = Var("X")
    tr = Trail()
    unify(x, Struct("f", (x,)), tr)
    with pytest.raises(CyclicTermError):
        resolve_copy(x)


def test_resolve_copy_node_limit():
    deep = t("a")
    for _ in range(50):
        deep = Struct("f", (deep,))
    with pytest.raises(TermSizeLimitError):
        resolve_copy(deep, node_limit=10)


def test_deep_term_traversals_do_not_recurse():
    deep = t("leaf")
    for _ in range(200_000):
        deep = Struct("f", (deep,))
    copy = resolve_copy(deep)
    tr = Trail()
    assert unify(deep, copy, tr)
    assert structural_eq(deep, copy)


# -- frames and term references -----------------------------------------------


def test_ref_valid_only_while_frame_open():
    store = TermStore()
    fid = store.open_frame()
    ref = store.put(t("f(a)"))
    assert structural_eq(store.fetch(ref), t("f(a)"))
    store.close_frame(fid)
    with pytest.raises(StaleTermRefError):
        store.fetch(ref)


def test_nested_frames_inner_close_keeps_outer():
    store = TermStore()
    outer = store.open_frame()
    ref_outer = store.put(t("out"))
    inner = store.open_frame()
    ref_inner = store.put(t("in"))
    store.close_frame(inner)
    assert structural_eq(store.fetch(ref_outer), t("out"))
    with pytest.raises(StaleTermRefError):
        store.fetch(ref_inner)
    store.close_frame(outer)


def test_non_lifo_close_is_error():
    store = TermStore()
    a = store.open_frame()
    store.open_frame()
    with pytest.raises(FrameOrderError):
        store.close_frame(a)


def test_ref_needs_open_frame():
    store = TermStore()
    with pytest.raises(FrameOrderError):
        store.put(t("x"))


# -- records ----------------------------------------------------------------


def test_record_ground_roundtrip():
    store = TermStore()
    fid = store.open_frame()
    src = t("node(hello, data(1), [])")
    rec = store.copy_to_record(store.put(src))
    out = store.fetch(store.record_to_term(rec))
    assert structural_eq(out, src)
    store.close_frame(fid)


def test_record_shares_variables_like_source():
    store = TermStore()
    fid = store.open_frame()
    src, vm = parse_term("f(X, X)")
    rec = store.copy_to_record(store.put(src))
    # instantiate the original after copying; the record must not move
    tr = Trail()
    unify(vm["X"], 42, tr)
    payload = rec.payload
    assert type(payload.args[0]) is Var
    assert payload.args[0] is payload.args[1]
    part_src, _ = var_position_partition(t("f(X, X)"))
    part_rec, _ = var_position_partition(payload)
    assert part_src == part_rec
    store.close_frame(fid)


def test_record_distinct_variables_stay_distinct():
    store = TermStore()
    fid = store.open_frame()
    rec = store.copy_to_record(store.put(t("f(X, Y)")))
    assert rec.payload.args[0] is not rec.payload.args[1]
    store.close_frame(fid)


def test_record_independent_of_backtracking():
    store = TermStore()
    fid = store.open_frame()
    src, vm = parse_term("f(X)")
    tr = Trail()
    mark = tr.mark()
    unify(vm["X"], t("g(1)"), tr)
    rec = store.record_term(src)
    tr.undo_to(mark)
    assert structural_eq(rec.payload, t("f(g(1))"))
    store.close_frame(fid)


def test_record_replay_after_frame_close():
    store = TermStore()
    fid = store.open_frame()
    rec = store.copy_to_record(store.put(t("f(X, X, b)")))
    store.close_frame(fid)
    f2 = store.open_frame()
    out = store.fetch(store.record_to_term(rec))
    assert is_variant(out, t("f(X, X, b)"))
    store.close_frame(f2)


def test_record_roundtrip_randomized(rng):
    store = TermStore()
    for _ in range(1000):
        fid = store.open_frame()
        src = random_term(rng)
        rec = store.copy_to_record(store.put(src))
        out = store.fetch(store.record_to_term(rec))
        assert is_variant(resolve_copy(src), out)
        p1, s1 = var_position_partition(src)
        p2, s2 = var_position_partition(rec.payload)
        assert p1 == p2 and s1 == s2
        store.erase(rec)
        store.close_frame(fid)
    assert store.records_live == 0


def test_erased_record_is_dead():
    store = TermStore()
    fid = store.open_frame()
    rec = store.copy_to_record(store.put(t("a")))
    store.erase(rec)
    with pytest.raises(DeadRecordError):
        store.record_to_term(rec)
    with pytest.raises(DeadRecordError):
        store.erase(rec)
    store.close_frame(fid)
    assert store.records_live == 0


def test_variant_check():
    assert is_variant(t("f(X, Y, X)"), t("f(A, B, A)"))
    assert not is_variant(t("f(X, Y, X)"), t("f(A, B, B)"))
    assert not is_variant(t("f(X)"), t("f(a)"))
    assert is_variant(t("f(a, 1)"), t("f(a, 1)"))
