import io

import pytest

from objlog.errors import LogicError
from objlog.kernel import LogicImpl, type_spec_term
from objlog.reader import parse_term
from objlog.runtime import Runtime
from objlog.terms import Atom, Struct, is_variant
from objlog.writer import term_text


def t(text):
    return parse_term(text)[0]


MY_BOX_EXPECTED = """
pce_principal:send_implementation('my_box->event', event(A), B) :-
    user:
    (   (   send(A, is_a(area_enter))
        ->  send(B, fill_pattern(colour(red)))
        ;   send(A, is_a(area_exit))
        ->  send(B, fill_pattern(@nil))
        ;   send_class(B, box, event(A))
        )
    ).
"""


def test_my_box_translation_is_alpha_equivalent(rt):
    report = rt.consult_program("my_box")
    assert report.ok, report.errors
    clauses = rt.engine.clauses_of("pce_principal", "send_implementation", 3)
    assert len(clauses) == 1
    head, body = clauses[0]
    expected = t(MY_BOX_EXPECTED)
    exp_head = expected.args[0].args[1]  # strip the namespace qualifier
    exp_body = expected.args[1]
    assert is_variant(Struct("c", (head, body)), Struct("c", (exp_head, exp_body)))


def test_class_fact_present(rt):
    rt.consult_program("my_box")
    assert rt.engine.findall_bindings(t("pce_class(my_box, box)"), (), "pce_principal")


def test_method_fact_contents(rt):
    rt.consult_program("my_box")
    goal, vm = parse_term("pce_method(my_box, event, send, Types, Ret, Id)")
    rows = rt.engine.findall_bindings(goal, (vm["Types"], vm["Ret"], vm["Id"]),
                                      "pce_principal")
    assert len(rows) == 1
    types, ret, mid = rows[0]
    assert term_text(types) == "[event]"
    assert ret is Atom("any")
    assert mid is Atom("my_box->event")


def test_slot_fact_and_accessors(rt):
    rt.consult_program("my_node")
    goal, vm = parse_term("pce_slot(my_node, data, Type, Access, Doc)")
    rows = rt.engine.findall_bindings(goal, (vm["Type"], vm["Access"], vm["Doc"]),
                                      "pce_principal")
    assert rows == [(Atom("prolog"), Atom("both"), Atom("Associated data"))]
    cls = rt.kernel.find_class("my_node")
    assert "data" in cls.send_methods and "data" in cls.get_methods


def test_doc_string_detached_from_body(rt):
    rt.consult_program("my_node")
    clauses = rt.engine.clauses_of("pce_principal", "send_implementation", 3)
    (head, body), = clauses
    # the doc prefix must not survive as a goal
    assert "::" not in term_text(body)
    assert "The constructor" not in term_text(body)


def test_get_method_translation_and_dispatch(rt):
    report = rt.consult_text("""
    :- pce_begin_class(ruler, object).
    double(_O, X:int, R:int) :<-
        R is X * 2.
    :- pce_end_class(ruler).
    """)
    assert report.ok, report.errors
    clauses = rt.engine.clauses_of("pce_principal", "get_implementation", 4)
    assert len(clauses) == 1
    head, _body = clauses[0]
    assert head.args[0] is Atom("ruler<-double")
    sol = rt.once("new(R, ruler), get(R, double(21), V)")
    assert sol["V"] == 42


def test_zero_arg_method(rt):
    rt.consult_text("""
    :- pce_begin_class(quiet, object).
    ping(_Self) :-> true.
    :- pce_end_class(quiet).
    """)
    assert rt.call("new(Q, quiet), send(Q, ping)")


def test_method_outside_region_is_error(rt):
    report = rt.consult_text("floating(_O) :-> true.")
    assert not report.ok
    assert "expansion failed" in report.errors[0][1]


def test_nested_region_is_error(rt):
    report = rt.consult_text("""
    :- pce_begin_class(a1, object).
    :- pce_begin_class(a2, object).
    """)
    assert report.errors


def test_unterminated_region_reported(rt):
    report = rt.consult_text(":- pce_begin_class(open_ended, object).")
    assert any("unterminated" in msg for _line, msg in report.errors)


def test_end_class_mismatch(rt):
    report = rt.consult_text("""
    :- pce_begin_class(alpha, object).
    :- pce_end_class(beta).
    """)
    assert report.errors


def test_realization_is_lazy_and_idempotent(rt):
    rt.consult_program("my_box")
    assert rt.kernel.classes.get("my_box") is None  # not realized yet
    sol = rt.once("new(B, my_box(5, 5))")
    cls1 = rt.kernel.classes.get("my_box")
    assert cls1 is not None
    cls2 = rt.compiler.realize_class("my_box")
    assert cls2 is cls1
    assert list(cls1.send_methods) .count("event") == 1


def test_realization_forces_super_chain(rt):
    rt.consult_text("""
    :- pce_begin_class(c1, object).
    m1(_O) :-> true.
    :- pce_end_class(c1).
    :- pce_begin_class(c2, c1).
    m2(_O) :-> true.
    :- pce_end_class(c2).
    :- pce_begin_class(c3, c2).
    m3(_O) :-> true.
    :- pce_end_class(c3).
    """)
    assert rt.kernel.classes.get("c1") is None
    assert rt.call("new(X, c3), send(X, m1), send(X, m2), send(X, m3)")
    assert all(rt.kernel.classes.get(n) for n in ("c1", "c2", "c3"))


CHAIN_SRC = """
:- pce_begin_class(d1, object).
m1(_O) :-> true.
:- pce_end_class(d1).
:- pce_begin_class(d2, d1).
m2(_O) :-> true.
:- pce_end_class(d2).
"""


def class_table_shape(rt):
    out = {}
    for name, cls in sorted(rt.kernel.classes.items()):
        out[name] = (cls.super.name if cls.super else None,
                     tuple(sorted(cls.send_methods)),
                     tuple(sorted(cls.get_methods)))
    return out


def test_realization_order_independence():
    shapes = []
    for order in (("d1", "d2"), ("d2", "d1")):
        rt = Runtime(out=io.StringIO())
        rt.consult_text(CHAIN_SRC)
        for name in order:
            rt.kernel.find_class(name)
        shapes.append(class_table_shape(rt))
    assert shapes[0] == shapes[1]


def test_eager_equals_lazy_realization():
    shapes = []
    for eager in (False, True):
        rt = Runtime(out=io.StringIO())
        rt.consult_text(CHAIN_SRC)
        if eager:
            rt.realize_all()
        assert rt.call("new(X, d2), send(X, m1), send(X, m2)")
        shapes.append(class_table_shape(rt))
    assert shapes[0] == shapes[1]


# each method answers with its version N; the query binds R to the answer
RECONSULTED = {
    "classic_get": ("answer(_O, R:int) :<- R = {n}.", "get(V, answer, R)",
                    ("get_implementation", 4)),
    "classic_send": ("answer(_O, R:int) :-> R =:= {n}.",
                     "( send(V, answer(1)) -> R = 1 ; R = 2 )", ("send_implementation", 3)),
    "pure_send": (":- pce_pure_prolog(answer).\n    answer(_O, R) :-> R = {n}.",
                  "send(V, answer(R))", ("send_implementation", 3)),
}


@pytest.mark.parametrize("case", sorted(RECONSULTED))
def test_reconsult_replaces_method(rt, case):
    # the same call made before and after a redefinition: an atom, a goal or
    # a predicate entry kept from the first call must not answer the second
    method, query, (pred, arity) = RECONSULTED[case]
    for n in (1, 2):
        # a class realized by the first call takes the new method when its region ends
        rt.consult_text(f"""
    :- pce_begin_class(versioned, object).
    {method.format(n=n)}
    :- pce_end_class(versioned).
    """)
        assert rt.once(f"new(V, versioned), {query}")["R"] == n
    clauses = rt.engine.clauses_of("pce_principal", pred, arity)
    assert len(clauses) == 1  # the old clause was replaced, not shadowed


# a class region for `kk`, then a second one that makes one edit; a region
# restates the class's slots and pure flags, and may leave out a method
KK_REGION = """
:- pce_begin_class(kk, object).
{body}
:- pce_end_class(kk).
"""
KK_DECLARED = "variable(w, int, both).\n:- pce_pure_prolog(m)."
KK_FIRST = KK_DECLARED + """
m(_O, X:int) :-> X > 0.
h(_O) :-> true.
g(_O, R:int) :<- R = 1.
"""
REGION_EDITS = {
    "add_slot": KK_DECLARED + "\nvariable(v, int, both).",
    "add_method": KK_DECLARED + "\nn(_O, _A:atom) :-> true.",
    "change_argument_types": KK_DECLARED + "\nm(_O, X:atom) :-> atom(X).",
    "add_pure_flag": KK_DECLARED + "\n:- pce_pure_prolog(h).",
    "drop_pure_flag": "variable(w, int, both).",
    "redefine_get": KK_DECLARED + "\ng(_O, R:atom) :<- R = one.",
    "add_slot_named_as_a_method": KK_DECLARED + "\nvariable(h, int, both).",
}


def class_members(cls):
    """What a class is made of: superclass, slots and each own method."""
    def spec(s):
        return term_text(type_spec_term(s))

    methods = sorted((m.selector, m.kind, tuple(spec(a) for a in m.argspecs), spec(m.returns),
                      m.nondet, type(m.impl).__name__)
                     for table in (cls.send_methods, cls.get_methods) for m in table.values())
    return (cls.super.name, [(s.name, spec(s.spec), s.access) for s in cls.slots], methods)


@pytest.mark.parametrize("edit", sorted(REGION_EDITS))
def test_a_reconsulted_region_reaches_a_class_already_realized(edit):
    members = {}
    for realized_first in (True, False):
        rt = Runtime(out=io.StringIO())
        assert rt.consult_text(KK_REGION.format(body=KK_FIRST)).ok
        if realized_first:
            before = rt.once("new(O, kk)")["O"]
        assert rt.consult_text(KK_REGION.format(body=REGION_EDITS[edit])).ok
        members[realized_first] = class_members(rt.kernel.find_class("kk"))
        if realized_first:
            # an instance made before the edit reads each slot as a new one does
            for slot in rt.kernel.find_class("kk").slots:
                assert rt.once(f"get({term_text(before)}, {slot.name}, V)")["V"] == \
                    rt.once(f"new(O, kk), get(O, {slot.name}, V)")["V"]
    assert members[True] == members[False]


def class_facts(rt):
    return [term_text(Struct(":-", clause)) for name, arity in (
        ("pce_class", 2), ("pce_slot", 5), ("pce_method", 6), ("pce_pure", 2))
        for clause in rt.engine.clauses_of("pce_principal", name, arity)]


def test_a_new_superclass_for_a_realized_class_is_refused(rt):
    assert rt.consult_text(KK_REGION.format(body=KK_FIRST)).ok
    cls = rt.kernel.find_class("kk")
    facts, members = class_facts(rt), class_members(cls)
    report = rt.consult_text(KK_REGION.format(body=KK_FIRST).replace("kk, object", "kk, box"))
    assert "permission_error(redefine_class, kk)" in report.errors[0][1]
    assert class_facts(rt) == facts
    assert rt.kernel.find_class("kk") is cls and class_members(cls) == members


def test_a_region_reaching_a_realized_class_raises_what_realization_does(rt):
    assert rt.consult_text("""
    :- pce_begin_class(badarea2, area).
    :- pce_end_class(badarea2).
    """).ok
    assert rt.call("new(_, badarea2)")
    report = rt.consult_text("""
    :- pce_begin_class(badarea2, area).
    :- pce_pure_prolog(normalise).
    :- pce_end_class(badarea2).
    """)
    assert [msg for _line, msg in report.errors] == [
        "directive error: declaration_error(pure_prolog_on_native(badarea2, normalise))"]


def test_an_unterminated_region_reaches_a_realized_class(rt):
    assert rt.consult_text(KK_REGION.format(body=KK_FIRST)).ok
    cls = rt.kernel.find_class("kk")
    report = rt.consult_text(":- pce_begin_class(kk, object).\n" + REGION_EDITS["add_slot"])
    assert any("unterminated" in msg for _line, msg in report.errors)
    assert [s.name for s in cls.slots] == ["w", "v"]


def test_helper_clauses_inside_region_stay_user(rt):
    rt.consult_text("""
    :- pce_begin_class(helped, object).
    helper_fact(7).
    speak(_O, X:prolog) :-> user_helper(X).
    :- pce_end_class(helped).
    user_helper(X) :- helper_fact(X).
    """)
    sol = rt.once("new(H, helped), send(H, speak(V))")
    assert sol["V"] == 7


def test_method_body_same_solutions_as_direct_call(rt):
    rt.consult_text("""
    choice(1). choice(2). choice(3).
    :- pce_begin_class(chooser2, object).
    :- pce_pure_prolog(pick).
    pick(_O, X:prolog) :-> choice(X).
    :- pce_end_class(chooser2).
    """)
    direct = [s["X"] for s in rt.query("choice(X)")]
    ref = term_text(rt.once("new(C, chooser2)")["C"])
    through = [s["X"] for s in rt.query(f"send({ref}, pick(X))")]
    assert direct == through


def test_index_key_dispatch_visits_one_clause(rt):
    rt.consult_text("""
    :- pce_begin_class(multi, object).
    one(_O) :-> true.
    two(_O) :-> true.
    three(_O) :-> true.
    :- pce_end_class(multi).
    """)
    ref = term_text(rt.once("new(M, multi)")["M"])
    rt.engine.clause_attempts = 0
    assert rt.call(f"send({ref}, two)")
    assert rt.engine.clause_attempts == 1


def test_second_clause_for_a_method_in_one_region_warns(rt):
    region = """
    :- pce_begin_class(twice, object).
    two(_O) :-> write(one).
    two(_O) :-> write(two).
    two(_O, X) :<- X = 2.
    :- pce_end_class(twice).
    """
    report = rt.consult_text(region)
    assert report.ok
    assert report.warnings == [
        (4, "class twice: a second clause for send method two replaces the first")]
    ref = term_text(rt.once("new(T, twice)")["T"])
    assert rt.call(f"send({ref}, two)") and rt.out.getvalue() == "two"
    # defining it again in a later consult or region replaces it silently
    assert rt.consult_text(region.replace("write(two)", "true").replace(
        "    two(_O) :-> write(one).\n", "")).warnings == []
    assert rt.consult_text(":- pce_begin_class(twice, object).\n"
                           "two(_O) :-> write(three).\n"
                           ":- pce_end_class(twice).\n").warnings == []


def test_pure_prolog_flag_realizes_nondet(rt):
    rt.consult_text("""
    pickable(a). pickable(b).
    :- pce_begin_class(nd, object).
    :- pce_pure_prolog(grab).
    grab(_O, X:prolog) :-> pickable(X).
    :- pce_end_class(nd).
    """)
    ref = term_text(rt.once("new(N, nd)")["N"])
    cls = rt.kernel.find_class("nd")
    m = cls.send_methods["grab"]
    assert m.nondet and type(m.impl) is LogicImpl
    assert [term_text(s["X"]) for s in rt.query(f"send({ref}, grab(X))")] == ["a", "b"]


def test_pure_prolog_on_native_is_declaration_error(rt):
    rt.consult_text("""
    :- pce_begin_class(badarea, area).
    :- pce_pure_prolog(normalise).
    :- pce_end_class(badarea).
    """)
    with pytest.raises(LogicError) as err:
        rt.once("new(A, badarea)")
    assert "declaration_error" in term_text(err.value.term)


def test_a_class_that_fails_to_realize_is_not_left_half_built(rt):
    rt.consult_text("""
    :- pce_begin_class(badarea3, area).
    :- pce_pure_prolog(normalise).
    :- pce_end_class(badarea3).
    """)
    for _ in range(2):
        with pytest.raises(LogicError) as err:
            rt.once("new(A, badarea3)")
        assert term_text(err.value.term) == \
            "declaration_error(pure_prolog_on_native(badarea3, normalise))"
    assert rt.kernel.classes.get("badarea3") is None


def test_malformed_type_annotation(rt):
    report = rt.consult_text("""
    :- pce_begin_class(badtype, object).
    m(_O, _X:f(weird)) :-> true.
    :- pce_end_class(badtype).
    """)
    assert report.errors


def test_send_super_spread_form_rewrites(rt):
    rt.consult_text("""
    :- pce_begin_class(my_node2, node).
    initialise(N, Label:prolog) :->
        send_super(N, initialise, text(Label)).
    :- pce_end_class(my_node2).
    """)
    clauses = rt.engine.clauses_of("pce_principal", "send_implementation", 3)
    (_h, body), = [c for c in clauses]
    text = term_text(body)
    assert "send_class" in text and "node" in text
    assert "send_super" not in text
