import pytest

from objlog.errors import ReaderError
from objlog.reader import parse_term, read_terms
from objlog.terms import Atom, ObjRef, structural_eq
from objlog.writer import term_text


def t(text):
    return parse_term(text)[0]


def test_numbers_and_atoms():
    assert t("42") == 42
    assert t("-7") == -7
    assert t("3.5") == 3.5
    assert t("2.5e3") == 2500.0
    assert t("foo") is Atom("foo")
    assert t("'hello world'") is Atom("hello world")
    assert t('"doc text"') is Atom("doc text")


def test_compound_and_lists():
    got = t("f(a, g(1), [x, y|T])")
    assert got.name == "f" and len(got.args) == 3
    lst = got.args[2]
    assert lst.name == "." and lst.args[0] is Atom("x")


def test_object_references():
    assert t("@459337") == ObjRef(459337)
    assert t("@nil") == ObjRef("nil")
    assert t("@prolog") == ObjRef("prolog")


def test_operator_precedence():
    got = t("a :- b, c ; d")
    assert got.name == ":-"
    body = got.args[1]
    assert body.name == ";"
    assert body.args[0].name == ","


def test_if_then_else_shape():
    got = t("(c -> t ; e)")
    assert got.name == ";"
    assert got.args[0].name == "->"


def test_method_operators():
    got = t("event(Box, Event:event) :-> send(Box, x)")
    assert got.name == ":->"
    head = got.args[0]
    assert head.args[1].name == ":"
    got2 = t('width(O, W:int) :<- get(O, w, W)')
    assert got2.name == ":<-"


def test_doc_string_binds_first_goal():
    got = t('"The constructor":: a, b')
    assert got.name == ","
    assert got.args[0].name == "::"
    assert got.args[0].args[0] is Atom("The constructor")


def test_namespace_qualifier():
    got = t("user:(a, b)")
    assert got.name == ":" and got.args[0] is Atom("user")


def test_quoted_atom_with_symbols():
    assert t("'my_box->event'") is Atom("my_box->event")


def test_comments_and_multiple_clauses():
    src = """
    % line comment
    p(1).  /* block
              comment */
    p(2).
    """
    terms = list(read_terms(src))
    assert len(terms) == 2
    assert terms[0][2] == 3  # line number of first clause


def test_syntax_error_has_line():
    with pytest.raises(ReaderError) as err:
        list(read_terms("p(1).\nq(].\n"))
    assert err.value.line == 2


def test_read_goes_on_past_a_syntax_error():
    got = []
    with pytest.raises(ReaderError) as err:
        for term, _varmap, line in read_terms("p(1).\nq(].\nr(2) :- .\ns(3).\n"):
            got.append((term_text(term), line))
    assert got == [("p(1)", 1), ("s(3)", 4)]
    assert err.value.line == 2
    assert [e.line for e in err.value.errors] == [2, 3]


def test_consult_loads_every_clause_around_a_syntax_error(rt):
    report = rt.consult_text("a(1). b(2) :- . c(3).")
    assert (report.clauses, report.ok) == (2, False)
    assert len(report.errors) == 1
    line, message = report.errors[0]
    assert line == 1 and "line 1" in message
    assert [term_text(h) for h, _ in rt.engine.clauses_of("user", "a", 1)] == ["a(1)"]
    assert [term_text(h) for h, _ in rt.engine.clauses_of("user", "c", 1)] == ["c(3)"]
    assert rt.engine.clauses_of("user", "b", 1) == []


def test_tokenizer_error_ends_the_consult(rt):
    report = rt.consult_text("a(1).\nb('open).\nc(3).\n")
    assert (report.clauses, len(report.errors)) == (0, 1)
    assert "unterminated" in report.errors[0][1]


def test_incomplete_input_flagged():
    with pytest.raises(ReaderError) as err:
        parse_term("f(a, ")
    assert err.value.incomplete


def test_anonymous_vars_are_fresh():
    got, vm = parse_term("f(_, _)")
    assert got.args[0] is not got.args[1]
    assert "_" not in vm


def test_negative_number_in_arith():
    got = t("X is N - 1")
    assert got.args[1].name == "-"
    assert t("f(-3)").args[0] == -3


def test_writer_roundtrip():
    cases = [
        "f(a, g(1), [x, y])",
        "[a, b|T]",
        "a :- b, c ; d",
        "(c -> t ; e)",
        "f(@12, @nil)",
        "'odd atom'(1.5, -2)",
        "X is Y - 1",
        "\\+ foo(X)",
    ]
    for text in cases:
        term = t(text)
        again = t(term_text(term))
        assert structural_eq(again, term) or repr(again) == repr(term)


@pytest.mark.parametrize("text, shown", [
    ("1 - -1", "1 - -1"),
    ("a - (-1)", "a - -1"),
    ("1 + -a", "1 + - a"),
    ("a : -b", "a : - b"),
    ("a / -1", "a / -1"),
    ("-(1)", "-(1)"),
    ("+(1.5)", "+(1.5)"),
    ("-(-1)", "-(-1)"),
    ("- -(1)", "- -(1)"),
    ("1 - 2", "1-2"),
    ("a - ''", "a-''"),
    ("(\\+)/1", "(\\+)/1"),
    ("(-)/1", "(-)/1"),
    ("(-)-a", "(-)-a"),
    ("a-(-)", "a-(-)"),
    ("-(-)", "- (-)"),
    ("(;)/2", "(;)/2"),
    ("(mod)+1", "(mod)+1"),
    ("f(-, [+])", "f(-, [+])"),
])
def test_writer_output_reads_back(text, shown):
    # a glued `-` or `+` next to a symbol char, or before a number, would
    # read back as another token or as a negative number; an operator atom
    # as an operand is bracketed, as `(-)-a`, and left bare as an argument
    term = t(text)
    assert term_text(term) == shown
    assert structural_eq(t(shown), term)


@pytest.mark.parametrize("op", ["dynamic", "discontiguous", "multifile"])
@pytest.mark.parametrize("text, shown", [
    ("{op} c/2", "{op} c/2"),
    ("{op}(c/2)", "{op} c/2"),
    (":- {op} c/2, d/1", ":- {op} c/2, d/1"),
    ("f({op}(c/2))", "f(({op} c/2))"),
    ("({op})-1", "({op})-1"),
])
def test_declaration_prefixes_read_back(op, text, shown):
    # fx 1150: a declaration reads as an operator and is written as one
    term = t(text.format(op=op))
    assert term_text(term) == shown.format(op=op)
    assert structural_eq(parse_term(term_text(term))[0], term)


def test_a_declaration_loads_in_operator_form(rt):
    report = rt.consult_text(":- dynamic c/2, d/1.\n:- discontiguous e/1.\n"
                             ":- multifile m/1.\nc(1, 2).")
    assert report.ok and report.directives == 3
    assert rt.once("c(X, Y)") == {"X": 1, "Y": 2}
    assert rt.once("d(_)") is None and rt.once("m(_)") is None


def test_writer_quotes_when_needed():
    assert term_text(Atom("hello world")) == "'hello world'"
    assert term_text(Atom("foo")) == "foo"
    assert term_text(ObjRef(3)) == "@3"
    assert term_text(3.0) == "3.0"


def test_writer_unquoted_mode():
    assert term_text(Atom("Hello World"), quoted=False) == "Hello World"


def test_writer_reader_roundtrip_randomized():
    import random

    from objlog.terms import is_variant

    from oracles import random_term

    rng = random.Random(5150)
    for _ in range(500):
        term = random_term(rng, max_nodes=14)
        text = term_text(term)
        again = parse_term(text)[0]
        assert is_variant(term, again), text
