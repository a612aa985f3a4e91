"""The core builtin predicates: unification, arithmetic, type tests, I/O,
clause store updates and catch/3.  Bridge predicates live in `bridge`."""

from __future__ import annotations

from .balls import (
    evaluation_error,
    instantiation_error,
    permission_error,
    type_error,
)
from .terms import Atom, Struct, Var, deref, resolve_copy, structural_eq, unify
from .writer import term_text


def install(engine) -> None:
    reg = engine.register_builtin

    reg("=", 2, _unify2)
    reg("\\=", 2, _not_unify2)
    reg("==", 2, lambda m, a, ns: structural_eq(a[0], a[1]))
    reg("\\==", 2, lambda m, a, ns: not structural_eq(a[0], a[1]))

    reg("var", 1, lambda m, a, ns: type(deref(a[0])) is Var)
    reg("nonvar", 1, lambda m, a, ns: type(deref(a[0])) is not Var)
    reg("atom", 1, lambda m, a, ns: type(deref(a[0])) is Atom)
    reg("integer", 1, lambda m, a, ns: type(deref(a[0])) is int)
    reg("float", 1, lambda m, a, ns: type(deref(a[0])) is float)
    reg("number", 1, lambda m, a, ns: type(deref(a[0])) in (int, float))
    reg("atomic", 1, lambda m, a, ns: type(deref(a[0])) in (Atom, int, float))
    reg("compound", 1, lambda m, a, ns: type(deref(a[0])) is Struct)
    reg("callable", 1, lambda m, a, ns: type(deref(a[0])) in (Atom, Struct))

    reg("is", 2, _is2)
    reg("<", 2, _cmp(lambda x, y: x < y))
    reg(">", 2, _cmp(lambda x, y: x > y))
    reg("=<", 2, _cmp(lambda x, y: x <= y))
    reg(">=", 2, _cmp(lambda x, y: x >= y))
    reg("=:=", 2, _cmp(lambda x, y: x == y))
    reg("=\\=", 2, _cmp(lambda x, y: x != y))

    reg("between", 3, _between)
    reg("copy_term", 2, _copy_term)

    reg("writeln", 1, _writeln)
    reg("write", 1, _write)
    reg("nl", 0, _nl)

    reg("assert", 1, _assertz)
    reg("assertz", 1, _assertz)
    reg("asserta", 1, _asserta)
    reg("retract", 1, _retract)
    reg("dynamic", 1, _dynamic)
    reg("multifile", 1, _dynamic)
    reg("discontiguous", 1, _noop1)

    reg("catch", 3, _catch)


# -- unification -------------------------------------------------------------


def _unify2(m, args, ns):
    return unify(args[0], args[1], m.engine.trail, m.engine.occurs_check)


def _not_unify2(m, args, ns):
    trail = m.engine.trail
    mark = trail.mark()
    if unify(args[0], args[1], trail, m.engine.occurs_check):
        trail.undo_to(mark)
        return False
    return True


def _copy_term(m, args, ns):
    return unify(resolve_copy(args[0]), args[1], m.engine.trail, m.engine.occurs_check)


# -- arithmetic --------------------------------------------------------------


def eval_arith(t):
    t = deref(t)
    ty = type(t)
    if ty is int or ty is float:
        return t
    if ty is Var:
        raise instantiation_error("arithmetic")
    if ty is Struct:
        name = t.name
        n = len(t.args)
        if n == 2:
            a = eval_arith(t.args[0])
            b = eval_arith(t.args[1])
            if name == "+":
                return a + b
            if name == "-":
                return a - b
            if name == "*":
                return a * b
            if name == "/":
                if b == 0:
                    raise evaluation_error("zero_divisor")
                if type(a) is int and type(b) is int and a % b == 0:
                    return a // b
                return a / b
            if name == "//":
                if type(a) is not int or type(b) is not int:
                    raise type_error("integer", a if type(a) is not int else b)
                if b == 0:
                    raise evaluation_error("zero_divisor")
                return a // b
            if name == "mod":
                if type(a) is not int or type(b) is not int:
                    raise type_error("integer", a if type(a) is not int else b)
                if b == 0:
                    raise evaluation_error("zero_divisor")
                return a % b
            if name == "min":
                return min(a, b)
            if name == "max":
                return max(a, b)
        elif n == 1:
            a = eval_arith(t.args[0])
            if name == "-":
                return -a
            if name == "+":
                return a
            if name == "abs":
                return abs(a)
    raise type_error("evaluable", t)


def _is2(m, args, ns):
    return unify(args[0], eval_arith(args[1]), m.engine.trail, m.engine.occurs_check)


def _cmp(op):
    def fn(m, args, ns):
        return op(eval_arith(args[0]), eval_arith(args[1]))

    return fn


def _between(m, args, ns):
    lo = deref(args[0])
    hi = deref(args[1])
    x = args[2]
    if type(lo) is Var or type(hi) is Var:
        raise instantiation_error("between/3")
    if type(lo) is not int or type(hi) is not int:
        raise type_error("integer", lo if type(lo) is not int else hi)
    trail = m.engine.trail

    def gen():
        for i in range(lo, hi + 1):
            mark = trail.mark()
            if unify(x, i, trail):
                yield
            trail.undo_to(mark)

    return gen()


# -- output ------------------------------------------------------------------


def _writeln(m, args, ns):
    print(term_text(deref(args[0]), quoted=False), file=m.engine.out)
    return True


def _write(m, args, ns):
    print(term_text(deref(args[0]), quoted=False), end="", file=m.engine.out)
    return True


def _nl(m, args, ns):
    print(file=m.engine.out)
    return True


# -- clause store ------------------------------------------------------------


def _assertz(m, args, ns):
    m.engine.assert_term(resolve_copy(args[0]), ns)
    return True


def _asserta(m, args, ns):
    m.engine.assert_term(resolve_copy(args[0]), ns, front=True)
    return True


def _retract(m, args, ns):
    return m.engine.retract_term(args[0], ns)


def _indicator(t):
    t = deref(t)
    if type(t) is Struct and t.name == "/" and len(t.args) == 2:
        name = deref(t.args[0])
        arity = deref(t.args[1])
        if type(name) is Atom and type(arity) is int:
            return name.name, arity
    raise type_error("predicate_indicator", t)


def _dynamic(m, args, ns):
    spec = deref(args[0])
    while type(spec) is Struct and spec.name == "," and len(spec.args) == 2:
        _declare_dynamic(m, spec.args[0], ns)
        spec = deref(spec.args[1])
    _declare_dynamic(m, spec, ns)
    return True


def _declare_dynamic(m, t, ns):
    t = deref(t)
    if type(t) is Struct and t.name == ":" and len(t.args) == 2:
        space = deref(t.args[0])
        if type(space) is not Atom:
            raise type_error("namespace", space)
        ns = space.name
        t = t.args[1]
    name, arity = _indicator(t)
    if (name, arity) in m.engine.builtins:
        raise permission_error("modify", t)
    m.engine.entry(ns, name, arity, create=True).dynamic = True


def _noop1(m, args, ns):
    return True


# -- exceptions ----------------------------------------------------------------


def _catch(m, args, ns):
    m.catch(args[0], args[1], args[2], ns)
    return True
