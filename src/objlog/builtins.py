"""The core builtin predicates: unification, arithmetic, type tests, I/O,
clause store updates and catch/3.  Bridge predicates live in `bridge`."""

from __future__ import annotations

import operator

from .balls import (
    evaluation_error,
    instantiation_error,
    representation_error,
    type_error,
)
from .errors import CyclicTermError
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
    for name, _op, fn in _COMPARISONS:
        reg(name, 2, fn)

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
    reg("discontiguous", 1, _discontiguous)

    reg("catch", 3, _catch)


# -- unification -------------------------------------------------------------


def _unify2(m, args, ns):
    return unify(args[0], args[1], m.engine.trail, m.engine.occurs_check)


def _not_unify2(m, args, ns):
    # the bindings are undone either way, so they are recorded even when no
    # choice point is live: a unification that fails part way undoes its own
    trail = m.engine.trail
    mark = trail.mark()
    trail.guards += 1
    try:
        if unify(args[0], args[1], trail, m.engine.occurs_check):
            trail.undo_to(mark)
            return False
        return True
    finally:
        trail.release()


def copy_acyclic(t):
    """A fresh copy of `t`; a cyclic term (only possible with the occurs
    check off) is a representation error."""
    try:
        return resolve_copy(t)
    except CyclicTermError:
        raise representation_error("cyclic_term") from None


def _copy_term(m, args, ns):
    return unify(copy_acyclic(args[0]), args[1], m.engine.trail, m.engine.occurs_check)


# -- arithmetic --------------------------------------------------------------


class ArithOp:
    """An evaluable functor: its name, its arity (1 or 2) and the Python
    function that computes it from the values of its arguments."""

    __slots__ = ("name", "arity", "fn")

    def __init__(self, name: str, arity: int, fn):
        self.name = name
        self.arity = arity
        self.fn = fn


def _divide(a, b):
    if b == 0:
        raise evaluation_error("zero_divisor")
    if type(a) is int and type(b) is int and a % b == 0:
        return a // b
    return a / b


def _int_args(a, b):
    if type(a) is not int or type(b) is not int:
        raise type_error("integer", a if type(a) is not int else b)
    if b == 0:
        raise evaluation_error("zero_divisor")


def _int_divide(a, b):
    _int_args(a, b)
    return a // b


def _mod(a, b):
    _int_args(a, b)
    return a % b


# The evaluable functors by (name, arity): the one place their semantics
# are written, for `eval_arith` and for the expression code `clausecode`
# compiles clause-body arithmetic into.
ARITH_OPS = {(op.name, op.arity): op for op in (
    ArithOp("+", 2, operator.add),
    ArithOp("-", 2, operator.sub),
    ArithOp("*", 2, operator.mul),
    ArithOp("/", 2, _divide),
    ArithOp("//", 2, _int_divide),
    ArithOp("mod", 2, _mod),
    ArithOp("min", 2, min),
    ArithOp("max", 2, max),
    ArithOp("-", 1, operator.neg),
    ArithOp("+", 1, operator.pos),
    ArithOp("abs", 1, abs),
)}


def eval_arith(t):
    """The value of an arithmetic expression.  Iterative, so an expression
    of any depth evaluates.  Arguments are evaluated left to right before
    their functor is looked up, so a compound of arity 1 or 2 that is not
    evaluable raises its type error only after its arguments evaluated.  A
    cyclic term (made with the occurs check off) is a representation
    error."""
    vals: list = []
    todo = [t]
    path: set = set()  # the compounds whose arguments are being evaluated
    while todo:
        t = todo.pop()
        if type(t) is tuple:  # (compound,): its argument values are on `vals`
            t = t[0]
            path.discard(id(t))
            op = ARITH_OPS.get((t.name, len(t.args)))
            if op is None:
                raise type_error("evaluable", t)
            if op.arity == 2:
                b = vals.pop()
                vals[-1] = op.fn(vals[-1], b)
            else:
                vals[-1] = op.fn(vals[-1])
            continue
        t = deref(t)
        ty = type(t)
        if ty is int or ty is float:
            vals.append(t)
        elif ty is Var:
            raise instantiation_error("arithmetic")
        elif ty is Struct and len(t.args) <= 2:
            if id(t) in path:
                raise representation_error("cyclic_term")
            path.add(id(t))
            todo.append((t,))
            todo.extend(reversed(t.args))
        else:
            raise type_error("evaluable", t)
    return vals[0]


def _is2(m, args, ns):
    return unify(args[0], eval_arith(args[1]), m.engine.trail, m.engine.occurs_check)


def _cmp(op):
    def fn(m, args, ns):
        return op(eval_arith(args[0]), eval_arith(args[1]))

    return fn


# The comparison builtins: name, comparison, registered function.
_COMPARISONS = tuple((name, op, _cmp(op)) for name, op in (
    ("<", operator.lt), (">", operator.gt), ("=<", operator.le),
    (">=", operator.ge), ("=:=", operator.eq), ("=\\=", operator.ne)))

# The arithmetic builtins by their registered function, with what
# `clausecode` compiles a clause-body call of one into: None for is/2, else
# its comparison.
ARITH_BUILTINS = {_is2: None, **{fn: op for _name, op, fn in _COMPARISONS}}


def _between(m, args, ns):
    """between/3.  A bound third argument is answered here; an unbound one
    enumerates through the prelude's `pce_principal:'$between'/3`, whose
    clauses leave the choice points."""
    lo = deref(args[0])
    hi = deref(args[1])
    x = deref(args[2])
    if type(lo) is Var or type(hi) is Var:
        raise instantiation_error("between/3")
    if type(lo) is not int or type(hi) is not int:
        raise type_error("integer", lo if type(lo) is not int else hi)
    if type(x) is not Var:
        return type(x) is int and lo <= x <= hi
    if lo > hi:
        return False
    from .clausecode import call_goal  # clausecode imports this module
    from .engine import PushGoal

    entry = m.engine.preds[("pce_principal", "$between", 3)]
    return PushGoal((call_goal(entry, (lo, hi, x)),))


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
    m.engine.assert_term(copy_acyclic(args[0]), ns)
    return True


def _asserta(m, args, ns):
    m.engine.assert_term(copy_acyclic(args[0]), ns, front=True)
    return True


def _retract(m, args, ns):
    return m.engine.retract_term(args[0], ns)


def _dynamic(m, args, ns):
    m.engine.declare_dynamic(args[0], ns)
    return True


def _discontiguous(m, args, ns):
    m.engine.declare_dynamic(args[0], ns, create=False)
    return True


# -- exceptions ----------------------------------------------------------------


def _catch(m, args, ns):
    m.catch(args[0], args[1], args[2], ns)
    return True
