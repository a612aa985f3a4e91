"""The core builtin predicates: unification, the standard order of terms,
arithmetic, type tests, I/O, clause store updates and catch/3.  Bridge
predicates live in `bridge`."""

from __future__ import annotations

import functools
import math
import operator

from .balls import (
    domain_error,
    evaluation_error,
    instantiation_error,
    representation_error,
    type_error,
)
from .errors import CyclicTermError
from .terms import (NIL, Atom, ObjRef, Struct, Var, deref, mk_list, resolve_copy,
                    structural_eq, unify)
from .writer import term_text


def install(engine) -> None:
    reg = engine.register_builtin

    reg("=", 2, _unify2)
    reg("\\=", 2, _not_unify2)
    reg("==", 2, lambda m, a, ns: structural_eq(a[0], a[1]))
    reg("\\==", 2, lambda m, a, ns: not structural_eq(a[0], a[1]))

    reg("compare", 3, _compare3)
    for name, test in (("@<", operator.lt), ("@>", operator.gt),
                       ("@=<", operator.le), ("@>=", operator.ge)):
        reg(name, 2, lambda m, a, ns, test=test: test(compare_terms(a[0], a[1]), 0))
    reg("msort", 2, _msort)
    reg("sort", 2, _sort)

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
    for name, _sym, fn in _COMPARISONS:
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


# -- the standard order of terms ------------------------------------------

# order class of each kind of term (ISO/IEC 13211-1 7.2); a reference
# orders as the compound `@(N)`
_RANK = {Var: 0, int: 1, float: 1, Atom: 2, Struct: 3, ObjRef: 3}
_CLOSE = object()  # on the stack: the arguments of a pair of compounds end


def _name_args(t):
    """The name and arguments a compound orders by; a reference `@N` or
    `@name` orders as `@(N)`, the form XPCE writes it in."""
    if type(t) is ObjRef:
        r = t.ref
        return "@", (Atom(r) if type(r) is str else r,)
    return t.name, t.args


def compare_terms(a, b) -> int:
    """-1, 0 or 1 as `a` comes before, with or after `b` in the standard
    order of terms: variables (in an order fixed while they live: here
    their address), then numbers by value, a float before an int of equal
    value, then atoms by code points, then compounds by arity, then name,
    then arguments from left to right.  A reference comes just before the
    compound `@(N)` it orders as, so only `==` terms compare equal.  An
    explicit stack, so deep terms do not use the Python stack; a cyclic
    term (possible only with the occurs check off) is a representation
    error, found when the walk meets a compound inside itself."""
    stack = [(a, b)]
    xpath: set = set()  # the compounds of each side whose arguments are open
    ypath: set = set()
    while stack:
        x, y = stack.pop()
        if x is _CLOSE:
            ix, iy, tie = y
            if tie:
                return tie
            xpath.discard(ix)
            ypath.discard(iy)
            continue
        x = deref(x)
        y = deref(y)
        tx = type(x)
        ty = type(y)
        rx = _RANK[tx]
        ry = _RANK[ty]
        if rx != ry:
            return -1 if rx < ry else 1
        if rx == 0:
            if x is not y:
                return -1 if id(x) < id(y) else 1
        elif rx == 1:
            if x != y:
                return -1 if x < y else 1
            if tx is not ty:
                return -1 if tx is float else 1
        elif rx == 2:
            if x is not y:
                return -1 if x.name < y.name else 1
        else:
            xname, xargs = _name_args(x)
            yname, yargs = _name_args(y)
            if len(xargs) != len(yargs):
                return -1 if len(xargs) < len(yargs) else 1
            if xname != yname:
                return -1 if xname < yname else 1
            ix = id(x)
            iy = id(y)
            if ix in xpath or iy in ypath:
                raise representation_error("cyclic_term")
            xpath.add(ix)
            ypath.add(iy)
            tie = 0 if tx is ty else -1 if tx is ObjRef else 1
            stack.append((_CLOSE, (ix, iy, tie)))
            stack.extend(zip(reversed(xargs), reversed(yargs)))
    return 0


_ORDERS = {-1: Atom("<"), 0: Atom("="), 1: Atom(">")}


def _compare3(m, args, ns):
    order = deref(args[0])
    if type(order) is not Var:
        if type(order) is not Atom:
            raise type_error("atom", order)
        if order not in _ORDERS.values():
            raise domain_error("order", order)
    return unify(order, _ORDERS[compare_terms(args[1], args[2])], m.engine.trail)


def _list_of(t, what: str, partial: bool = False):
    """The elements of list `t`.  A partial list is an instantiation error,
    or with `partial` returns None; anything else that is no list is
    `type_error(list, t)`, and a cyclic list a representation error."""
    items = []
    cells: set = set()
    cell = deref(t)
    while type(cell) is Struct and cell.name == "." and len(cell.args) == 2:
        if id(cell) in cells:
            raise representation_error("cyclic_term")
        cells.add(id(cell))
        items.append(cell.args[0])
        cell = deref(cell.args[1])
    if cell is NIL:
        return items
    if type(cell) is Var:
        if partial:
            return None
        raise instantiation_error(what)
    raise type_error("list", deref(t))


def _sorted(m, args, what: str, unique: bool):
    items = sorted(_list_of(args[0], what), key=functools.cmp_to_key(compare_terms))
    _list_of(args[1], what, partial=True)  # the answer: a list or a partial one
    if unique:
        items = [x for i, x in enumerate(items) if i == 0 or compare_terms(items[i - 1], x)]
    return unify(mk_list(items), args[1], m.engine.trail, m.engine.occurs_check)


def _msort(m, args, ns):
    return _sorted(m, args, "msort/2", False)


def _sort(m, args, ns):
    return _sorted(m, args, "sort/2", True)


# -- arithmetic --------------------------------------------------------------


class ArithOp:
    """An evaluable functor: its name, its arity (1 or 2) and the Python
    function that computes it from the values of its arguments."""

    __slots__ = ("name", "arity", "fn")

    def __init__(self, name: str, arity: int, fn):
        self.name = name
        self.arity = arity
        self.fn = fn


def _finite(fn):
    """Binary `fn` that raises `evaluation_error(float_overflow)` (ISO/IEC
    13211-1 9.1.4) where it would make a float past the float range: an
    inf or a NaN, or Python's OverflowError for an int too large to mix
    with a float.  Clause-body arithmetic makes the same check in line."""
    def checked(a, b):
        try:
            x = fn(a, b)
        except OverflowError:
            raise evaluation_error("float_overflow") from None
        if type(x) is float and not math.isfinite(x):
            raise evaluation_error("float_overflow")
        return x

    return checked


@_finite
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


def _bits(*vals):
    """Check the operands of a bitwise functor (ISO/IEC 13211-1, 9.4)."""
    for v in vals:
        if type(v) is not int:
            raise type_error("integer", v)


def _and(a, b):
    _bits(a, b)
    return a & b


def _or(a, b):
    _bits(a, b)
    return a | b


def _complement(a):
    _bits(a)
    return ~a


def _sign(a):
    s = (a > 0) - (a < 0)
    return s if type(a) is int else float(s)


def _float(a):
    try:
        return float(a)
    except OverflowError:  # an integer past the float range
        raise evaluation_error("float_overflow") from None


def _truncate(a):
    # ISO/IEC 13211-1 9.1.1 takes a float to an integer
    if type(a) is not float:
        raise type_error("float", a)
    if not math.isfinite(a):
        raise evaluation_error("undefined")
    return math.trunc(a)


# The evaluable functors by (name, arity): the one place their semantics
# are written, for `eval_arith` and for the functions `clausecode`
# generates for clause-body arithmetic.
ARITH_OPS = {(op.name, op.arity): op for op in (
    ArithOp("+", 2, _finite(operator.add)),
    ArithOp("-", 2, _finite(operator.sub)),
    ArithOp("*", 2, _finite(operator.mul)),
    ArithOp("/", 2, _divide),
    ArithOp("//", 2, _int_divide),
    ArithOp("mod", 2, _mod),
    ArithOp("min", 2, min),
    ArithOp("max", 2, max),
    ArithOp("-", 1, operator.neg),
    ArithOp("+", 1, operator.pos),
    ArithOp("abs", 1, abs),
    ArithOp("/\\", 2, _and),
    ArithOp("\\/", 2, _or),
    ArithOp("\\", 1, _complement),
    ArithOp("sign", 1, _sign),
    ArithOp("float", 1, _float),
    ArithOp("truncate", 1, _truncate),
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
                raise _not_evaluable(t)
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
            raise _not_evaluable(t)
    return vals[0]


def _not_evaluable(t):
    """The ball for a term `eval_arith` cannot evaluate: an atom or a
    compound is named by its predicate indicator (ISO/IEC 13211-1, 7.9.2),
    `foo/0` for `foo` and `foo/2` for `foo(1, 2)`."""
    if type(t) is Atom:
        t = Struct("/", (t, 0))
    elif type(t) is Struct:
        t = Struct("/", (Atom(t.name), len(t.args)))
    return type_error("evaluable", t)


def _is2(m, args, ns):
    return unify(args[0], eval_arith(args[1]), m.engine.trail, m.engine.occurs_check)


def _cmp(op):
    def fn(m, args, ns):
        return op(eval_arith(args[0]), eval_arith(args[1]))

    return fn


# The comparison builtins: name, Python operator, registered function.
_COMPARISONS = tuple((name, sym, _cmp(op)) for name, sym, op in (
    ("<", "<", operator.lt), (">", ">", operator.gt), ("=<", "<=", operator.le),
    (">=", ">=", operator.ge), ("=:=", "==", operator.eq), ("=\\=", "!=", operator.ne)))

# The arithmetic builtins by their registered function, with what
# `clausecode` compiles a clause-body call of one into: None for is/2, else
# the Python operator of its comparison, which generated code writes in
# line.
ARITH_BUILTINS = {_is2: None, **{fn: sym for _name, sym, fn in _COMPARISONS}}


def _between(m, args, ns):
    """between/3.  A bound third argument is answered here; an unbound one
    enumerates by entering the prelude's `pce_principal:'$between'/3` in
    place (`Machine.enter`), whose clauses leave the choice points."""
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
    return m.enter(m.engine.preds[("pce_principal", "$between", 3)], (lo, hi, x))


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
