"""Compiled clause code: term programs and body goals.

A clause is compiled once, when it is asserted, after the clause code of
Warren's abstract machine (Warren 1983; Aït-Kaci, "Warren's Abstract
Machine: A Tutorial Reconstruction", 1991).  Each variable of the clause
gets a slot, a plain int, in a frame that one try of the clause fills.

A term program is one of: an int `i >= 0`, the term in slot i; an int `~i`,
the first occurrence of slot i (the head matcher stores the goal's term
there, the instantiator a fresh variable); `(n,)`, the integer n;
`(name, p1, ..., pn)`, a compound of programs; anything else, a ground term
used as it is.  The head compiles to one program per argument, which
`Machine.try_clause` runs in read or write mode.

A body compiles to a flat tuple of `Goal`s: control constructs are resolved
into goals of their own, builtins are bound to their functions, and a user
goal carries its predicate key and caches the entry on its first successful
lookup.  Only argument terms are built per call.  Goals met at run time (a
query, `call/N`, a variable goal) compile the same way with their variables
held as they are; nothing else is compiled at run time.  The call that
runs a logic-defined method, made for a send or get from logic, is built
already compiled by `call_goal`: one `CALL` goal with fixed arguments and
its predicate entry resolved, so it builds no goal term and looks nothing
up.

A clause-body `is/2` or comparison (`<` `>` `=<` `>=` `=:=` `=\\=`) compiles
each of its expressions to expression code: a flat postfix tuple whose
entries are an int i, the number in slot i; `(n,)`, the number n; and an
`ArithOp`, applied to the values its arity takes off the stack.  `eval_code`
runs it in one loop, so a call builds no term and nothing recurses.  An
`is/2` at the top level of a body (outside `;`, `->`, `\\+` and `once`)
whose left side is a variable first met there, and not in its expression,
writes the number straight into that variable's slot: no variable is made,
bound or trailed.  Only the goals after it read that slot, and backtracking
to a point before it runs it again.  An expression with a part that is not
evaluable as written (an atom, an unknown functor) stays a builtin call,
and `eval_arith` raises its error when the goal runs.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Optional

from .builtins import ARITH_BUILTINS, ARITH_OPS, ArithOp, eval_arith
from .terms import TRUE, Atom, Struct, Term, Var, deref

NAMESPACES = ("user", "pce_principal")


# -- term programs -----------------------------------------------------------


def program(t: Term, slots: dict, fresh: Optional[list]):
    """Compile a term into a term program (see the module docstring).

    Variables are numbered in depth-first, left-to-right order, the order in
    which the head matcher and the instantiator meet them.  With `fresh`
    None (the head) a first occurrence compiles to `~slot`; otherwise (the
    body) the new slot is listed in `fresh`, to be filled with a fresh
    variable before the body runs."""
    root = [None]
    stack = [("c", t, root, 0)]
    while stack:
        op, a, dest, di = stack.pop()
        if op == "f":
            orig, subs = a
            if all(type(s) is not int and (type(s) is not tuple or len(s) == 1)
                   for s in subs):
                raw = tuple(s[0] if type(s) is tuple else s for s in subs)
                if any(r is not o for r, o in zip(raw, orig.args)):
                    orig = new_struct(orig.name, raw)
                dest[di] = orig
            else:
                dest[di] = (orig.name, *subs)
            continue
        a = deref(a)
        ta = type(a)
        if ta is Var:
            i = slots.get(id(a))
            if i is None:
                i = slots[id(a)] = len(slots)
                if fresh is None:
                    i = ~i
                else:
                    fresh.append(i)
            dest[di] = i
        elif ta is Struct:
            subs = [None] * len(a.args)
            stack.append(("f", (a, subs), dest, di))
            for k in range(len(subs) - 1, -1, -1):
                stack.append(("c", a.args[k], subs, k))
        elif ta is int:
            dest[di] = (a,)
        else:
            dest[di] = a
    return root[0]


def new_struct(name: str, args: tuple) -> Struct:
    s = Struct.__new__(Struct)
    s.name = name
    s.args = args
    return s


def instantiate(prog: tuple, vs: list) -> tuple:
    """The argument tuple of a compound program, built against frame `vs`."""
    out: list = []
    stack = None
    i = 1
    n = len(prog)
    while True:
        while i < n:
            p = prog[i]
            i += 1
            tp = type(p)
            if tp is int:
                if p >= 0:
                    out.append(vs[p])
                else:
                    v = vs[~p] = Var()
                    out.append(v)
            elif tp is tuple:
                if len(p) == 1:
                    out.append(p[0])
                else:
                    stack = (prog, i, n, out, stack)
                    prog = p
                    i = 1
                    n = len(p)
                    out = []
            else:
                out.append(p)
        if stack is None:
            return tuple(out)
        s = new_struct(prog[0], tuple(out))
        prog, i, n, out, stack = stack
        out.append(s)


# -- expression code -------------------------------------------------------------


def expr_code(p) -> Optional[tuple]:
    """The expression code of term program `p`, or None when a part of it
    is not evaluable as written."""
    out: list = []
    todo = [p]
    while todo:
        p = todo.pop()
        tp = type(p)
        if tp is int or tp is ArithOp:  # a slot, or an operator after its arguments
            out.append(p)
        elif tp is float:
            out.append((p,))
        elif tp is tuple and len(p) == 1:  # an integer
            out.append(p)
        else:
            if tp is tuple:
                name, args = p[0], p[1:]
            elif tp is Struct:  # a ground compound: its integers are plain ints
                name = p.name
                args = tuple((a,) if type(a) is int else a for a in p.args)
            else:
                return None
            op = ARITH_OPS.get((name, len(args)))
            if op is None:
                return None
            todo.append(op)
            todo.extend(reversed(args))
    return tuple(out)


def eval_code(code: tuple, vs: list):
    """The value of expression code against frame `vs`.  A slot that holds
    anything but a number goes to `eval_arith`, which evaluates a compound
    and raises the error an unbound variable or an atom calls for."""
    stack: list = []
    for p in code:
        tp = type(p)
        if tp is int:
            x = vs[p]
            if type(x) is Var:
                x = deref(x)
            if type(x) is not int and type(x) is not float:
                x = eval_arith(x)
            stack.append(x)
        elif tp is tuple:
            stack.append(p[0])
        elif p.arity == 2:
            b = stack.pop()
            stack[-1] = p.fn(stack[-1], b)
        else:
            stack[-1] = p.fn(stack[-1])
    return stack[0]


# -- compiled goals ------------------------------------------------------------

# Goal operations.  Those below CUT take arguments, built per call; EXIT
# ends the goal of a catch/3 frame or of a scope run in the calling machine;
# those above EXIT are arithmetic and run from expression code: IS and SET
# (is/2 into a fresh slot) and COMPARE.
CALL, BUILTIN, CALLN, THROW, META, CUT, FAIL, ALT, ITE, NOT, EXIT, IS, SET, COMPARE = range(14)


class Goal:
    """One compiled body goal.

    `args` holds fixed arguments; otherwise `prog` (or the faster `get`, when
    every argument is a slot) builds them from the frame.  A user goal
    caches its predicate entry in `entry`; a builtin's function is `fn`;
    control goals keep their sub-bodies in `a`, `b` and `c`.  An arithmetic
    goal keeps its expression code in `a` (and `b`, a comparison's right
    side), its comparison in `fn`, the slot of an `is/2`'s left side in
    `key` (None when that side is not a variable), and in `prog` the
    program of the whole goal, built only for the trace."""

    __slots__ = ("op", "ns", "name", "key", "args", "prog", "get", "fn", "entry",
                 "a", "b", "c")

    def __init__(self, op: int, ns: str = "user", name: str = ""):
        self.op = op
        self.ns = ns
        self.name = name
        self.key = None
        self.args = ()
        self.prog = None
        self.get = None
        self.fn = None
        self.entry = None
        self.a = self.b = self.c = ()


_CUT_GOAL = Goal(CUT)
_FAIL_GOAL = Goal(FAIL)
COMMIT = (_CUT_GOAL,)
COMMIT_FAIL = (_CUT_GOAL, _FAIL_GOAL)
EXIT_GOAL = Goal(EXIT)
COMMIT_EXIT = (_CUT_GOAL, EXIT_GOAL)

# The control constructs the body compiler resolves, by name and arity;
# `call` takes any arity from 1 up.  No clause may be asserted for one.
CONTROL = frozenset({(",", 2), ("true", 0), ("fail", 0), ("false", 0), ("!", 0),
                     (";", 2), ("->", 2), ("\\+", 1), ("once", 1), (":", 2),
                     ("throw", 1)})


def is_control(name: str, arity: int) -> bool:
    return (name, arity) in CONTROL or (name == "call" and arity >= 1)


def arg_goal(op: int, t: Term, ns: str, slots: Optional[dict], fresh) -> Goal:
    """A goal whose arguments are those of `t`: held as they are at run
    time (`slots` None), else compiled to a program over the clause's
    slots.  A user goal (`CALL`) gets its predicate key."""
    g = Goal(op, ns, t.name)
    if op == CALL:
        g.key = (ns, t.name, len(t.args) if type(t) is Struct else 0)
    if type(t) is Atom:
        return g
    if slots is None:
        g.args = t.args
        return g
    p = program(t, slots, fresh)
    if type(p) is not tuple:
        g.args = p.args
        return g
    g.prog = p
    if len(p) > 2 and all(type(x) is int for x in p[1:]):
        g.get = itemgetter(*p[1:])
    return g


def call_goal(entry, args: tuple) -> Goal:
    """A call of predicate `entry` (a `PredicateEntry`) with the fixed
    arguments `args`: built already compiled and resolved, so running it
    looks nothing up and compiles nothing.  Entries are never removed and
    their clause lists are copy-on-write, so the pinned entry stays valid;
    with it set, the goal needs no `key`."""
    g = Goal(CALL, entry.ns, entry.name)
    g.args = args
    g.entry = entry
    return g


def arith_goal(t: Struct, ns: str, compare, slots: dict, fresh: list, top: bool
               ) -> Optional[Goal]:
    """A clause-body is/2 (`compare` None) or comparison compiled to
    expression code, or None when an expression is not evaluable as
    written.  `top` says the goal is at the top level of the body."""
    left, right = t.args
    if compare is not None:
        lp = program(left, slots, fresh)
        rp = program(right, slots, fresh)
        a = expr_code(lp)
        b = expr_code(rp)
        if a is None or b is None:
            return None
        g = Goal(COMPARE, ns, t.name)
        g.b = b
        g.fn = compare
    else:
        rp = program(right, slots, fresh)
        a = expr_code(rp)
        if a is None:
            return None
        left = deref(left)
        if top and type(left) is Var and id(left) not in slots:
            g = Goal(SET, ns, t.name)
            g.key = slots[id(left)] = len(slots)
            lp = ~g.key
        else:
            g = Goal(IS, ns, t.name)
            lp = program(left, slots, fresh)
            if type(lp) is int:
                g.key = lp
    g.a = a
    g.prog = (t.name, lp, rp)
    return g


def late_goal(t: Term, ns: str, slots: Optional[dict] = None, fresh=None) -> Goal:
    """A goal compiled only when it runs, transparent to cut: a variable, a
    term that is not callable, or a goal under an unknown namespace."""
    return arg_goal(META, Struct("call", (t,)), ns, slots, fresh)


def compile_body(term: Term, ns: str, builtins: dict,
                 slots: Optional[dict] = None, fresh: Optional[list] = None) -> tuple:
    """Compile a goal term into a flat tuple of goals.

    For a clause body `slots` maps variables to frame slots; for a goal met
    at run time it is None and the goal's variables are held as they are.
    Goals that cannot be resolved now (a variable, a non-callable term, an
    unknown namespace) become `META` goals, resolved when they run."""
    root: list = []
    stack: list = [(term, ns, root)]
    while stack:
        t, ns, out = stack.pop()
        if t is None:  # fill a control goal's sub-bodies once compiled
            goal, parts = ns, out
            goal.a, goal.b, goal.c = (tuple(p) if p is not None else None for p in parts)
            continue
        t = deref(t)
        ty = type(t)
        if ty is Struct:
            name, n = t.name, len(t.args)
        elif ty is Atom:
            name, n = t.name, 0
        else:
            out.append(late_goal(t, ns, slots, fresh))
            continue
        if not is_control(name, n):
            fn = builtins.get((name, n))
            g = None
            if fn is None:
                g = arg_goal(CALL, t, ns, slots, fresh)
            elif slots is not None and fn in ARITH_BUILTINS:
                g = arith_goal(t, ns, ARITH_BUILTINS[fn], slots, fresh, out is root)
            if g is None:
                g = arg_goal(BUILTIN, t, ns, slots, fresh)
                g.fn = fn
            out.append(g)
        elif name == ",":
            stack.append((t.args[1], ns, out))
            stack.append((t.args[0], ns, out))
        elif name == "true":
            pass
        elif name == "fail" or name == "false":
            out.append(_FAIL_GOAL)
        elif name == "!":
            out.append(_CUT_GOAL)
        elif name == ":":
            m = deref(t.args[0])
            if type(m) is Atom and m.name in NAMESPACES:
                stack.append((t.args[1], m.name, out))
            else:
                out.append(late_goal(t, ns, slots, fresh))
        elif name == "call":
            out.append(arg_goal(CALLN, t, ns, slots, fresh))
        elif name == "throw":
            out.append(arg_goal(THROW, t, ns, slots, fresh))
        else:
            args = t.args
            left = deref(args[0])
            if name == ";" and type(left) is Struct and left.name == "->" and len(left.args) == 2:
                op, subs = ITE, (left.args[0], left.args[1], args[1])
            elif name == ";":
                op, subs = ALT, (args[0], args[1], None)
            elif name == "->":
                op, subs = ITE, (args[0], args[1], None)
            elif name == "once":
                op, subs = ITE, (args[0], TRUE, None)
            else:  # \+
                op, subs = NOT, (args[0], None, None)
            g = Goal(op, ns)
            out.append(g)
            parts = [None if s is None else [] for s in subs]
            stack.append((None, g, parts))
            for s, part in zip(subs, parts):
                if s is not None:
                    stack.append((s, ns, part))
    return tuple(root)
