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
lookup.  Only argument terms are built per call.  A goal that cannot be
resolved then (a variable, a goal under a qualifier that is not a namespace
atom) is call/1 of it, one `CALLN` goal, opaque to cut (ISO/IEC 13211-1,
7.6.2); a goal with a part that is neither a variable nor callable is
`type_error(callable, G)` as a whole (7.8.3.3), except for the argument
of `\\+` or `once/1`, which is then call/1 of it.  A goal met at run time (a
query, `call/N`, a variable goal) that is one call of a builtin or a user
predicate runs with nothing compiled (`engine.Machine.call_term`); any
other compiles the same way, with its variables held as they are, and
nothing else is compiled at run time.  No other module builds goals:
code outside the clauses hands the machine a goal term to solve
(`engine.Engine.solve`) or a predicate entry to enter in place
(`engine.Machine.enter`), as between/3 and a send or get from logic do.

A clause-body `is/2` or comparison (`<` `>` `=<` `>=` `=:=` `=\\=`) compiles
to generated code over frame slots, so a call builds no term and nothing
recurses: one walk of each expression's term program gives its postfix
shape and its constants (`_expr_shape`).  The comparison, binary `+` `-`
`*` and unary `-` `+` are Python's own operators in the generated source,
with no call, as compilers that keep the WAM model compile arithmetic
(Van Roy, "Can Logic Programming Execute as Fast as Imperative
Programming?", 1990); every other evaluable calls its `ARITH_OPS`
function.  A float that `+` `-` `*` makes is checked against the float
range in line, and an int too large to mix with a float is caught, so
each raises `evaluation_error(float_overflow)` as `ARITH_OPS` does.  A
function reads each slot once, at its first use, with one type test when
it holds an int, and every later step reuses the number.  An `is/2` at
the top level of a body (outside `;`, `->`, `\\+` and `once`) whose left
side is a variable first met there, and not in its expression, writes the
number straight into that variable's slot: no variable is made, bound or
trailed.  Only the goals after it read that slot, and backtracking to a
point before it runs it again.  An expression with a part that is not
evaluable as written (an atom, an unknown functor), or with more than
MAX_NODES nodes (a 100 000-node sum would take seconds to compile), stays
a builtin call, and `eval_arith` evaluates it when the goal runs, as it
does a run-time `is/2`.

The leading run of a clause body's comparisons and new-variable `is/2`
goals is its guard (`guard_code`): it runs as one function right after the
head matches, so a test that fails costs a failed clause try and no trip
through the machine's main loop, as in wamcc and Carlsson's shallow
backtracking (ICLP 1989).  Such a goal on its own runs the guard function
of a run of one, so it shares its function with the same goal leading a
body.  The body's code keeps the guard's goals, and a traced run executes
them from there one by one.

Clause code is then turned into Python code, as wamcc turns WAM code into C
(Codognet and Diaz, ICLP 1995): a head's match program becomes a matcher,
the argument program of a body goal a builder, and arithmetic a guard or
an evaluator.  A matcher or a builder is a straight-line function that
does what the interpreter (`engine.match_args`, `instantiate`) does, step
for step, so bindings, trail entries, `unify` calls and error balls are
the same; arithmetic gives the values and raises the balls `eval_arith`
gives and raises.  Generated code dereferences in a `while type(x) is
Var` loop, makes a compound as `t = new(Struct)` and sets its name and
arguments, and binds as `trail.record(x); x.ref = t`, so `Trail.record`
stays the one rule of what is trailed.  The calls it makes are `unify`
(looked up in `objlog.engine` as it runs), `occurs_in`, `eval_arith`, the
`ARITH_OPS` functions that do not run in line, `Var()` and
`trail.record`, and `deref` and `bind` only under `if tracing`.  A head
matches each compound once, as the WAM does under its read/write mode
(Aït-Kaci 1991, §2.3): the compound sets a mode flag of its own, true
when it meets an unbound variable or its parent is in write mode, and
runs its arguments once under it, one test of the flag for each run of
arguments that hold no compound: in read mode they match the goal
compound's arguments, in write mode they make a fresh variable or read a
slot or a constant.  In write mode the compound then builds itself and
binds the variable it met.  So a head's source grows linearly with its
nodes.
A function is generated per shape, not per clause: the shape key is the
program with each constant (an atom, a number, a functor name, a ground
term) replaced by a kind tag, and the constants reach the function as a
tuple that the clause or goal holds.  Generated source is written from the
key alone, that is from slot numbers, arities and kind tags, so no term
text is ever pasted into it.  Functions live in an LRU cache of
SHAPE_CACHE shapes; a clause or goal keeps its function after the cache
drops it.  A head or a goal's arguments of at most MAX_NODES nodes are
generated whole, however deep they nest; bigger ones (a head of arity
10 000 took 0.8 s to generate) are interpreted whole, matched by
`engine.match_head` or built by `instantiate`, so the source of one
function stays small.  That is decided from the program when it is
compiled, by a count that stops one node past the bound.  A matcher only
matches: on failure it returns False and leaves the trail as it is, for
the backtracking that follows to undo, as the WAM's failing `get`
instructions do (Aït-Kaci 1991, §5).

A predicate's clause switch (`select_switch`), the function that picks the
clauses a call tries, is generated the same way: its key is the state of
each argument's index, its constants the index buckets, and the same cache
holds it.
"""

from __future__ import annotations

import sys
from collections import Counter
from functools import lru_cache
from typing import Optional

from .balls import domain_error, evaluation_error, instantiation_error, type_error
from .builtins import ARITH_BUILTINS, ARITH_OPS, ArithOp, eval_arith
from .terms import TRUE, Atom, Struct, Term, Var, deref

NAMESPACES = ("user", "pce_principal")


def resolve_qualifiers(t: Term, ns: str) -> tuple:
    """What a goal term `t` met in namespace `ns` names: `(G, namespace)`,
    with G dereferenced.  `M:G` runs G in namespace M, so of nested
    qualifiers the innermost wins.  An unbound qualifier is an
    instantiation error, and one that is not in NAMESPACES a domain error.
    Calls, call/N, assert, retract and dynamic/1 all read qualifiers here."""
    t = deref(t)
    while type(t) is Struct and t.name == ":" and len(t.args) == 2:
        m = deref(t.args[0])
        if type(m) is not Atom or m.name not in NAMESPACES:
            if type(m) is Var:
                raise instantiation_error("namespace qualifier")
            raise domain_error("namespace", m)
        ns = m.name
        t = deref(t.args[1])
    return t, ns


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


# -- generated code ------------------------------------------------------------

# Generated code makes a compound as `t = new(Struct)` and sets its name
# and arguments; `objlog.engine` imports it for the head matchers.
new = object.__new__

# A head or a goal's arguments of more than MAX_NODES nodes (slots,
# constants and compounds) stay interpreted, and an expression of more
# than MAX_NODES nodes stays a builtin call.
MAX_NODES = 64
# The largest finite float, which generated arithmetic checks a float it
# makes against.
_FMAX = sys.float_info.max
# The generated functions kept, least recently used dropped first.
SHAPE_CACHE = 512


def _shape(p, consts: list):
    """The shape key of term program `p`: the program with each constant
    moved to `consts`, in the order the generated code reads it, and a kind
    tag left in its place.  A compound becomes the tuple of its arguments'
    keys (its functor name is a constant).  It recurses once per level, so
    it runs only on programs that `_term_code` has found within MAX_NODES."""
    tp = type(p)
    if tp is int:
        return p
    if tp is tuple:
        if len(p) == 1:
            consts.append(p[0])
            return "int"
        consts.append(p[0])
        return tuple([_shape(s, consts) for s in p[1:]])
    consts.append(p)  # an atom, a float, a ground compound or an object reference
    return "const"


def _term_code(kind: str, prog: tuple) -> Optional[tuple]:
    """The generated function of `kind` ("head" or "build") for the argument
    programs `prog[1:]` and its constants, or None when they have more than
    MAX_NODES nodes.  The nodes are counted first, with no recursion and no
    further than one past the bound."""
    todo = list(prog[1:])
    n = 0
    while todo:
        n += 1
        if n > MAX_NODES:
            return None
        p = todo.pop()
        if type(p) is tuple:
            todo.extend(p[1:])
    consts: list = []
    key = (kind, *[_shape(p, consts) for p in prog[1:]])
    return _generated(key), tuple(consts)


# The evaluables generated code writes as Python's own operators, by name
# and arity, with their tag in a shape key: a binary one's tag is its
# Python operator.  Any other evaluable is a call of its `ARITH_OPS`
# function.
_IN_LINE = {("+", 2): "+", ("-", 2): "-", ("*", 2): "*", ("-", 1): "neg", ("+", 1): "pos"}


def _expr_shape(p, consts: list) -> Optional[tuple]:
    """The shape key of the expression of term program `p`, in postfix
    order: an int i, the number in slot i; "num", a number; "+", "-", "*",
    "neg" or "pos", that evaluable in line; "op2" or "op1", a call of any
    other evaluable's function on the values its arity takes off the stack.
    Each number and each called function goes to `consts`, in the order
    the generated code reads them.  None when a part is not evaluable as
    written (an atom, an unknown functor) or the expression has more than
    MAX_NODES nodes."""
    out: list = []
    todo = [p]
    while todo:
        p = todo.pop()
        tp = type(p)
        if tp is int:
            out.append(p)
        elif tp is ArithOp:  # an operator, after its arguments
            tag = _IN_LINE.get((p.name, p.arity))
            if tag is None:
                consts.append(p.fn)
                tag = "op2" if p.arity == 2 else "op1"
            out.append(tag)
        elif tp is float or (tp is tuple and len(p) == 1):  # a number
            consts.append(p if tp is float else p[0])
            out.append("num")
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
    return tuple(out) if len(out) <= MAX_NODES else None


class _Source:
    """The source of one generated function, written from a shape key alone:
    slot numbers, arities and kind tags.  Constants are read as `K[j]`.  It
    dereferences, builds and binds in line (see the module docstring)."""

    def __init__(self):
        self.lines: list = []
        self.k = 0            # the index of the next constant
        self.n = 0            # temporaries made
        self.held: set = set()  # slots held in a local `s<i>` as well as in `vs`
        self.nums: dict = {}    # slot -> the local holding its number
        self.overflows = False  # whether an inline operation may raise OverflowError
        self.uses: set = set()  # header names the body reads

    def line(self, ind: int, text: str) -> None:
        self.lines.append("    " * ind + text)

    def const(self) -> str:
        self.k += 1
        return f"K[{self.k - 1}]"

    def temp(self, prefix: str) -> str:
        self.n += 1
        return f"{prefix}{self.n}"

    def slot(self, i: int) -> str:
        return f"s{i}" if i in self.held else f"vs[{i}]"

    def fail_if(self, ind: int, cond: str) -> None:
        self.line(ind, f"if {cond}:")
        self.line(ind + 1, "return False")

    def deref(self, x: str, ind: int) -> None:
        self.line(ind, f"while type({x}) is Var and {x}.ref is not None:")
        self.line(ind + 1, f"{x} = {x}.ref")

    def new(self, name: str, parts: list, ind: int) -> str:
        """A local holding a new compound `name(parts...)`."""
        t = self.temp("t")
        self.line(ind, f"{t} = new(Struct)")
        self.line(ind, f"{t}.name = {name}")
        self.line(ind, f"{t}.args = ({', '.join(parts)},)")
        return t

    def bind(self, x: str, t: str, ind: int) -> None:
        """Bind the unbound variable in `x` to the compound in `t`, as
        `engine.match_args` binds it in write mode."""
        self.fail_if(ind, f"occurs and occurs_in({x}, {t})")
        self.line(ind, f"trail.record({x})")
        self.line(ind, f"{x}.ref = {t}")

    def first(self, i: int, x: str, ind: int) -> None:
        """Store the goal's term in `x` in slot `i`, met first here."""
        # under --trace a goal variable is bound to a fresh one, as a
        # copied head would bind it, so trace lines name variables alike
        self.uses.add("tracing")
        self.line(ind, "if tracing:")
        self.line(ind + 1, f"if type(deref({x})) is Var:")
        self.line(ind + 2, f"{x} = deref({x})")
        self.line(ind + 2, f"bind({x}, Var(), trail)")
        self.line(ind, f"s{i} = vs[{i}] = {x}")
        self.held.add(i)

    def match(self, s, x: str, ind: int) -> None:
        """Match the term in local `x` against the program of shape `s`, as
        the loop of `engine.match_args` does.  A failure returns False and
        leaves what it bound to the backtracking that follows."""
        uses = self.uses
        uses.update(("trail", "occurs"))
        if type(s) is int:
            if s >= 0:
                self.fail_if(ind, f"not unify({x}, {self.slot(s)}, trail, occurs)")
            else:
                self.first(~s, x, ind)
        elif s == "int":
            self.fail_if(ind, f"not unify({x}, {self.const()}, trail, occurs)")
        elif s == "const":
            c = self.const()
            self.fail_if(ind, f"not ({x} is {c} or unify({x}, {c}, trail, occurs))")
        else:
            self.node(s, x, None, ind)

    def node(self, s, x: str, w: Optional[str], ind: int) -> str:
        """Match the term in local `x` against the compound of shape `s`
        once: its arguments run under a mode flag of its own, which is true
        (write mode) when `x` is an unbound variable or the flag `w` of the
        compound around it is true, as WAM code runs under its mode register
        (Aït-Kaci 1991, §2.3).  Each run of arguments that hold no compound
        tests the flag once: in write mode it makes them from the frame, in
        read mode it matches them as `match` does.  In write mode the
        compound is then built and, unless `w` is true, bound to `x`; the
        local that holds it."""
        m = self.temp("m")
        inner = ind
        if w is not None:
            self.line(ind, f"if {w}:")
            self.line(ind + 1, f"{m} = True")
            self.line(ind, "else:")
            inner += 1
        self.deref(x, inner)
        name = self.const()
        self.line(inner, f"if type({x}) is Struct:")
        subs = [self.temp("c") for _ in s]
        self.fail_if(inner + 1, f"{x}.name is not {name} or len({x}.args) != {len(s)}")
        self.line(inner + 1, f"{', '.join(subs)}, = {x}.args")
        self.line(inner + 1, f"{m} = False")
        self.line(inner, f"elif type({x}) is Var:")
        self.line(inner + 1, f"{m} = True")
        self.line(inner, "else:")
        self.line(inner + 1, "return False")
        parts: list = []
        i = 0
        while True:
            j = i
            while j < len(s) and type(s[j]) is not tuple:
                j += 1
            # s[i:j] holds no compound; the last run, empty when the last
            # argument is a compound, also builds the compound
            last = j == len(s)
            k0 = self.k
            self.line(ind, f"if {m}:")
            n = len(self.lines)
            parts += [self.build(sub, ind + 1) for sub in s[i:j]]
            if last:
                t = self.new(name, parts, ind + 1)
                if w is not None:
                    self.line(ind + 1, f"if not {w}:")
                self.bind(x, t, inner + 1)
            elif len(self.lines) == n:
                self.line(ind + 1, "pass")
            if i < j:
                self.k = k0  # read mode reads the same constants
                self.line(ind, "else:")
                for sub, c in zip(s[i:j], subs[i:j]):
                    self.match(sub, c, ind + 1)
            if last:
                return t
            parts.append(self.node(s[j], subs[j], m, ind))
            i = j + 1

    def build(self, s, ind: int) -> str:
        """An expression for the term of shape `s`, built as `instantiate`
        builds it (a builder's arguments); a first occurrence gets its variable in a statement
        first."""
        if type(s) is int:
            if s >= 0:
                return self.slot(s)
            self.line(ind, f"s{~s} = vs[{~s}] = Var()")
            self.held.add(~s)
            return f"s{~s}"
        if s == "int" or s == "const":
            return self.const()
        name = self.const()
        return self.new(name, [self.build(sub, ind) for sub in s], ind)

    def number(self, i: int) -> str:
        """The local that holds the number in slot `i`.  The first call
        reads the slot: an int costs one type test, anything else is
        dereferenced, and what is then not a number goes to `eval_arith`,
        which evaluates a compound and raises the ball an unbound variable
        or an atom calls for.  Later calls reuse the local: nothing an
        arithmetic function runs binds a variable, so the slot's value
        stays the same, and a slot that fails to evaluate raises at its
        first read, before any later goal runs."""
        x = self.nums.get(i)
        if x is None:
            x = self.nums[i] = f"n{i}"
            self.line(1, f"{x} = vs[{i}]")
            self.line(1, f"if type({x}) is not int:")
            self.deref(x, 2)
            self.line(2, f"if type({x}) is not int and type({x}) is not float:")
            self.line(3, f"{x} = eval_arith({x})")
        return x

    def expr(self, shape: tuple) -> str:
        """Statements computing the expression of shape `shape` in postfix
        order, as `eval_arith` evaluates it; the local or constant that
        holds the value.  `+`, `-` and `*` are Python's own, followed by
        the float range check of `builtins._finite` made in line: a float
        result past the range is `evaluation_error(float_overflow)`, as is
        the OverflowError the function catches (see `_source`)."""
        stack = []
        for e in shape:
            if type(e) is int:
                stack.append(self.number(e))
            elif e == "num":
                stack.append(self.const())
            else:
                t = self.temp("x")
                if e == "op2" or e == "op1":
                    fn = self.const()
                    args = [stack.pop()] if e == "op1" else [stack.pop(-2), stack.pop()]
                    self.line(1, f"{t} = {fn}({', '.join(args)})")
                elif e == "neg" or e == "pos":
                    self.line(1, f"{t} = {'-' if e == 'neg' else '+'}{stack.pop()}")
                else:
                    b = stack.pop()
                    self.line(1, f"{t} = {stack.pop()} {e} {b}")
                    self.line(1, f"if type({t}) is float and not {-_FMAX!r} <= {t} <= {_FMAX!r}:")
                    self.line(2, 'raise evaluation_error("float_overflow")')
                    self.overflows = True
                stack.append(t)
        return stack[0]


_HEADER = (("trail", "trail = engine.trail"), ("occurs", "occurs = engine.occurs_check"),
           ("tracing", "tracing = engine.trace"))


def _source(key: tuple) -> str:
    kind = key[0]
    g = _Source()
    if kind == "head":
        args = [g.temp("a") for _ in key[1:]]
        for s, a in zip(key[1:], args):
            g.match(s, a, 1)
        head = ["def match(A, vs, engine, K):"]
        head += ["    " + text for name, text in _HEADER if name in g.uses]
        head.append(f"    {', '.join(args)}, = A")
        return "\n".join(head + g.lines + ["    return True\n"])
    if kind == "build":
        parts = [g.build(s, 1) for s in key[1:]]
        body = f"return ({', '.join(parts)},)"
        return "\n".join(["def build(vs, K):", *g.lines, "    " + body + "\n"])
    if kind == "select":
        return _select_source(key[1:])
    if kind == "guards":
        defn = "def guards(vs, K):"
        for step in key[1:]:
            if step[0] == "compare":
                a, b = g.expr(step[1]), g.expr(step[2])
                g.fail_if(1, f"not {a} {step[3]} {b}")
            else:
                x = g.nums[step[1]] = g.expr(step[2])
                g.line(1, f"vs[{step[1]}] = {x}")
        g.line(1, "return True")
    else:  # "value": an is/2's number
        defn = "def evaluate(vs, K):"
        g.line(1, f"return {g.expr(key[1])}")
    body = g.lines
    if g.overflows:  # an int too large to mix with a float; costs nothing when none is
        body = ["    try:", *["    " + line for line in body],
                "    except OverflowError:",
                '        raise evaluation_error("float_overflow") from None']
    return "\n".join([defn, *body]) + "\n"


def _select_source(states: tuple) -> str:
    """The factory of a clause switch (see `select_switch`) for the
    per-argument `states`."""
    consts: list = []
    body: list = []
    for pos, state in enumerate(states):
        if state == "flat":
            continue
        # the loop ends by its test when the argument is bound, by the
        # break when it is an unbound variable
        body += [f"t = args[{pos}]", "while type(t) is Var:", "    t = t.ref",
                 "    if t is None:", "        break", "else:"]
        if state == "unbuilt":
            body.append(f"    return E.grow({pos}, args)")
            continue
        b, v = f"B{pos}", f"V{pos}"
        consts += (b, v)
        body.append("    if type(t) is Struct:")
        if state == "one":
            n, a, c = f"N{pos}", f"A{pos}", f"C{pos}"
            consts += (n, a, c)
            body += [f"        if t.name == {n} and len(t.args) == {a}:",
                     f"            return {c}",
                     f"        return {v}"]
        elif state == "many":
            body.append(f"        return {b}.get((t.name, len(t.args)), {v})")
        else:  # "atomic": no head has a compound here
            body.append(f"        return {v}")
        body += ["    if type(t) is float:",
                 f"        return {b}.get((t,), {v})",
                 f"    return {b}.get(t, {v})"]
    lines = ["def make(E, K):"]
    if consts:
        lines.append(f"    {', '.join(consts)}, = K")
    lines.append("    def select(args):")
    lines += ["        " + text for text in body]
    lines += ["        return E.clauses", "    return select\n"]
    return "\n".join(lines)


# The number of functions generated so far, by the kind of their key
# ("head", "build", "guards", "value", "select").
generated_kinds: Counter = Counter()

# The names the source of every function but a head matcher reads; a head
# matcher reads these from `objlog.engine`, with `unify`, `occurs_in`, and
# `deref` and `bind` under trace.
_GLOBALS = {"Var": Var, "Struct": Struct, "new": new, "eval_arith": eval_arith,
            "evaluation_error": evaluation_error}


@lru_cache(maxsize=SHAPE_CACHE)
def _generated(key: tuple):
    """The function of shape `key`, generated when the key is not cached.
    A head matcher runs in the namespace of `objlog.engine`, so it looks up
    `unify` there each time it calls it, as the interpreter does; any other
    function runs in `_GLOBALS`."""
    if key[0] == "head":
        from . import engine  # imported here: engine imports this module
        scope = vars(engine)
    else:
        scope = _GLOBALS
    local: dict = {}
    exec(compile(_source(key), f"<clausecode {key[0]}>", "exec"), scope, local)
    generated_kinds[key[0]] += 1
    return local.popitem()[1]


def select_switch(states: tuple, entry, consts: tuple):
    """The clause switch of predicate `entry` (a `PredicateEntry`) whose
    argument indexes are in `states`: `select(args)` is the clauses, in
    order, that a call with arguments `args` tries.  Each state is
    "unbuilt" (no index yet), "flat" (an index with no keys: every head has
    a variable there) or a switch on the argument's index key: "atomic" (no
    head has a compound there), "one" (one compound name and arity) or
    "many".  The first argument that is bound and whose state is not "flat"
    picks the clauses: an unbuilt one by `entry.grow(pos, args)`, which
    builds its index and selects again; a switch from its buckets, with
    the clauses whose head has a variable there for a key no bucket has.
    With none, the call tries all of `entry.clauses`.  `consts` holds, per
    switch in order, the buckets and the variable-headed clauses, and for
    "one" the compound's name, its arity and its bucket.  The source is
    generated once per `states` and cached with the shapes of clause
    code."""
    return _generated(("select", *states))(entry, consts)


def head_matcher(hcode: tuple):
    """The generated matcher of head program `hcode` and its constants, or
    None when the head has more than MAX_NODES nodes.
    `match(args, vs, engine, consts)` matches the goal's arguments into
    frame `vs`.  On failure it returns False and leaves the trail as it is:
    the backtracking that follows undoes what it bound, to the mark of the
    choice point, frame or protected query it returns to."""
    return _term_code("head", hcode)


def _instantiate(vs, K):
    return instantiate(K[0], vs)


def arg_builder(prog: tuple):
    """The builder of compound program `prog` and its constants:
    `build(vs, consts)` is `instantiate(prog, vs)`.  Generated, unless the
    arguments have more than MAX_NODES nodes."""
    return _term_code("build", prog) or (_instantiate, (prog,))


def guard_code(code: tuple) -> Optional[tuple]:
    """The guard of clause body `code`: the generated function of its
    leading run of `COMPARE` and `SET` goals, its constants and the length
    of the run, or None when the body opens with no such goal.
    `guards(vs, consts)` runs the goals of the run in order, as their own
    functions run them: it returns False at the first comparison that
    fails, writes each `SET`'s value into its slot, and raises the balls
    they raise.  It reads each slot once, at the first goal that uses it,
    and a `SET`'s slot is the local it wrote, so the goals after the first
    pay no second read (see `_Source.number`).  Comparisons and `+ - *`
    run in line.  Its key joins the steps the goals hold, and its constants
    theirs, so no expression is walked again."""
    steps: list = []
    consts: list = []
    for g in code:
        if g.op != COMPARE and g.op != SET:
            break
        steps.append(g.key)
        consts += g.args
    if not steps:
        return None
    return _generated(("guards", *steps)), tuple(consts), len(steps)


# -- compiled goals ------------------------------------------------------------

# Goal operations.  Those below CUT take arguments, built per call; CALLN
# is call/N, and so call/1 of every goal met at run time.  EXIT ends the
# goal of a catch/3 frame or of a scope run in the calling machine, or runs
# the exit step of a call that has committed (a classic get's result), the
# frame of its node either way.  Those above EXIT are arithmetic and run
# generated code: IS, and SET (is/2 into a fresh slot) and COMPARE, each the
# guard of a run of one.
CALL, BUILTIN, CALLN, THROW, CUT, FAIL, ALT, ITE, NOT, EXIT, IS, SET, COMPARE = range(13)


class Goal:
    """One compiled body goal.

    `args` holds fixed arguments; a goal whose arguments are built from the
    frame has instead its builder in `get` (see `arg_builder`), and the
    builder's constants in `args`.  A user goal caches its predicate entry
    in `entry`; a builtin's function is `fn`; control goals keep their
    sub-bodies in `a`, `b` and `c`.  An arithmetic goal (see `arith_goal`)
    has its generated function in `get` and the function's constants in
    `args`, and in `prog` the program of the whole goal, built only for the
    trace.  The constants are the numbers and the functions of evaluables
    not run in line (see `_expr_shape`); a comparison's operator is in its
    key, not its constants.  A `COMPARE` or `SET` goal runs the guard
    function of a run of one, which returns the goal's truth, and keeps
    that run's step in `key` (`("compare", left, right, operator)` or
    `("set", slot, expression)`) for `guard_code`; an `IS` goal's function
    returns the number, and
    `key` is the slot of its left side (None when that side is not a
    variable)."""

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
    g.get, g.args = arg_builder(p)
    return g


def arith_goal(t: Struct, ns: str, compare, slots: dict, fresh: list, top: bool
               ) -> Optional[Goal]:
    """A clause-body is/2 (`compare` None) or comparison (`compare` its
    Python operator, from `ARITH_BUILTINS`) compiled to generated code, or
    None when an expression is not evaluable as written or has more than
    MAX_NODES nodes.  `top` says the goal is at the top level of the
    body."""
    left, right = t.args
    if compare is not None:
        lp = program(left, slots, fresh)
        rp = program(right, slots, fresh)
        consts = []
        a = _expr_shape(lp, consts)
        b = _expr_shape(rp, consts)
        if a is None or b is None:
            return None
        g = Goal(COMPARE, ns, t.name)
        g.key = ("compare", a, b, compare)
    else:
        rp = program(right, slots, fresh)
        consts = []
        a = _expr_shape(rp, consts)
        if a is None:
            return None
        left = deref(left)
        if top and type(left) is Var and id(left) not in slots:
            g = Goal(SET, ns, t.name)
            k = slots[id(left)] = len(slots)
            g.key = ("set", k, a)
            lp = ~k
        else:
            g = Goal(IS, ns, t.name)
            lp = program(left, slots, fresh)
            if type(lp) is int:
                g.key = lp
    g.get = _generated(("value", a) if g.op == IS else ("guards", g.key))
    g.args = tuple(consts)
    g.prog = (t.name, lp, rp)
    return g


def late_goal(t: Term, ns: str, slots: Optional[dict] = None, fresh=None) -> Goal:
    """call/1 of a goal read only when it runs (`Machine.call_term`),
    opaque to cut: a query's goal, a variable, or a goal under a qualifier
    that is not a namespace atom, which raises `resolve_qualifiers`' ball
    then.  A goal held as it is (`slots` None), as a query's, is the goal's
    one argument; in a clause body it is built from the frame."""
    if slots is None:
        g = Goal(CALLN, ns, "call")
        g.args = (t,)
        return g
    return arg_goal(CALLN, Struct("call", (t,)), ns, slots, fresh)


def _body_or_call(t: Term) -> Term:
    """The argument `t` of `\\+` or `once/1` as the body they run: `t` when
    it is a body as a whole (ISO/IEC 13211-1, 7.6.2), else call/1 of it.
    Both are builtin predicates (8.15.1, 8.15.2), so an argument with a part
    that is neither a variable nor callable is their goal's error when it
    runs, not the clause's when it is asserted."""
    todo = [t]
    while todo:
        p = deref(todo.pop())
        tp = type(p)
        if tp is Struct:
            if len(p.args) == 2 and p.name in (",", ";", "->", ":"):
                todo.append(p.args[1])
                if p.name != ":":
                    todo.append(p.args[0])
        elif tp is not Atom and tp is not Var:
            return Struct("call", (t,))
    return t


def compile_body(term: Term, ns: str, builtins: dict,
                 slots: Optional[dict] = None, fresh: Optional[list] = None) -> tuple:
    """Compile a goal term into a flat tuple of goals.

    For a clause body `slots` maps variables to frame slots; for a goal met
    at run time it is None and the goal's variables are held as they are.
    A goal that cannot be resolved now (a variable, a qualifier that is not
    a namespace atom) becomes call/1 of it (`late_goal`).  A part that is
    neither a variable nor callable is `type_error(callable, term)`."""
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
        elif ty is Var:
            out.append(late_goal(t, ns, slots, fresh))
            continue
        else:
            raise type_error("callable", term)
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
                op, subs = ITE, (_body_or_call(args[0]), TRUE, None)
            else:  # \+
                op, subs = NOT, (_body_or_call(args[0]), None, None)
            g = Goal(op, ns)
            out.append(g)
            parts = [None if s is None else [] for s in subs]
            stack.append((None, g, parts))
            for s, part in zip(subs, parts):
                if s is not None:
                    stack.append((s, ns, part))
    return tuple(root)
