"""Clause database and the resolution machine.

Clauses are compiled when they are asserted (see `clausecode`).  A try of a
clause calls its head matcher, Python code generated from the head's match
program, on the goal's arguments: the first occurrence of a variable stores
the goal's argument in its frame slot (no variable is made and nothing is
trailed), a later occurrence unifies with it, a constant is tested or
bound, and a compound either matches the goal's structure argument by
argument (read mode) or is built from the frame and bound to an unbound
goal argument (write mode).  A body goal's arguments come from its
generated builder and arithmetic from its generated evaluator.  The
matchers run in this module's namespace and look up `unify` here as they
run, so a wrapper installed on `engine.unify` sees every call; `match_args`
is the interpreter they hand a too-deep sub-program to, and `match_head`
matches a head too big to generate with it.

A clause whose body opens with arithmetic tests and `is/2` into new
variables runs them as its guard inside the try, right after the head
matches, unless the engine traces; a guard that fails fails the try, and
the body goes on after it.

The body's goals run from a continuation of (goals, pc, frame, cut barrier,
next, depth) nodes and a choice-point stack, so deterministic tail calls run
in constant depth and deep conjunctions never touch the Python stack.  A
node's depth, the length of its chain, comes from `next`, so a choice point
or frame saves only the node it goes back to.  Cut prunes to the barrier
of its node, and if-then-else commits by a cut to the height before its
condition.  A clause body's barrier is the stack's height at the call: the
index of the call's clause choice point, when it has one.

`Machine.enter` starts every call of a predicate: a `CALL` goal's, and one
a builtin makes in place, as a send or get from logic enters its method's
implementation clauses with no goal built and no further step of the
loop.  Backtracking resumes clause and disjunction alternatives only: a
builtin with several answers, as between/3, pushes a call of clauses that
give them (`PushGoal`).  A bridge call whose host-data scope holds a
transient object while its method runs in the calling machine is a
`Scope` frame on the same stack, and so is a catch/3 frame, so neither
nests a solve; any other call that has work left after its method, as a
classic get's result, continues with an exit step that is not on the
stack.  Each choice point and frame holds a guard on the trail while it
is on the stack and releases it when popped (`Trail.release`), which
drops the trail once no guard is left.

The main loop is a plain method, `Machine.run`, which stops at each
solution and when the choice points are exhausted; a `Query` drives it,
with no generator between, and holds a protected query's trail guard.
Closing a query, exhausting it, an error out of it and dropping it
unclosed each close the machine's scopes and release its guards.

Two namespaces exist, `user` and `pce_principal`; a goal `M:G` runs G in
namespace M and nothing more, the innermost of nested qualifiers winning.
`clausecode.resolve_qualifiers` alone reads qualifiers, for a goal met at
run time (`compile_goal`), call/N (`build_call`), assert and retract
(`_clause_parts`) and dynamic/1 (`declare_dynamic`), so each raises the
same ball for an unbound or unknown qualifier; a clause body resolves a
namespace atom when it is compiled and leaves any other qualifier to that
ball when the goal runs.  Clause lists are copy-on-write so running
queries keep the view they started with.  Clause indexing is a pure
optimization that can be disabled for testing: a call tries only the
clauses that the leftmost argument able to tell them apart selects, and
`retract/1` tries the same clauses.  Each argument has one index of the
same kind, built the first time a call needs it, kept up to date by
assert and dropped by any removal.  A call picks its clauses with its
predicate's clause switch, a function generated for the state of those
indexes, as the WAM's `switch_on_term` (Warren 1983; Aït-Kaci 1991,
§5.10): it tests the type of one argument at a time and takes the bucket
by the compound's name and arity or by one dictionary lookup, with no
walk over the index slots.  The switch is made again when an index is
built, when an assert changes what it holds and after a removal; its
source is cached per shape with the rest of the clause code, so a new
switch costs one cache lookup and one closure (see `PredicateEntry`).
"""

from __future__ import annotations

import sys
from typing import Callable, Optional

from .balls import instantiation_error, permission_error, type_error, unknown_procedure
from .builtins import copy_acyclic
from .clausecode import (
    ALT,
    BUILTIN,
    CALL,
    CALLN,
    COMMIT,
    COMMIT_EXIT,
    COMMIT_FAIL,
    COMPARE,
    CUT,
    EXIT,
    EXIT_GOAL,
    FAIL,
    ITE,
    META,
    SET,
    Goal,
    compile_body,
    guard_code,
    head_matcher,
    instantiate,
    is_control,
    late_goal,
    new_struct,
    program,
    resolve_qualifiers,
    select_switch,
)
from .errors import LogicError, ReaderError
from .reader import read_terms
from .terms import (
    TRUE,
    Atom,
    Struct,
    Term,
    Trail,
    Var,
    bind,
    deref,
    occurs_in,
    resolve_copy,
    unify,
)
from .writer import term_text


class PushGoal:
    """Returned by a registered builtin to continue with compiled goals in
    the current machine: `code` is a tuple of `Goal`s, built already
    compiled (between/3 builds one `CALL` goal with its predicate entry
    resolved), so nothing is compiled when it is pushed.  This is how a
    builtin gives more than one answer: the clauses it calls leave the
    choice points.  A builtin that continues with one call of a predicate
    can instead enter it in place with `Machine.enter(entry, args)` and
    return what that returns, as the bridge's sends and gets do.

    The pushed code gets a fresh cut barrier, so a cut inside it stays local.
    """

    __slots__ = ("code",)

    def __init__(self, code: tuple):
        self.code = code


class Clause:
    """A clause as asserted (`head`, `body`) plus its compiled form: the
    head matcher `match` and its constants `consts` (None and () for an
    atom head), the body goals `code`, the frame size `nvars` and `fresh`,
    the slots of the body's variables that get a fresh variable before the
    body runs.  The matcher is generated from the head's match program and
    shared by every clause whose program has the same shape (see
    `clausecode`); the clause holds only its constants.

    `guard` is None, or (function, constants, skip) when the body opens
    with a run of `skip` arithmetic goals, comparisons and is/2 into a new
    variable (see `clausecode.guard_code`): `Machine.try_clause` runs them
    as one function right after the head matches.  `code` keeps them all,
    and the trace runs them from there as goals."""

    __slots__ = ("head", "body", "nvars", "match", "consts", "code", "fresh", "guard")

    def __init__(self, head: Term, body: Term, ns: str, builtins: dict):
        self.head = head
        self.body = body
        slots: dict = {}
        if type(head) is Struct:
            hcode = (head.name, *(program(a, slots, None) for a in head.args))
            self.match, self.consts = head_matcher(hcode) or (match_head, (hcode,))
        else:
            self.match = None
            self.consts = ()
        fresh: list = []
        self.code = compile_body(body, ns, builtins, slots, fresh)
        self.guard = guard_code(self.code)
        self.fresh = tuple(fresh)
        self.nvars = len(slots)


def index_key(t: Term):
    """Index key of a clause or call argument; None matches everything
    (variables)."""
    t = deref(t)
    ty = type(t)
    if ty is Struct:
        return (t.name, len(t.args))
    if ty is Var:
        return None
    if ty is float:
        return (t,)
    return t  # atoms are interned; ints and object references compare by value


class PredicateEntry:
    """The clauses of one predicate, their argument indexes and the clause
    switch that picks a call's clauses.

    A call selects its clauses by the leftmost argument that is bound in
    the call and at which some clause head is not a variable.  `_index`
    has one slot per argument: None until a call first needs the index on
    that argument, then `[buckets, varonly]`, built from the clause heads
    in one pass.  `buckets` maps a key (see `index_key`) to the clauses, in
    clause order, whose argument has that key or is a variable; `varonly`
    holds the clauses whose argument is a variable, and a key no bucket has
    selects them.  An index with no buckets tells no clauses apart, so the
    call looks further right.  `_states` says what the switch does at each
    built index (see `clausecode.select_switch`): "flat", "atomic",
    "many", or the one compound key `(name, arity)`; None before it is
    worked out, and for an index not built.

    `select(args)` is the switch: a function generated for the states,
    with the buckets, the varonly tuples and the one compound's bucket
    bound into it.  It derefs one argument at a time and picks the clauses
    by a type test; it reads `clauses` when no argument selects.  At a
    bound argument whose index is not built it calls `grow`, which builds
    the index and answers from it, and the next call makes the switch for
    the new states (`_regenerate`).  `add` files a clause into every built
    index in place; it leaves the switch as it is unless the clause
    changes a state, a varonly tuple or the one compound's bucket, or is
    the second clause.  A removal resets every index and puts back the
    switch with no index built, which binds nothing and is kept in
    `_fresh`, so a retract/assert cycle makes no switch.  Without
    indexing, or with fewer than two clauses, the switch returns every
    clause."""

    __slots__ = ("ns", "name", "arity", "indexing", "clauses", "select", "_index",
                 "_states", "_fresh")

    def __init__(self, ns: str, name: str, arity: int, indexing: bool):
        self.ns = ns
        self.name = name
        self.arity = arity
        self.indexing = indexing
        self.clauses: tuple = ()
        self._fresh = None
        self._reset()

    def _reset(self) -> None:
        self._index: list = [None] * self.arity
        self._states: list = [None] * self.arity
        self.select = self._regenerate if self._fresh is None else self._fresh

    def add(self, clause: Clause, front: bool = False) -> None:
        one = (clause,)
        clauses = self.clauses = one + self.clauses if front else self.clauses + one
        # the switch reads the clauses and the buckets dicts as they are
        # now; it goes stale when the entry starts to index or when a state,
        # a varonly tuple or the one compound's bucket it holds changes
        stale = len(clauses) == 2
        states = self._states
        for pos, ix in enumerate(self._index):
            if ix is None:
                continue
            buckets = ix[0]
            key = index_key(clause.head.args[pos])
            if key is None:  # a variable argument joins every bucket
                for k, b in buckets.items():
                    buckets[k] = one + b if front else b + one
                ix[1] = one + ix[1] if front else ix[1] + one
                stale = stale or bool(buckets)
                continue
            b = buckets.get(key)
            state = states[pos]
            if b is None:  # a new key
                b = ix[1]
                if type(key) is tuple and len(key) == 2:
                    if state is not None:  # None: not worked out yet, held by no switch
                        states[pos] = key if state == "flat" or state == "atomic" else "many"
                elif state == "flat":
                    states[pos] = "atomic"
                stale = stale or states[pos] is not state
            elif key == state:  # the one compound's bucket
                stale = True
            buckets[key] = one + b if front else b + one
        if stale:
            self.select = self._regenerate

    def remove(self, clause: Clause) -> None:
        self.clauses = tuple(c for c in self.clauses if c is not clause)
        self._reset()

    def retract_all(self, key=None, keep: Optional[Callable] = None) -> int:
        """Remove the clauses whose first argument has the index key `key`
        (every clause when None) and that `keep` does not keep; returns how
        many.  The candidates come from the index on the first argument."""
        if key is None:
            cands = self.clauses
        elif not self.arity:
            cands = ()
        else:
            ix = self._index[0]
            if ix is None:
                ix = self._built(0)
            cands = tuple(c for c in ix[0].get(key, ()) if index_key(c.head.args[0]) == key)
        gone = {id(c) for c in cands if keep is None or not keep(c)}
        if gone:
            self.clauses = tuple(c for c in self.clauses if id(c) not in gone)
            self._reset()
        return len(gone)

    def _build_index(self, pos: int) -> list:
        """The index on argument `pos`, `[buckets, varonly]`, built from the
        clauses in one pass."""
        lists: dict = {}
        varonly: list = []
        for c in self.clauses:
            key = index_key(c.head.args[pos])
            if key is None:
                varonly.append(c)
                for got in lists.values():
                    got.append(c)
            else:
                got = lists.get(key)
                if got is None:
                    got = lists[key] = list(varonly)
                got.append(c)
        return [{k: tuple(got) for k, got in lists.items()}, tuple(varonly)]

    def _built(self, pos: int) -> list:
        """Build the index on argument `pos`; its state is worked out when
        the switch is next made."""
        ix = self._index[pos] = self._build_index(pos)
        self._states[pos] = None
        self.select = self._regenerate
        return ix

    def grow(self, pos: int, args: tuple) -> tuple:
        """What the switch does at a bound argument `pos` whose index is
        not built: build the index and select by it.  The switch for the
        new states is made at the next call, so a call between two
        removals, as of a retract/assert cycle, makes none."""
        if len(self.clauses) < 2:
            return self._regenerate(args)
        buckets, varonly = self._built(pos)
        if not buckets:
            return self._regenerate(args)
        return buckets.get(index_key(args[pos]), varonly)

    def _regenerate(self, args: tuple) -> tuple:
        """Install the switch for the current states and select with it."""
        select = self.select = self._switch()
        return select(args)

    def _switch(self):
        if not self.indexing or len(self.clauses) < 2:
            return select_switch((), self, ())
        if self._index.count(None) == self.arity:  # nothing built: nothing to bind
            if self._fresh is None:
                self._fresh = select_switch(("unbuilt",) * self.arity, self, ())
            return self._fresh
        shape: list = []
        consts: list = []
        states = self._states
        for pos, ix in enumerate(self._index):
            if ix is None:
                shape.append("unbuilt")
                continue
            state = states[pos]
            if state is None:
                state = states[pos] = index_state(ix[0])
            if state != "flat":
                consts += ix
                if type(state) is tuple:
                    consts += (*state, ix[0][state])
                    state = "one"
            shape.append(state)
        while shape and shape[-1] == "flat":
            shape.pop()
        return select_switch(tuple(shape), self, tuple(consts))


def index_state(buckets: dict):
    """What the switch does at an argument whose index has `buckets`:
    "flat" with none, else "atomic" when no key is a compound's, the key
    `(name, arity)` of the one compound, or "many"."""
    if not buckets:
        return "flat"
    state = "atomic"
    for key in buckets:
        if type(key) is tuple and len(key) == 2:
            if state != "atomic":
                return "many"
            state = key
    return state


class LoadReport:
    """What a consult loaded, and its errors and warnings as (line,
    message) pairs; `line` is the line of the term being loaded."""

    def __init__(self, origin: str):
        self.origin = origin
        self.clauses = 0
        self.directives = 0
        self.errors: list = []
        self.warnings: list = []
        self.line = 0

    def warn(self, msg: str) -> None:
        self.warnings.append((self.line, msg))

    @property
    def ok(self) -> bool:
        return not self.errors

    def __str__(self) -> str:
        msg = f"{self.origin}: {self.clauses} clauses, {self.directives} directives"
        if self.errors:
            msg += f", {len(self.errors)} errors"
        return msg


# -- choice points ---------------------------------------------------------


class _ClauseCP:
    """The clauses left to try for a call.  The body barrier of each is
    the choice point's own index on the stack: a cut in the body prunes it
    with every choice point the body made."""

    __slots__ = ("args", "clauses", "i", "cont", "mark")

    def __init__(self, args, clauses, i, cont, mark):
        self.args = args
        self.clauses = clauses
        self.i = i
        self.cont = cont
        self.mark = mark


class _AltCP:
    __slots__ = ("code", "vs", "barrier", "cont", "mark")

    def __init__(self, code, vs, barrier, cont, mark):
        self.code = code
        self.vs = vs
        self.barrier = barrier
        self.cont = cont
        self.mark = mark


class Scope:
    """A frame on the choice-point stack around a call that
    `Machine.call_scoped` enters and runs to its first solution in the
    calling machine, or around the goal of a catch/3 (`_CatchCP`).  The
    bridge makes one only for a call whose host-data scope holds a
    transient object, which must outlive the method's body.

    When the goal exits (the `EXIT` goal), the frame is popped if it is on
    top and `exit` decides whether the call succeeds.  The machine calls
    `close` right after `exit`, when backtracking reaches the frame (its
    bindings undone first), or when an exception prunes past it or leaves
    the machine, which its query then closes.  A call's frame is always on
    top at its exit, so its `close` runs exactly once; a catch frame stays
    while its goal has choice points, and its `close` does nothing.  An
    object with the same `exit` and `close` can also stand as the frame of
    a pushed `COMMIT_EXIT` node without being on the stack: an exit step,
    run once after the call commits, as a classic get's result step.  A
    frame saves the node to go back to (`cont`) and the trail `mark`."""

    __slots__ = ("cont", "mark")

    def exit(self, m: "Machine") -> bool:
        return True

    def close(self) -> None:
        pass


class _CatchCP(Scope):
    """A catch/3 frame: a scope that stays on the stack while its goal has
    choice points left.  `height` is its index on the choice-point stack;
    the continuation node of its goal carries the frame itself, which is how
    `Machine._unwind` tells an active frame from one whose goal has exited."""

    __slots__ = ("catcher", "recovery", "ns", "height")

    def __init__(self, catcher, recovery, ns, cont, mark, height):
        self.catcher = catcher
        self.recovery = recovery
        self.ns = ns
        self.cont = cont
        self.mark = mark
        self.height = height


def _goal_term(name: str, args: tuple) -> Term:
    return Struct(name, args) if args else Atom(name)


class Machine:
    """One resolution run: goal continuation, choice points, cut barriers.

    `cont` is a linked list of (goals, pc, frame, barrier, next, depth)
    nodes, None when empty, and `frame` is the frame of the goal being
    executed.  A node's `depth` counts the nodes of its chain, and
    `peak_depth` is the greatest depth a node has had."""

    __slots__ = ("engine", "cont", "frame", "peak_depth", "peak_cps", "cps")

    def __init__(self, engine: "Engine", goal: Term | Goal, ns: str = "user"):
        self.engine = engine
        # a goal term is compiled when it first runs, so its errors surface
        # there; a compiled goal carries its own namespace
        if type(goal) is not Goal:
            goal = late_goal(goal, ns)
        self.cont = ((goal,), 0, None, 0, None, 1)
        self.frame = None
        self.peak_depth = 1
        self.peak_cps = 0
        self.cps: list = []

    # -- continuation helpers -------------------------------------------

    def push(self, code: tuple, vs, barrier: int) -> None:
        if code:
            nxt = self.cont
            depth = 1 if nxt is None else nxt[5] + 1
            self.cont = (code, 0, vs, barrier, nxt, depth)
            if depth > self.peak_depth:
                self.peak_depth = depth

    def prune_to(self, h: int) -> None:
        cps = self.cps
        trail = self.engine.trail
        while len(cps) > h:
            cp = cps.pop()
            trail.release()
            if isinstance(cp, Scope):
                cp.close()

    def close(self) -> None:
        """Drop every choice point.  Each scope among them is closed even if
        closing another one fails; the last failure is raised, as nested
        `with` blocks would raise it."""
        failure = None
        while self.cps:
            try:
                self.prune_to(0)
            except Exception as exc:
                failure = exc
        if failure is not None:
            raise failure

    def _push_cp(self, cp) -> None:
        self.cps.append(cp)
        self.engine.trail.guards += 1
        if len(self.cps) > self.peak_cps:
            self.peak_cps = len(self.cps)

    def _pop_frame(self) -> None:
        """Pop the frame on top of the stack, keeping its bindings."""
        self.cps.pop()
        self.engine.trail.release()

    # -- frames run in this machine -----------------------------------------

    def catch(self, goal: Term, catcher: Term, recovery: Term, ns: str) -> None:
        """catch/3: run `goal` under a catch frame, opaque to cut, as call/1
        runs it; see `_unwind` for what a ball does."""
        cp = _CatchCP(catcher, recovery, ns, self.cont, self.engine.trail.mark(),
                      len(self.cps))
        self._push_cp(cp)
        self.push((late_goal(goal, ns), EXIT_GOAL), cp, len(self.cps))

    def call_scoped(self, entry: PredicateEntry, args: tuple, scope: Scope) -> bool:
        """Enter a call of predicate `entry` with `args` to run to its first
        solution inside `scope`: the frame goes on the choice-point stack,
        then the node the call continues with, where a cut to the height
        above the frame commits to the first solution, as once/1 does, and
        the exit step follows.  Returns what `enter` returns."""
        scope.cont = self.cont
        scope.mark = self.engine.trail.mark()
        self._push_cp(scope)
        self.push(COMMIT_EXIT, scope, len(self.cps))
        return self.enter(entry, args)

    def _unwind(self, err: LogicError) -> None:
        """A ball raised in the main loop (ISO/IEC 13211-1, 7.8.9).  The
        innermost active catch frame is the first one met along the
        continuation, since a frame's goal node leaves it when the goal
        exits.  Everything above the frame is pruned, closing the scopes on
        the way, and its bindings are undone; if its catcher unifies with the
        ball, the recovery runs in the place of catch/3, else the search goes
        on outward from there.  Re-raises the ball when no frame catches it."""
        engine = self.engine
        trail = engine.trail
        while True:
            node = self.cont
            while node is not None and type(node[2]) is not _CatchCP:
                node = node[4]
            if node is None:
                raise err
            cp = node[2]
            while True:
                try:
                    self.prune_to(cp.height + 1)
                    break
                except LogicError as exc:  # a scope failed to close: its ball goes on
                    err = exc
            trail.undo_to(cp.mark)
            caught = unify(cp.catcher, err.term, trail, engine.occurs_check)
            if not caught:
                trail.undo_to(cp.mark)
            self._pop_frame()
            self.cont = cp.cont
            if caught:
                self.push((late_goal(cp.recovery, cp.ns),), None, len(self.cps))
                return

    # -- main loop -------------------------------------------------------

    def run(self, forward: bool) -> bool:
        """Run the machine from where it stopped: forward from its
        continuation, or, with `forward` False, by backtracking into its
        last choice point.  Returns True at a solution, with the
        continuation empty, and False once the choice points are exhausted.
        A ball that no catch frame takes is raised with the stack as it
        is; the caller closes the machine (see `Query`)."""
        trail = self.engine.trail
        release = trail.release
        while True:
            try:
                if forward:
                    cont = self.cont
                    if cont is None:
                        return True
                    code, pc, vs, bar, nxt, depth = cont
                    goal = code[pc]
                    pc += 1
                    self.cont = (code, pc, vs, bar, nxt, depth) if pc < len(code) else nxt
                    self.frame = vs
                    forward = self.exec_goal(goal, goal.ns, bar)
                else:
                    cps = self.cps
                    if not cps:
                        return False
                    cp = cps[-1]
                    tcp = type(cp)
                    if tcp is _ClauseCP:
                        trail.undo_to(cp.mark)
                        clause = cp.clauses[cp.i]
                        cp.i += 1
                        bodybar = len(cps) - 1
                        if cp.i == len(cp.clauses):  # the last clause: pop first (trust_me)
                            cps.pop()
                            release()
                        if self.try_clause(clause, cp.args, bodybar, cp.cont):
                            forward = True
                    elif tcp is _AltCP:
                        cps.pop()
                        trail.undo_to(cp.mark)
                        release()
                        self.cont = cp.cont
                        self.push(cp.code, cp.vs, cp.barrier)
                        forward = True
                    else:  # a scope: its goal has no more solutions
                        cps.pop()
                        trail.undo_to(cp.mark)
                        release()
                        self.cont = cp.cont
                        cp.close()
            except LogicError as err:
                self._unwind(err)
                forward = True

    # -- goal execution ---------------------------------------------------

    def exec_goal(self, goal: Goal, ns: str, barrier: int) -> bool:
        op = goal.op
        if op < CUT:
            get = goal.get
            args = goal.args if get is None else get(self.frame, goal.args)
            if op == CALL:
                entry = goal.entry
                if entry is None:
                    engine = self.engine
                    entry = engine.preds.get(goal.key)
                    if entry is None:
                        if engine.unknown == "error":
                            raise unknown_procedure(ns, goal.name, len(args))
                        return False
                    goal.entry = entry
                return self.enter(entry, args)
            if op == BUILTIN:
                return self.run_builtin(goal, args, ns)
            if op == CALLN:
                self.push(self.engine.compile_goal(*build_call(args, ns)), None, len(self.cps))
                return True
            if op == META:  # transparent to cut, like the goal written in place
                self.push(self.engine.compile_goal(args[0], ns), None, barrier)
                return True
            ball = deref(args[0])  # throw/1
            if type(ball) is Var:
                raise instantiation_error("throw/1")
            raise LogicError(copy_acyclic(ball))
        if op > EXIT:  # arithmetic: runs from expression code, builds no term
            vs = self.frame
            engine = self.engine
            if engine.trace:
                engine.trace_port("call", new_struct(goal.name, instantiate(goal.prog, vs)), ns)
            x = goal.get(vs, goal.args)
            if op == COMPARE:
                return x
            k = goal.key
            if op == SET:
                vs[k] = x
                return True
            lhs = deref(vs[k] if k is not None else instantiate(goal.prog, vs)[0])
            if type(lhs) is Var:
                bind(lhs, x, engine.trail)
                return True
            return unify(lhs, x, engine.trail, engine.occurs_check)
        if op == CUT:
            self.prune_to(barrier)
            return True
        if op == FAIL:
            return False
        if op == EXIT:  # the goal of a scope, or of a call with a step, has exited
            frame = self.frame
            cps = self.cps
            # always so for a scope but a catch frame; a step is never on the stack
            if cps and cps[-1] is frame:
                self._pop_frame()
            try:
                return frame.exit(self)
            finally:
                frame.close()
        vs = self.frame
        mark = self.engine.trail.mark()
        if op == ALT:
            self._push_cp(_AltCP(goal.b, vs, barrier, self.cont, mark))
            self.push(goal.a, vs, barrier)
            return True
        # if-then-else, once/1 (no else) and \+: the condition runs with a
        # local cut barrier, then a cut to `pre` commits to its first solution
        pre = len(self.cps)
        if op == ITE:
            if goal.c is not None:
                self._push_cp(_AltCP(goal.c, vs, barrier, self.cont, mark))
            self.push(goal.b, vs, barrier)
            self.push(COMMIT, None, pre)
        else:  # \+
            self._push_cp(_AltCP((), None, barrier, self.cont, mark))
            self.push(COMMIT_FAIL, None, pre)
        self.push(goal.a, vs, len(self.cps))
        return True

    def run_builtin(self, goal: Goal, args: tuple, ns: str) -> bool:
        """Call a registered builtin: True is success, False or None is
        failure, and a `PushGoal` goes on with its goals; anything else is a
        `TypeError` that names the builtin."""
        engine = self.engine
        if engine.trace:
            engine.trace_port("call", _goal_term(goal.name, args), ns)
        res = goal.fn(self, args, ns)
        if res is True:
            return True
        if res is False or res is None:
            return False
        if type(res) is PushGoal:
            self.push(res.code, None, len(self.cps))
            return True
        raise TypeError(f"builtin {goal.name}/{len(args)} returned a {type(res).__name__}, "
                        "not True, False, None or a PushGoal")

    def enter(self, entry: PredicateEntry, args: tuple) -> bool:
        """Start a call of predicate `entry` with `args`, as the WAM's
        `call` jumps into a predicate's code: the CALL port under trace, the
        clauses the switch selects, a choice point when more than one is
        selected, and the try of the first.  The call returns to the
        machine's continuation, and a cut in a clause body prunes to the
        height of the stack here.  Returns whether the first try matched;
        on False the machine backtracks, into the next clause if any.

        `exec_goal` runs a `CALL` goal with it, and a builtin that calls a
        predicate (a send or get from logic) returns what it returns, so
        the call starts with no goal built and no step of the main loop
        between."""
        engine = self.engine
        if engine.trace:
            engine.trace_port("call", _goal_term(entry.name, args), entry.ns)
        clauses = entry.select(args)
        if not clauses:
            return False
        bodybar = len(self.cps)
        if len(clauses) > 1:
            self._push_cp(_ClauseCP(args, clauses, 1, self.cont, engine.trail.mark()))
        return self.try_clause(clauses[0], args, bodybar, self.cont)

    def try_clause(self, clause: Clause, args: tuple, bodybar: int, cont) -> bool:
        """Match the clause head against the goal's arguments and, on
        success, continue with its body in a new frame.

        Once the head matches, the machine is at the call's continuation
        (so a ball goes to the catch frames of the call) and the clause's
        guard runs, unless the engine traces: a guard that fails is a
        failed try, and the body's node starts after the guard's goals, or
        is not pushed when they are the whole body."""
        engine = self.engine
        engine.clause_attempts += 1
        vs = [None] * clause.nvars
        match = clause.match
        if match is not None and not match(args, vs, engine, clause.consts):
            return False
        self.cont = cont
        code = clause.code
        if code:
            for i in clause.fresh:
                vs[i] = Var()
            pc = 0
            guard = clause.guard
            if guard is not None and not engine.trace:
                run, consts, pc = guard
                if not run(vs, consts):
                    return False
                if pc == len(code):
                    return True
            depth = 1 if cont is None else cont[5] + 1
            self.cont = (code, pc, vs, bodybar, cont, depth)
            if depth > self.peak_depth:
                self.peak_depth = depth
        return True


def match_head(args: tuple, vs: list, engine: "Engine", K: tuple) -> bool:
    """The matcher of a head too big to generate: its one constant is the
    head program, which `match_args` runs."""
    trail = engine.trail
    mark = len(trail.entries)
    if match_args(K[0], args, vs, trail, engine.occurs_check, engine.trace):
        return True
    trail.undo_to(mark)
    return False


def match_args(prog: tuple, terms: tuple, vs: list, trail: Trail, occurs: bool,
               tracing: bool) -> bool:
    """Run the argument programs `prog[1:]` of a head against `terms`, into
    frame `vs`; on failure the caller undoes the trail.  This is the
    interpreter: `match_head` runs it for a head too big to generate, and a
    generated matcher calls it for a sub-program nested too deep.  Generated
    matchers run in this module's namespace, so every name their code reads
    (`unify`, `bind`, `deref`, `occurs_in`, `Var`, `Struct`, `new_struct`,
    `instantiate` and this function) is defined or imported here."""
    i = 1
    n = len(prog)
    stack = None
    while True:
        if i == n:
            if stack is None:
                return True
            prog, terms, i, n, stack = stack
            continue
        p = prog[i]
        a = terms[i - 1]
        i += 1
        tp = type(p)
        if tp is int:
            if p >= 0:
                if unify(a, vs[p], trail, occurs):
                    continue
            else:
                # under --trace a goal variable is bound to a fresh one, as a
                # copied head would bind it, so trace lines name variables alike
                if tracing and type(deref(a)) is Var:
                    a = deref(a)
                    bind(a, Var(), trail)
                vs[~p] = a
                continue
        elif tp is not tuple:  # a ground term
            if a is p or unify(a, p, trail, occurs):
                continue
        elif len(p) == 1:  # an integer
            if unify(a, p[0], trail, occurs):
                continue
        else:
            a = deref(a)
            if type(a) is Struct:  # read mode
                if a.name is p[0] and len(a.args) == len(p) - 1:
                    if i < n:
                        stack = (prog, terms, i, n, stack)
                    prog = p
                    terms = a.args
                    i = 1
                    n = len(p)
                    continue
            elif type(a) is Var:  # write mode
                s = new_struct(p[0], instantiate(p, vs))
                if not (occurs and occurs_in(a, s)):
                    bind(a, s, trail)
                    continue
        return False


def build_call(args, ns: str) -> tuple:
    """The goal `call(G, A...)` runs and its namespace: G with its
    qualifiers resolved and the extra arguments added to it."""
    g, ns = resolve_qualifiers(args[0], ns)
    extra = args[1:]
    tg = type(g)
    if tg is Var:
        raise instantiation_error("call")
    if not extra:
        return g, ns
    if tg is Atom:
        return Struct(g.name, extra), ns
    if tg is Struct:
        return Struct(g.name, g.args + tuple(extra)), ns
    raise type_error("callable", g)


class Query:
    """Iterator over solutions of a goal: each `next` runs its machine
    (`Machine.run`) forward the first time and by backtracking after, and
    returns None at a solution.

    `close()` before exhaustion commits: choice points are dropped, their
    scopes closed, but the bindings of the last solution stay.  When
    `protect` is set, the query holds a guard on the trail from the start,
    and exhausting it restores all bindings made since it started.
    Without it, an exhausted query leaves its goal term's bindings
    unspecified: those made while no choice point was live were never
    trailed and stay, the others are lost.  To solve the same goal term
    again, pass `protect=True` or parse a fresh goal.

    The query ends once: at exhaustion, at `close()`, at an error out of
    the machine, or when it is dropped unclosed.  Each closes the machine
    and releases the guard, and every later `next` raises StopIteration.
    """

    __slots__ = ("machine", "_mark", "_forward")

    def __init__(self, engine: "Engine", goal: Term | Goal, ns: str, protect: bool):
        self._forward = None  # True until the first solution, None once ended
        self.machine = Machine(engine, goal, ns)
        self._mark = None
        if protect:
            self._mark = engine.trail.mark()
            engine.trail.guards += 1
        self._forward = True

    def __iter__(self):
        return self

    def __next__(self):
        forward = self._forward
        if forward is None:
            raise StopIteration
        try:
            found = self.machine.run(forward)
        except BaseException:
            self._end(False)
            raise
        if found:
            self._forward = False
            return None
        self._end(True)
        raise StopIteration

    def close(self):
        if self._forward is not None:
            self._end(False)

    def __del__(self):
        if self._forward is not None:
            self._end(False)

    def _end(self, exhausted: bool) -> None:
        """Close the machine, then, when protected, undo the bindings if
        the query is `exhausted` and release the guard."""
        self._forward = None
        try:
            self.machine.close()
        finally:
            mark = self._mark
            if mark is not None:
                trail = self.machine.engine.trail
                if exhausted:
                    trail.undo_to(mark)
                trail.release()


class Engine:
    """The clause database plus everything needed to run goals against it."""

    def __init__(self, unknown: str = "error", indexing: bool = True,
                 occurs_check: bool = False, out=None):
        self.trail = Trail(conditional=True)
        self.preds: dict = {}
        self.builtins: dict = {}
        self.expansion_hooks: list = []
        self.unknown = unknown
        self.indexing = indexing
        self.occurs_check = occurs_check
        self.out = out if out is not None else sys.stdout
        self.trace = False
        self.clause_attempts = 0
        self.loading: Optional[LoadReport] = None  # the report of the consult under way

    # -- registration ----------------------------------------------------

    def register_builtin(self, name: str, arity: int, fn: Callable) -> None:
        key = (name, arity)
        if key in self.builtins:
            raise ValueError(f"builtin {name}/{arity} is already registered")
        self.builtins[key] = fn

    def register_expansion_hook(self, fn: Callable) -> None:
        self.expansion_hooks.append(fn)

    def trace_port(self, port: str, goal: Term, ns: str) -> None:
        prefix = "" if ns == "user" else f"{ns}:"
        print(f"{port.upper()} {prefix}{term_text(goal)}", file=self.out)

    # -- database --------------------------------------------------------

    def entry(self, ns: str, name: str, arity: int, create: bool = False
              ) -> Optional[PredicateEntry]:
        key = (ns, name, arity)
        e = self.preds.get(key)
        if e is None and create:
            e = PredicateEntry(ns, name, arity, self.indexing)
            self.preds[key] = e
        return e

    def _clause_parts(self, term: Term, ns: str, what: str, control: bool):
        """The head, body, namespace, name and arity of a clause `term` to
        assert or retract (`what`).  Modifying a builtin is a permission
        error, and so is modifying a control construct when `control`."""
        # both M:(H :- B) and (M:H) :- B name the namespace
        head, ns = resolve_qualifiers(term, ns)
        body = TRUE
        if type(head) is Struct and head.name == ":-" and len(head.args) == 2:
            head, body = head.args
            body = deref(body)
        head, ns = resolve_qualifiers(head, ns)
        th = type(head)
        if th is Var:
            raise instantiation_error(what)
        if th is Atom:
            name, arity = head.name, 0
        elif th is Struct:
            name, arity = head.name, len(head.args)
        else:
            raise type_error("callable", head)
        self._check_modify(name, arity, control)
        return head, body, ns, name, arity

    def _check_modify(self, name: str, arity: int, control: bool) -> None:
        if (name, arity) in self.builtins or control and is_control(name, arity):
            raise permission_error("modify", Struct("/", (Atom(name), arity)))

    def assert_term(self, term: Term, ns: str = "user", front: bool = False) -> None:
        head, body, ns, name, arity = self._clause_parts(term, ns, "assert", True)
        entry = self.entry(ns, name, arity, create=True)
        entry.add(Clause(head, body, ns, self.builtins), front=front)

    def declare_dynamic(self, spec: Term, ns: str = "user", create: bool = True) -> None:
        """dynamic/1 and multifile/1: make an entry for each predicate
        indicator of `spec`, one or a `,` list of them, where both `(M:N)/A`
        and `M:(N/A)` name N/A in namespace M.  Declaring a builtin or a
        control construct is a permission error, as asserting one is.
        discontiguous/1 passes `create=False`: the same checks, no entry."""
        todo = [(spec, ns)]
        while todo:
            t, ns = resolve_qualifiers(*todo.pop())
            if type(t) is Struct and len(t.args) == 2:
                if t.name == ",":
                    todo += ((t.args[1], ns), (t.args[0], ns))
                    continue
                if t.name == "/":
                    name, ns = resolve_qualifiers(t.args[0], ns)
                    arity = deref(t.args[1])
                    if type(name) is Atom and type(arity) is int and arity >= 0:
                        self._check_modify(name.name, arity, True)
                        self.entry(ns, name.name, arity, create=create)
                        continue
            raise type_error("predicate_indicator", t)

    def retract_term(self, pattern: Term, ns: str = "user") -> bool:
        head, body, ns, name, arity = self._clause_parts(pattern, ns, "retract", False)
        entry = self.preds.get((ns, name, arity))
        if entry is None:
            return False
        # the clauses a call with these arguments would try, in order; a
        # clause that does not match must leave no binding behind, so the
        # tries are recorded even when no choice point is live
        clauses = entry.select(head.args if arity else ())
        trail = self.trail
        trail.guards += 1
        try:
            for clause in clauses:
                mark = trail.mark()
                mapping: dict = {}
                h = resolve_copy(clause.head, mapping)
                b = resolve_copy(clause.body, mapping)
                if unify(head, h, trail, self.occurs_check) and unify(body, b, trail,
                                                                      self.occurs_check):
                    entry.remove(clause)
                    return True
                trail.undo_to(mark)
            return False
        finally:
            trail.release()

    def retract_all_clauses(self, ns: str, name: str, arity: int, first: Term = None,
                            keep: Optional[Callable] = None) -> int:
        """Remove the clauses of a predicate, except those `keep` keeps.
        When `first` is given, remove only the clauses whose first argument
        has its index key: the same atom, number (`1` and `1.0` differ) or
        object reference, or a compound of the same name and arity (so
        `f(a)` removes `f(b)` too); a clause whose first argument is a
        variable stays."""
        entry = self.preds.get((ns, name, arity))
        if entry is None:
            return 0
        return entry.retract_all(None if first is None else index_key(first), keep)

    def clauses_of(self, ns: str, name: str, arity: int) -> list:
        entry = self.preds.get((ns, name, arity))
        if entry is None:
            return []
        return [(c.head, c.body) for c in entry.clauses]

    # -- execution ---------------------------------------------------------

    def compile_goal(self, goal: Term, ns: str) -> tuple:
        """Compile a goal term met at run time; its variables stay as they
        are.  This serves queries, call/N, catch/3 and variable goals; a
        send or get the bridge makes from logic arrives already compiled.
        Errors of the goal itself (unbound, not callable, a bad qualifier)
        are raised here."""
        g, ns = resolve_qualifiers(goal, ns)
        if type(g) is Var:
            raise instantiation_error("goal")
        if type(g) is not Struct and type(g) is not Atom:
            raise type_error("callable", g)
        return compile_body(g, ns, self.builtins)

    def solve(self, goal: Term | Goal, ns: str = "user", protect: bool = False) -> Query:
        """An iterator over the solutions of `goal`, a goal term or a
        compiled `Goal` (built with `clausecode.call_goal`, which carries its
        namespace and runs with nothing compiled).  Exhausted without
        `protect`, it leaves the goal term partly bound (see `Query`): pass
        `protect=True`, or parse a fresh goal, to solve it again."""
        return Query(self, goal, ns, protect)

    def solve_once(self, goal: Term | Goal, ns: str = "user") -> bool:
        """Run a goal, a term or a compiled `Goal`, and commit to its first
        solution; keeps its bindings."""
        q = self.solve(goal, ns, protect=True)
        try:
            next(q)
            return True
        except StopIteration:
            return False
        finally:
            q.close()

    def findall_bindings(self, goal: Term, vars_, ns: str = "user") -> list:
        """Snapshots of the given variables for every solution of the goal.
        The query is closed even when a snapshot raises."""
        q = self.solve(goal, ns, protect=True)
        try:
            return [tuple(copy_acyclic(v) for v in vars_) for _ in q]
        finally:
            q.close()

    # -- consult -----------------------------------------------------------

    def expand_term(self, term: Term) -> list:
        items = [term]
        for hook in self.expansion_hooks:
            out: list = []
            for t in items:
                got = hook(t)
                if got is None:
                    out.append(t)
                else:
                    out.extend(got)
            items = out
        return items

    def consult_text(self, text: str, origin: str = "<consult>") -> LoadReport:
        """Load every clause of `text` and run its directives.  The report
        names each syntax error and each clause, expansion or directive that
        failed; every other clause is loaded."""
        report = LoadReport(origin)
        clauses: list = []
        try:
            for item in read_terms(text):
                clauses.append(item)
        except ReaderError as err:
            report.errors.extend((e.line, str(e)) for e in err.errors)
        outer, self.loading = self.loading, report
        try:
            self._load(clauses, report)
        finally:
            self.loading = outer
        return report

    def _load(self, clauses: list, report: LoadReport) -> None:
        for term, _varmap, line in clauses:
            report.line = line
            try:
                expanded = self.expand_term(term)
            except LogicError as err:
                report.errors.append((line, f"expansion failed: {err}"))
                continue
            for t in expanded:
                t = deref(t)
                if type(t) is Struct and t.name in (":-", "?-") and len(t.args) == 1:
                    report.directives += 1
                    try:
                        if not self.solve_once(t.args[0], "user"):
                            report.warnings.append((line, f"directive failed: {t.args[0]}"))
                    except LogicError as err:
                        report.errors.append((line, f"directive error: {err}"))
                    continue
                try:
                    self.assert_term(t, "user")
                    report.clauses += 1
                except LogicError as err:
                    report.errors.append((line, f"bad clause: {err}"))
