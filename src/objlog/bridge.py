"""The logic/kernel bridge: new/2, send/2..8, get/3..9, free/1 and friends.

Data conversion is directed by the target parameter's type specifier, and
every argument, from logic or from native code, passes the kernel's one
soft-type check, `Kernel.type_check_value`, under its one arity rule,
`Kernel.check_each`: these decide what fits, coerce an int to a float and
build the type_mismatch ball.  Before the check the bridge does only what
a term needs: an unbound argument is an instantiation error; a term headed
for a `prolog`-typed parameter is not converted at all (primitives pass as
primitives, everything else travels inside an opaque wrapper, see
`hostdata`); and where the type admits an object, an `@N` term resolves
to its object and a compound argument creates a fresh instance of the
class named by its functor, held transiently for the duration of the
call.  new/2 and a compound argument hand their terms to
`Kernel.instantiate` with `term_to_value` as the check, so each argument
is converted and checked once.  Results convert the other way;
converting the same object twice yields the same `@N`.

send/2..8, send_class/3 and get/3..9 share one message parser and one
dispatch function, `Bridge._dispatch`, which decides each call's path.
Methods implemented by logic clauses are dispatched through
`pce_principal:send_implementation/3` (or `get_implementation/4`), keyed by
the indexable method-id atom.  The call's arguments are the method-id
atom, the message and the receiver (and a get's result), and its predicate
entry is pinned when the bridge is made, so a send or get from logic
builds no goal term and compiles nothing: the builtin enters the
implementation clauses in the calling machine itself (`Machine.enter`), as
a `CALL` goal would, with no goal pushed and no step of the machine's loop
between.  Methods flagged pure-logic are entered at once, with no scope and
no conversion, so their choice points stay live.  A classic send or get
enters the call made from its converted arguments and commits to its
first solution as once/1 does.  Unless its scope holds a transient
object, it closes the scope first and runs committed alone
(`Machine.call_once`): a no-argument or int-argument call made no scope,
and the wrapper made for a `prolog` argument is out of reach once its
term is read back into the call, so the post-call protocol discards it.
The wrapper is still made: it is the paper's passage of host data, and
what the body stores goes through a wrapper of its own.  Whatever a classic call does after
its method is one exit step (`_ExitStep`): a get's step converts the answer
and unifies it with the caller's result, and the step ends the host-data
scope that conversion runs in.  A call that closed its scope first needs
the step for a get only; it follows the commit, off the choice-point
stack, and opens a scope of its own for the answer.  A call holding an
object built from a compound argument, which must outlive the body, keeps
its scope open and runs with the step as its frame on the stack, which
closes the scope on exit, on failure or on an exception; a get's answer
converts at that exit, in that scope.  A call from native code (an
`initialise` run by new/2, `Kernel.send_value`, an event, a message)
reaches `logic_send`/`logic_get` from the kernel and solves the call's
goal term in a nested solve (`solve_nested`), since a Python frame is
waiting for its answer; a Python error out of that solve passes the
native caller unchanged.

Three crossings open a host-data scope: a send, get or send_class from
logic that is not pure-logic (`_dispatch`), new/2 (`new_from_spec`) and an
event (`toolkit.pump_event`).  A native→logic call and a message to
`@prolog` open none: each crossing inside their nested solve opens its
own, and a get's result converts in the caller's scope.  A classic get
from logic whose call held no object opens one more, in its exit step.
Every scope starts unopened and makes its term frame and ledger only when
the call wraps a term or holds a transient object (see `hostdata`), so a
crossing that converts nothing pays for no frame.
"""

from __future__ import annotations

from .balls import bridge_error
from .clausecode import new_struct
from .engine import Scope
from .hostdata import HostTermObject
from .kernel import PROLOG_T, KMethod, KObject, LogicImpl, TypeSpec
from .terms import Atom, ObjRef, Struct, Term, Var, deref, mk, unify


class _ConvFail(Exception):
    """A compound argument's or result's initialise failed: the bridge call
    fails."""


class _ExitStep(Scope):
    """What a classic send or get from logic does once its method has
    committed to its first solution.  `held` says whether the scope
    `Bridge._dispatch` opened is still open: so when it holds a transient
    object, which must outlive the body, and the step is then the call's
    frame on the stack (`Machine.call_scoped`).  Else the step runs after
    the call commits, off the stack (`Machine.call_once`), and only a get
    has one.

    `exit` succeeds for a send.  For a get it converts the answer, the bound
    `answer` variable of the `get_implementation/4` call, to the method's
    return type and unifies it with the caller's `result`, in the held scope
    or in one it opens: a wrapper or an object made for the answer lives
    until then.  `close` ends that scope, after `exit` or when the held
    call fails or raises."""

    __slots__ = ("bridge", "method", "result", "answer", "held")

    def __init__(self, bridge, method: KMethod, result, answer, held: bool):
        self.bridge = bridge
        self.method = method
        self.result = result
        self.answer = answer
        self.held = held

    def exit(self, m) -> bool:
        if self.result is None:
            return True
        bridge = self.bridge
        if not self.held:
            bridge.rt.hostdata.open_scope()
        method = self.method
        try:
            value = bridge.term_to_value(self.answer, method.returns, method.selector, -1)
        except _ConvFail:
            return False
        return unify(self.result, bridge.value_to_term(value),
                     m.engine.trail, m.engine.occurs_check)

    def close(self) -> None:
        self.bridge.rt.hostdata.close_scope()


class Bridge:
    def __init__(self, runtime):
        self.rt = runtime
        engine = runtime.engine
        # the implementation predicates, pinned for `_implementation_call`
        self._send_entry = engine.entry("pce_principal", "send_implementation", 3, create=True)
        self._get_entry = engine.entry("pce_principal", "get_implementation", 4, create=True)
        engine.register_builtin("new", 2, self._bi_new)
        engine.register_builtin("free", 1, self._bi_free)
        engine.register_builtin("send_class", 3, self._bi_send_class)
        for n in range(2, 9):
            engine.register_builtin("send", n, self._bi_send)
        for n in range(3, 10):
            engine.register_builtin("get", n, self._bi_get)

    # -- reference and message plumbing -----------------------------------

    def deref_obj(self, term: Term, context: str) -> KObject:
        t = deref(term)
        if type(t) is ObjRef:
            return self.rt.kernel.fetch(t.ref, context)
        if type(t) is Var:
            raise bridge_error("instantiation", Atom(context))
        raise bridge_error("type_mismatch",
                           Struct("context", (Atom(context), Atom("object_reference"), t)))

    @staticmethod
    def parse_message(what: str, terms) -> tuple:
        """The message of a `what` call (send, send_class or get) from the
        terms after its receiver and before a get's result: one `sel(A...)`
        or `sel` term, or a selector atom and spread arguments.  Returns
        (selector, argument terms).  An unbound selector or message is an
        instantiation ball in either form."""
        t = deref(terms[0])
        tt = type(t)
        if tt is Var:
            raise bridge_error("instantiation", Atom("message"))
        if len(terms) > 1:
            if tt is not Atom:
                raise bridge_error("type_mismatch",
                                   Struct("context", (Atom(what), Atom("selector"), t)))
            return t.name, terms[1:]
        if tt is Atom:
            return t.name, ()
        if tt is Struct:
            return t.name, t.args
        raise bridge_error("type_mismatch", Struct("context", (Atom("message"), t)))

    # -- conversion: logic -> kernel ----------------------------------------

    def term_to_value(self, t: Term, spec: TypeSpec, selector: str, pos: int):
        """Convert one argument term and pass it to the kernel's check."""
        kernel = self.rt.kernel
        t = deref(t)
        tt = type(t)
        if spec is PROLOG_T:
            # primitives pass as themselves; anything else rides in a wrapper
            v = t if tt is int or tt is float or tt is Atom else self.rt.hostdata.wrap_term(t)
        elif tt is Var:
            raise bridge_error("instantiation",
                               Struct("context", (Atom(selector), pos + 1)))
        elif tt is ObjRef:
            # `@nil` and `@prolog` resolve for any spec, so nil_or(int) takes
            # `@nil`; other references only where an object can fit
            v = (kernel.fetch(t.ref, selector) if spec.objects
                 else kernel.wellknown.get(t.ref, t))
        elif tt is Struct and spec.objects:
            v = self.instantiate_from_struct(t)
        else:
            v = t
        return kernel.type_check_value(v, spec, selector, pos, t)

    def instantiate_from_struct(self, t: Struct) -> KObject:
        """A compound argument: instantiate the class named by its functor,
        with one transient hold on the current call's ledger."""
        kernel = self.rt.kernel
        obj = kernel.instantiate(kernel.find_class(t.name), t.args, self.term_to_value)
        if obj is None:
            raise _ConvFail()
        self.rt.hostdata.register_transient(obj)
        return obj

    # -- conversion: kernel -> logic ----------------------------------------

    def value_to_term(self, v) -> Term:
        if type(v) in (int, float, Atom):
            return v
        if isinstance(v, HostTermObject):
            return self.rt.hostdata.read_back(v)
        if isinstance(v, KObject):
            kernel = self.rt.kernel
            kernel.check_live(v, "result")
            return kernel.ref_term(v)
        raise bridge_error("type_mismatch", Struct("context", (Atom("result"), Atom(str(v)))))

    # -- logic-implemented methods ----------------------------------------------

    def _implementation_call(self, method: KMethod, obj: KObject, arg_terms,
                             result: Term = None) -> tuple:
        """The call that runs a logic-implemented method, a get when
        `result` is given, else a send: the pinned entry of
        `send_implementation/3` or `get_implementation/4` and its arguments
        `(Mid, Msg, @Oid)` or `(Mid, Msg, @Oid, Result)`: a call from logic
        enters it (`Machine.enter`) with no goal term built and nothing
        compiled, and one from native code solves it as a goal term."""
        impl = method.impl
        msg = new_struct(impl.sel.name, tuple(arg_terms)) if arg_terms else impl.sel
        if result is None:
            return self._send_entry, (impl.mid, msg, ObjRef(obj.oid))
        return self._get_entry, (impl.mid, msg, ObjRef(obj.oid), result)

    def logic_send(self, method: KMethod, obj: KObject, values) -> bool:
        """What the kernel runs for a send to a logic-implemented method from
        native code (an `initialise` run by new/2, `Kernel.send_value`, an
        event, a message): it solves the implementation goal in a nested
        solve and commits to its first solution."""
        return self._logic_call(method, obj, values, None)

    def logic_get(self, method: KMethod, obj: KObject, values):
        """As `logic_send`, for a get: returns the result value, or None on
        failure."""
        return self._logic_call(method, obj, values, Var("Result"))

    def _logic_call(self, method: KMethod, obj: KObject, values, result):
        """The body of `logic_send` and `logic_get`, a nested solve: a get
        when `result` is given.  The goal term solves as a `@prolog`
        message's does: its predicate is entered through its entry, with
        nothing compiled (see `Machine.call_term`).  It opens no host-data
        scope: each crossing inside the solve opens its own, and the result
        converts in the caller's."""
        terms = [self.value_to_term(v) for v in values]
        entry, args = self._implementation_call(method, obj, terms, result)
        ok = self.solve_nested(new_struct(entry.name, args), entry.ns)
        if result is None:
            return ok
        if not ok:
            return None
        # the result value joins the enclosing call: a fresh wrapper must
        # outlive this dispatch so the outer post-call protocol can judge it
        try:
            return self.term_to_value(deref(result), method.returns, method.selector, -1)
        except _ConvFail:
            return None

    def callback_call(self, pred_name: str, values) -> bool:
        """Run a predicate in `user` from kernel-side values; commits to the
        first solution and opens no host-data scope, as `_logic_call`.  The
        goal term solves as a query's: a user predicate is entered through
        its entry and a builtin runs as such, so nothing is compiled, and a
        control construct or an unknown predicate raises what calling it
        from logic raises (see `Machine.call_term`)."""
        return self.solve_nested(mk(pred_name, *map(self.value_to_term, values)))

    def solve_nested(self, goal: Term, ns: str = "user") -> bool:
        """Solve a goal term in namespace `ns` from native code, committed
        to its first solution.  A Python error out of the solve was raised
        in logic, not by the native method that runs the solve: it is
        marked `raised_in_logic`, so `Kernel._call_native` passes it on as
        it is, not as that method's `native_exception`."""
        try:
            return self.rt.engine.solve_once(goal, ns)
        except Exception as exc:
            exc.raised_in_logic = True
            raise

    # -- send/get/new/free --------------------------------------------------------

    def _dispatch(self, m, obj: KObject, method: KMethod, arg_terms, result: Term = None):
        """The one dispatch path of send/2..8, send_class/3 and, when
        `result` is given, get/3..9, called from machine `m`.  A logic
        method's implementation clauses are entered in `m` from here
        (`Machine.enter`), and the builtin answers what the entry answers.
        A pure-logic method is entered at once, with no scope and no
        conversion.  Any other call opens its host-data scope and converts
        and checks its arguments.  A native or slot method then runs and
        the scope closes.  A classic method's call is made from the
        converted arguments and runs to its first solution: a call whose
        scope holds a transient object with its `_ExitStep` as the frame
        that keeps the open scope; any other closes the scope and runs
        committed as once/1 is, followed by its exit step when it is a get
        (`Machine.call_once`)."""
        if method.nondet:
            return m.enter(*self._implementation_call(method, obj, arg_terms, result))
        kernel = self.rt.kernel
        hostdata = self.rt.hostdata
        call = None
        # the scope as a plain pair, not `bridge_call`: this is the hot path
        hostdata.open_scope()
        try:
            vals = kernel.check_each(method, arg_terms, method.selector, self.term_to_value)
            if type(method.impl) is LogicImpl:
                answer = None if result is None else Var("Result")
                call = self._implementation_call(
                    method, obj, [self.value_to_term(v) for v in vals], answer)
            elif result is None:
                ok = kernel.invoke_send(obj, method, vals)
            else:
                value = kernel.invoke_get(obj, method, vals)
                ok = value is not None and unify(result, self.value_to_term(value),
                                                 m.engine.trail, m.engine.occurs_check)
        except _ConvFail:
            ok = False
        except BaseException:
            hostdata.close_scope()
            raise
        if call is None:
            hostdata.close_scope()
            return ok
        entry, args = call  # plain arguments: a spread call costs more here
        if hostdata.holds_object():
            # an object built from an argument must outlive the body: the
            # step is the call's frame and keeps the scope
            return m.call_scoped(entry, args, _ExitStep(self, method, result, answer, True))
        # a wrapper made for a `prolog` argument is out of reach now that
        # its term is in the call, so the post-call protocol discards it
        hostdata.close_scope()
        step = None if result is None else _ExitStep(self, method, result, answer, False)
        return m.call_once(entry, args, step)

    def _bi_send(self, m, args, ns):
        selector, arg_terms = self.parse_message("send", args[1:])
        obj = self.deref_obj(args[0], selector)
        return self._dispatch(m, obj, self.rt.kernel.method_of(obj, selector, "send"),
                              arg_terms)

    def _bi_send_class(self, m, args, ns):
        obj = self.deref_obj(args[0], "send_class")
        cname = deref(args[1])
        if type(cname) is Var:
            raise bridge_error("instantiation", Atom("send_class"))
        if type(cname) is not Atom:
            raise bridge_error("type_mismatch",
                               Struct("context", (Atom("send_class"), cname)))
        selector, arg_terms = self.parse_message("send_class", args[2:])
        method = self.rt.kernel.resolve_from(obj, cname.name, selector, "send")
        return self._dispatch(m, obj, method, arg_terms)

    def _bi_get(self, m, args, ns):
        selector, arg_terms = self.parse_message("get", args[1:-1])
        obj = self.deref_obj(args[0], selector)
        return self._dispatch(m, obj, self.rt.kernel.method_of(obj, selector, "get"),
                              arg_terms, args[-1])

    def new_from_spec(self, spec: Term):
        """The object-creation core of new/2: returns the object (locked, so
        it outlives the call) or None when initialise fails."""
        spec = deref(spec)
        ts = type(spec)
        if ts is Var:
            raise bridge_error("instantiation", Atom("new"))
        if ts is Atom:
            cname, arg_terms = spec.name, ()
        elif ts is Struct:
            cname, arg_terms = spec.name, spec.args
        else:
            raise bridge_error("type_mismatch",
                               Struct("context", (Atom("new"), spec)))
        kernel = self.rt.kernel
        with self.rt.hostdata.bridge_call():
            try:
                obj = kernel.instantiate(kernel.find_class(cname), arg_terms,
                                         self.term_to_value)
            except _ConvFail:
                return None
            if obj is None:
                return None
            kernel.lock(obj)
            kernel.release(obj)  # creation hold ends; the lock keeps it
            return obj

    def _bi_new(self, m, args, ns):
        ref = deref(args[0])
        if type(ref) is not Var:
            # the paper's new(?Reference, ...) admits named references; this
            # runtime requires an unbound reference
            raise bridge_error("instantiation",
                               Struct("context", (Atom("new"), Atom("reference_bound"))))
        obj = self.new_from_spec(args[1])
        if obj is None:
            return False
        return unify(ref, ObjRef(obj.oid), m.engine.trail)

    def _bi_free(self, m, args, ns):
        self.rt.kernel.destroy(self.deref_obj(args[0], "free"))
        return True
