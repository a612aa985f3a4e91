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
call.  Results convert the other way; converting the same object twice
yields the same `@N`.

send/2..8, send_class/3 and get/3..9 share one message parser and one
dispatch path.  Methods implemented by logic clauses are dispatched through
`pce_principal:send_implementation/3` (or `get_implementation/4`), keyed by
the indexable method-id atom.  That call is built already compiled: one
`CALL` goal whose arguments are the method-id atom, the message and the
receiver (and a get's result), and whose predicate entry is pinned when
the bridge is made, so a send or get from logic builds no goal term and
compiles nothing.  A classic send or get from logic code runs that goal in the
calling machine, inside a scope frame that holds the call's host-data
scope: the goal commits to its first solution, and the scope closes on
exit, on failure or on an exception.  Every host-data scope starts
unopened and makes its term frame and ledger only when the call wraps a
term or holds a transient object (see `hostdata`), so a crossing that
converts nothing pays for no frame.  Methods flagged pure-logic are
pushed into the calling machine with no scope and no conversion, so their
choice points stay live.  A call from native code (an `initialise` run by
new/2, an event, a message) runs the goal in a nested solve, since a
Python frame is waiting for its answer.
"""

from __future__ import annotations

from .balls import bridge_error
from .clausecode import Goal, call_goal, new_struct
from .engine import PushGoal, Scope
from .hostdata import HostTermObject
from .kernel import PROLOG_T, KMethod, KObject, LogicImpl, TypeSpec
from .terms import Atom, ObjRef, Struct, Term, Var, deref, unify


class _ConvFail(Exception):
    """A compound argument's or result's initialise failed: the bridge call
    fails."""


class _CallScope(Scope):
    """The host-data scope of one classic send, or get when `result` is
    set, run in the calling machine (see `Bridge._call_in_machine`)."""

    __slots__ = ("bridge", "method", "result", "answer")

    def __init__(self, bridge, method: KMethod, result):
        self.bridge = bridge
        self.method = method
        self.result = result
        bridge.rt.hostdata.open_scope()

    def exit(self, m) -> bool:
        if self.result is None:
            return True
        # the result joins this call's ledger, so the post-call protocol
        # judges a fresh wrapper made for it
        bridge = self.bridge
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
        # set while `_call_in_machine` dispatches through the kernel: the
        # logic hooks then hand the implementation goal back to it
        self._to_machine = False
        kernel = runtime.kernel
        kernel.logic_send = self.logic_send
        kernel.logic_get = self.logic_get
        kernel.callback = self.callback_call

        engine = runtime.engine
        # the implementation predicates, pinned for `_implementation_goal`
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
        (selector, argument terms)."""
        t = deref(terms[0])
        tt = type(t)
        if len(terms) > 1:
            if tt is not Atom:
                raise bridge_error("type_mismatch",
                                   Struct("context", (Atom(what), Atom("selector"), t)))
            return t.name, terms[1:]
        if tt is Atom:
            return t.name, ()
        if tt is Struct:
            return t.name, t.args
        if tt is Var:
            raise bridge_error("instantiation", Atom("message"))
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
        obj = self.make_instance(t.name, t.args)
        if obj is None:
            raise _ConvFail()
        self.rt.hostdata.register_transient(obj)
        return obj

    def make_instance(self, class_name: str, arg_terms):
        """Create an instance from term arguments; the caller owns the
        creation hold.  None when initialise fails."""
        kernel = self.rt.kernel
        cls = kernel.find_class(class_name)
        if cls is None:
            raise bridge_error("unknown_class", Atom(class_name))
        init = kernel.resolve_method(cls, "initialise", "send")
        vals = kernel.check_each(init, arg_terms, class_name, self.term_to_value)
        return kernel.instantiate(cls, vals)

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

    def _implementation_goal(self, method: KMethod, obj: KObject, arg_terms,
                             result: Term = None) -> Goal:
        """The call that runs a logic-implemented method, a get when
        `result` is given, else a send: one compiled `CALL` goal of
        `send_implementation(Mid, Msg, @Oid)` or `get_implementation(Mid,
        Msg, @Oid, Result)` whose entry is already resolved, ready to run
        with no goal term built and nothing compiled."""
        impl = method.impl
        msg = new_struct(impl.sel.name, tuple(arg_terms)) if arg_terms else impl.sel
        if result is None:
            return call_goal(self._send_entry, (impl.mid, msg, ObjRef(obj.oid)))
        return call_goal(self._get_entry, (impl.mid, msg, ObjRef(obj.oid), result))

    def logic_send(self, method: KMethod, obj: KObject, values) -> bool:
        """The kernel's hook for a send to a logic-implemented method.  From
        `_call_in_machine` it returns the implementation goal for the calling
        machine to run; from native code it runs the goal in a nested solve
        and commits to its first solution."""
        return self._logic_call(method, obj, values, None)

    def logic_get(self, method: KMethod, obj: KObject, values):
        """As `logic_send`; the nested solve returns the result value, or
        None on failure."""
        return self._logic_call(method, obj, values, Var("Result"))

    def _logic_call(self, method: KMethod, obj: KObject, values, result):
        """The body of both logic hooks: a get when `result` is given."""
        if self._to_machine:
            return self._implementation_goal(method, obj,
                                             [self.value_to_term(v) for v in values], result)
        with self.rt.hostdata.bridge_call():
            terms = [self.value_to_term(v) for v in values]
            ok = self.rt.engine.solve_once(self._implementation_goal(method, obj, terms, result))
            if result is None:
                return ok
            if not ok:
                return None
            rterm = deref(result)
        # the result value joins the enclosing call: a fresh wrapper must
        # outlive this dispatch so the outer post-call protocol can judge it
        try:
            return self.term_to_value(rterm, method.returns, method.selector, -1)
        except _ConvFail:
            return None

    def callback_call(self, pred_name: str, values) -> bool:
        """Run a predicate in `user` from kernel-side values; commits to the
        first solution."""
        with self.rt.hostdata.bridge_call():
            terms = [self.value_to_term(v) for v in values]
            goal = Struct(pred_name, tuple(terms)) if terms else Atom(pred_name)
            return self.rt.engine.solve_once(goal, "user")

    # -- send/get/new/free --------------------------------------------------------

    def _dispatch(self, m, obj: KObject, method: KMethod, arg_terms, result: Term = None):
        """The one dispatch path of send/2..8, send_class/3 and, when
        `result` is given, get/3..9, called from machine `m`."""
        if method.nondet:
            # pure-logic dispatch: stay in this machine, no conversion
            return PushGoal((self._implementation_goal(method, obj, arg_terms, result),))
        if type(method.impl) is LogicImpl:
            return self._call_in_machine(m, obj, method, arg_terms, result)
        kernel = self.rt.kernel
        hostdata = self.rt.hostdata
        # the scope as a plain pair, not `bridge_call`: this is the hot path
        hostdata.open_scope()
        try:
            try:
                vals = kernel.check_each(method, arg_terms, method.selector,
                                         self.term_to_value)
            except _ConvFail:
                return False
            if result is None:
                return kernel.invoke_send(obj, method, vals)
            value = kernel.invoke_get(obj, method, vals)
            if value is None:
                return False
            return unify(result, self.value_to_term(value), m.engine.trail,
                         m.engine.occurs_check)
        finally:
            hostdata.close_scope()

    def _call_in_machine(self, m, obj: KObject, method: KMethod, arg_terms,
                         result: Term = None) -> bool:
        """A classic send, or get when `result` is given, of a
        logic-implemented method, run in the calling machine `m`: open the
        call's scope, convert and type-check the arguments, dispatch through
        the kernel (whose logic hook hands back the compiled implementation
        goal) and let `m` run the goal in the scope.  The scope then closes
        on the goal's exit, on its failure or on an exception."""
        scope = _CallScope(self, method, result)
        kernel = self.rt.kernel
        try:
            vals = kernel.check_each(method, arg_terms, method.selector, self.term_to_value)
            self._to_machine = True
            if result is None:
                goal = kernel.invoke_send(obj, method, vals)
            else:
                goal = kernel.invoke_get(obj, method, vals)
                scope.answer = goal.args[3]  # the implementation's result variable
        except _ConvFail:
            scope.close()
            return False
        except BaseException:
            scope.close()
            raise
        finally:
            self._to_machine = False
        m.call_scoped(goal, scope)
        return True

    def _bi_send(self, m, args, ns):
        selector, arg_terms = self.parse_message("send", args[1:])
        obj = self.deref_obj(args[0], selector)
        return self._dispatch(m, obj, self.rt.kernel.method_of(obj, selector, "send"),
                              arg_terms)

    def _bi_send_class(self, m, args, ns):
        obj = self.deref_obj(args[0], "send_class")
        cname = deref(args[1])
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
                obj = self.make_instance(cname, arg_terms)
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
        t = deref(args[0])
        if type(t) is Var:
            raise bridge_error("instantiation", Atom("free"))
        if type(t) is not ObjRef:
            raise bridge_error("type_mismatch", Struct("context", (Atom("free"), t)))
        obj = self.rt.kernel.fetch(t.ref, "free")
        self.rt.kernel.destroy(obj)
        return True
