"""The logic/kernel bridge: new/2, send/2..8, get/3..9, free/1 and friends.

Data conversion is directed by the target parameter's type specifier.
Atomic terms become primitive values, `@N` terms resolve to objects, and a
compound argument creates a fresh instance of the class named by its
functor, held transiently for the duration of the call.  Terms headed for
a `prolog`-typed parameter are not converted at all: primitives pass as
primitives, everything else travels inside an opaque wrapper (see
`hostdata`).  Results convert the other way; converting the same object
twice yields the same `@N`.

Methods implemented by logic clauses are dispatched through
`pce_principal:send_implementation/3` (or `get_implementation/4`), keyed by
the indexable method-id atom.  A classic send or get from logic code runs
that goal in the calling machine, inside a scope frame that holds the
call's host-data scope: the goal commits to its first solution, and the
scope closes on exit, on failure or on an exception.  Methods flagged
pure-logic are pushed into the calling machine with no scope and no
conversion, so their choice points stay live.  A call from native code (an
`initialise` run by new/2, an event, a message) runs the goal in a nested
solve, since a Python frame is waiting for its answer.
"""

from __future__ import annotations

from .balls import bridge_error
from .engine import PushGoal, Scope
from .hostdata import HostTermObject
from .kernel import (
    ANY_T,
    ATOM_T,
    FLOAT_T,
    INT_T,
    PROLOG_T,
    InstanceOf,
    KMethod,
    KObject,
    LogicImpl,
    NilOr,
    TypeSpec,
    type_spec_term,
)
from .terms import Atom, ObjRef, Struct, Term, Var, deref, unify


class _ConvFail(Exception):
    """A compound argument's initialise failed: the bridge call fails."""


class _CallScope(Scope):
    """The host-data scope of one classic send, or get when `result` is
    set, run in the calling machine (see `Bridge._call_in_machine`)."""

    __slots__ = ("bridge", "method", "result", "answer", "fid", "ledger")

    def __init__(self, bridge, method: KMethod, result):
        self.bridge = bridge
        self.method = method
        self.result = result
        self.fid, self.ledger = bridge.rt.hostdata.open_scope()

    def exit(self, m) -> bool:
        if self.result is None:
            return True
        # the result joins this call's ledger, so the post-call protocol
        # judges a fresh wrapper made for it
        bridge = self.bridge
        method = self.method
        value = bridge.term_to_value(self.answer, method.returns, method.selector, -1)
        return unify(self.result, bridge.value_to_term(value),
                     m.engine.trail, m.engine.occurs_check)

    def close(self) -> None:
        self.bridge.rt.hostdata.close_scope(self.fid, self.ledger)


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
            return self.rt.kernel.fetch(t.ref, Atom(context))
        if type(t) is Var:
            raise bridge_error("instantiation", Atom(context))
        raise bridge_error("type_mismatch",
                           Struct("context", (Atom(context), Atom("object_reference"), t)))

    @staticmethod
    def parse_message(term: Term, extra=()) -> tuple:
        """Normalize `sel(A...)` / `sel` / spread arguments to (selector, args)."""
        t = deref(term)
        tt = type(t)
        if tt is Atom:
            return t.name, tuple(extra)
        if tt is Struct:
            if extra:
                raise bridge_error("type_mismatch",
                                   Struct("context", (Atom("message"), t)))
            return t.name, t.args
        if tt is Var:
            raise bridge_error("instantiation", Atom("message"))
        raise bridge_error("type_mismatch", Struct("context", (Atom("message"), t)))

    # -- conversion: logic -> kernel ----------------------------------------

    def term_to_value(self, t: Term, spec: TypeSpec, selector: str, pos: int):
        rt = self.rt
        t = deref(t)
        tt = type(t)
        if spec is PROLOG_T:
            # primitives pass as themselves; anything else rides in a wrapper
            if tt is int or tt is float or tt is Atom:
                return t
            return rt.hostdata.wrap_term(t)
        if tt is Var:
            raise bridge_error("instantiation",
                               Struct("context", (Atom(selector), pos + 1)))
        if spec is INT_T:
            if tt is int:
                return t
        elif spec is FLOAT_T:
            if tt is float:
                return t
            if tt is int:
                return float(t)
        elif spec is ATOM_T:
            if tt is Atom:
                return t
        elif spec is ANY_T:
            if tt is int or tt is float or tt is Atom:
                return t
            if tt is ObjRef:
                return rt.kernel.fetch(t.ref, Atom(selector))
            if tt is Struct:
                return self.instantiate_from_struct(t)
        elif type(spec) is NilOr:
            if tt is ObjRef and t.ref == "nil":
                return rt.kernel.nil
            return self.term_to_value(t, spec.inner, selector, pos)
        elif type(spec) is InstanceOf:
            obj = None
            if tt is ObjRef:
                obj = rt.kernel.fetch(t.ref, Atom(selector))
            elif tt is Struct:
                obj = self.instantiate_from_struct(t)
            if obj is not None and obj.kclass.is_a(spec.cname):
                return obj
        raise bridge_error("type_mismatch",
                           Struct("context", (Atom(selector), pos + 1,
                                              type_spec_term(spec), t)))

    def convert_args(self, method: KMethod, terms, selector: str) -> list:
        n = len(terms)
        specs = method.argspecs
        if n < method.required or (n > len(specs) and method.vararg is None):
            raise bridge_error("type_mismatch",
                               Struct("arity", (Atom(selector), len(specs), n)))
        out = []
        for i, t in enumerate(terms):
            spec = specs[i] if i < len(specs) else method.vararg
            out.append(self.term_to_value(t, spec, selector, i))
        return out

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
        vals = self.convert_args(init, arg_terms, class_name)
        return kernel.instantiate(cls, vals)

    # -- conversion: kernel -> logic ----------------------------------------

    def value_to_term(self, v) -> Term:
        if type(v) in (int, float, Atom):
            return v
        if isinstance(v, HostTermObject):
            return self.rt.hostdata.read_back(v)
        if isinstance(v, KObject):
            kernel = self.rt.kernel
            if v is kernel.nil:
                return ObjRef("nil")
            if v is kernel.prolog_proxy:
                return ObjRef("prolog")
            kernel.check_live(v, "result")
            return ObjRef(v.oid)
        raise bridge_error("type_mismatch", Struct("context", (Atom("result"), Atom(str(v)))))

    # -- logic-implemented methods ----------------------------------------------

    def _implementation_goal(self, method: KMethod, obj: KObject, arg_terms,
                             result: Term = None) -> Struct:
        mid = Atom(method.impl.method_id)
        msg = Struct(method.selector, tuple(arg_terms)) if arg_terms else Atom(method.selector)
        if result is None:
            return Struct("send_implementation", (mid, msg, ObjRef(obj.oid)))
        return Struct("get_implementation", (mid, msg, ObjRef(obj.oid), result))

    def logic_send(self, method: KMethod, obj: KObject, values) -> bool:
        """The kernel's hook for a send to a logic-implemented method.  From
        `_call_in_machine` it returns the implementation goal for the calling
        machine to run; from native code it runs the goal in a nested solve
        and commits to its first solution."""
        if self._to_machine:
            return self._implementation_goal(method, obj,
                                             [self.value_to_term(v) for v in values])
        with self.rt.hostdata.bridge_call():
            terms = [self.value_to_term(v) for v in values]
            goal = self._implementation_goal(method, obj, terms)
            return self.rt.engine.solve_once(goal, "pce_principal")

    def logic_get(self, method: KMethod, obj: KObject, values):
        """As `logic_send`; the nested solve returns the result value, or
        None on failure."""
        if self._to_machine:
            return self._implementation_goal(method, obj,
                                             [self.value_to_term(v) for v in values],
                                             Var("Result"))
        with self.rt.hostdata.bridge_call():
            terms = [self.value_to_term(v) for v in values]
            result = Var("Result")
            goal = self._implementation_goal(method, obj, terms, result)
            if not self.rt.engine.solve_once(goal, "pce_principal"):
                return None
            rterm = deref(result)
        # the result value joins the enclosing call: a fresh wrapper must
        # outlive this dispatch so the outer post-call protocol can judge it
        return self.term_to_value(rterm, method.returns, method.selector, -1)

    def callback_call(self, pred_name: str, values) -> bool:
        """Run a predicate in `user` from kernel-side values; commits to the
        first solution."""
        with self.rt.hostdata.bridge_call():
            terms = [self.value_to_term(v) for v in values]
            goal = Struct(pred_name, tuple(terms)) if terms else Atom(pred_name)
            return self.rt.engine.solve_once(goal, "user")

    # -- send/get/new/free --------------------------------------------------------

    def _call_in_machine(self, m, obj: KObject, method: KMethod, arg_terms,
                         selector: str, result: Term = None) -> bool:
        """A classic send, or get when `result` is given, of a
        logic-implemented method, run in the calling machine `m`: open the
        call's scope, convert and type-check the arguments, dispatch through
        the kernel (whose logic hook hands back the implementation goal) and
        let `m` run the goal in the scope.  The scope then closes on the
        goal's exit, on its failure or on an exception."""
        scope = _CallScope(self, method, result)
        kernel = self.rt.kernel
        try:
            vals = self.convert_args(method, arg_terms, selector)
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
        m.call_scoped(goal, "pce_principal", scope)
        return True

    def _dispatch_send(self, m, obj: KObject, method: KMethod, arg_terms,
                       selector: str) -> bool:
        if type(method.impl) is LogicImpl:
            return self._call_in_machine(m, obj, method, arg_terms, selector)
        with self.rt.hostdata.bridge_call():
            try:
                vals = self.convert_args(method, arg_terms, selector)
            except _ConvFail:
                return False
            return self.rt.kernel.invoke_send(obj, method, vals)

    def _bi_send(self, m, args, ns):
        ref = args[0]
        if len(args) == 2:
            selector, arg_terms = self.parse_message(args[1])
        else:
            sel = deref(args[1])
            if type(sel) is not Atom:
                raise bridge_error("type_mismatch",
                                   Struct("context", (Atom("send"), Atom("selector"), sel)))
            selector, arg_terms = sel.name, args[2:]
        obj = self.deref_obj(ref, selector)
        kernel = self.rt.kernel
        method = kernel.resolve_method(obj.kclass, selector, "send")
        if method is None:
            raise bridge_error("unknown_method",
                               Struct("context", (Atom(obj.kclass.name), Atom(selector))))
        if method.nondet:
            # pure-logic dispatch: stay in this machine, no conversion
            msg = Struct(selector, tuple(arg_terms)) if arg_terms else Atom(selector)
            goal = Struct("send_implementation",
                          (Atom(method.impl.method_id), msg, ObjRef(obj.oid)))
            return PushGoal(goal, "pce_principal")
        return self._dispatch_send(m, obj, method, arg_terms, selector)

    def _bi_send_class(self, m, args, ns):
        obj = self.deref_obj(args[0], "send_class")
        cname = deref(args[1])
        if type(cname) is not Atom:
            raise bridge_error("type_mismatch",
                               Struct("context", (Atom("send_class"), cname)))
        selector, arg_terms = self.parse_message(args[2])
        kernel = self.rt.kernel
        kernel.check_live(obj, selector)
        method = kernel.resolve_from(obj, cname.name, selector, "send")
        return self._dispatch_send(m, obj, method, arg_terms, selector)

    def _bi_get(self, m, args, ns):
        ref = args[0]
        result = args[-1]
        if len(args) == 3:
            selector, arg_terms = self.parse_message(args[1])
        else:
            sel = deref(args[1])
            if type(sel) is not Atom:
                raise bridge_error("type_mismatch",
                                   Struct("context", (Atom("get"), Atom("selector"), sel)))
            selector, arg_terms = sel.name, args[2:-1]
        obj = self.deref_obj(ref, selector)
        kernel = self.rt.kernel
        method = kernel.resolve_method(obj.kclass, selector, "get")
        if method is None:
            raise bridge_error("unknown_method",
                               Struct("context", (Atom(obj.kclass.name), Atom(selector))))
        if type(method.impl) is LogicImpl:
            return self._call_in_machine(m, obj, method, arg_terms, selector, result)
        with self.rt.hostdata.bridge_call():
            try:
                vals = self.convert_args(method, arg_terms, selector)
            except _ConvFail:
                return False
            value = kernel.invoke_get(obj, method, vals)
            if value is None:
                return False
            rterm = self.value_to_term(value)
            return unify(result, rterm, m.engine.trail, m.engine.occurs_check)

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
        obj = self.rt.kernel.fetch(t.ref, Atom("free"))
        self.rt.kernel.destroy(obj)
        return True
