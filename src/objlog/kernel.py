"""The embedded object system.

Classes form a single-inheritance tree rooted at `object`.  Methods are
first-class descriptions (selector, kind, argument types, implementation
handle); implementations are native Python handlers, generated slot
accessors, or identifiers of logic-side clauses.  `resolve_method`
memoises each (class, selector, kind) it finds, so a send walks the
class chain once per class table: `define_method`, which every slot and
method definition goes through, empties the memo.  A miss is not kept.
A Python `Exception` raised by a native handler reaches the caller as a
`bridge_error(native_exception, context(Class, Selector, ExceptionName))`
ball; a ball, a bug trap, a term-store error, a `RecursionError`,
anything that is not an `Exception`, and an error raised in a solve the
handler ran (`Bridge.solve_nested`; a message to `@prolog` is one) pass
as they are.  `invoke_send` and `invoke_get` run a logic-side method for
native callers (`send_value`, an `initialise` run by `instantiate`,
events and messages) through `Bridge.logic_send`/`logic_get`; a call
from logic code to a logic-side
method runs in the calling machine and never reaches them.  The bridge
runs the goal in a nested solve and opens no host-data scope of its own:
each crossing inside the solve opens its own, and a get's result converts
in the caller's scope.  Every object is made by `instantiate`: it
resolves `initialise` once and checks the arguments once, under the
class's name, before it allocates.  `find_class` realizes a class from
its facts (`ClassCompiler.realize_class`) and is the one place an unknown
class is a ball.  Instances are reference counted: the count
covers incoming slot references, explicit locks and transient bridge
holds, and an object whose count falls to zero with no locks is
destroyed, releasing its own references in turn.
`destroy` can also be forced.  A destroyed object leaves the instance
table; since oids only grow, a reference to an oid that was handed out and
is no longer in the table is a freed-object error, and anyone holding the
object itself sees `KObject.freed`.

Values stored in slots are ints, floats, interned atoms or kernel objects
(including the well-known `@nil`).  The well-known objects are permanent:
they take no part in reference counting and can never be destroyed.
"""

from __future__ import annotations

from typing import Callable, Optional

from .balls import bridge_error, declaration_error, permission_error
from .errors import LogicError, RuntimeBugError, TermStoreError
from .terms import Atom, ObjRef, Struct, Term

# -- type specifiers ---------------------------------------------------------


class TypeSpec:
    """A parameter's type.  `objects` tells whether an object other than
    `@nil` can fit it: only then does the bridge resolve an `@N` argument or
    instantiate a compound one before the check (`Kernel.type_check_value`)."""

    __slots__ = ()


class _Prim(TypeSpec):
    __slots__ = ("name", "objects")

    def __init__(self, name: str):
        self.name = name
        self.objects = name == "any"

    def __repr__(self):
        return self.name


INT_T = _Prim("int")
FLOAT_T = _Prim("float")
ATOM_T = _Prim("atom")
ANY_T = _Prim("any")
PROLOG_T = _Prim("prolog")


class InstanceOf(TypeSpec):
    __slots__ = ("cname",)
    objects = True

    def __init__(self, cname: str):
        self.cname = cname

    def __repr__(self):
        return f"instance_of({self.cname})"


class NilOr(TypeSpec):
    __slots__ = ("inner", "objects")

    def __init__(self, inner: TypeSpec):
        self.inner = inner
        self.objects = inner.objects

    def __repr__(self):
        return f"nil_or({self.inner!r})"


_PRIMS = {"int": INT_T, "float": FLOAT_T, "atom": ATOM_T, "any": ANY_T, "prolog": PROLOG_T}


def parse_type_term(t: Term) -> TypeSpec:
    if type(t) is Atom:
        return _PRIMS.get(t.name) or InstanceOf(t.name)
    if type(t) is Struct and t.name == "nil_or" and len(t.args) == 1:
        return NilOr(parse_type_term(t.args[0]))
    raise declaration_error(Struct("malformed_type", (t,)))


def type_spec_term(spec: TypeSpec) -> Term:
    if type(spec) is _Prim:
        return Atom(spec.name)
    if type(spec) is InstanceOf:
        return Atom(spec.cname)
    return Struct("nil_or", (type_spec_term(spec.inner),))


# -- method and slot descriptions ---------------------------------------------


class NativeImpl:
    __slots__ = ("fn",)

    def __init__(self, fn: Callable):
        self.fn = fn


class LogicImpl:
    """A method implemented by logic clauses, keyed by its method id: the
    interned method-id atom `mid` and selector atom `sel` are made once,
    here, for every call the bridge builds."""

    __slots__ = ("mid", "sel")

    def __init__(self, method_id: str, selector: str):
        self.mid = Atom(method_id)
        self.sel = Atom(selector)


class SlotImpl:
    __slots__ = ("slot_name",)

    def __init__(self, slot_name: str):
        self.slot_name = slot_name


class KMethod:
    __slots__ = ("selector", "kind", "argspecs", "required", "vararg", "returns",
                 "impl", "nondet")

    def __init__(self, selector: str, kind: str, argspecs=(), impl=None,
                 required: Optional[int] = None, vararg: Optional[TypeSpec] = None,
                 returns: TypeSpec = ANY_T, nondet: bool = False):
        self.selector = selector
        self.kind = kind  # 'send' | 'get'
        self.argspecs = tuple(argspecs)
        self.required = len(self.argspecs) if required is None else required
        self.vararg = vararg
        self.returns = returns
        self.impl = impl
        self.nondet = nondet

    def __repr__(self):
        arrow = "->" if self.kind == "send" else "<-"
        return f"<method {arrow}{self.selector}/{len(self.argspecs)}>"


ACCESS_MODES = ("both", "get", "send", "none")


class SlotDef:
    __slots__ = ("name", "spec", "access")

    def __init__(self, name: str, spec: TypeSpec, access: str = "both"):
        if access not in ACCESS_MODES:
            raise ValueError(f"bad slot access {access!r}")
        self.name = name
        self.spec = spec
        self.access = access


class KClass:
    __slots__ = ("name", "super", "slots", "send_methods", "get_methods",
                 "catch_all", "factory")

    def __init__(self, name: str, super_: Optional["KClass"]):
        self.name = name
        self.super = super_
        self.slots: list = []
        self.send_methods: dict = {}
        self.get_methods: dict = {}
        self.catch_all = False
        self.factory = KObject

    def chain(self):
        c = self
        while c is not None:
            yield c
            c = c.super

    def is_a(self, name: str) -> bool:
        return any(c.name == name for c in self.chain())

    def find_slot(self, name: str) -> Optional[SlotDef]:
        for c in self.chain():
            for s in c.slots:
                if s.name == name:
                    return s
        return None

    def all_slots(self) -> list:
        out: list = []
        for c in reversed(list(self.chain())):
            out.extend(c.slots)
        return out

    def __repr__(self):
        return f"<class {self.name}>"


class KObject:
    """An instance: identity, class, slot values and lifetime bookkeeping."""

    __slots__ = ("oid", "kclass", "slots", "refcount", "locks", "freed", "permanent")

    def __init__(self, oid: int, kclass: KClass):
        self.oid = oid
        self.kclass = kclass
        self.slots: dict = {}
        self.refcount = 0
        self.locks = 0
        self.freed = False
        self.permanent = False

    def extra_refs(self):
        """Object values held outside the slot dict (container subclasses)."""
        return ()

    def on_destroy(self, kernel: "Kernel") -> None:
        pass

    def __repr__(self):
        state = " freed" if self.freed else ""
        return f"<@{self.oid} {self.kclass.name}{state}>"


# what a native method may raise as it is: balls, bug traps, term-store
# misuse and a too-deep recursion; any other `Exception` becomes a ball
_PASSED = (LogicError, RuntimeBugError, TermStoreError, RecursionError)


def _native_ball(obj: KObject, method: KMethod, exc: Exception) -> LogicError:
    return bridge_error("native_exception", Atom(obj.kclass.name), Atom(method.selector),
                        Atom(type(exc).__name__))


class Kernel:
    """Class table, instance table and the dispatch/lifetime machinery."""

    def __init__(self, runtime):
        self.rt = runtime
        self.classes: dict = {}
        # class -> tuple of its slot names, ancestors' first (`allocate`);
        # `define_slot` clears it, since a slot reaches every subclass
        self._layouts: dict = {}
        # (class, selector, kind) -> method, filled by `resolve_method`;
        # `define_method` clears it, since a method reaches every subclass
        self._resolved: dict = {}
        self.objects: dict = {}
        self._next_oid = 1
        self.live_count = 0
        self.created_total = 0
        self.destroyed_total = 0
        self.nil: Optional[KObject] = None  # set once bootstrap classes exist
        self.wellknown: dict = {}  # name -> object
        self._wellknown_refs: dict = {}  # oid -> `@name`

        root = self.define_class("object", None)
        self.define_method(root, KMethod("initialise", "send",
                                         impl=NativeImpl(lambda rt, o, v: True)))
        const_cls = self.define_class("constant", "object")
        self.define_slot(const_cls, SlotDef("name", ATOM_T, "get"))
        proxy_cls = self.define_class("prolog", "object")
        proxy_cls.catch_all = True

        self.nil = self._make_wellknown(const_cls, "nil")
        self.nil.slots["name"] = Atom("nil")
        self.prolog_proxy = self._make_wellknown(proxy_cls, "prolog")

    def _make_wellknown(self, kclass: KClass, name: str) -> KObject:
        obj = self.allocate(kclass)
        obj.permanent = True
        obj.locks = 1
        self.wellknown[name] = obj
        self._wellknown_refs[obj.oid] = ObjRef(name)
        return obj

    def ref_term(self, obj: KObject) -> ObjRef:
        """The reference term naming an object: a well-known one by its name
        (`@nil`, `@prolog`), any other by its oid."""
        return self._wellknown_refs.get(obj.oid) or ObjRef(obj.oid)

    # -- classes --------------------------------------------------------

    def define_class(self, name: str, super_name: Optional[str],
                     factory=None) -> KClass:
        if name in self.classes:
            raise permission_error("redefine_class", Atom(name))
        super_ = None if super_name is None else self.find_class(super_name)
        cls = KClass(name, super_)
        if factory is not None:
            cls.factory = factory
        elif super_ is not None:
            cls.factory = super_.factory
        self.classes[name] = cls
        return cls

    def find_class(self, name: str) -> KClass:
        """The class `name`, realized from its facts if need be; else an
        `unknown_class` ball."""
        cls = self.classes.get(name)
        if cls is None:
            cls = self.rt.compiler.realize_class(name)
            if cls is None:
                raise bridge_error("unknown_class", Atom(name))
        return cls

    def define_slot(self, kclass: KClass, sdef: SlotDef) -> None:
        if kclass.find_slot(sdef.name) is not None:
            raise permission_error("redefine_slot",
                                   Struct("/", (Atom(kclass.name), Atom(sdef.name))))
        kclass.slots.append(sdef)
        self._layouts.clear()
        if sdef.access in ("both", "send"):
            self.define_method(kclass, KMethod(sdef.name, "send", (sdef.spec,),
                                               impl=SlotImpl(sdef.name)), replace=True)
        if sdef.access in ("both", "get"):
            self.define_method(kclass, KMethod(sdef.name, "get", (),
                                               returns=sdef.spec,
                                               impl=SlotImpl(sdef.name)), replace=True)

    def define_method(self, kclass: KClass, method: KMethod, replace: bool = False) -> None:
        table = kclass.send_methods if method.kind == "send" else kclass.get_methods
        if method.selector in table and not replace:
            raise permission_error(
                "redefine_method",
                Struct("/", (Atom(kclass.name), Atom(method.selector))))
        table[method.selector] = method
        self._resolved.clear()

    def resolve_method(self, kclass: KClass, selector: str, kind: str) -> Optional[KMethod]:
        """The method a `kind` call of `selector` runs on an instance of
        `kclass`, or None.  Found methods are memoised until the next
        `define_method`; a miss is not, so it walks the chain each time."""
        key = (kclass, selector, kind)
        m = self._resolved.get(key)
        if m is not None:
            return m
        for c in kclass.chain():
            table = c.send_methods if kind == "send" else c.get_methods
            m = table.get(selector)
            if m is not None:
                break
        else:
            if kind != "send" or not any(c.catch_all for c in kclass.chain()):
                return None
            m = self._catch_all_method(selector)
        self._resolved[key] = m
        return m

    def _catch_all_method(self, selector: str) -> KMethod:
        def handler(rt, obj, values):
            if selector == "call":
                if not values or type(values[0]) is not Atom:
                    raise bridge_error("instantiation",
                                       Struct("context", (Atom("call"), Atom("predicate"))))
                return rt.bridge.callback_call(values[0].name, values[1:])
            return rt.bridge.callback_call(selector, values)

        return KMethod(selector, "send", (), impl=NativeImpl(handler),
                       required=0, vararg=PROLOG_T)

    # -- instances -------------------------------------------------------

    def allocate(self, kclass: KClass) -> KObject:
        obj = kclass.factory(self._next_oid, kclass)
        self._next_oid += 1
        layout = self._layouts.get(kclass)
        if layout is None:
            layout = self._layouts[kclass] = tuple(s.name for s in kclass.all_slots())
        if layout and self.nil is not None:  # None only while bootstrapping @nil
            obj.slots = dict.fromkeys(layout, self.nil)
        self.objects[obj.oid] = obj
        self.live_count += 1
        self.created_total += 1
        return obj

    def instantiate(self, kclass: KClass, args, check=None) -> Optional[KObject]:
        """Create an instance holding one creation reference; None on
        initialise failure (the partial object is destroyed).  `check` is
        `check_each`'s: `type_check_value` by default, the bridge's term
        conversion for arguments written in logic."""
        init = self.resolve_method(kclass, "initialise", "send")
        vals = self.check_each(init, args, kclass.name, check or self.type_check_value)
        obj = self.allocate(kclass)
        self.retain(obj)
        try:
            ok = self.invoke_send(obj, init, vals)
        except BaseException:
            if not obj.freed:
                self.destroy(obj)
            raise
        if not ok:
            if not obj.freed:
                self.destroy(obj)
            return None
        return obj

    def fetch(self, oid, context: str = "none") -> KObject:
        """The live object `@oid` names; `context` names the call in the
        ball when there is none."""
        if isinstance(oid, str):
            obj = self.wellknown.get(oid)
        else:
            obj = self.objects.get(oid)
        if obj is None:
            if type(oid) is int and 0 < oid < self._next_oid:
                raise bridge_error("freed_object", ObjRef(oid), Atom(context))
            raise bridge_error("stale_reference", ObjRef(oid), Atom(context))
        return obj

    # -- dispatch ----------------------------------------------------------

    def check_live(self, obj: KObject, selector: str) -> None:
        if obj.freed:
            raise bridge_error("freed_object", ObjRef(obj.oid), Atom(selector))

    def invoke_send(self, obj: KObject, method: KMethod, vals) -> bool:
        """Run a resolved send-method on type-checked values."""
        impl = method.impl
        ti = type(impl)
        if ti is SlotImpl:
            self.slot_set(obj, impl.slot_name, vals[0])
            return True
        if ti is NativeImpl:
            return bool(self._call_native(obj, method, vals))
        return self.rt.bridge.logic_send(method, obj, vals)

    def invoke_get(self, obj: KObject, method: KMethod, vals):
        impl = method.impl
        ti = type(impl)
        if ti is SlotImpl:
            # an instance made before its class gained the slot holds it as nil
            return obj.slots.get(impl.slot_name, self.nil)
        if ti is NativeImpl:
            return self._call_native(obj, method, vals)
        return self.rt.bridge.logic_get(method, obj, vals)

    def _call_native(self, obj: KObject, method: KMethod, vals):
        """Run a native method.  A Python `Exception` it raises becomes a
        `native_exception` ball, save those in `_PASSED` and one that
        escaped a solve the method ran (`Bridge.solve_nested` marks it
        `raised_in_logic`): that error is logic's, and passes as it does
        from the same goal called from logic."""
        try:
            return method.impl.fn(self.rt, obj, vals)
        except _PASSED:
            raise
        except Exception as exc:
            if getattr(exc, "raised_in_logic", False):
                raise
            raise _native_ball(obj, method, exc) from exc

    def method_of(self, obj: KObject, selector: str, kind: str) -> KMethod:
        """The method `obj` runs for a send or get of `selector`."""
        method = self.resolve_method(obj.kclass, selector, kind)
        if method is None:
            raise bridge_error("unknown_method",
                               Struct("context", (Atom(obj.kclass.name), Atom(selector))))
        return method

    def send_value(self, obj: KObject, selector: str, values) -> bool:
        """Send to `obj` from kernel values, type-checked first."""
        self.check_live(obj, selector)
        method = self.method_of(obj, selector, "send")
        return self.invoke_send(obj, method, self.check_args(method, values))

    def resolve_from(self, obj: KObject, class_name: str, selector: str,
                     kind: str) -> KMethod:
        """Resolve a method starting at a named ancestor class (super calls)."""
        start = self.find_class(class_name)
        if not obj.kclass.is_a(class_name):
            raise bridge_error("type_mismatch",
                               Struct("not_an_ancestor",
                                      (Atom(class_name), Atom(obj.kclass.name))))
        method = self.resolve_method(start, selector, kind)
        if method is None:
            raise bridge_error("unknown_method",
                               Struct("context", (Atom(class_name), Atom(selector))))
        return method

    # -- soft typing: the one check, for kernel and bridge calls alike -------

    def check_args(self, method: KMethod, values) -> list:
        """Type-check the values of a call made from the kernel side."""
        return self.check_each(method, values, method.selector, self.type_check_value)

    def check_each(self, method: KMethod, args, selector: str, check) -> list:
        """The arity rule, then `check(arg, spec, selector, pos)` on each
        argument, trailing ones taking the method's vararg spec.  The kernel
        passes `type_check_value`; the bridge passes its term conversion,
        which ends in that same check."""
        n = len(args)
        specs = method.argspecs
        if n < method.required or (n > len(specs) and method.vararg is None):
            raise bridge_error("type_mismatch",
                               Struct("arity", (Atom(selector), len(specs), n)))
        out = []
        for i, a in enumerate(args):
            out.append(check(a, specs[i] if i < len(specs) else method.vararg, selector, i))
        return out

    def type_check_value(self, v, spec: TypeSpec, selector: str = "?", pos: int = 0,
                         term: Term = None):
        """Return `v` if it fits `spec` (an int made a float for a float
        parameter), else raise type_mismatch at argument `pos` of
        `selector`.  The ball shows `term`, the argument as the caller wrote
        it, when given, else the value itself, and names `spec` whole: a
        `nil_or(T)` ball names `nil_or(T)`.  A freed object is a
        freed_object error where an object can fit."""
        shown = spec
        while type(spec) is NilOr:
            if v is self.nil:
                return v
            spec = spec.inner
        tv = type(v)
        if spec is INT_T:
            if tv is int:
                return v
        elif spec is FLOAT_T:
            if tv is float:
                return v
            if tv is int:
                return float(v)
        elif spec is ATOM_T:
            if tv is Atom:
                return v
        elif spec is ANY_T or spec is PROLOG_T:
            if isinstance(v, KObject) and v.freed:
                raise bridge_error("freed_object", ObjRef(v.oid), Atom(selector))
            return v
        elif type(spec) is InstanceOf and isinstance(v, KObject):
            if v.freed:
                raise bridge_error("freed_object", ObjRef(v.oid), Atom(selector))
            if v.kclass.is_a(spec.cname):
                return v
        if term is None:
            term = self.ref_term(v) if isinstance(v, KObject) else v
        raise bridge_error(
            "type_mismatch",
            Struct("context", (Atom(selector), pos + 1, type_spec_term(shown), term)))

    # -- slots ---------------------------------------------------------------

    def slot_set(self, obj: KObject, name: str, value) -> None:
        old = obj.slots.get(name)
        obj.slots[name] = value
        if isinstance(value, KObject):
            self.retain(value)
        if isinstance(old, KObject):
            self.release(old)

    # -- lifetime --------------------------------------------------------------

    def retain(self, obj: KObject) -> None:
        if obj.permanent:
            return
        if obj.freed:
            raise RuntimeBugError(f"retain on freed object @{obj.oid}")
        obj.refcount += 1

    def release(self, obj: KObject) -> None:
        if obj.permanent or obj.freed:
            return
        obj.refcount -= 1
        if obj.refcount < 0:
            raise RuntimeBugError(f"negative refcount on @{obj.oid}")
        if obj.refcount == 0 and obj.locks == 0:
            self._destroy_cascade(obj)

    def lock(self, obj: KObject) -> None:
        self.check_live(obj, "lock_object")
        if obj.permanent:
            return
        obj.locks += 1
        obj.refcount += 1

    def unlock(self, obj: KObject) -> None:
        if obj.permanent:
            return
        if obj.locks <= 0:
            raise RuntimeBugError(f"unlock without lock on @{obj.oid}")
        obj.locks -= 1
        obj.refcount -= 1
        if obj.refcount == 0 and not obj.freed:
            self._destroy_cascade(obj)

    def destroy(self, obj: KObject) -> None:
        """Force destruction regardless of count."""
        if obj.permanent:
            raise permission_error("free", self.ref_term(obj))
        if obj.freed:
            raise bridge_error("freed_object", ObjRef(obj.oid), Atom("free"))
        self._destroy_cascade(obj)

    def _destroy_cascade(self, first: KObject) -> None:
        if not first.slots and type(first).extra_refs is KObject.extra_refs:
            # nothing to release in turn: the common end of a term wrapper
            first.freed = True
            del self.objects[first.oid]
            self.live_count -= 1
            self.destroyed_total += 1
            first.on_destroy(self)
            return
        pending = [first]
        while pending:
            obj = pending.pop()
            if obj.freed:
                continue
            obj.freed = True
            del self.objects[obj.oid]
            self.live_count -= 1
            self.destroyed_total += 1
            refs = [v for v in obj.slots.values() if isinstance(v, KObject)]
            refs.extend(obj.extra_refs())
            obj.slots.clear()
            obj.on_destroy(self)
            for v in refs:
                if v.permanent or v.freed:
                    continue
                v.refcount -= 1
                if v.refcount < 0:
                    raise RuntimeBugError(f"negative refcount on @{v.oid}")
                if v.refcount == 0 and v.locks == 0:
                    pending.append(v)

    # -- auditing ----------------------------------------------------------------

    def live_objects(self) -> list:
        return list(self.objects.values())

    def live_count_of(self, class_name: str) -> int:
        return sum(1 for o in self.live_objects() if o.kclass.name == class_name)

    def audit(self, transient_holds: Optional[dict] = None) -> list:
        """Full-heap sweep: recompute what every live object's refcount
        should be and report (oid, expected, actual) discrepancies."""
        expected: dict = {}
        live = self.live_objects()
        for obj in live:
            if not obj.permanent:
                expected[obj.oid] = obj.locks
        for obj in live:
            for v in list(obj.slots.values()) + list(obj.extra_refs()):
                if isinstance(v, KObject) and not v.permanent and not v.freed:
                    expected[v.oid] = expected.get(v.oid, 0) + 1
        if transient_holds:
            for oid, n in transient_holds.items():
                if oid in expected:
                    expected[oid] += n
        return [(oid, want, self.objects[oid].refcount)
                for oid, want in expected.items()
                if self.objects[oid].refcount != want]

    def unreachable_cycles(self, transient_holds: Optional[dict] = None) -> list:
        """Live objects not reachable from locks/holds; pure refcounting
        cannot collect these, so they are reported as diagnostics."""
        roots = [o for o in self.live_objects()
                 if o.permanent or o.locks > 0 or (transient_holds and o.oid in transient_holds)]
        seen = set()
        stack = list(roots)
        while stack:
            o = stack.pop()
            if o.oid in seen:
                continue
            seen.add(o.oid)
            for v in list(o.slots.values()) + list(o.extra_refs()):
                if isinstance(v, KObject) and not v.freed:
                    stack.append(v)
        return [o for o in self.live_objects() if o.oid not in seen]
