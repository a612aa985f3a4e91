"""The class compiler: consult-time translation of class-definition syntax.

A region between the `pce_begin_class/2` and `pce_end_class/1` directives
may contain `variable/3,4` slot declarations, method clauses written with
`:->` (send) and `:<-` (get), and the `pce_pure_prolog/1` directive marking
a method for in-engine nondeterministic dispatch.  Each method clause is
rewritten into a `pce_principal:send_implementation/3` (or
`get_implementation/4`) clause whose first argument is the indexable
method-id atom `'Class->Selector'`; the user-written body is preserved,
qualified into the `user` namespace, with `send_super` rewritten to
`send_class` on the statically known superclass and spread-form sends
normalized to the compound form.

Everything else about the class lives in fact tables (`pce_class/2`,
`pce_slot/5`, `pce_method/6`, `pce_pure/2`); the kernel class itself is
realized just in time from those facts, on first use.  `_define_members`
is the one routine that turns the facts into kernel slots and methods:
realization runs it on a new class, and the end of a region runs it on
the region's class if that is already realized, so a reconsulted region
reaches such a class when it ends.  A realized class keeps a slot a later
region no longer declares, and a region that names another superclass
for a realized class raises `permission_error(redefine_class, C)` before
it changes any fact.
"""

from __future__ import annotations

from typing import Optional

from .balls import declaration_error, permission_error
from .errors import LogicError
from .kernel import ACCESS_MODES, KMethod, LogicImpl, SlotDef, parse_type_term
from .terms import Atom, Struct, Term, Var, deref, list_items, mk_list

_FACT_PREDS = (
    ("pce_class", 2),
    ("pce_slot", 5),
    ("pce_method", 6),
    ("pce_pure", 2),
    ("send_implementation", 3),
    ("get_implementation", 4),
)


class ClassCompiler:
    def __init__(self, runtime):
        self.rt = runtime
        self.region: Optional[tuple] = None  # (class name, super name)
        self.defined: set = set()  # the (selector, kind) of each method of the region
        self.realizing: set = set()  # the classes whose realization is under way
        engine = runtime.engine
        engine.register_expansion_hook(self._expand)
        engine.register_builtin("pce_begin_class", 2, self._bi_begin)
        engine.register_builtin("pce_end_class", 1, self._bi_end)
        engine.register_builtin("pce_pure_prolog", 1, self._bi_pure)
        for name, arity in _FACT_PREDS:
            engine.entry("pce_principal", name, arity, create=True)

    # -- consult-time expansion ---------------------------------------------

    def _expand(self, term: Term):
        t = deref(term)
        if type(t) is not Struct:
            return None
        if t.name in (":->", ":<-") and len(t.args) == 2:
            if self.region is None:
                raise declaration_error(Struct("method_outside_class_region", (t.args[0],)))
            return self.compile_method(t)
        if (self.region is not None and t.name == "variable"
                and len(t.args) in (3, 4)):
            return [self._slot_fact(t)]
        return None

    def _slot_fact(self, t: Struct) -> Term:
        cls, _super = self.region
        name = deref(t.args[0])
        type_term = deref(t.args[1])
        access = deref(t.args[2])
        doc = deref(t.args[3]) if len(t.args) == 4 else Atom("")
        if type(name) is not Atom or type(access) is not Atom or type(doc) is not Atom:
            raise declaration_error(Struct("malformed_slot", (t,)))
        if access.name not in ACCESS_MODES:
            raise declaration_error(Struct("bad_slot_access", (access,)))
        parse_type_term(type_term)  # early diagnostic for bad type syntax
        fact = Struct("pce_slot", (Atom(cls), name, type_term, access, doc))
        return Struct(":", (Atom("pce_principal"), fact))

    # -- directive handlers ----------------------------------------------------

    def _bi_begin(self, m, args, ns):
        name = deref(args[0])
        super_ = deref(args[1])
        if type(name) is not Atom or type(super_) is not Atom:
            raise declaration_error(Struct("pce_begin_class", (name, super_)))
        if self.region is not None:
            raise declaration_error(Struct("nested_class_region", (name,)))
        kcls = self.rt.kernel.classes.get(name.name)
        if kcls is not None and (kcls.super and kcls.super.name) != super_.name:
            raise permission_error("redefine_class", name)
        self.region = (name.name, super_.name)
        self.defined = set()
        engine = self.rt.engine
        # reconsulting a class refreshes its fact set
        for pred, arity in (("pce_class", 2), ("pce_slot", 5), ("pce_pure", 2)):
            engine.retract_all_clauses("pce_principal", pred, arity, first=name)
        engine.assert_term(Struct("pce_class", (name, super_)), "pce_principal")
        return True

    def _bi_end(self, m, args, ns):
        name = deref(args[0])
        if self.region is None:
            raise declaration_error(Struct("unopened_class_region", (name,)))
        if type(name) is not Atom or name.name != self.region[0]:
            raise declaration_error(
                Struct("class_region_mismatch", (Atom(self.region[0]), name)))
        self._end_region()
        return True

    def _end_region(self) -> None:
        # a class realized before its region ended takes the region's members now
        kcls = self.rt.kernel.classes.get(self.region[0])
        self.region = None
        if kcls is not None:
            self._define_members(kcls)

    def _bi_pure(self, m, args, ns):
        sel = deref(args[0])
        if type(sel) is not Atom:
            raise declaration_error(Struct("pce_pure_prolog", (sel,)))
        if self.region is None:
            raise declaration_error(Struct("pure_prolog_outside_region", (sel,)))
        cls, _super = self.region
        self.rt.engine.assert_term(Struct("pce_pure", (Atom(cls), sel)), "pce_principal")
        return True

    def finish(self, report) -> None:
        """Called after a consult; an unterminated region is an error, and
        ends with the consult."""
        if self.region is not None:
            report.errors.append((0, f"unterminated class region: {self.region[0]}"))
            try:
                self._end_region()
            except LogicError as err:
                report.errors.append((0, f"class region end: {err}"))

    # -- method translation -------------------------------------------------------

    def compile_method(self, t: Struct) -> list:
        kind = "send" if t.name == ":->" else "get"
        cls, super_name = self.region
        head = deref(t.args[0])
        selector, recv, mids, result = self._parse_head(head, kind)
        _doc, body = self._detach_doc(t.args[1])
        body = self._rewrite_goal(body, super_name)
        sep = "->" if kind == "send" else "<-"
        method_id = f"{cls}{sep}{selector}"
        self._remove_method(cls, selector, kind, method_id)
        # a method is one clause: a second one in the region replaces the first
        report = self.rt.engine.loading
        if (selector, kind) in self.defined and report is not None:
            report.warn(f"class {cls}: a second clause for {kind} method {selector} "
                        "replaces the first")
        self.defined.add((selector, kind))

        param_vars = tuple(v for v, _t in mids)
        msg: Term = Struct(selector, param_vars) if param_vars else Atom(selector)
        mid_atom = Atom(method_id)
        if kind == "send":
            impl_head = Struct("send_implementation", (mid_atom, msg, recv))
        else:
            impl_head = Struct("get_implementation", (mid_atom, msg, recv, result[0]))
        impl_clause = Struct(":-", (
            Struct(":", (Atom("pce_principal"), impl_head)),
            Struct(":", (Atom("user"), body)),
        ))
        type_terms = [tt for _v, tt in mids]
        ret_term = result[1] if kind == "get" else Atom("any")
        fact = Struct("pce_method", (Atom(cls), Atom(selector), Atom(kind),
                                     mk_list(type_terms), ret_term, mid_atom))
        fact_clause = Struct(":", (Atom("pce_principal"), fact))
        return [impl_clause, fact_clause]

    def _parse_head(self, head: Term, kind: str):
        if type(head) is not Struct:
            raise declaration_error(Struct("bad_method_head", (head,)))
        selector = head.name
        recv = deref(head.args[0])
        if type(recv) is not Var:
            raise declaration_error(Struct("receiver_not_variable", (head,)))
        params = [self._parse_param(p) for p in head.args[1:]]
        if kind == "get":
            if not params:
                raise declaration_error(Struct("get_method_without_result", (head,)))
            return selector, recv, params[:-1], params[-1]
        return selector, recv, params, None

    def _parse_param(self, p: Term):
        p = deref(p)
        if type(p) is Var:
            return p, Atom("any")
        if type(p) is Struct and p.name == ":" and len(p.args) == 2:
            v = deref(p.args[0])
            tt = deref(p.args[1])
            if type(v) is Var:
                parse_type_term(tt)  # validate early
                return v, tt
        raise declaration_error(Struct("malformed_parameter", (p,)))

    def _detach_doc(self, body: Term):
        b = deref(body)
        if type(b) is Struct and b.name == "," and len(b.args) == 2:
            first = deref(b.args[0])
            if type(first) is Struct and first.name == "::" and len(first.args) == 2:
                return first.args[0], Struct(",", (first.args[1], b.args[1]))
        if type(b) is Struct and b.name == "::" and len(b.args) == 2:
            return b.args[0], b.args[1]
        return Atom(""), b

    _WALK = {(",", 2): (0, 1), (";", 2): (0, 1), ("->", 2): (0, 1),
             ("\\+", 1): (0,), ("once", 1): (0,), ("call", 1): (0,),
             (":", 2): (1,), ("forall", 2): (0, 1), ("catch", 3): (0, 2)}

    def _rewrite_goal(self, g: Term, super_name: str) -> Term:
        g = deref(g)
        if type(g) is not Struct:
            return g
        walk = self._WALK.get((g.name, len(g.args)))
        if walk is not None:
            args = list(g.args)
            for i in walk:
                args[i] = self._rewrite_goal(args[i], super_name)
            return Struct(g.name, args)
        name = g.name
        n = len(g.args)
        if name == "send_super" and n >= 2:
            msg = self._normalize_msg(g.args[1], g.args[2:], "send_super")
            return Struct("send_class", (g.args[0], Atom(super_name), msg))
        if name == "send" and n >= 3:
            sel = deref(g.args[1])
            if type(sel) is Atom:
                return Struct("send", (g.args[0], Struct(sel.name, g.args[2:])))
        if name == "get" and n >= 4:
            sel = deref(g.args[1])
            if type(sel) is Atom:
                return Struct("get", (g.args[0], Struct(sel.name, g.args[2:-1]),
                                      g.args[-1]))
        return g

    @staticmethod
    def _normalize_msg(sel_or_msg: Term, rest, context: str) -> Term:
        t = deref(sel_or_msg)
        if rest:
            if type(t) is not Atom:
                raise declaration_error(Struct(context, (t,)))
            return Struct(t.name, tuple(rest))
        if type(t) in (Atom, Struct):
            return t
        raise declaration_error(Struct(context, (t,)))

    def _remove_method(self, cls: str, selector: str, kind: str, method_id: str) -> None:
        engine = self.rt.engine
        sa, ka = Atom(selector), Atom(kind)
        engine.retract_all_clauses(
            "pce_principal", "pce_method", 6, first=Atom(cls),
            keep=lambda c: not (deref(c.head.args[1]) is sa and deref(c.head.args[2]) is ka))
        pred, arity = ("send_implementation", 3) if kind == "send" else ("get_implementation", 4)
        engine.retract_all_clauses("pce_principal", pred, arity, first=Atom(method_id))

    # -- just-in-time realization ----------------------------------------------

    def realize_class(self, name: str):
        """Build the kernel class from its facts; idempotent, pulls the
        super chain in as needed.  None when no facts describe the name.
        A class met again while its own realization pulls in its super
        chain has a superclass cycle in its facts: that raises
        `declaration_error(superclass_cycle(C))`, and no class of the
        cycle is left registered."""
        kernel = self.rt.kernel
        cls = kernel.classes.get(name)
        if cls is not None:
            return cls
        if name in self.realizing:
            raise declaration_error(Struct("superclass_cycle", (Atom(name),)))
        engine = self.rt.engine
        sup = Var("Super")
        rows = engine.findall_bindings(Struct("pce_class", (Atom(name), sup)),
                                       (sup,), "pce_principal")
        if not rows:
            return None
        self.realizing.add(name)
        try:
            cls = kernel.define_class(name, rows[0][0].name)  # realizes the superclass first
        finally:
            self.realizing.discard(name)
        try:
            self._define_members(cls)
        except LogicError:
            del kernel.classes[name]  # not left half-built: the next use raises again
            raise
        return cls

    def _define_members(self, kcls) -> None:
        """Give `kcls` what its facts declare: each slot it lacks, and every
        method, replacing the one it has; the only code that turns a class's
        facts into kernel members."""
        kernel, engine, name = self.rt.kernel, self.rt.engine, Atom(kcls.name)
        own = {s.name for s in kcls.slots}
        vn, vt, va = Var(), Var(), Var()
        for n_, t_, a_ in engine.findall_bindings(
                Struct("pce_slot", (name, vn, vt, va, Var())), (vn, vt, va), "pce_principal"):
            if n_.name not in own:
                kernel.define_slot(kcls, SlotDef(n_.name, parse_type_term(t_), a_.name))

        vs = Var()
        pure = {row[0].name for row in engine.findall_bindings(
            Struct("pce_pure", (name, vs)), (vs,), "pce_principal")}

        vsel, vkind, vtypes, vret, vid = Var(), Var(), Var(), Var(), Var()
        for sel_, kind_, types_, ret_, id_ in engine.findall_bindings(
                Struct("pce_method", (name, vsel, vkind, vtypes, vret, vid)),
                (vsel, vkind, vtypes, vret, vid), "pce_principal"):
            sel, kind = sel_.name, kind_.name
            argspecs = [parse_type_term(t) for t in list_items(types_) or ()]
            kernel.define_method(kcls, KMethod(
                sel, kind, argspecs, impl=LogicImpl(id_.name, sel),
                returns=parse_type_term(ret_), nondet=kind == "send" and sel in pure),
                replace=True)

        for sel in sorted(pure):
            method = kcls.send_methods.get(sel) or kernel.resolve_method(kcls, sel, "send")
            if method is not None and type(method.impl) is not LogicImpl:
                raise declaration_error(Struct("pure_prolog_on_native", (name, Atom(sel))))
            if sel not in kcls.send_methods:
                raise declaration_error(Struct("pure_prolog_unresolved", (name, Atom(sel))))

    def realize_all(self) -> list:
        """Eagerly realize every class that has facts; returns the classes."""
        vn = Var()
        names = [row[0].name for row in self.rt.engine.findall_bindings(
            Struct("pce_class", (vn, Var())), (vn,), "pce_principal")]
        return [cls for cls in map(self.rt.kernel.find_class, names) if cls is not None]
