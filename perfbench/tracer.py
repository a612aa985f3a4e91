"""Per-layer tracing, installed from outside the program under test.

`install` replaces entry points of objlog's modules with wrappers, at run
time, and `uninstall` puts the originals back; nothing under `src/` is
edited.  Install before the `Runtime` is built: the bridge, the compiler
and the kernel capture bound methods of one another when they are built.

A span records its name, start, end, parent span and request id.  Self
time is computed as spans close: a span's duration minus the time its
child spans cover.  Counts and self times are kept per request kind, so
the runner can tell what one kind of request cost.  The first KEEP spans
are also kept in memory and written out when the run ends; the rest are
only aggregated, which keeps memory flat on long runs.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter

from objlog import bridge, builtins, engine, toolkit
from objlog.bridge import Bridge
from objlog.compiler import ClassCompiler
from objlog.engine import Engine, Machine, PushGoal, Query
from objlog.hostdata import HostData
from objlog.kernel import InstanceOf, Kernel, NativeImpl, NilOr, SlotImpl
from objlog.terms import TermStore

KEEP = 50_000

# span name -> layer whose self time it adds to
LAYER_OF = {
    "engine.run": "engine", "engine.consult": "engine",
    "terms.unify": "terms",
    "terms.record_term": "terms", "terms.record_to_term": "terms", "terms.erase": "terms",
    "reader.read": "reader",
    "compiler.compile_method": "compiler", "compiler.realize_class": "compiler",
    "kernel.dispatch": "kernel", "kernel.resolve": "kernel", "kernel.typecheck": "kernel",
    "bridge.send": "bridge", "bridge.get": "bridge", "bridge.logic": "bridge",
    "bridge.callback": "bridge", "bridge.new": "bridge", "bridge.free": "bridge",
    "hostdata.scope": "hostdata", "hostdata.read_back": "hostdata",
    "toolkit.pump": "toolkit",
}
CONVERT_GROUPS = ("int", "float", "atom", "prolog", "any", "instance", "nil_or")


class Tracer:
    def __init__(self):
        self.on = False
        self.stack: list = []   # open spans: [id, name, start, child seconds]
        self.calls: list = []   # open send/get builtins: [kind of the first dispatch]
        self.next_id = 0
        self.rid = 0
        self.by_kind: dict = {}  # kind -> (counts, self seconds)
        self.counts: dict = {}
        self.selfs: dict = {}
        self.kept: list = []
        self._undo: list = []

    # -- spans ---------------------------------------------------------------

    def begin(self, kind: str) -> None:
        """Open the root span of one client request; `close` ends it."""
        self.rid += 1
        got = self.by_kind.get(kind)
        if got is None:
            got = self.by_kind[kind] = ({}, {})
        self.counts, self.selfs = got
        self.open("client." + kind)

    def open(self, name: str) -> None:
        self.stack.append([self.next_id, name, perf_counter(), 0.0])
        self.next_id += 1

    def close(self) -> None:
        end = perf_counter()
        sid, name, start, child = self.stack.pop()
        dur = end - start
        selfs = self.selfs
        selfs[name] = selfs.get(name, 0.0) + dur - child
        self.count(name)
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[3] += dur
        if sid < KEEP:
            self.kept.append((sid, name, start, end,
                              parent[0] if parent is not None else -1, self.rid))

    def count(self, name: str, n: int = 1) -> None:
        c = self.counts
        c[name] = c.get(name, 0) + n

    # -- aggregation -----------------------------------------------------------

    def totals(self):
        """Counts and self times over every request kind."""
        counts: dict = {}
        selfs: dict = {}
        for c, s in self.by_kind.values():
            for k, v in c.items():
                counts[k] = counts.get(k, 0) + v
            for k, v in s.items():
                selfs[k] = selfs.get(k, 0.0) + v
        return counts, selfs

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"spans": self.next_id, "kept": len(self.kept),
                                 "fields": ["id", "name", "start", "end", "parent",
                                            "request"]}) + "\n")
            for span in sorted(self.kept):
                fh.write(json.dumps(span) + "\n")

    # -- installation -------------------------------------------------------------

    def _patch(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def span(self, name, fn):
        tr = self

        def wrapper(*args, **kw):
            if not tr.on:
                return fn(*args, **kw)
            tr.open(name)
            try:
                return fn(*args, **kw)
            finally:
                tr.close()

        return wrapper

    def install(self) -> None:
        tr = self
        sp = self.span

        # engine: goals, clause attempts and hits, solves, the machine's run
        exec_goal = Machine.exec_goal

        def exec_goal_w(m, goal, ns, barrier):
            if tr.on:
                tr.count("engine.goals")
            return exec_goal(m, goal, ns, barrier)

        try_clause = Machine.try_clause

        def try_clause_w(m, *args):
            hit = try_clause(m, *args)
            if tr.on:
                tr.count("engine.try_clause")
                if hit:
                    tr.count("engine.head_unified")
            return hit

        solve = Engine.solve

        def solve_w(eng, *args, **kw):
            if tr.on:
                tr.count("engine.solves")
            return solve(eng, *args, **kw)

        self._patch(Machine, "exec_goal", exec_goal_w)
        self._patch(Machine, "try_clause", try_clause_w)
        self._patch(Engine, "solve", solve_w)
        self._patch(Query, "__next__", sp("engine.run", Query.__next__))
        self._patch(Query, "close", sp("engine.run", Query.close))
        self._patch(Engine, "consult_text", sp("engine.consult", Engine.consult_text))

        # reader: consumed inside the span, so the span covers the parse
        read_terms = engine.read_terms

        def read_terms_w(text):
            if not tr.on:
                return read_terms(text)
            tr.open("reader.read")
            try:
                items = list(read_terms(text))
            finally:
                tr.close()
            tr.count("reader.clauses", len(items))
            return iter(items)

        self._patch(engine, "read_terms", read_terms_w)

        # terms: unify where the engine, the bridge and the builtins call it
        for mod in (engine, bridge, builtins):
            self._patch(mod, "unify", sp("terms.unify", mod.unify))
        open_frame = TermStore.open_frame

        def open_frame_w(store):
            if tr.on:
                tr.count("terms.frames")
            return open_frame(store)

        self._patch(TermStore, "open_frame", open_frame_w)
        for attr in ("record_term", "record_to_term", "erase"):
            self._patch(TermStore, attr, sp("terms." + attr, getattr(TermStore, attr)))

        # compiler
        self._patch(ClassCompiler, "compile_method",
                    sp("compiler.compile_method", ClassCompiler.compile_method))
        realize = sp("compiler.realize_class", ClassCompiler.realize_class)

        def realize_w(comp, name):
            known = name in comp.rt.kernel.classes
            cls = realize(comp, name)
            if tr.on and cls is not None and not known:
                tr.count("compiler.classes_realized")
            return cls

        self._patch(ClassCompiler, "realize_class", realize_w)

        # kernel: dispatch per kind of implementation, method lookup, typing
        def impl_kind(method):
            t = type(method.impl)
            return "slot" if t is SlotImpl else "native" if t is NativeImpl else "logic"

        for attr, what in (("invoke_send", "sends"), ("invoke_get", "gets")):
            inner = sp("kernel.dispatch", getattr(Kernel, attr))

            def invoke_w(k, obj, method, vals, inner=inner, what=what):
                if tr.on:
                    kind = impl_kind(method)
                    tr.count(f"kernel.{what}.{kind}")
                    if tr.calls and tr.calls[-1][0] is None:
                        tr.calls[-1][0] = kind
                return inner(k, obj, method, vals)

            self._patch(Kernel, attr, invoke_w)
        self._patch(Kernel, "resolve_method", sp("kernel.resolve", Kernel.resolve_method))
        self._patch(Kernel, "check_args", sp("kernel.typecheck", Kernel.check_args))

        # bridge: calls per dispatch path, from the first kernel dispatch the
        # builtin makes (a logic one runs the method in a nested solve), or
        # the goal it pushes into the calling machine (a pure-logic method)
        paths = {"native": "native", "slot": "slot", "logic": "logic_classic", None: "error"}
        for attr, name in (("_bi_send", "bridge.send"), ("_bi_send_class", "bridge.send"),
                           ("_bi_get", "bridge.get")):
            inner = sp(name, getattr(Bridge, attr))

            def builtin_w(b, m, args, ns, inner=inner):
                if not tr.on:
                    return inner(b, m, args, ns)
                call = [None]
                tr.calls.append(call)
                out = None
                try:
                    out = inner(b, m, args, ns)
                    return out
                finally:
                    tr.calls.pop()
                    path = "logic_pure" if type(out) is PushGoal else paths[call[0]]
                    tr.count("bridge.calls." + path)

            self._patch(Bridge, attr, builtin_w)
        self._patch(Bridge, "_bi_new", sp("bridge.new", Bridge._bi_new))
        self._patch(Bridge, "_bi_free", sp("bridge.free", Bridge._bi_free))
        self._patch(Bridge, "logic_send", sp("bridge.logic", Bridge.logic_send))
        self._patch(Bridge, "logic_get", sp("bridge.logic", Bridge.logic_get))
        callback = sp("bridge.callback", Bridge.callback_call)

        def callback_w(b, *args):
            if tr.on:
                tr.count("bridge.calls.callback")
            return callback(b, *args)

        self._patch(Bridge, "callback_call", callback_w)

        spans = {g: "bridge.convert." + g for g in CONVERT_GROUPS}
        term_to_value = Bridge.term_to_value

        def term_to_value_w(b, t, spec, selector, pos):
            if not tr.on:
                return term_to_value(b, t, spec, selector, pos)
            ts = type(spec)
            group = "instance" if ts is InstanceOf else "nil_or" if ts is NilOr else spec.name
            tr.open(spans[group])
            try:
                return term_to_value(b, t, spec, selector, pos)
            finally:
                tr.close()

        self._patch(Bridge, "term_to_value", term_to_value_w)
        instantiate = Bridge.instantiate_from_struct

        def instantiate_w(b, t):
            if tr.on:
                tr.count("bridge.transients")
            return instantiate(b, t)

        self._patch(Bridge, "instantiate_from_struct", instantiate_w)

        # hostdata: the scope of one bridge call, wrapper read-back
        bridge_call = HostData.bridge_call

        @contextmanager
        def bridge_call_w(hd):
            if not tr.on:
                with bridge_call(hd) as ledger:
                    yield ledger
                return
            tr.open("hostdata.scope")
            try:
                with bridge_call(hd) as ledger:
                    yield ledger
            finally:
                tr.close()

        self._patch(HostData, "bridge_call", bridge_call_w)
        self._patch(HostData, "read_back", sp("hostdata.read_back", HostData.read_back))

        # toolkit: the synthetic event pump, as its builtin finds it
        self._patch(toolkit, "pump_event", sp("toolkit.pump", toolkit.pump_event))


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s") or "_s." in name:
        return "s"
    if "ratio" in name:
        return "ratio"
    if "_per_" in name:
        return "solves/send"
    return "count"


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def layer_metrics(tr: Tracer, rt, base: dict) -> dict:
    """Per-layer metrics from the spans and the counters the runtime keeps,
    taken against `base` (the counters right after the traced runtime was
    built)."""
    counts, selfs = tr.totals()

    def self_s(*names):
        return sum(selfs.get(n, 0.0) for n in names)

    def layer_self(layer):
        return sum(v for n, v in selfs.items() if LAYER_OF.get(n) == layer)

    k = rt.kernel
    hd = rt.hostdata
    out = {
        "engine.goals": counts.get("engine.goals", 0),
        "engine.clause_attempts": rt.engine.clause_attempts - base["clause_attempts"],
        "engine.clause_hit_ratio": _ratio(counts.get("engine.head_unified", 0),
                                          counts.get("engine.try_clause", 0)),
        "engine.solves": counts.get("engine.solves", 0),
        "engine.self_s": layer_self("engine"),
        "terms.unify_calls": counts.get("terms.unify", 0),
        "terms.unify_self_s": self_s("terms.unify"),
        "terms.frames": counts.get("terms.frames", 0),
        "terms.records_made": rt.store.records_made - base["records_made"],
        "terms.record_self_s": self_s("terms.record_term", "terms.record_to_term",
                                      "terms.erase"),
        "reader.self_s": layer_self("reader"),
        "reader.clauses_per_s": _ratio(counts.get("reader.clauses", 0), layer_self("reader")),
        "compiler.self_s": layer_self("compiler"),
        "compiler.methods": counts.get("compiler.compile_method", 0),
        "compiler.classes_realized": counts.get("compiler.classes_realized", 0),
        "kernel.dispatch_self_s": self_s("kernel.dispatch"),
        "kernel.resolve_self_s": self_s("kernel.resolve"),
        "kernel.typecheck_self_s": self_s("kernel.typecheck"),
        "kernel.objects_created": k.created_total - base["created"],
        "kernel.objects_destroyed": k.destroyed_total - base["destroyed"],
        "kernel.table_size": len(k.objects) - base["table"],
        "bridge.send_self_s": self_s("bridge.send"),
        "bridge.get_self_s": self_s("bridge.get"),
        "bridge.logic_self_s": self_s("bridge.logic", "bridge.callback"),
        "bridge.lifecycle_self_s": self_s("bridge.new", "bridge.free"),
        "bridge.transients": counts.get("bridge.transients", 0),
        "hostdata.scopes": counts.get("hostdata.scope", 0),
        "hostdata.scope_self_s": self_s("hostdata.scope"),
        "hostdata.wrappers_made": hd.wrappers_made - base["wrappers_made"],
        "hostdata.wrappers_recorded": hd.wrappers_recorded_total - base["wrappers_recorded"],
        "hostdata.record_ratio": _ratio(hd.wrappers_recorded_total - base["wrappers_recorded"],
                                        hd.wrappers_made - base["wrappers_made"]),
        "hostdata.read_back_self_s": self_s("hostdata.read_back"),
        "toolkit.events": counts.get("toolkit.pump", 0),
        "toolkit.pump_self_s": self_s("toolkit.pump"),
    }
    for what in ("sends", "gets"):
        for impl in ("native", "slot", "logic"):
            out[f"kernel.{what}.{impl}"] = counts.get(f"kernel.{what}.{impl}", 0)
    for path in ("native", "slot", "logic_classic", "logic_pure", "callback"):
        out["bridge.calls." + path] = counts.get("bridge.calls." + path, 0)
    for g in CONVERT_GROUPS:
        out["bridge.convert_calls." + g] = counts.get("bridge.convert." + g, 0)
        out["bridge.convert_self_s." + g] = self_s("bridge.convert." + g)
    return out


def runtime_base(rt) -> dict:
    """The counters `layer_metrics` measures from, read from a fresh runtime."""
    return {
        "clause_attempts": rt.engine.clause_attempts,
        "records_made": rt.store.records_made,
        "created": rt.kernel.created_total,
        "destroyed": rt.kernel.destroyed_total,
        "table": len(rt.kernel.objects),
        "wrappers_made": rt.hostdata.wrappers_made,
        "wrappers_recorded": rt.hostdata.wrappers_recorded_total,
    }
