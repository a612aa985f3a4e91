"""The assembled runtime: one logic engine, one object kernel, one bridge.

A `Runtime` owns every piece of program state.  Instances share only what
is process-wide and holds no program state: the atom table, the cache of
generated clause code and its counter `clausecode.generated_kinds`.  All use
is single-threaded: solve iterators, bridge calls and the REPL must stay on
the thread that created the runtime.
"""

from __future__ import annotations

import sys
from importlib import resources
from typing import Iterator, Optional

from . import builtins as _builtins
from . import toolkit
from .bridge import Bridge
from .compiler import ClassCompiler
from .engine import Engine, LoadReport, Query
from .hostdata import HostData
from .kernel import Kernel
from .reader import parse_term
from .terms import TermStore

PRELUDE = """
member(X, [X|_]).
member(X, [_|T]) :- member(X, T).

append([], L, L).
append([H|T], L, [H|R]) :- append(T, L, R).

forall(Cond, Action) :- \\+ (Cond, \\+ Action).

pce_principal:'$between'(L, _, L).
pce_principal:'$between'(L, H, X) :- L < H, L1 is L + 1, '$between'(L1, H, X).
"""


def solution_snapshot(varmap: dict) -> dict:
    """Snapshot the bindings of a query's variables; cyclic bindings (only
    possible with the occurs check off) become a representation error."""
    return {name: _builtins.copy_acyclic(v) for name, v in varmap.items()}


# Logic sends, gets, catch/3 and arithmetic do not use the Python stack,
# but some code recurses once per level of nesting: the reader and
# `term_text` per level of a compound term, and each native -> logic call
# (an `initialise` run by new/2, an event, a message to @prolog) runs a
# nested solve.  At the interpreter's default limit of 1000, reading or
# writing f(f(...)) 900 deep raises RecursionError; this raise lets them run
# about 16 times deeper, well inside the interpreter's C stack.
_RECURSION_LIMIT = 16_000


class Runtime:
    def __init__(self, occurs_check: bool = False, unknown: str = "error",
                 indexing: bool = True, out=None,
                 record_node_limit: int = 1_000_000):
        if sys.getrecursionlimit() < _RECURSION_LIMIT:
            sys.setrecursionlimit(_RECURSION_LIMIT)
        self.out = out if out is not None else sys.stdout
        self.store = TermStore(record_node_limit)
        self.engine = Engine(unknown=unknown, indexing=indexing,
                             occurs_check=occurs_check, out=self.out)
        self.engine.rt = self
        _builtins.install(self.engine)
        self.kernel = Kernel(self)
        self.hostdata = HostData(self)
        self.bridge = Bridge(self)
        self.compiler = ClassCompiler(self)
        toolkit.install(self)
        report = self.engine.consult_text(PRELUDE, "<prelude>")
        if not report.ok:
            raise RuntimeError(f"prelude failed to load: {report.errors}")
        self.baseline_live = self.kernel.live_count

    # -- loading ------------------------------------------------------------

    def consult_text(self, text: str, origin: str = "<consult>") -> LoadReport:
        report = self.engine.consult_text(text, origin)
        self.compiler.finish(report)
        return report

    def consult_file(self, path: str) -> LoadReport:
        with open(path, "r", encoding="utf-8") as fh:
            return self.consult_text(fh.read(), origin=path)

    def consult_program(self, name: str) -> LoadReport:
        """Load one of the packaged programs (e.g. 'my_box', 'bench')."""
        text = resources.files("objlog.programs").joinpath(f"{name}.pl").read_text()
        return self.consult_text(text, origin=f"<{name}>")

    # -- running goals ---------------------------------------------------------

    def solve(self, goal, ns: str = "user", protect: bool = False) -> Query:
        """Solutions of a goal term or text (see `Engine.solve`).  A goal
        term solved to exhaustion without `protect` is left partly bound:
        pass `protect=True`, or parse a fresh goal, to solve it again."""
        if isinstance(goal, str):
            goal, _ = parse_term(goal)
        return self.engine.solve(goal, ns, protect)

    def query(self, text: str) -> Iterator[dict]:
        """Iterate solutions of a query given as text; each solution is a
        dict of variable-name -> snapshot term."""
        goal, varmap = parse_term(text)
        for _ in self.engine.solve(goal):
            yield solution_snapshot(varmap)

    def once(self, text: str) -> Optional[dict]:
        """First solution of the query text, or None; commits."""
        goal, varmap = parse_term(text)
        return solution_snapshot(varmap) if self.engine.solve_once(goal) else None

    def call(self, text: str) -> bool:
        return self.once(text) is not None

    # -- inspection ----------------------------------------------------------------

    def stats(self) -> dict:
        out = dict(self.hostdata.stats())
        out["objects-live"] = self.kernel.live_count
        out["objects-created"] = self.kernel.created_total
        out["objects-destroyed"] = self.kernel.destroyed_total
        return out

    def audit_refcounts(self) -> list:
        return self.kernel.audit(self.hostdata.transient_holds())

    def object_dump(self) -> str:
        lines = []
        for obj in sorted(self.kernel.live_objects(), key=lambda o: o.oid):
            locked = "yes" if obj.locks > 0 else "no"
            lines.append(f"@{obj.oid} class={obj.kclass.name} "
                         f"refcount={obj.refcount} locked={locked}")
        return "\n".join(lines)

    def class_dump(self) -> str:
        lines = []
        for name in sorted(self.kernel.classes):
            cls = self.kernel.classes[name]
            sup = cls.super.name if cls.super else "-"
            sends = ",".join(sorted(cls.send_methods))
            gets = ",".join(sorted(cls.get_methods))
            lines.append(f"{name} super={sup} send=[{sends}] get=[{gets}]")
        return "\n".join(lines)

    def realize_all(self) -> None:
        self.compiler.realize_all()
