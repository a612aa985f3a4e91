"""Opaque passage of logic terms through the object kernel.

A term handed to a `prolog`-typed argument is wrapped in an instance of the
kernel class `prolog_term` (a subclass of `host_data`).  The wrapper starts
out live, holding a frame-scoped term reference, so the receiving method
sees the caller's term itself and bindings flow both ways.  When the bridge
call that created the wrapper returns, the post-call protocol inspects each
wrapper made during the call: still referenced only by its transient hold,
it is discarded; referenced from anywhere else, its term is copied into a
permanent record and the wrapper switches to the recorded state.  Records
die with the object that owns them.

The same ledger also carries plain transient objects (instances built from
compound arguments); those are simply released after the call so unused
ones are collected immediately.
"""

from __future__ import annotations

from contextlib import contextmanager

from .errors import (
    CyclicTermError,
    LogicError,
    RuntimeBugError,
    StaleTermRefError,
    TermSizeLimitError,
)
from .kernel import KObject
from .terms import Atom, Struct, Term


class HostTermObject(KObject):
    """Kernel instance of class `prolog_term`: Live(term ref) or Recorded."""

    __slots__ = ("state", "term_ref", "record")

    def __init__(self, oid, kclass):
        super().__init__(oid, kclass)
        self.state = "live"
        self.term_ref = None
        self.record = None

    def on_destroy(self, kernel) -> None:
        mgr = kernel.rt.hostdata
        mgr.wrappers_live -= 1
        if self.record is not None and self.record.alive:
            kernel.rt.store.erase(self.record)
        self.term_ref = None
        self.record = None


class HostData:
    """Wrapper bookkeeping: the per-call transient ledger stack, the
    post-call protocol, and the counters behind the `:stats` command."""

    def __init__(self, runtime):
        self.rt = runtime
        self.ledgers: list = []
        self.wrappers_live = 0
        self.wrappers_made = 0
        self.wrappers_recorded_total = 0

        kernel = runtime.kernel
        kernel.define_class("host_data", "object")
        self.wrapper_class = kernel.define_class("prolog_term", "host_data",
                                                 factory=HostTermObject)

    # -- call scoping ------------------------------------------------------

    def open_scope(self) -> tuple:
        """Open the scope of one kernel/logic crossing: a term frame plus a
        transient ledger, returned as `(frame id, ledger)`.  Scopes nest
        strictly; `close_scope` must end each one exactly once, errors
        included."""
        ledger: list = []
        self.ledgers.append(ledger)
        return self.rt.store.open_frame(), ledger

    def close_scope(self, fid: int, ledger: list) -> None:
        """End the innermost scope: the post-call protocol, then its frame."""
        self.ledgers.pop()
        try:
            self._post_call(ledger)
        finally:
            self.rt.store.close_frame(fid)

    @contextmanager
    def bridge_call(self):
        """One crossing as a `with` block; the post-call protocol runs on
        exit, errors included."""
        fid, ledger = self.open_scope()
        try:
            yield ledger
        finally:
            self.close_scope(fid, ledger)

    def _ledger(self) -> list:
        if not self.ledgers:
            raise RuntimeBugError("transient object created outside a bridge call")
        return self.ledgers[-1]

    def register_transient(self, obj: KObject) -> None:
        """Hand an object's creation hold to the current call's ledger."""
        self._ledger().append(obj)

    # -- wrappers ------------------------------------------------------------

    def wrap_term(self, term: Term) -> HostTermObject:
        kernel = self.rt.kernel
        w = kernel.allocate(self.wrapper_class)
        kernel.retain(w)
        w.term_ref = self.rt.store.put(term)
        self.wrappers_live += 1
        self.wrappers_made += 1
        self._ledger().append(w)
        return w

    def read_back(self, w: HostTermObject) -> Term:
        """The wrapped data as a term: the original while live (shared
        bindings), a fresh copy of the record afterwards."""
        kernel = self.rt.kernel
        kernel.check_live(w, "prolog_term")
        if w.state == "live":
            try:
                return self.rt.store.fetch(w.term_ref)
            except StaleTermRefError as exc:
                # a live wrapper must never outlive its frame
                raise RuntimeBugError("live wrapper survived its frame") from exc
        ref = self.rt.store.record_to_term(w.record)
        return self.rt.store.fetch(ref)

    def _record_now(self, w: HostTermObject) -> None:
        term = self.rt.store.fetch(w.term_ref)
        try:
            w.record = self.rt.store.record_term(term)
        except TermSizeLimitError:
            raise LogicError(Struct("resource_error",
                                    (Atom("record_node_limit"),)))
        except CyclicTermError:
            raise LogicError(Struct("type_error",
                                    (Atom("acyclic_term"), Atom("prolog_term"))))
        w.state = "recorded"
        w.term_ref = None
        self.wrappers_recorded_total += 1

    def _post_call(self, ledger: list) -> None:
        # the whole ledger is always processed; the first failure (for
        # example a record over the node limit) is re-raised at the end
        kernel = self.rt.kernel
        failure = None
        for obj in ledger:
            if obj.freed:
                continue
            kernel.release(obj)
            if (not obj.freed and isinstance(obj, HostTermObject)
                    and obj.state == "live"):
                try:
                    self._record_now(obj)
                except Exception as exc:
                    if failure is None:
                        failure = exc
                    kernel.destroy(obj)
        if failure is not None:
            raise failure

    # -- metrics ----------------------------------------------------------------

    def transient_holds(self) -> dict:
        holds: dict = {}
        for ledger in self.ledgers:
            for obj in ledger:
                holds[obj.oid] = holds.get(obj.oid, 0) + 1
        return holds

    def stats(self) -> dict:
        return {
            "records-live": self.rt.store.records_live,
            "records-made": self.rt.store.records_made,
            "wrappers-live": self.wrappers_live,
            "wrappers-recorded-total": self.wrappers_recorded_total,
        }
