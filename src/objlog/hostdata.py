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

Three crossings open a scope: a send, get or send_class from logic that is
not pure-logic (`Bridge._dispatch`), new/2 (`Bridge.new_from_spec`) and an
event (`toolkit.pump_event`).  A classic send or get to a logic method
ends its scope in one exit step (`bridge._ExitStep`).  When the scope
holds a transient object (`holds_object`), the step is a frame in the
calling machine that keeps the scope open until the method returns.  Any
other call closes the scope before the method runs, and the method
commits as once/1 does: a wrapper made for one of its `prolog` arguments
is out of reach once the bridge has read its term back into the call, so
the post-call protocol discards it, and a term the body stores goes
through the wrapper of the body's own crossing.  Such a get's exit step
converts its answer after the method, in a scope it opens and closes.

A native→logic call and a message to `@prolog` open no scope: each
crossing in their nested solve opens its own.  The scope's term frame and
ledger are made on first need: when the call wraps a term or holds a
transient object.  A call that converts nothing (a no-argument or
int-argument send) opens no frame and has no post-call protocol to run.
A scope is only ever made while it is the innermost one, so frames still
close strictly LIFO.
"""

from __future__ import annotations

from contextlib import contextmanager

from .errors import (
    CyclicTermError,
    DeadRecordError,
    LogicError,
    RuntimeBugError,
    StaleTermRefError,
    TermSizeLimitError,
)
from .kernel import KObject
from .terms import Atom, Struct, Term, resolve_copy


class HostTermObject(KObject):
    """Kernel instance of class `prolog_term`: Live(term ref) or Recorded."""

    __slots__ = ("state", "term_ref", "record")

    def __init__(self, oid, kclass):
        KObject.__init__(self, oid, kclass)
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
        # one entry per open scope, innermost last: None while the scope is
        # unopened, then its (frame id, ledger)
        self.ledgers: list = []
        self.wrappers_live = 0
        self.wrappers_made = 0
        self.wrappers_recorded_total = 0

        kernel = runtime.kernel
        kernel.define_class("host_data", "object")
        self.wrapper_class = kernel.define_class("prolog_term", "host_data",
                                                 factory=HostTermObject)

    # -- call scoping ------------------------------------------------------

    def open_scope(self) -> None:
        """Push the scope of one kernel/logic crossing, not yet opened:
        `_ledger` makes its term frame and transient ledger on first need.
        Scopes nest strictly; `close_scope` must end each one exactly once,
        errors included."""
        self.ledgers.append(None)

    def close_scope(self) -> None:
        """End the innermost scope: if it was opened, the post-call
        protocol, then its frame."""
        scope = self.ledgers.pop()
        if scope is not None:
            try:
                self._post_call(scope[1])
            finally:
                self.rt.store.close_frame(scope[0])

    @contextmanager
    def bridge_call(self):
        """One crossing as a `with` block; the post-call protocol runs on
        exit, errors included."""
        self.open_scope()
        try:
            yield
        finally:
            self.close_scope()

    def _ledger(self) -> list:
        """The innermost scope's ledger, making its frame and ledger if it
        is still unopened."""
        ledgers = self.ledgers
        if not ledgers:
            raise RuntimeBugError("transient object created outside a bridge call")
        scope = ledgers[-1]
        if scope is None:
            scope = ledgers[-1] = (self.rt.store.open_frame(), [])
        return scope[1]

    def holds_object(self) -> bool:
        """Whether the innermost scope holds a transient object, not only
        wrappers of `prolog` arguments."""
        scope = self.ledgers[-1]
        return scope is not None and any(type(o) is not HostTermObject for o in scope[1])

    def register_transient(self, obj: KObject) -> None:
        """Hand an object's creation hold to the current call's ledger."""
        self._ledger().append(obj)

    # -- wrappers ------------------------------------------------------------

    def wrap_term(self, term: Term) -> HostTermObject:
        ledger = self._ledger()  # before `put`: it may open the frame
        w = self.rt.kernel.allocate(self.wrapper_class)
        w.refcount = 1  # the ledger's transient hold
        w.term_ref = self.rt.store.put(term)
        self.wrappers_live += 1
        self.wrappers_made += 1
        ledger.append(w)
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
        rec = w.record
        if not rec.alive:
            raise DeadRecordError(f"record {rec.rid} was already destroyed")
        return resolve_copy(rec.payload)

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
        for scope in self.ledgers:
            if scope is None:
                continue
            for obj in scope[1]:
                holds[obj.oid] = holds.get(obj.oid, 0) + 1
        return holds

    def stats(self) -> dict:
        return {
            "records-live": self.rt.store.records_live,
            "records-made": self.rt.store.records_made,
            "wrappers-live": self.wrappers_live,
            "wrappers-recorded-total": self.wrappers_recorded_total,
        }
