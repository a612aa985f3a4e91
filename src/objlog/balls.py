"""Constructors for the structured error terms thrown during execution.

Everything raised inside logic execution is a `LogicError` whose payload is
a plain term, so `catch/3` can match on it.  Bridge failures use a single
`bridge_error(Kind, Context)` shape with a fixed set of kinds.
"""

from __future__ import annotations

from .errors import LogicError
from .terms import Atom, Struct, Term


def instantiation_error(context: str = "") -> LogicError:
    if context:
        return LogicError(Struct("instantiation_error", (Atom(context),)))
    return LogicError(Atom("instantiation_error"))


def type_error(expected: str, culprit: Term) -> LogicError:
    return LogicError(Struct("type_error", (Atom(expected), culprit)))


def domain_error(domain: str, culprit: Term) -> LogicError:
    return LogicError(Struct("domain_error", (Atom(domain), culprit)))


def existence_error(kind: str, what: Term) -> LogicError:
    return LogicError(Struct("existence_error", (Atom(kind), what)))


def unknown_procedure(ns: str, name: str, arity: int) -> LogicError:
    ind = Struct("/", (Atom(name), arity))
    return existence_error("procedure", Struct(":", (Atom(ns), ind)))


def permission_error(action: str, what: Term) -> LogicError:
    return LogicError(Struct("permission_error", (Atom(action), what)))


def evaluation_error(what: str) -> LogicError:
    return LogicError(Struct("evaluation_error", (Atom(what),)))


def representation_error(what: str) -> LogicError:
    return LogicError(Struct("representation_error", (Atom(what),)))


def declaration_error(what: Term) -> LogicError:
    return LogicError(Struct("declaration_error", (what,)))


# The bridge error taxonomy; every cross-boundary failure uses one of these.
BRIDGE_KINDS = (
    "instantiation",
    "unknown_class",
    "unknown_method",
    "type_mismatch",
    "freed_object",
    "stale_reference",
    "native_exception",
)


def bridge_error(kind: str, *context: Term) -> LogicError:
    if kind not in BRIDGE_KINDS:
        raise AssertionError(f"not a bridge error kind: {kind}")
    ctx: Term
    if not context:
        ctx = Atom("none")
    elif len(context) == 1:
        ctx = context[0]
    else:
        ctx = Struct("context", tuple(context))
    return LogicError(Struct("bridge_error", (Atom(kind), ctx)))


def bridge_kind(err: LogicError) -> str | None:
    """Return the bridge error kind of a logic error, or None."""
    t = err.term
    if type(t) is Struct and t.name == "bridge_error" and len(t.args) == 2:
        head = t.args[0]
        if type(head) is Atom:
            return head.name
    return None
