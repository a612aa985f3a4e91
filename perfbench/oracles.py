"""Independent output checks for the benchmark.

Every check here computes its expected answer in plain Python from the
client's own inputs and state; none of them uses objlog's output as the
reference.  Each returns None when the answer is right and a short
description of the mismatch otherwise, so the caller can count it as a
failed operation and keep going.
"""

from __future__ import annotations

from objlog.terms import Atom, ObjRef, Struct, Var, deref

# -- term conversion -----------------------------------------------------------
#
# The client keeps its own copy of every term it hands to objlog as nested
# Python values: an int, ("atom", name) or ("struct", name, (args...)).


def to_term(v):
    """Build the objlog term for a client-side value."""
    if type(v) is int:
        return v
    if v[0] == "atom":
        return Atom(v[1])
    return Struct(v[1], tuple(to_term(a) for a in v[2]))


def from_term(t):
    """Read an objlog term back into the client-side form; an unbound
    variable or an object reference has no client form and reads as
    ("var",) or ("ref", id)."""
    t = deref(t)
    tt = type(t)
    if tt is int:
        return t
    if tt is Atom:
        return ("atom", t.name)
    if tt is Struct:
        return ("struct", t.name, tuple(from_term(a) for a in t.args))
    if tt is ObjRef:
        return ("ref", t.ref)
    if tt is Var:
        return ("var",)
    return ("other", repr(t))


def node_count(v) -> int:
    if type(v) is int or v[0] == "atom":
        return 1
    return 1 + sum(node_count(a) for a in v[2])


def int_list(t):
    """A proper list of ints as a Python list, else None."""
    out = []
    t = deref(t)
    while type(t) is Struct and t.name == "." and len(t.args) == 2:
        head = deref(t.args[0])
        if type(head) is not int:
            return None
        out.append(head)
        t = deref(t.args[1])
    if t is not Atom("[]"):
        return None
    return out


# -- solver ----------------------------------------------------------------------


def check_nrev(inp: list, got) -> str | None:
    want = list(reversed(inp))
    if got != want:
        return f"nrev: got {got!r}, want {want!r}"
    return None


def queens_attack(qs: list) -> bool:
    """True when two queens share a column or a diagonal; qs[row] = column."""
    for i in range(len(qs)):
        for j in range(i + 1, len(qs)):
            if qs[i] == qs[j] or abs(qs[i] - qs[j]) == j - i:
                return True
    return False


def check_queens(n: int, solutions: list, want_count: int) -> str | None:
    if len(solutions) != want_count:
        return f"queens{n}: {len(solutions)} solutions, want {want_count}"
    seen = set()
    for qs in solutions:
        if qs is None or sorted(qs) != list(range(1, n + 1)):
            return f"queens{n}: {qs!r} is not a placement of {n} queens"
        if queens_attack(qs):
            return f"queens{n}: queens attack each other in {qs!r}"
        seen.add(tuple(qs))
    if len(seen) != len(solutions):
        return f"queens{n}: duplicate solutions"
    return None


# -- scene -------------------------------------------------------------------------


def check_read_back(stored, got) -> str | None:
    """`stored` is the client's copy (None when nothing was stored yet, so
    the slot still holds @nil); `got` is the read-back term in client form."""
    want = ("ref", "nil") if stored is None else stored
    if got != want:
        return f"read-back {got!r} != stored {want!r}"
    return None


def score(a: int, b: int, width: int, height: int, k: int) -> int:
    """What a generated class's `score` get-method must answer."""
    return width * a + height * k + b


def check_value(what: str, want, got) -> str | None:
    if got != want:
        return f"{what}: got {got!r}, want {want!r}"
    return None


def next_fill(fill: str, kind: str) -> str:
    """The enter/exit state machine of the generated event handlers:
    area_enter fills red, area_exit clears, anything else leaves it."""
    if kind == "area_enter":
        return "red"
    if kind == "area_exit":
        return "nil"
    return fill


def check_fill(want: str, got: str) -> str | None:
    if got != want:
        return f"fill_pattern {got} after event, want {want}"
    return None


def check_empty(what: str, items) -> str | None:
    if items:
        shown = list(items)[:5]
        return f"{what}: {len(items)} entries, e.g. {shown!r}"
    return None
