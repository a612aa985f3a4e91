"""Logic terms, unification, and the stores that manage term lifetimes.

Terms are plain Python values: `int` and `float` stand for themselves,
`Atom` instances are interned symbols, `Struct` is a functor with one or
more arguments, `Var` is a mutable binding cell and `ObjRef` names an
object in the embedded kernel.  Unification binds variables destructively
and records every binding on a `Trail` so it can be undone on backtracking.

`TermStore` provides the frame/record machinery: term references are only
valid while their frame is open, while records are frame-independent deep
copies that survive backtracking and are destroyed explicitly.

All traversals here are iterative; arbitrarily deep terms must not blow the
Python stack.
"""

from __future__ import annotations

import sys
from typing import Optional, Union

from .errors import (
    CyclicTermError,
    DeadRecordError,
    FrameOrderError,
    RuntimeBugError,
    StaleTermRefError,
    TermSizeLimitError,
)


class Var:
    """A logic variable: unbound when `ref` is None, else bound to a term."""

    __slots__ = ("ref", "name")

    def __init__(self, name: Optional[str] = None):
        self.ref = None
        self.name = name

    def __repr__(self) -> str:
        if self.ref is not None:
            return f"Var({self.name or ''}={self.ref!r})"
        return self.name or f"_G{id(self) % 1000000}"


class Atom:
    """An interned symbol; two atoms are equal iff they are the same object."""

    __slots__ = ("name",)
    _table: dict = {}

    def __new__(cls, name: str):
        a = cls._table.get(name)
        if a is None:
            a = object.__new__(cls)
            object.__setattr__(a, "name", sys.intern(name))
            cls._table[name] = a
        return a

    def __setattr__(self, key, value):  # pragma: no cover - misuse guard
        raise AttributeError("atoms are immutable")

    def __repr__(self) -> str:
        return self.name


class Struct:
    """A compound term: interned functor name plus one or more arguments."""

    __slots__ = ("name", "args")

    def __init__(self, name: str, args):
        self.name = sys.intern(name)
        self.args = tuple(args)
        if not self.args:
            raise ValueError("zero-arity compound; use Atom instead")

    def __repr__(self) -> str:
        return f"{self.name}({', '.join(map(repr, self.args))})"


class ObjRef:
    """A reference term naming a kernel object: `@N` or a well-known `@name`."""

    __slots__ = ("ref",)

    def __init__(self, ref: Union[int, str]):
        self.ref = ref

    def __eq__(self, other):
        return type(other) is ObjRef and other.ref == self.ref

    def __hash__(self):
        return hash(("@", self.ref))

    def __repr__(self) -> str:
        return f"@{self.ref}"


Term = Union[Var, Atom, Struct, ObjRef, int, float]

NIL = Atom("[]")
TRUE = Atom("true")
FAIL = Atom("fail")


def mk(name: str, *args) -> Term:
    return Struct(name, args) if args else Atom(name)


def mk_list(items, tail: Term = NIL) -> Term:
    out = tail
    for item in reversed(list(items)):
        out = Struct(".", (item, out))
    return out


def list_items(term) -> Optional[list]:
    """Return the elements of a proper list term, or None if it is not one."""
    items = []
    t = deref(term)
    while True:
        if t is NIL:
            return items
        if type(t) is Struct and t.name == "." and len(t.args) == 2:
            items.append(t.args[0])
            t = deref(t.args[1])
        else:
            return None


def deref(t: Term) -> Term:
    while type(t) is Var:
        r = t.ref
        if r is None:
            return t
        t = r
    return t


class Trail:
    """Records variable bindings so backtracking can undo them.

    A conditional trail only records while `guards > 0`; the engine takes a
    guard for every live choice point or frame, for a protected query and
    for a goal whose bindings it undoes itself, so bindings that can never
    be undone are not retained.  A guard is taken by `guards += 1` and
    ended only by `release`, which drops the entries when no guard is left:
    with no guard, no entries.  Standalone trails (the default) always
    record.
    """

    __slots__ = ("entries", "guards")

    def __init__(self, conditional: bool = False):
        self.entries: list = []
        self.guards = 0 if conditional else 1

    def mark(self) -> int:
        return len(self.entries)

    def release(self) -> None:
        """End a guard.  With none left nothing can undo past here, so the
        entries are dead weight and are dropped; their variables stay
        bound, so a caller that undoes does so first."""
        self.guards -= 1
        if not self.guards:
            self.entries.clear()

    def record(self, var: Var) -> None:
        if self.guards:
            self.entries.append(var)

    def undo_to(self, mark: int) -> None:
        entries = self.entries
        while len(entries) > mark:
            entries.pop().ref = None


def bind(var: Var, value: Term, trail: Trail) -> None:
    trail.record(var)
    var.ref = value


def occurs_in(var: Var, term: Term) -> bool:
    stack = [term]
    while stack:
        t = deref(stack.pop())
        if t is var:
            return True
        if type(t) is Struct:
            stack.extend(t.args)
    return False


def unify(a: Term, b: Term, trail: Trail, occurs_check: bool = False) -> bool:
    """Destructively unify two terms; on failure the trail is restored.
    A pair of compounds already met is taken as unified, which is
    unification of rational trees, as `structural_eq` compares them: so
    two cyclic terms (possible with the occurs check off) unify too.
    A pair that is not two compounds is settled before the stack and the
    set of met pairs are made: most calls, from head matchers, are such."""
    a = deref(a)
    b = deref(b)
    if a is b:
        return True
    ta = type(a)
    if ta is Var:
        if occurs_check and occurs_in(a, b):
            return False
        bind(a, b, trail)
        return True
    tb = type(b)
    if tb is Var:
        if occurs_check and occurs_in(b, a):
            return False
        bind(b, a, trail)
        return True
    if ta is not tb:
        return False
    if ta is not Struct:
        # atoms are interned: identity already checked
        return (ta is int or ta is float) and a == b or ta is ObjRef and a.ref == b.ref
    if a.name is not b.name or len(a.args) != len(b.args):
        return False
    start = trail.mark()
    stack = list(zip(a.args, b.args))
    seen = {(id(a), id(b))}
    while stack:
        x, y = stack.pop()
        x = deref(x)
        y = deref(y)
        if x is y:
            continue
        tx = type(x)
        ty = type(y)
        if tx is Var:
            if occurs_check and occurs_in(x, y):
                trail.undo_to(start)
                return False
            bind(x, y, trail)
            continue
        if ty is Var:
            if occurs_check and occurs_in(y, x):
                trail.undo_to(start)
                return False
            bind(y, x, trail)
            continue
        if tx is not ty:
            trail.undo_to(start)
            return False
        if tx is Struct:
            if x.name is not y.name or len(x.args) != len(y.args):
                trail.undo_to(start)
                return False
            pair = (id(x), id(y))
            if pair not in seen:
                seen.add(pair)
                stack.extend(zip(x.args, y.args))
            continue
        if tx is Atom:
            # interned: identity already checked
            trail.undo_to(start)
            return False
        if (tx is int or tx is float) and x == y:
            continue
        if tx is ObjRef and x.ref == y.ref:
            continue
        trail.undo_to(start)
        return False
    return True


def structural_eq(a: Term, b: Term) -> bool:
    """`==`-style comparison: identical up to dereferencing, no bindings.
    A pair of compounds already being compared is taken as equal, which
    is equality of rational trees, so cyclic terms (possible only with the
    occurs check off) compare too."""
    stack = [(a, b)]
    seen = set()
    while stack:
        x, y = stack.pop()
        x = deref(x)
        y = deref(y)
        if x is y:
            continue
        tx = type(x)
        if tx is not type(y):
            return False
        if tx is Struct:
            if x.name is not y.name or len(x.args) != len(y.args):
                return False
            pair = (id(x), id(y))
            if pair not in seen:
                seen.add(pair)
                stack.extend(zip(x.args, y.args))
            continue
        if (tx is int or tx is float) and x == y:
            continue
        if tx is ObjRef and x.ref == y.ref:
            continue
        return False
    return True


def is_variant(a: Term, b: Term) -> bool:
    """True iff the terms are equal up to a bijective renaming of variables."""
    fwd: dict = {}
    bwd: dict = {}
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        x = deref(x)
        y = deref(y)
        tx = type(x)
        if tx is not type(y):
            return False
        if tx is Var:
            if fwd.get(id(x), y) is not y or bwd.get(id(y), x) is not x:
                return False
            fwd[id(x)] = y
            bwd[id(y)] = x
            continue
        if tx is Struct:
            if x.name is not y.name or len(x.args) != len(y.args):
                return False
            stack.extend(zip(x.args, y.args))
            continue
        if tx is Atom:
            if x is not y:
                return False
            continue
        if (tx is int or tx is float) and x == y:
            continue
        if tx is ObjRef and x.ref == y.ref:
            continue
        return False
    return True


_IN_PROGRESS = object()


def resolve_copy(
    t: Term,
    mapping: Optional[dict] = None,
    node_limit: Optional[int] = None,
) -> Term:
    """Deep, frame-independent copy: bound variables are resolved away,
    unbound variables become fresh ones (sharing preserved), shared compound
    substructure stays shared, and cycles are rejected.  `mapping` maps the
    id of each variable copied so far to its copy: two copies made with one
    mapping share their variables, as retract/1 copies a clause's head and
    body."""
    if mapping is None:
        mapping = {}
    memo: dict = {}
    count = 0
    root = [None]
    stack = [("c", t, root, 0)]
    while stack:
        op, a, dest, di = stack.pop()
        if op == "f":
            key, name, args = a
            new = Struct(name, args)
            memo[key] = new
            dest[di] = new
            continue
        a = deref(a)
        count += 1
        if node_limit is not None and count > node_limit:
            raise TermSizeLimitError(f"term exceeds {node_limit} nodes")
        ta = type(a)
        if ta is Var:
            nv = mapping.get(id(a))
            if nv is None:
                nv = Var(a.name)
                mapping[id(a)] = nv
            dest[di] = nv
        elif ta is Struct:
            key = id(a)
            hit = memo.get(key)
            if hit is _IN_PROGRESS:
                raise CyclicTermError("cyclic term cannot be copied")
            if hit is not None:
                dest[di] = hit
                continue
            memo[key] = _IN_PROGRESS
            args = [None] * len(a.args)
            stack.append(("f", (key, a.name, args), dest, di))
            for i, sub in enumerate(a.args):
                stack.append(("c", sub, args, i))
        else:
            dest[di] = a
    return root[0]


class TermRef:
    """Frame-scoped handle to a term; valid only while its frame is open."""

    __slots__ = ("frame_id", "slot")

    def __init__(self, frame_id: int, slot: int):
        self.frame_id = frame_id
        self.slot = slot

    def __repr__(self) -> str:
        return f"<ref {self.frame_id}:{self.slot}>"


class TermRecord:
    """A permanent, frame-independent copy of a term."""

    __slots__ = ("rid", "payload", "alive")

    def __init__(self, rid: int, payload: Term):
        self.rid = rid
        self.payload = payload
        self.alive = True

    def __repr__(self) -> str:
        state = "live" if self.alive else "dead"
        return f"<record {self.rid} {state}>"


class TermStore:
    """Frames of term references plus the permanent record area.

    Frames model the lifetime contract of foreign calls: references created
    in a frame die with it, and frames close strictly LIFO.  Records live
    until erased and are audited through `records_live`.
    """

    def __init__(self, record_node_limit: int = 1_000_000):
        self.record_node_limit = record_node_limit
        self._frames: list = []  # stack of (frame_id, slots list)
        self._open: dict = {}
        self._next_frame = 1
        self._next_record = 1
        self.records_live = 0
        self.records_made = 0

    # -- frames ---------------------------------------------------------

    def open_frame(self) -> int:
        fid = self._next_frame
        self._next_frame += 1
        slots: list = []
        self._frames.append((fid, slots))
        self._open[fid] = slots
        return fid

    def close_frame(self, fid: int) -> None:
        if not self._frames or self._frames[-1][0] != fid:
            raise FrameOrderError(f"frame {fid} is not the innermost open frame")
        self._frames.pop()
        del self._open[fid]

    def current_frame(self) -> Optional[int]:
        return self._frames[-1][0] if self._frames else None

    def put(self, term: Term) -> TermRef:
        """A reference to `term` in the innermost open frame."""
        if not self._frames:
            raise FrameOrderError("no open frame for a new term reference")
        frame_id, slots = self._frames[-1]
        slots.append(term)
        return TermRef(frame_id, len(slots) - 1)

    def fetch(self, ref: TermRef) -> Term:
        slots = self._open.get(ref.frame_id)
        if slots is None:
            raise StaleTermRefError(f"reference into closed frame {ref.frame_id}")
        return slots[ref.slot]

    # -- records --------------------------------------------------------

    def record_term(self, term: Term) -> TermRecord:
        payload = resolve_copy(term, node_limit=self.record_node_limit)
        rec = TermRecord(self._next_record, payload)
        self._next_record += 1
        self.records_live += 1
        self.records_made += 1
        return rec

    def copy_to_record(self, ref: TermRef) -> TermRecord:
        return self.record_term(self.fetch(ref))

    def record_to_term(self, rec: TermRecord) -> TermRef:
        if not rec.alive:
            raise DeadRecordError(f"record {rec.rid} was already destroyed")
        return self.put(resolve_copy(rec.payload))

    def erase(self, rec: TermRecord) -> None:
        if not rec.alive:
            raise DeadRecordError(f"record {rec.rid} was already destroyed")
        rec.alive = False
        self.records_live -= 1
        if self.records_live < 0:
            raise RuntimeBugError("record accounting went negative")
