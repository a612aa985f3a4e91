"""Term formatting, the inverse of the reader's syntax.  A cyclic term
(made with the occurs check off) is a representation error."""

from __future__ import annotations

from .balls import representation_error
from .reader import INFIX_OPS, PREFIX_OPS
from .terms import Atom, ObjRef, Struct, Var, deref

_PLAIN_FIRST = "abcdefghijklmnopqrstuvwxyz"
_SYMBOLIC = set("+-*/\\^<>=~:.?@#&$")
_GLUED = (":", "/", "-", "+")  # infix operators written with no spaces


def atom_text(name: str, quoted: bool = True) -> str:
    if not quoted:
        return name
    if name and name[0] in _PLAIN_FIRST and all(c == "_" or c.isalnum() for c in name):
        return name
    if name and all(c in _SYMBOLIC for c in name):
        return name
    if name in ("[]", "!", ";", "{}"):
        return name
    escaped = name.replace("\\", "\\\\").replace("'", "\\'")
    return f"'{escaped}'"


def term_text(t, quoted: bool = True) -> str:
    names: dict = {}
    path: set = set()  # the compounds and list cells being written, by id

    def enter(t) -> None:
        if id(t) in path:
            raise representation_error("cyclic_term")
        path.add(id(t))

    def var_name(v: Var) -> str:
        got = names.get(id(v))
        if got is None:
            got = v.name if v.name and v.name != "_" else f"_G{len(names) + 1}"
            names[id(v)] = got
        return got

    def w(t, maxp: int) -> str:
        t = deref(t)
        ty = type(t)
        if ty is Var:
            return var_name(t)
        if ty is int or ty is float:
            s = repr(t)
            return f"({s})" if t < 0 and maxp < 200 else s
        if ty is Atom:
            return atom_text(t.name, quoted)
        if ty is ObjRef:
            return f"@{t.ref}"
        enter(t)
        text = w_compound(t, maxp)
        path.discard(id(t))
        return text

    def w_compound(t, maxp: int) -> str:
        if t.name == "." and len(t.args) == 2:
            return w_list(t)
        if len(t.args) == 2 and t.name in INFIX_OPS:
            prec, typ = INFIX_OPS[t.name]
            lmax = prec if typ == "yfx" else prec - 1
            rmax = prec if typ == "xfy" else prec - 1
            left = w(t.args[0], lmax)  # before the right: names `_G1`, `_G2` in order
            right = w(t.args[1], rmax)
            if t.name == ",":
                sep = ", "
            elif t.name in _GLUED and right[:1] not in _SYMBOLIC:
                sep = t.name
            else:
                # glued to a leading symbol char, `-` would read as part of
                # one token (`1--1`, `1+- a`), so it gets spaces
                sep = f" {t.name} "
            body = f"{left}{sep}{right}"
            return f"({body})" if prec > maxp else body
        # `- 1` reads back as the integer -1, so `-(1)` keeps its functor form
        if len(t.args) == 1 and t.name in PREFIX_OPS and not (
                t.name in ("-", "+") and type(deref(t.args[0])) in (int, float)):
            prec, typ = PREFIX_OPS[t.name]
            body = f"{t.name} {w(t.args[0], prec if typ == 'fy' else prec - 1)}"
            return f"({body})" if prec > maxp else body
        args = ", ".join(w(a, 999) for a in t.args)
        return f"{atom_text(t.name, quoted)}({args})"

    def w_list(t) -> str:
        parts = []
        cells = []  # the cells after the first, on the path until the list is written
        while True:
            parts.append(w(t.args[0], 999))
            tail = deref(t.args[1])
            if type(tail) is Struct and tail.name == "." and len(tail.args) == 2:
                enter(tail)
                cells.append(id(tail))
                t = tail
                continue
            if type(tail) is Atom and tail.name == "[]":
                text = f"[{', '.join(parts)}]"
            else:
                text = f"[{', '.join(parts)}|{w(tail, 999)}]"
            path.difference_update(cells)
            return text

    return w(t, 1200)
