"""Program text reader: tokenizer plus operator-precedence term parser.

The accepted syntax is the classic clause notation with a fixed operator
table: `:-`, `,`, `;`, `->`, arithmetic and comparison operators, the
namespace qualifier `:`, the class-definition operators `:->`, `:<-` and
`::`, and the declaration prefixes `dynamic`, `discontiguous` and
`multifile` (`:- dynamic c/2.`).  Object references are written `@N` for
numbered objects and `@name` for well-known ones (a quoted `'@'` is an
atom), and double-quoted text reads as an atom (there is no separate
string type).
"""

from __future__ import annotations

from typing import Iterator, Optional

from .errors import ReaderError
from .terms import NIL, Atom, ObjRef, Struct, Term, Var, mk_list

SYMBOL_CHARS = set("+-*/\\^<>=~:.?@#&$")
SOLO = set("()[]{},|")

PREFIX_OPS = {
    ":-": (1200, "fx"),
    "?-": (1200, "fx"),
    "dynamic": (1150, "fx"),
    "discontiguous": (1150, "fx"),
    "multifile": (1150, "fx"),
    "\\+": (900, "fy"),
    "-": (200, "fy"),
    "+": (200, "fy"),
    "\\": (200, "fy"),
}

INFIX_OPS = {
    ":-": (1200, "xfx"),
    "-->": (1200, "xfx"),
    ":->": (1200, "xfx"),
    ":<-": (1200, "xfx"),
    ";": (1100, "xfy"),
    "->": (1050, "xfy"),
    ",": (1000, "xfy"),
    "::": (978, "xfx"),
    "=": (700, "xfx"),
    "\\=": (700, "xfx"),
    "==": (700, "xfx"),
    "\\==": (700, "xfx"),
    "is": (700, "xfx"),
    "=..": (700, "xfx"),
    "<": (700, "xfx"),
    ">": (700, "xfx"),
    "=<": (700, "xfx"),
    ">=": (700, "xfx"),
    "=:=": (700, "xfx"),
    "=\\=": (700, "xfx"),
    "@<": (700, "xfx"),
    "@>": (700, "xfx"),
    "@=<": (700, "xfx"),
    "@>=": (700, "xfx"),
    "+": (500, "yfx"),
    "-": (500, "yfx"),
    "/\\": (500, "yfx"),
    "\\/": (500, "yfx"),
    "*": (400, "yfx"),
    "/": (400, "yfx"),
    "//": (400, "yfx"),
    "mod": (400, "yfx"),
    ":": (200, "xfy"),
}


class Token:
    __slots__ = ("kind", "val", "line", "start", "end")

    def __init__(self, kind, val, line, start, end):
        self.kind = kind
        self.val = val
        self.line = line
        self.start = start
        self.end = end

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"<{self.kind} {self.val!r}>"


def tokenize(text: str) -> list:
    toks = []
    i = 0
    n = len(text)
    line = 1
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
            continue
        if c in " \t\r":
            i += 1
            continue
        if c == "%":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            if j < 0:
                raise ReaderError("unterminated block comment", line, incomplete=True)
            line += text.count("\n", i, j)
            i = j + 2
            continue
        start = i
        if c.isdecimal():
            i, tok = _scan_number(text, i, line)
            toks.append(tok)
            continue
        if c == "_" or c.isalpha():
            while i < n and (text[i] == "_" or text[i].isalnum()):
                i += 1
            name = text[start:i]
            kind = "var" if (c == "_" or c.isupper()) else "atom"
            toks.append(Token(kind, name, line, start, i))
            continue
        if c == "'" or c == '"':
            i, value, line = _scan_quoted(text, i, line, c)
            toks.append(Token("atom" if c == "'" else "str", value, line, start, i))
            continue
        if c in SOLO:
            toks.append(Token("punct", c, line, i, i + 1))
            i += 1
            continue
        if c == "!":
            toks.append(Token("atom", "!", line, i, i + 1))
            i += 1
            continue
        if c == ";":
            toks.append(Token("atom", ";", line, i, i + 1))
            i += 1
            continue
        if c in SYMBOL_CHARS:
            # clause terminator: a dot followed by layout, EOF or a comment
            if c == "." and (i + 1 >= n or text[i + 1] in " \t\r\n%"):
                toks.append(Token("end", ".", line, i, i + 1))
                i += 1
                continue
            while i < n and text[i] in SYMBOL_CHARS:
                i += 1
            toks.append(Token("atom", text[start:i], line, start, i))
            continue
        raise ReaderError(f"unexpected character {c!r}", line)
    toks.append(Token("eof", None, line, n, n))
    return toks


def _scan_number(text, i, line):
    n = len(text)
    start = i
    while i < n and text[i].isdecimal():
        i += 1
    is_float = False
    if i + 1 < n and text[i] == "." and text[i + 1].isdecimal():
        is_float = True
        i += 1
        while i < n and text[i].isdecimal():
            i += 1
    if i < n and text[i] in "eE":
        j = i + 1
        if j < n and text[j] in "+-":
            j += 1
        if j < n and text[j].isdecimal():
            is_float = True
            i = j
            while i < n and text[i].isdecimal():
                i += 1
    raw = text[start:i]
    if is_float:
        return i, Token("float", float(raw), line, start, i)
    return i, Token("int", int(raw), line, start, i)


_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", "a": "\a", "b": "\b", "f": "\f", "v": "\v",
            "\\": "\\", "'": "'", '"': '"', "`": "`"}


def _scan_quoted(text, i, line, quote):
    n = len(text)
    i += 1
    out = []
    while i < n:
        c = text[i]
        if c == quote:
            if i + 1 < n and text[i + 1] == quote:  # doubled quote
                out.append(quote)
                i += 2
                continue
            return i + 1, "".join(out), line
        if c == "\\":
            if i + 1 >= n:
                break
            nxt = text[i + 1]
            if nxt == "\n":
                line += 1
                i += 2
                continue
            out.append(_ESCAPES.get(nxt, nxt))
            i += 2
            continue
        if c == "\n":
            line += 1
        out.append(c)
        i += 1
    raise ReaderError("unterminated quoted token", line, incomplete=True)


class _Parser:
    def __init__(self, tokens: list, pos: int = 0):
        self.toks = tokens
        self.pos = pos
        self.varmap: dict = {}

    def peek(self) -> Token:
        return self.toks[self.pos]

    def next(self) -> Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def error(self, msg: str, tok: Optional[Token] = None) -> ReaderError:
        tok = tok or self.peek()
        return ReaderError(msg, tok.line, incomplete=(tok.kind == "eof"))

    # -- clause level ----------------------------------------------------

    def read_clause(self):
        tok = self.peek()
        if tok.kind == "eof":
            return None
        line = tok.line
        self.varmap = {}
        term, _ = self.parse(1200)
        end = self.next()
        if end.kind != "end":
            raise self.error("operator expected before this token"
                            if end.kind != "eof" else "unexpected end of input", end)
        return term, self.varmap, line

    # -- term level ------------------------------------------------------

    def parse(self, maxprec: int):
        left, lprec = self.parse_primary(maxprec)
        while True:
            tok = self.peek()
            name = None
            if tok.kind == "atom" and tok.val in INFIX_OPS:
                name = tok.val
            elif tok.kind == "punct" and tok.val == "," and maxprec >= 1000:
                name = ","
            if name is None:
                break
            prec, typ = INFIX_OPS[name]
            if prec > maxprec:
                break
            left_max = prec if typ == "yfx" else prec - 1
            if lprec > left_max:
                break
            self.next()
            right, _ = self.parse(prec if typ == "xfy" else prec - 1)
            left = Struct(name, (left, right))
            lprec = prec
        return left, lprec

    def parse_primary(self, maxprec: int):
        tok = self.next()
        kind = tok.kind
        if kind == "int" or kind == "float":
            return tok.val, 0
        if kind == "str":
            return Atom(tok.val), 0
        if kind == "var":
            if tok.val == "_":
                return Var("_"), 0
            v = self.varmap.get(tok.val)
            if v is None:
                v = Var(tok.val)
                self.varmap[tok.val] = v
            return v, 0
        if kind == "punct":
            if tok.val == "(":
                term, _ = self.parse(1200)
                self.expect_punct(")")
                return term, 0
            if tok.val == "[":
                return self.parse_list(), 0
            raise self.error(f"unexpected {tok.val!r}", tok)
        if kind == "atom":
            name = tok.val
            nxt = self.peek()
            if nxt.kind == "punct" and nxt.val == "(" and nxt.start == tok.end:
                self.next()
                args = self.parse_args()
                return Struct(name, args), 0
            if name == "@" and tok.end == tok.start + 1:  # `@` itself, not `'@'`
                return self.parse_objref(), 0
            if name in PREFIX_OPS and self.starts_term(nxt):
                prec, typ = PREFIX_OPS[name]
                if prec <= maxprec:
                    if name == "-" and nxt.kind in ("int", "float"):
                        self.next()
                        return -nxt.val, 0
                    sub = prec if typ == "fy" else prec - 1
                    arg, _ = self.parse(sub)
                    return Struct(name, (arg,)), prec
            return Atom(name), 0
        if kind == "end":
            raise self.error("unexpected end of clause", tok)
        raise self.error("unexpected end of input", tok)

    def parse_objref(self) -> Term:
        tok = self.peek()
        if tok.kind == "int":
            self.next()
            return ObjRef(tok.val)
        if tok.kind == "atom" and tok.val not in INFIX_OPS:
            self.next()
            return ObjRef(tok.val)
        raise self.error("expected an integer or name after '@'")

    def parse_args(self) -> tuple:
        args = [self.parse(999)[0]]
        while True:
            tok = self.next()
            if tok.kind == "punct" and tok.val == ",":
                args.append(self.parse(999)[0])
                continue
            if tok.kind == "punct" and tok.val == ")":
                return tuple(args)
            raise self.error("expected ',' or ')' in argument list", tok)

    def parse_list(self) -> Term:
        tok = self.peek()
        if tok.kind == "punct" and tok.val == "]":
            self.next()
            return NIL
        items = [self.parse(999)[0]]
        tail: Term = NIL
        while True:
            tok = self.next()
            if tok.kind == "punct" and tok.val == ",":
                items.append(self.parse(999)[0])
                continue
            if tok.kind == "punct" and tok.val == "|":
                tail = self.parse(999)[0]
                self.expect_punct("]")
                break
            if tok.kind == "punct" and tok.val == "]":
                break
            raise self.error("expected ',', '|' or ']' in list", tok)
        return mk_list(items, tail)

    def expect_punct(self, val: str) -> None:
        tok = self.next()
        if tok.kind != "punct" or tok.val != val:
            raise self.error(f"expected {val!r}", tok)

    def starts_term(self, tok: Token) -> bool:
        if tok.kind in ("int", "float", "var", "str"):
            return True
        if tok.kind == "atom":
            return True
        if tok.kind == "punct" and tok.val in "([":
            return True
        return False


def read_terms(text: str) -> Iterator[tuple]:
    """Yield (term, varmap, line) for every clause in the text that parses.

    A clause with a syntax error is skipped up to its end token and the
    read goes on with the next clause; once every clause is read, the first
    such error is raised, holding in `errors` every one of them in order.
    An error of the tokenizer (an unterminated quoted atom or block comment,
    an unexpected character) ends the read: the text is tokenized before its
    first clause is read, so that error is raised before any clause."""
    parser = _Parser(tokenize(text))
    toks = parser.toks
    errors: list = []
    while True:
        start = parser.pos
        try:
            got = parser.read_clause()
        except ReaderError as err:
            errors.append(err)
            # a clause is never read past its end token
            pos = start
            while toks[pos].kind != "end" and toks[pos].kind != "eof":
                pos += 1
            parser.pos = pos + (toks[pos].kind == "end")
            continue
        if got is None:
            break
        yield got
    if errors:
        errors[0].errors = errors
        raise errors[0]


def parse_term(text: str):
    """Parse a single term (with or without trailing dot); returns (term, varmap)."""
    toks = tokenize(text)
    parser = _Parser(toks)
    term, _ = parser.parse(1200)
    tok = parser.next()
    if tok.kind not in ("end", "eof"):
        raise parser.error("unexpected trailing text", tok)
    if tok.kind == "end" and parser.peek().kind != "eof":
        raise parser.error("unexpected trailing text")
    return term, parser.varmap
