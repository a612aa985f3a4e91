"""REPL and batch driver.

Interactive mode reads queries, prints bindings one per line in the
`X = @459337` style, and steps further solutions on `;`.  Meta-commands
inspect the kernel: `:objects`, `:stats`, `:classes`, `:scene N`.  Batch
mode (`--goal`) exits 0 on success, 1 on failure, 2 on error.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from . import toolkit
from .bench import run_benchmarks
from .errors import LogicError, ReaderError
from .reader import parse_term
from .runtime import Runtime, solution_snapshot
from .terms import ObjRef
from .writer import term_text


class Session:
    """The REPL core, decoupled from stdin/stdout so it can be scripted."""

    def __init__(self, rt: Runtime):
        self.rt = rt
        self.buffer = ""
        self.pending = None  # (query iterator, varmap)
        self.quit = False

    @property
    def continuing(self) -> bool:
        return bool(self.buffer)

    def feed(self, line: str) -> str:
        """Process one input line, return the text to display."""
        stripped = line.strip()
        if self.pending is not None and not self.buffer:
            if stripped == ";":
                return self._advance()
            self._close_pending()
            if stripped == "":
                return ""
        if not self.buffer and stripped.startswith(":"):
            return self._meta(stripped)
        if not self.buffer and stripped == "":
            return ""
        self.buffer += line + "\n"
        try:
            goal, varmap = parse_term(self.buffer)
        except ReaderError as err:
            if err.incomplete:
                return ""  # wait for more input
            self.buffer = ""
            return f"ERROR: syntax: {err}"
        self.buffer = ""
        return self._run(goal, varmap)

    # -- query handling ------------------------------------------------------

    def _run(self, goal, varmap) -> str:
        q = self.rt.engine.solve(goal)
        self.pending = (q, varmap)
        return self._advance()

    def _advance(self) -> str:
        q, varmap = self.pending
        try:
            next(q)
            snapshot = solution_snapshot(varmap)
        except StopIteration:
            self.pending = None
            return "false."
        except LogicError as err:
            self.pending = None
            return f"ERROR: {term_text(err.term)}"
        shown = [f"{name} = {term_text(v)}"
                 for name, v in snapshot.items() if not name.startswith("_")]
        if not shown:
            self._close_pending()
            return "true."
        return "\n".join(shown)

    def _close_pending(self) -> None:
        if self.pending is not None:
            self.pending[0].close()
            self.pending = None

    # -- meta commands ----------------------------------------------------------

    def _meta(self, cmd: str) -> str:
        parts = cmd.split()
        name = parts[0]
        if name in (":quit", ":halt", ":q"):
            self.quit = True
            return ""
        if name == ":objects":
            return self.rt.object_dump()
        if name == ":classes":
            return self.rt.class_dump()
        if name == ":stats":
            stats = self.rt.stats()
            return "\n".join(f"{k} = {stats[k]}" for k in sorted(stats))
        if name == ":scene" and len(parts) == 2:
            try:
                oid = int(parts[1].lstrip("@"))
            except ValueError:
                return "usage: :scene N"
            try:
                return toolkit.scene_dump(self.rt, ObjRef(oid))
            except LogicError as err:
                return f"ERROR: {term_text(err.term)}"
        return f"unknown command {cmd!r} (try :objects :stats :classes :scene :quit)"


def run_script(rt: Runtime, lines) -> str:
    """Feed a sequence of lines to a session; returns the full transcript."""
    session = Session(rt)
    out = []
    for line in lines:
        got = session.feed(line)
        if got:
            out.append(got)
        if session.quit:
            break
    return "\n".join(out)


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="objlog",
        description="Logic runtime with an embedded object kernel.")
    parser.add_argument("--consult", action="append", default=[], metavar="FILE",
                        help="consult a program file (repeatable)")
    parser.add_argument("--goal", metavar="TERM", help="run one goal and exit")
    parser.add_argument("--bench", action="store_true",
                        help="run the call-overhead benchmark suite")
    parser.add_argument("--iterations", type=int, default=20_000,
                        help="benchmark iterations per batch")
    parser.add_argument("--occurs-check", action="store_true",
                        help="enable the occurs check in unification")
    parser.add_argument("--trace", action="store_true",
                        help="print goals as they are called")
    args = parser.parse_args(argv)

    rt = Runtime(occurs_check=args.occurs_check)
    rt.engine.trace = args.trace

    for path in args.consult:
        report = rt.consult_file(path)
        for line, msg in report.warnings:
            print(f"warning: {report.origin}:{line}: {msg}", file=sys.stderr)
        for line, msg in report.errors:
            print(f"error: {report.origin}:{line}: {msg}", file=sys.stderr)
        if not report.ok:
            return 2

    if args.bench:
        try:
            report = run_benchmarks(rt, iterations=args.iterations)
        except ValueError as err:
            print(f"usage error: {err}", file=sys.stderr)
            return 2
        print(report.table())
        return 0

    if args.goal is not None:
        try:
            sol = rt.once(args.goal)
        except ReaderError as err:
            print(f"ERROR: syntax: {err}", file=sys.stderr)
            return 2
        except LogicError as err:
            print(f"ERROR: {term_text(err.term)}", file=sys.stderr)
            return 2
        if sol is None:
            print("false.")
            return 1
        for name, value in sol.items():
            if not name.startswith("_"):
                print(f"{name} = {term_text(value)}")
        if not any(not n.startswith("_") for n in sol):
            print("true.")
        return 0

    return repl(rt)


def repl(rt: Runtime) -> int:
    session = Session(rt)
    print("objlog. Queries end with '.'; ';' steps solutions; :quit leaves.")
    while True:
        prompt = "|    " if session.continuing or session.pending else "?- "
        try:
            line = input(prompt)
        except EOFError:
            print()
            return 0
        except KeyboardInterrupt:
            print()
            session.buffer = ""
            continue
        got = session.feed(line)
        if got:
            print(got)
        if session.quit:
            return 0


if __name__ == "__main__":
    sys.exit(main())
