"""Exception types shared across the runtime.

Most failures inside logic execution are represented as `LogicError`, which
carries a structured term ball that `catch/3` can match on.  The remaining
classes cover misuse of the term store (stale references, dead records) and
internal invariant violations that indicate a bug rather than a user error.
"""

from __future__ import annotations


class RuntimeBugError(AssertionError):
    """An internal invariant broke; this is a bug trap, not a user error."""


class TermStoreError(Exception):
    """Base class for misuse of term references, frames and records."""


class StaleTermRefError(TermStoreError):
    """A term reference was used after its frame was closed."""


class FrameOrderError(TermStoreError):
    """Frames must close in LIFO order, and refs need an open frame."""


class DeadRecordError(TermStoreError):
    """A term record was used after it was erased."""


class CyclicTermError(TermStoreError):
    """A cyclic term was found where only finite trees are allowed."""


class TermSizeLimitError(TermStoreError):
    """A term exceeded the configured node limit for permanent copies."""


class ReaderError(Exception):
    """Syntax error while reading program text."""

    def __init__(self, message: str, line: int = 0, incomplete: bool = False):
        super().__init__(message)
        self.message = message
        self.line = line
        # True when the input simply ended too early; the REPL uses this to
        # keep reading instead of reporting an error.
        self.incomplete = incomplete
        # every syntax error of a text read by `reader.read_terms`, this one first
        self.errors = [self]

    def __str__(self) -> str:
        if self.line:
            return f"{self.message} (line {self.line})"
        return self.message


class LogicError(Exception):
    """An exception thrown inside logic execution, carrying a term ball."""

    def __init__(self, term):
        super().__init__(term)
        self.term = term

    def __str__(self) -> str:
        try:
            from .writer import term_text

            return term_text(self.term)
        except Exception:
            return repr(self.term)
