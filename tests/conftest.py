import io
import random

import pytest

from objlog.runtime import Runtime


@pytest.fixture
def rt():
    """A fresh runtime whose output is captured.  On teardown its trail
    holds no guard and no entry: every query, choice point and frame has
    released its guard, and with none nothing could undo an entry.  No
    crossing is left open: no host-data scope and no term frame.  And every
    live object's refcount is what its locks and references make it."""
    runtime = Runtime(out=io.StringIO())
    yield runtime
    trail = runtime.engine.trail
    assert trail.guards == 0 and not trail.entries
    assert runtime.hostdata.ledgers == []
    assert runtime.store.current_frame() is None
    assert runtime.audit_refcounts() == []


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


def count_compiles(monkeypatch) -> list:
    """Wrap the body compiler the machine uses; returns the list each
    compile of a goal met at run time appends its goal term to.  A clause
    body compiled for an assert is not counted."""
    import objlog.engine

    compiled = []
    compile_body = objlog.engine.compile_body

    def counting(term, ns, builtins, slots=None, fresh=None):
        if slots is None:
            compiled.append(term)
        return compile_body(term, ns, builtins, slots, fresh)

    monkeypatch.setattr(objlog.engine, "compile_body", counting)
    return compiled


def captured(rt) -> str:
    return rt.out.getvalue()
