import io
import random

import pytest

from objlog.runtime import Runtime


@pytest.fixture
def rt():
    """A fresh runtime whose output is captured.  On teardown its trail
    holds no guard and no entry: every query, choice point and frame has
    released its guard, and with none nothing could undo an entry.  And no
    crossing is left open: no host-data scope and no term frame."""
    runtime = Runtime(out=io.StringIO())
    yield runtime
    trail = runtime.engine.trail
    assert trail.guards == 0 and not trail.entries
    assert runtime.hostdata.ledgers == []
    assert runtime.store.current_frame() is None


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


def captured(rt) -> str:
    return rt.out.getvalue()
