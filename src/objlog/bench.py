"""Call-overhead benchmark harness.

Six cases mirror the classic method-call shapes: two native-implemented
sends on an `area` (no argument, one integer argument), three sends to a
logic-defined `bench` class (no argument, integer argument, term argument)
and one get from it (an integer result).
Each case is a counted loop written in logic, so the numbers measure
calling methods *from* logic code.  An empty counting loop is timed the
same way and subtracted as harness overhead.

Every batch runs all cases in ten slices each, round-robin, so a change in
machine load hits every case alike; a case's time is the median over the
batches of its batch time minus the empty loop's time in the same batch.

Absolute times are hardware-bound and only informational; the quantities
that matter are the ratios between cases.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field

from .terms import Atom, ObjRef, Struct

CASE_ORDER = ("normalise", "x", "noarg", "intarg", "termarg", "get")

_SLICES = 10

_CASE_PREDS = {
    "normalise": "bench_normalise",
    "x": "bench_x",
    "noarg": "bench_noarg",
    "intarg": "bench_intarg",
    "termarg": "bench_termarg",
    "get": "bench_get",
}

_CASE_OBJ = {
    "normalise": "area",
    "x": "area",
    "noarg": "bench",
    "intarg": "bench",
    "termarg": "bench",
    "get": "bench",
}


@dataclass
class BenchReport:
    iterations: int
    batches: int
    warmup_batches: int
    empty_us: float
    per_call_us: dict = field(default_factory=dict)
    raw_seconds: dict = field(default_factory=dict)

    def ratio(self, a: str, b: str) -> float:
        return self.per_call_us[a] / self.per_call_us[b]

    def table(self) -> str:
        lines = [
            f"iterations per batch: {self.iterations}",
            f"batches: {self.batches}, cases round-robin "
            f"(plus {self.warmup_batches} warm-up, discarded)",
            f"empty-loop overhead: {self.empty_us:.3f} us/iteration "
            "(subtracted per batch)",
            "",
            f"{'case':<12} {'class':<8} {'us/call':>10} {'vs normalise':>14}",
        ]
        # a load spike on the empty loop can clamp the base to 0: no ratio then
        base = self.per_call_us["normalise"]
        for label in CASE_ORDER:
            us = self.per_call_us[label]
            shown = f"{us / base:>14.2f}" if base else f"{'-':>14}"
            lines.append(f"{label:<12} {_CASE_OBJ[label]:<8} {us:>10.3f} {shown}")
        return "\n".join(lines)


def run_benchmarks(rt, iterations: int = 20_000, batches: int = 5,
                   warmup_batches: int = 1) -> BenchReport:
    """Paired per-batch timing for every case, run round-robin; loads the
    bench program and creates the target objects in the given runtime."""
    if iterations <= 0:
        raise ValueError("iterations must be positive")
    if batches <= 0:
        raise ValueError("batches must be positive")
    report = rt.consult_program("bench")
    if not report.ok:
        raise RuntimeError(f"bench program failed to load: {report.errors}")

    area = rt.bridge.new_from_spec(Struct("area", (0, 0, 10, 10)))
    if rt.kernel.find_class("bench") is None:
        raise RuntimeError("bench class missing")
    bench_obj = rt.bridge.new_from_spec(Atom("bench"))
    objs = {"area": area, "bench": bench_obj}

    def run_goal(goal) -> float:
        t0 = time.perf_counter()
        q = rt.engine.solve(goal)
        try:
            next(q)
        except StopIteration:
            raise RuntimeError(f"benchmark goal failed: {goal}")
        finally:
            q.close()
        return time.perf_counter() - t0

    slices = min(_SLICES, iterations)
    sizes = [iterations // slices + (1 if k < iterations % slices else 0)
             for k in range(slices)]
    labels = ("empty",) + CASE_ORDER
    raw: dict = {label: [] for label in labels}
    for batch in range(warmup_batches + batches):
        spent = dict.fromkeys(labels, 0.0)
        for size in sizes:
            for label in labels:
                if label == "empty":
                    goal = Struct("bench_empty", (size,))
                else:
                    obj = objs[_CASE_OBJ[label]]
                    goal = Struct(_CASE_PREDS[label], (size, ObjRef(obj.oid)))
                spent[label] += run_goal(goal)
        if batch >= warmup_batches:
            for label in labels:
                raw[label].append(spent[label])

    out = BenchReport(iterations, batches, warmup_batches, 0.0)
    out.raw_seconds = raw
    out.empty_us = statistics.median(raw["empty"]) / iterations * 1e6
    for label in CASE_ORDER:
        paired = [c - e for c, e in zip(raw[label], raw["empty"])]
        out.per_call_us[label] = max(statistics.median(paired) / iterations * 1e6, 0.0)

    rt.call(f"free(@{area.oid})")
    rt.call(f"free(@{bench_obj.oid})")
    return out
