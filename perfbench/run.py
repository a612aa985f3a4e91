"""The objlog benchmark.

    python3 perfbench/run.py --workload callshape --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; objlog is imported from `src/`.
One single-threaded client drives one runtime in a closed loop with no
think time.  Every run issues all three kinds of work, so that every run
reports every end-to-end metric; the workload names the kind that gets
most of the time window:

  callshape  tail loops in logic code that make one send/2 per iteration
             (native, classic logic-defined and pure-logic methods)
  solver     naive reverse of seeded 30-element lists and all solutions
             of 8-queens: the engine alone, no objects
  scene      seeded single requests against a churning set of boxes of
             a few hundred generated logic-defined classes

With `--trace 0` the run measures the end-to-end metrics.  With `--trace 1`
it runs only the workload's own kind of work, over the same fixed history
the untraced run does before it reads memory, once untraced and once with
the per-layer wrappers of `tracer.py` installed, and reports the per-layer
metrics and the tracing overhead.

The last line of standard output is the result object; the line before it
holds the run's details: environment, generated input properties, sample
counts, error rate and the first errors.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import platform
import resource
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
if __name__ == "__main__" and not (SRC / "objlog" / "__init__.py").is_file():
    sys.exit(f"perfbench: no objlog sources under {SRC}")
sys.path[:0] = [str(SRC), str(HERE)]

import oracles  # noqa: E402  (the benchmark's modules and objlog come from the paths above)
from clock import Bracket  # noqa: E402
from objlog import Runtime  # noqa: E402
from parts import (  # noqa: E402
    CLASSIC_LOGIC_CASES, NATIVE_CASES, PURE_CASES, CallShape, NRev, Queens, Samples, Scene, Tally,
)
from tracer import Tracer, layer_metrics, layer_unit, runtime_base  # noqa: E402

SETUPS = 3  # set-ups per run; setup_s is their median

# workload -> its own parts.  No traffic data says how the kinds of work
# mix, so the window is split by the simplest rule: the workload's own parts
# share one half equally, the other parts share the other half equally.
WORKLOADS = {
    "callshape": ("callshape",),
    "solver": ("nrev", "queens"),
    "scene": ("scene",),
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def rss_mb() -> float:
    """The resident set now."""
    with open("/proc/self/statm", encoding="ascii") as fh:
        pages = int(fh.read().split()[1])
    return pages * resource.getpagesize() / 2**20


def shares(own, parts) -> dict:
    """Share of the window each part gets (see WORKLOADS)."""
    n_own = sum(p.name in own for p in parts)
    return {p.name: 0.5 / n_own if p.name in own else 0.5 / (len(parts) - n_own)
            for p in parts}


# -- phases ------------------------------------------------------------------------


def build(parts, tally):
    """One set-up: a fresh runtime with every part's program consulted, all
    classes realised, and every part prepared and warmed up.  Each step is
    timed between calibrations.  Returns the runtime, its counters right
    after construction, and the set-up's raw and reference seconds."""
    bracket = Bracket()
    raw = ref = 0.0

    def step(fn, *args):
        nonlocal raw, ref
        t0 = perf_counter()
        out = fn(*args)
        dt = perf_counter() - t0
        raw += dt
        ref += dt * bracket.factor()
        return out

    def consult(text):
        report = rt.consult_text(text, origin="<perfbench>")
        if not report.ok:
            raise RuntimeError(f"benchmark program failed to load: {report.errors[:3]}")

    rt = step(lambda: Runtime(out=io.StringIO()))
    base = runtime_base(rt)
    for text in dict.fromkeys(t for p in parts for t in p.texts):
        step(consult, text)
    step(rt.realize_all)
    for p in parts:
        step(p.prepare, rt, tally)
    return rt, base, raw, ref


def run_fixed(rt, parts, own, tally, spent, tracer=None) -> None:
    """A fixed amount of work, round-robin: each of the workload's own parts
    runs its history of units, each other part its quota."""
    counts = {p.name: p.history if p.name in own else p.quota for p in parts}
    for i in range(max(counts.values())):
        for p in parts:
            if i < counts[p.name]:
                t0 = perf_counter()
                p.unit(rt, tally, tracer)
                spent[p.name] += perf_counter() - t0


def run_window(rt, parts, weights, tally, spent, until) -> None:
    """Units until the deadline, each to the part furthest below its share."""
    while perf_counter() < until:
        p = min(parts, key=lambda q: spent[q.name] / weights[q.name])
        t0 = perf_counter()
        p.unit(rt, tally, None)
        spent[p.name] += perf_counter() - t0


def final_checks(rt, parts, tally) -> None:
    """The kernel's state against what the client holds, then teardown."""
    held = sum((p.held() for p in parts), Counter())
    for cls, n in sorted(held.items()):
        tally.record(oracles.check_value(f"live {cls} objects", n,
                                         rt.kernel.live_count_of(cls)))
    tally.record(oracles.check_empty("audit_refcounts", rt.audit_refcounts()))
    tally.record(oracles.check_empty(
        "unreachable_cycles", rt.kernel.unreachable_cycles(rt.hostdata.transient_holds())))
    for p in parts:
        p.finish(rt, tally)
    tally.record(oracles.check_value("live objects after teardown", rt.baseline_live,
                                     rt.kernel.live_count))


def timed_setups(parts, tally):
    """SETUPS set-ups, each from scratch; the last runtime is kept."""
    times = Samples()
    rt = None
    for _ in range(SETUPS):
        rt = None
        gc.collect()
        rt, _base, raw, ref = build(parts, tally)
        times.add(raw, ref / raw)
    gc.collect()
    return rt, times


def reference_time(fn, *args) -> float:
    """Seconds fn(*args) took, in reference time (see clock.py)."""
    bracket = Bracket()
    t0 = perf_counter()
    fn(*args)
    return (perf_counter() - t0) * bracket.factor()


def make_parts(seed):
    return [CallShape(seed), NRev(seed), Queens(seed), Scene(seed)]


def end_to_end(args, detail, tally) -> dict:
    own = WORKLOADS[args.workload]
    parts = make_parts(args.seed)
    rt, setup = timed_setups(parts, tally)

    spent = {p.name: 0.0 for p in parts}
    created = rt.kernel.created_total
    rss_setup = rss_mb()
    start = perf_counter()
    run_fixed(rt, parts, own, tally, spent)
    # memory is read after set-up plus a fixed amount of work, so a faster
    # program does not read as a hungrier one; the work creates and frees
    # far more objects than stay live, so what freed objects leave behind
    # shows
    rss = peak_rss_mb()
    detail["rss_after_setup_mb"] = rss_setup
    detail["rss_growth_mb"] = rss_mb() - rss_setup
    detail["history_objects_created"] = rt.kernel.created_total - created
    detail["history_table_size"] = len(rt.kernel.objects)
    run_window(rt, parts, shares(own, parts), tally, spent, start + args.seconds)
    detail["window_s"] = perf_counter() - start
    detail["window_share_s"] = spent
    detail["objects_created"] = rt.kernel.created_total - created
    final_checks(rt, parts, tally)

    metrics = {"setup_s": (setup.median(False), "s"), "peak_rss_mb": (rss, "MB")}
    raw = {"setup_s": setup.median(True)}
    for p in parts:
        metrics.update(p.metrics())
        raw.update((k, v) for k, (v, _u) in p.metrics(raw=True).items())
        detail["inputs"][p.name] = p.inputs()
    detail["raw_medians"] = raw
    detail["setup_s_samples"] = setup.ref
    return metrics


def traced(args, detail, tally) -> dict:
    own = WORKLOADS[args.workload]
    parts = [p for p in make_parts(args.seed) if p.name in own]
    spent = {p.name: 0.0 for p in parts}

    # untraced reference: same inputs, same amount of work
    rt, setup_plain = timed_setups(parts, tally)
    work_plain = reference_time(run_fixed, rt, parts, own, tally, spent)
    plain = {}
    for p in parts:
        plain.update(p.metrics())
    final_checks(rt, parts, tally)
    rt = None
    gc.collect()

    tr = Tracer()
    tr.install()
    try:
        tr.on = True
        tr.begin("setup")
        rt, base, _raw, setup_traced = build(parts, tally)
        tr.close()
        work_traced = reference_time(run_fixed, rt, parts, own, tally, spent, tr)
        tr.on = False
        metrics = layer_metrics(tr, rt, base)
        for p in parts:
            detail["inputs"][p.name] = p.inputs()
            for name, (value, _unit) in p.metrics().items():
                detail.setdefault("trace_overhead_by_metric", {})[name] = value - plain[name][0]
        final_checks(rt, parts, tally)
    finally:
        tr.on = False
        tr.uninstall()

    # nested solves per send, from the spans of each callshape case
    iterations = next((p.iterations for p in parts if p.name == "callshape"), 0)

    def solves_per_send(cases):
        nested = sends = 0
        for case in cases:
            counts, _selfs = tr.by_kind.get(case, ({}, {}))
            loops = counts.get("client." + case, 0)
            nested += counts.get("engine.solves", 0) - loops
            sends += loops * iterations
        return nested / sends if sends else 0.0

    metrics["engine.solves_per_logic_send"] = solves_per_send(CLASSIC_LOGIC_CASES)
    metrics["engine.solves_per_native_send"] = solves_per_send(NATIVE_CASES)
    metrics["engine.solves_per_pure_send"] = solves_per_send(PURE_CASES)
    metrics["trace.overhead_s"] = work_traced - work_plain
    metrics["trace.overhead_ratio"] = work_traced / work_plain
    metrics["trace.setup_overhead_s"] = setup_traced - setup_plain.median(False)
    metrics["trace.spans"] = tr.next_id

    if args.workload == "solver":
        # no objects take part in pure logic: the bridge, the kernel and the
        # host-data layer must see no calls at all
        touched = {k: v for k, v in metrics.items()
                   if k.split(".")[0] in ("bridge", "kernel", "hostdata") and v}
        tally.record(oracles.check_empty("object layers used by the solver", touched))

    out = HERE / "out" / f"trace-{args.workload}.jsonl"
    tr.write(out)
    detail["spans_file"] = str(out.relative_to(HERE.parent))
    detail["spans_kept"] = len(tr.kept)
    return {k: (v, layer_unit(k)) for k, v in metrics.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": environment(), "inputs": {}}
    tally = Tally()
    run = traced if args.trace else end_to_end
    metrics = run(args, detail, tally)
    detail["error_rate"] = tally.failed / tally.attempted
    detail["errors"] = tally.errors
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
