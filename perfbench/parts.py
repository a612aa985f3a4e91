"""The benchmark's parts: what each one loads, prepares and measures.

A part owns a program (consulted during set-up), a warm-up, a unit of work
(one scheduling step of the closed loop) and its end-of-run checks.  Its
inputs come only from its own random generator, seeded from the run seed
and the part's name, and reseeded by `prepare`, so every runtime a run
builds sees the same inputs.  Every operation is timed on its own with
`time.perf_counter` around one call into objlog and checked against the
part's own expectation (see `oracles.py`).  Samples are kept raw and in
reference time (see `clock.py`); metrics are medians of the reference ones.
"""

from __future__ import annotations

import random
import statistics
from collections import Counter
from pathlib import Path
from time import perf_counter

import oracles
from clock import Bracket
from objlog.terms import Atom, ObjRef, Struct, Var, deref, mk_list

PROGRAMS = Path(__file__).resolve().parent / "programs"


class Tally:
    """Operations attempted and failed; a failure is an operation that
    raised, failed when it should succeed, or gave a wrong answer."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list = []

    def record(self, problem) -> None:
        self.attempted += 1
        if problem:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(problem)


class Samples:
    """Timings of one metric, raw and in reference time."""

    def __init__(self):
        self.raw: list = []
        self.ref: list = []

    def add(self, raw: float, factor: float) -> None:
        self.raw.append(raw)
        self.ref.append(raw * factor)

    def __len__(self):
        return len(self.raw)

    def median(self, raw: bool) -> float:
        return statistics.median(self.raw if raw else self.ref)


def run_goal(rt, tracer, kind: str, goal):
    """Run one goal as one client request, committing to its first
    solution: (seconds, problem).  Failing or raising is a problem."""
    if tracer is not None:
        tracer.begin(kind)
    t0 = perf_counter()
    try:
        ok = rt.engine.solve_once(goal)
        dt = perf_counter() - t0
    except Exception as err:  # a run reports a crashing operation, not crashes
        return perf_counter() - t0, f"{kind}: {type(err).__name__}: {err}"
    finally:
        if tracer is not None:
            tracer.close()
    return dt, None if ok else f"{kind}: goal failed"


def new_object(rt, spec):
    """Create an object from a class spec term during preparation."""
    x = Var()
    _dt, problem = run_goal(rt, None, "new", Struct("new", (x, spec)))
    ref = deref(x)
    if problem or type(ref) is not ObjRef:
        raise RuntimeError(f"cannot create {spec!r}: {problem}")
    return ref.ref


def free_objects(rt, oids, tally: Tally) -> None:
    for oid in oids:
        _dt, problem = run_goal(rt, None, "free", Struct("free", (ObjRef(oid),)))
        tally.record(problem)


class Part:
    name = ""
    program = ""  # file under programs/ holding the part's logic code
    quota = 1     # units run before the timed window opens
    history = 1   # units run instead when the part is the workload's own

    def __init__(self, seed: int):
        self.seed = seed
        self.texts = self.program_texts()

    def program_texts(self) -> list:
        """The part's logic code, consulted in this order."""
        return [(PROGRAMS / self.program).read_text()]

    def prepare(self, rt, tally: Tally) -> None:
        """Create the part's objects and warm up; runs inside set-up."""
        self.rng = random.Random(f"{self.name}:{self.seed}")

    def unit(self, rt, tally: Tally, tracer) -> None:
        raise NotImplementedError

    def held(self) -> Counter:
        """Live objects the client holds through this part, per class."""
        return Counter()

    def finish(self, rt, tally: Tally) -> None:
        """End-of-run checks; then release everything the part holds."""

    def metrics(self, raw: bool = False) -> dict:
        """metric -> (value, unit), from the reference or the raw timings."""
        return {}

    def inputs(self) -> dict:
        return {}


# -- callshape -------------------------------------------------------------------

# (metric, loop predicate, receiver)
CASES = (
    ("empty_iter_us", "cs_empty", None),
    ("native_noarg_iter_us", "cs_normalise", "area"),
    ("native_intarg_iter_us", "cs_x", "area"),
    ("logic_noarg_iter_us", "cs_noarg", "logic"),
    ("logic_intarg_iter_us", "cs_intarg", "logic"),
    ("logic_termarg_iter_us", "cs_termarg", "logic"),
    ("pure_noarg_iter_us", "cs_noarg", "pure"),
)
CLASSIC_LOGIC_CASES = ("logic_noarg_iter_us", "logic_intarg_iter_us", "logic_termarg_iter_us")
NATIVE_CASES = ("native_noarg_iter_us", "native_intarg_iter_us")
PURE_CASES = ("pure_noarg_iter_us",)


class CallShape(Part):
    """One unit is a batch: every case's tail loop once, in a seeded order,
    so drift in machine load hits every case alike."""

    name = "callshape"
    program = "callshape.pl"
    quota = 4
    history = 20  # 140 000 sends; each termarg send frees one wrapper object
    iterations = 1000

    def prepare(self, rt, tally):
        super().prepare(rt, tally)
        self.samples = {metric: Samples() for metric, _p, _r in CASES}
        self.objs = {
            "area": new_object(rt, Struct("area", (0, 0, 10, 10))),
            "logic": new_object(rt, Atom("cs_logic")),
            "pure": new_object(rt, Atom("cs_pure")),
        }
        self.area = rt.kernel.fetch(self.objs["area"])
        for metric, pred, recv in CASES:
            self._loop(rt, tally, None, metric, pred, recv, 50)

    def _loop(self, rt, tally, tracer, metric, pred, recv, n):
        args = (n,) if recv is None else (n, ObjRef(self.objs[recv]))
        dt, problem = run_goal(rt, tracer, metric, Struct(pred, args))
        if not problem and pred == "cs_x":
            problem = oracles.check_value("area x after x(1)", 1, self.area.slots["x"])
        tally.record(problem)
        return dt

    def unit(self, rt, tally, tracer):
        cases = list(CASES)
        self.rng.shuffle(cases)
        n = self.iterations
        bracket = Bracket()
        for metric, pred, recv in cases:
            dt = self._loop(rt, tally, tracer, metric, pred, recv, n)
            self.samples[metric].add(dt / n * 1e6, bracket.factor())

    def held(self):
        return Counter({"area": 1, "cs_logic": 1, "cs_pure": 1} if self.objs else {})

    def finish(self, rt, tally):
        free_objects(rt, self.objs.values(), tally)
        self.objs = {}

    def metrics(self, raw=False):
        return {m: (s.median(raw), "us") for m, s in self.samples.items()}

    def inputs(self):
        return {"iterations_per_loop": self.iterations,
                "batches": len(self.samples["empty_iter_us"])}


# -- solver -------------------------------------------------------------------------

NREV_LEN = 30
NREV_LI = 496  # logical inferences of one naive reverse of 30 elements


class NRev(Part):
    """One unit is five naive reverses, each of a seeded 30-element list."""

    name = "nrev"
    program = "solver.pl"
    quota = 8
    history = 8
    per_unit = 5

    def prepare(self, rt, tally):
        super().prepare(rt, tally)
        self.lists = [[self.rng.randint(-999, 999) for _ in range(NREV_LEN)]
                      for _ in range(8)]
        self.terms = [mk_list(lst) for lst in self.lists]
        self.next = 0
        self.samples = Samples()
        for i in range(len(self.lists)):
            self._one(rt, tally, None, i)

    def _one(self, rt, tally, tracer, i):
        r = Var()
        dt, problem = run_goal(rt, tracer, "nrev", Struct("nrev", (self.terms[i], r)))
        if not problem:
            problem = oracles.check_nrev(self.lists[i], oracles.int_list(r))
        tally.record(problem)
        return dt

    def unit(self, rt, tally, tracer):
        bracket = Bracket()
        for _ in range(self.per_unit):
            i = self.next
            self.next = (i + 1) % len(self.lists)
            self.samples.add(self._one(rt, tally, tracer, i), bracket.factor())

    def metrics(self, raw=False):
        return {"nrev30_lips": (NREV_LI / self.samples.median(raw), "LIPS")}

    def inputs(self):
        return {"nrev_lists": len(self.lists), "nrev_list_len": NREV_LEN,
                "nrev_samples": len(self.samples)}


QUEENS_SOLUTIONS = {5: 10, 8: 92}


class Queens(Part):
    """One unit is every solution of 8-queens, collected as Python lists
    inside the timed region.  The run is timed solution by solution, with
    a calibration between solutions, so a change of host speed halfway
    through is accounted for."""

    name = "queens"
    program = "solver.pl"
    quota = 2
    history = 2

    def prepare(self, rt, tally):
        super().prepare(rt, tally)
        self.samples = Samples()
        self._solve(rt, tally, None, 5)

    def _solve(self, rt, tally, tracer, n):
        """All solutions of n-queens: (raw, reference) milliseconds."""
        qs = Var()
        found: list = []
        raw = ref = 0.0
        query = None
        bracket = Bracket()
        if tracer is not None:
            tracer.begin("queens")
        try:
            while True:
                t0 = perf_counter()
                if query is None:
                    query = rt.engine.solve(Struct("queens", (n, qs)), protect=True)
                more = next(query, query) is not query
                if more:
                    found.append(oracles.int_list(qs))
                dt = perf_counter() - t0
                raw += dt
                ref += dt * bracket.factor()
                if not more:
                    break
            problem = oracles.check_queens(n, found, QUEENS_SOLUTIONS[n])
        except Exception as err:
            problem = f"queens{n}: {type(err).__name__}: {err}"
        finally:
            if tracer is not None:
                tracer.close()
        tally.record(problem)
        return raw * 1e3, ref * 1e3

    def unit(self, rt, tally, tracer):
        raw, ref = self._solve(rt, tally, tracer, 8)
        self.samples.add(raw, ref / raw)

    def metrics(self, raw=False):
        return {"queens8_ms": (self.samples.median(raw), "ms")}

    def inputs(self):
        return {"queens_samples": len(self.samples)}


# -- scene ------------------------------------------------------------------------------

# No recorded session or traffic data backs the scene's traffic, so every
# choice below is an assumption, kept to the fewest: each request kind and
# each event kind is equally likely.  The live set is bounded (new and free
# swap at a bound, so the realised shares are recorded with each run) and
# small, so that the create/free history far outgrows it; stored terms span
# one node to a few dozen, log-uniformly, so small and large writes both
# occur often.
SCENE_CLASSES = 300
SCENE_BUTTONS = 4
LIVE_START, LIVE_MIN, LIVE_MAX = 24, 8, 48
REQUESTS = ("new", "free", "event", "write", "read", "logic_get", "button")
EVENT_KINDS = ("area_enter", "area_exit", "button_down", "keyboard")
TERM_NODES_LOG2 = 6  # stored terms have 1 to 64 nodes
FUNCTORS = ("f", "g", "pair", "node", "wrap")
ATOMS = ("a", "b", "red", "nil_x", "hello")

CLASS_TEMPLATE = """
:- pce_begin_class(sbox{i}, box).

variable(data, prolog, both, "stored term").

event(Box, Event:event) :->
        (   send(Event, is_a, area_enter)
        ->  send(Box, fill_pattern, colour(red))
        ;   send(Event, is_a, area_exit)
        ->  send(Box, fill_pattern, @nil)
        ;   send_super(Box, event, Event)
        ).

score(Box, K:int, V) :<-
        get(Box, width, W),
        get(Box, height, H),
        V is W * {a} + H * K + {b}.

store(Box, Term:prolog) :->
        send(Box, data, Term).

:- pce_end_class(sbox{i}).
"""

BUTTON_PROGRAM = """
clicked(K) :- retract(click_count(K, N)), N1 is N + 1, assert(click_count(K, N1)).
"""


def gen_term(rng, n: int):
    """A seeded ground term of exactly n nodes, in client form."""
    if n == 1:
        if rng.random() < 0.5:
            return rng.randint(-999, 999)
        return ("atom", rng.choice(ATOMS))
    arity = min(rng.randint(1, 3), n - 1)
    cuts = sorted(rng.sample(range(1, n - 1), arity - 1)) if arity > 1 else []
    bounds = [0] + cuts + [n - 1]
    args = tuple(gen_term(rng, bounds[i + 1] - bounds[i]) for i in range(arity))
    return ("struct", rng.choice(FUNCTORS), args)


class BoxState:
    __slots__ = ("cls", "width", "height", "fill", "stored")

    def __init__(self, cls, width, height):
        self.cls = cls
        self.width = width
        self.height = height
        self.fill = "nil"
        self.stored = None


class Scene(Part):
    """Interactive use: a seeded stream of single requests against a
    bounded, churning set of boxes of a few hundred logic-defined classes."""

    name = "scene"
    quota = 30
    history = 200  # 20 000 requests, about 3 000 boxes created
    per_unit = 100

    def __init__(self, seed):
        gen = random.Random(f"scene-classes:{seed}")
        self.coeffs = [(gen.randint(1, 9), gen.randint(0, 99)) for _ in range(SCENE_CLASSES)]
        super().__init__(seed)

    def program_texts(self):
        # consulted in chunks of 50 classes, so set-up can be calibrated
        # between them
        classes = [CLASS_TEMPLATE.format(i=i, a=a, b=b) for i, (a, b) in enumerate(self.coeffs)]
        clicks = "".join(f"click_count({k}, 0).\n" for k in range(SCENE_BUTTONS))
        return ["".join(classes[i:i + 50]) for i in range(0, len(classes), 50)] + [
            BUTTON_PROGRAM + clicks]

    def prepare(self, rt, tally):
        super().prepare(rt, tally)
        self.samples = Samples()
        self.counts = dict.fromkeys(REQUESTS, 0)
        self.nodes: list = []
        self.boxes: dict = {}
        self.live: list = []
        self.clicks = [0] * SCENE_BUTTONS
        self.buttons = [
            new_object(rt, Struct("button", (Atom(f"b{k}"), Struct(
                "message", (ObjRef("prolog"), Atom("clicked"), k)))))
            for k in range(SCENE_BUTTONS)]
        self.created = 0
        self.peak_live = 0
        self.kernel_peak_live = rt.kernel.live_count
        for _ in range(LIVE_START):
            self.request(rt, tally, None, "new")
        for kind in REQUESTS:
            self.request(rt, tally, None, kind)
        self.counts = dict.fromkeys(REQUESTS, 0)
        self.nodes.clear()

    def unit(self, rt, tally, tracer):
        bracket = Bracket()
        times = []
        for _ in range(self.per_unit):
            kind = self.rng.choice(REQUESTS)
            if kind == "new" and len(self.live) >= LIVE_MAX:
                kind = "free"
            elif kind == "free" and len(self.live) <= LIVE_MIN:
                kind = "new"
            times.append(self.request(rt, tally, tracer, kind))
            self.counts[kind] += 1
            live = rt.kernel.live_count
            if live > self.kernel_peak_live:
                self.kernel_peak_live = live
        factor = bracket.factor()
        for dt in times:
            self.samples.add(dt * 1e6, factor)

    def request(self, rt, tally, tracer, kind):
        rng = self.rng
        if kind == "new":
            cls = rng.randrange(SCENE_CLASSES)
            st = BoxState(cls, rng.randint(1, 200), rng.randint(1, 200))
            x = Var()
            goal = Struct("new", (x, Struct(f"sbox{cls}", (st.width, st.height))))
            dt, problem = run_goal(rt, tracer, kind, goal)
            ref = deref(x)
            if not problem:
                if type(ref) is ObjRef and ref.ref not in self.boxes:
                    self.boxes[ref.ref] = st
                    self.live.append(ref.ref)
                    self.created += 1
                    self.peak_live = max(self.peak_live, len(self.live))
                else:
                    problem = f"new: bad reference {ref!r}"
            tally.record(problem)
            return dt
        if kind == "button":
            k = rng.randrange(SCENE_BUTTONS)
            goal = Struct("pump_event", (ObjRef(self.buttons[k]), Atom("button_down"), 0, 0))
            dt, problem = run_goal(rt, tracer, kind, goal)
            if not problem:
                self.clicks[k] += 1
            tally.record(problem)
            return dt

        oid = self.live[rng.randrange(len(self.live))]
        st = self.boxes[oid]
        ref = ObjRef(oid)
        if kind == "free":
            dt, problem = run_goal(rt, tracer, kind, Struct("free", (ref,)))
            self.live.remove(oid)
            del self.boxes[oid]
        elif kind == "event":
            ev = rng.choice(EVENT_KINDS)
            goal = Struct("pump_event", (ref, Atom(ev), rng.randint(0, 639), rng.randint(0, 479)))
            dt, problem = run_goal(rt, tracer, kind, goal)
            if not problem:
                st.fill = oracles.next_fill(st.fill, ev)
                problem = oracles.check_fill(st.fill, self._fill_of(rt, oid))
        elif kind == "write":
            value = gen_term(rng, round(2 ** rng.uniform(0, TERM_NODES_LOG2)))
            self.nodes.append(oracles.node_count(value))
            goal = Struct("send", (ref, Struct("store", (oracles.to_term(value),))))
            dt, problem = run_goal(rt, tracer, kind, goal)
            if not problem:
                st.stored = value
        elif kind == "read":
            t = Var()
            dt, problem = run_goal(rt, tracer, kind, Struct("get", (ref, Atom("data"), t)))
            if not problem:
                problem = oracles.check_read_back(st.stored, oracles.from_term(t))
        else:  # logic_get
            k = rng.randint(0, 9)
            v = Var()
            goal = Struct("get", (ref, Struct("score", (k,)), v))
            dt, problem = run_goal(rt, tracer, kind, goal)
            if not problem:
                a, b = self.coeffs[st.cls]
                want = oracles.score(a, b, st.width, st.height, k)
                problem = oracles.check_value("score", want, deref(v))
        tally.record(problem)
        return dt

    @staticmethod
    def _fill_of(rt, oid) -> str:
        fill = rt.kernel.fetch(oid).slots["fill_pattern"]
        if fill is rt.kernel.nil:
            return "nil"
        return fill.slots["name"].name

    def held(self):
        held = Counter(f"sbox{st.cls}" for st in self.boxes.values())
        held["button"] = len(self.buttons)
        return held

    def finish(self, rt, tally):
        for k in range(SCENE_BUTTONS):
            n = Var()
            _dt, problem = run_goal(rt, None, "clicks",
                                        Struct("click_count", (k, n)))
            if not problem:
                problem = oracles.check_value(f"clicks of button {k}", self.clicks[k], deref(n))
            tally.record(problem)
        free_objects(rt, list(self.live) + self.buttons, tally)
        self.live, self.boxes, self.buttons = [], {}, []

    def metrics(self, raw=False):
        return {"op_us.p50": (self.samples.median(raw), "us")}

    def p99(self, raw: bool) -> float:
        times = self.samples.raw if raw else self.samples.ref
        return statistics.quantiles(times, n=100, method="inclusive")[98]

    def inputs(self):
        total = sum(self.counts.values())
        nodes = sorted(self.nodes) or [0]
        return {
            "requests": len(self.samples),
            # reported, not bounded: its run-to-run spread on a shared host
            # is too wide for a regression gate (see README.md)
            "op_us.p99": self.p99(raw=False),
            "op_us.p99_raw": self.p99(raw=True),
            "mix_shares": {k: round(c / total, 4) for k, c in self.counts.items()} if total else {},
            "stored_term_nodes": {"n": len(self.nodes), "min": nodes[0],
                                  "median": statistics.median(nodes), "max": nodes[-1],
                                  "mean": round(statistics.fmean(nodes), 2)},
            "classes": SCENE_CLASSES,
            "boxes_peak_live": self.peak_live,
            "boxes_created": self.created,
            "objects_peak_live": self.kernel_peak_live,
        }
