"""Self-tests of the benchmark: its output checks reject wrong answers, the
tracer leaves objlog as it found it, and tiny runs meet the result format.

    python3 -m pytest perfbench -q
"""

import io
import json
import random
import shutil
import subprocess
import sys
from itertools import permutations
from pathlib import Path

import pytest

import oracles
import run
from objlog import Runtime
from objlog.engine import Machine
from objlog.terms import Atom, ObjRef, Struct
from parts import CallShape, NRev, Scene, Tally, gen_term
from tracer import Tracer

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


# -- the output checks -----------------------------------------------------------


def brute_force_queens(n):
    return [list(p) for p in permutations(range(1, n + 1)) if not oracles.queens_attack(list(p))]


def test_nrev_check_rejects_a_wrong_list():
    assert oracles.check_nrev([1, 2, 3], [3, 2, 1]) is None
    assert oracles.check_nrev([1, 2, 3], [3, 1, 2])
    assert oracles.check_nrev([1, 2, 3], None)


def test_queens_check_rejects_wrong_answers():
    good = brute_force_queens(8)
    assert len(good) == 92
    assert oracles.check_queens(8, good, 92) is None
    assert oracles.check_queens(8, good[:-1], 92)                      # one missing
    assert oracles.check_queens(8, good[:-1] + [good[0]], 92)          # a duplicate
    assert oracles.check_queens(8, good[:-1] + [[1, 2, 3, 4, 5, 6, 7, 8]], 92)  # attacking
    assert oracles.check_queens(8, good[:-1] + [[1, 1, 1, 1, 1, 1, 1, 1]], 92)  # not a placement


def test_scene_checks_reject_wrong_answers():
    stored = ("struct", "f", (1, ("atom", "a")))
    assert oracles.check_read_back(stored, stored) is None
    assert oracles.check_read_back(stored, ("struct", "f", (2, ("atom", "a"))))
    assert oracles.check_read_back(None, ("ref", "nil")) is None
    assert oracles.check_read_back(None, stored)
    assert oracles.check_value("score", oracles.score(3, 4, 10, 20, 2), 74) is None
    assert oracles.check_value("score", oracles.score(3, 4, 10, 20, 2), 75)
    assert oracles.next_fill("nil", "area_enter") == "red"
    assert oracles.next_fill("red", "keyboard") == "red"
    assert oracles.next_fill("red", "area_exit") == "nil"
    assert oracles.check_fill("red", "nil")
    assert oracles.check_empty("audit", [(5, 1, 2)])
    assert oracles.check_empty("audit", []) is None


def test_terms_round_trip_through_the_client_form():
    rng = random.Random(7)
    for n in (1, 2, 5, 40):
        value = gen_term(rng, n)
        assert oracles.node_count(value) == n
        assert oracles.from_term(oracles.to_term(value)) == value


def prepared(part):
    tally = Tally()
    rt = Runtime(out=io.StringIO())
    for text in part.texts:
        assert rt.consult_text(text).ok
    rt.realize_all()
    part.prepare(rt, tally)
    return rt, tally


def test_solver_part_rejects_a_wrong_reverse():
    part = NRev(1)
    part.texts = [t.replace("app(RT, [H], R)", "app(RT, [], R)") for t in part.texts]
    _rt, tally = prepared(part)
    assert tally.failed == tally.attempted > 0


def test_scene_part_rejects_a_corrupted_read_back():
    part = Scene(1)
    rt, tally = prepared(part)
    assert tally.failed == 0
    oid = part.live[0]
    rt.kernel.fetch(oid).slots["data"] = 12345  # behind the client's back
    part.rng.randrange = lambda n: 0            # the next request targets that box
    part.request(rt, tally, None, "read")
    assert tally.failed == 1
    assert "read-back" in tally.errors[0]


def test_final_checks_catch_a_leaked_object():
    part = CallShape(1)
    rt, tally = prepared(part)
    rt.bridge.new_from_spec(Struct("area", (0, 0, 1, 1)))  # not held by the client
    run.final_checks(rt, [part], tally)
    assert tally.failed == 2  # live count before and after teardown


# -- the tracer ---------------------------------------------------------------------


def test_tracer_restores_objlog_and_counts_bridge_paths():
    original = Machine.__dict__["exec_goal"]
    tr = Tracer()
    tr.install()
    try:
        assert Machine.__dict__["exec_goal"] is not original
        rt = Runtime(out=io.StringIO())
        area = rt.bridge.new_from_spec(Struct("area", (0, 0, 1, 1)))
        tr.on = True
        tr.begin("probe")
        assert rt.engine.solve_once(Struct("send", (ObjRef(area.oid), Atom("normalise"))))
        tr.close()
        tr.on = False
    finally:
        tr.uninstall()
    assert Machine.__dict__["exec_goal"] is original
    counts, selfs = tr.totals()
    assert counts["bridge.calls.native"] == 1
    assert counts["kernel.sends.native"] == 1
    assert counts["engine.solves"] == 1
    assert selfs["client.probe"] >= 0
    assert all(parent < sid for sid, _n, _s, _e, parent, _r in tr.kept if parent >= 0)


# -- whole runs ------------------------------------------------------------------------


def bench(*args, cwd=HERE.parent):
    out = subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                         cwd=cwd, capture_output=True, text=True, timeout=170)
    return out


def result_of(out):
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def test_end_to_end_run_reports_every_metric():
    detail, result = result_of(bench("--workload", "scene", "--seed", "3", "--seconds", "1",
                                     "--trace", "0"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    want = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert detail["seed"] == 3 and detail["env"]["nproc"] >= 1
    assert abs(sum(detail["inputs"]["scene"]["mix_shares"].values()) - 1) < 1e-3


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_traced_run_reports_every_layer_metric(workload):
    detail, result = result_of(bench("--workload", workload, "--seed", "5", "--seconds", "1",
                                     "--trace", "1"))
    assert result["correct"], detail["errors"]
    want = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    m = {k: v["value"] for k, v in result["metrics"].items()}
    if workload == "solver":
        assert not any(v for k, v in m.items() if k.split(".")[0] in ("bridge", "kernel", "hostdata"))
        assert m["engine.goals"] > 0 and m["terms.unify_calls"] > 0
    if workload == "callshape":
        # at this commit each classic logic send runs one nested solve
        assert m["engine.solves_per_logic_send"] == 1
        assert m["engine.solves_per_native_send"] == 0
        assert m["engine.solves_per_pure_send"] == 0
        # three classic logic cases to one pure one, each loop the same length
        assert m["bridge.calls.logic_classic"] == 3 * m["bridge.calls.logic_pure"] > 0
    if workload == "scene":
        assert m["compiler.classes_realized"] >= 300 and m["reader.clauses_per_s"] > 0
        assert m["toolkit.events"] > 0 and m["bridge.calls.callback"] > 0


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    out = bench("--workload", "solver", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout == ""
