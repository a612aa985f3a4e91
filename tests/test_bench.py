import io

import pytest

from objlog.bench import CASE_ORDER, BenchReport, run_benchmarks
from objlog.runtime import Runtime


def test_bench_smoke_runs_all_cases():
    rt = Runtime(out=io.StringIO())
    report = run_benchmarks(rt, iterations=300, batches=2, warmup_batches=1)
    assert set(report.per_call_us) == set(CASE_ORDER)
    assert all(us >= 0.0 for us in report.per_call_us.values())
    table = report.table()
    assert "normalise" in table and "termarg" in table
    assert "warm-up" in table
    # the harness frees its objects
    assert rt.kernel.live_count == rt.baseline_live


def test_bench_rejects_bad_iteration_counts():
    rt = Runtime(out=io.StringIO())
    with pytest.raises(ValueError):
        run_benchmarks(rt, iterations=0)
    with pytest.raises(ValueError):
        run_benchmarks(rt, iterations=100, batches=0)


def test_bench_report_ratio_helper():
    rt = Runtime(out=io.StringIO())
    report = run_benchmarks(rt, iterations=200, batches=1, warmup_batches=0)
    assert report.ratio("noarg", "noarg") == 1.0


def test_bench_table_shows_no_ratio_against_a_zero_base():
    # a load spike on the empty loop clamps a case's time to 0.0
    report = BenchReport(300, 2, 1, 9.2, per_call_us=dict.fromkeys(CASE_ORDER, 0.0))
    report.per_call_us["get"] = 4.5
    rows = report.table().splitlines()[-len(CASE_ORDER):]
    assert [row.split()[0] for row in rows] == list(CASE_ORDER)
    assert all(row.split()[-1] == "-" for row in rows)
    assert rows[-1].split()[2] == "4.500"
