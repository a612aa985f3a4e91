import io

import pytest

from objlog.cli import Session, main, run_script
from objlog.runtime import Runtime

from scenarios import (
    EVENT_EXPECTED,
    TREE_EXPECTED,
    expected_transcripts,
    run_event_scenario,
    run_transcripts,
    run_tree_scenario,
)


def make_rt():
    return Runtime(out=io.StringIO())


def test_paper_transcripts_match():
    rt = make_rt()
    assert run_transcripts(rt) == expected_transcripts()


def test_event_scenario_matches():
    rt = make_rt()
    assert run_event_scenario(rt) == EVENT_EXPECTED


def test_tree_scenario_matches():
    rt = make_rt()
    assert run_tree_scenario(rt) == TREE_EXPECTED


def test_solution_stepping():
    rt = make_rt()
    rt.consult_text("p(1). p(2).")
    s = Session(rt)
    assert s.feed("p(X).") == "X = 1"
    assert s.feed(";") == "X = 2"
    assert s.feed(";") == "false."


def test_malformed_query_keeps_session_alive():
    rt = make_rt()
    s = Session(rt)
    got = s.feed("p(].")
    assert got.startswith("ERROR: syntax")
    assert s.feed("X = 1.") == "X = 1"


def test_error_reported_and_prompt_returns():
    rt = make_rt()
    s = Session(rt)
    got = s.feed("no_such(1).")
    assert got.startswith("ERROR:")
    assert s.feed("X = ok.") == "X = ok"


def test_meta_objects_and_stats():
    rt = make_rt()
    s = Session(rt)
    s.feed("new(_B, box(4, 4)).")
    objects = s.feed(":objects")
    assert "class=box" in objects and "locked=yes" in objects
    stats = s.feed(":stats")
    assert "records-live = 0" in stats
    classes = s.feed(":classes")
    assert "box super=graphical" in classes


def test_meta_scene():
    rt = make_rt()
    s = Session(rt)
    out = s.feed("new(P, picture), send(P, display(box(2, 2), point(1, 1))).")
    pid = out.split("@")[1].splitlines()[0]
    scene = s.feed(f":scene {pid}")
    assert "pos=(1,1)" in scene


def test_quit():
    rt = make_rt()
    s = Session(rt)
    s.feed(":quit")
    assert s.quit


def test_run_script_transcript_determinism():
    script = ["new(X, box(1, 2)).", ":stats", "member(Q, [a]).", ";"]
    outs = []
    for _ in range(2):
        import re

        outs.append(re.sub(r"@\d+", "@N", run_script(make_rt(), script)))
    assert outs[0] == outs[1]


# -- batch mode ------------------------------------------------------------------


def test_batch_success_exit_zero(capsys):
    assert main(["--goal", "X = 1"]) == 0
    assert "X = 1" in capsys.readouterr().out


@pytest.mark.parametrize("goal, text", [
    ("true", "true."),
    ("_X = 1", "true."),
    ("X = 1, _Y = 2", "X = 1"),
    ("X = f(Y), Y = 2", "X = f(2)\nY = 2"),
])
def test_batch_and_session_print_a_solution_alike(capsys, goal, text):
    assert main(["--goal", goal]) == 0
    assert capsys.readouterr().out == text + "\n"
    assert run_script(make_rt(), [goal + "."]) == text


def test_batch_failure_exit_one(capsys):
    assert main(["--goal", "fail"]) == 1
    assert "false." in capsys.readouterr().out


def test_batch_error_exit_two(capsys):
    assert main(["--goal", "no_such_pred(1)"]) == 2
    assert "existence_error" in capsys.readouterr().err


def test_batch_consult(tmp_path, capsys):
    f = tmp_path / "prog.pl"
    f.write_text("fact(41).\n")
    assert main(["--consult", str(f), "--goal", "fact(X), Y is X + 1"]) == 0
    assert "Y = 42" in capsys.readouterr().out


def test_batch_consult_error(tmp_path, capsys):
    f = tmp_path / "broken.pl"
    f.write_text("p(].\n")
    assert main(["--consult", str(f), "--goal", "true"]) == 2


def test_bench_zero_iterations_usage_error(capsys):
    assert main(["--bench", "--iterations", "0"]) == 2
    assert "usage error" in capsys.readouterr().err


def test_occurs_check_flag(capsys):
    assert main(["--occurs-check", "--goal", "X = f(X)"]) == 1
    assert "false." in capsys.readouterr().out
