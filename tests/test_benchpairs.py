import importlib.util
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "benchpairs.py"
_spec = importlib.util.spec_from_file_location("benchpairs", TOOL)
benchpairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(benchpairs)

METRICS = [{"name": "run_s", "unit": "s", "better": "lower"},
           {"name": "score", "unit": "1", "better": "higher"}]


def result(run_s, score, correct=True, failed=0):
    return {"correct": correct, "failed": failed,
            "metrics": {"run_s": {"value": run_s}, "score": {"value": score}}}


def test_summary_counts_wins_in_the_better_direction():
    pairs = [(result(1.0, 5), result(0.5, 6)),
             (result(2.0, 5), result(2.0, 4)),  # a tie is no win
             (result(3.0, 5), result(1.0, 5, correct=False, failed=2)),
             (result(4.0, 5), result(5.0, 7))]
    got = benchpairs.summarize(pairs, METRICS)
    assert got["pairs"] == 4
    assert got["parent_correct"] == [True] * 4
    assert got["change_correct"] == [True, True, False, True]
    assert got["change_failed"] == [0, 0, 2, 0]
    run_s = got["run_s"]
    assert run_s["change_won"] == 2
    assert run_s["parent_median"] == 2.5 and run_s["change_median"] == 1.5
    assert run_s["parent_iqr"] == pytest.approx(3.25 - 1.75)
    assert run_s["parent"] == [1.0, 2.0, 3.0, 4.0]
    assert run_s["change"] == [0.5, 2.0, 1.0, 5.0]
    assert got["score"]["change_won"] == 2
    assert got["score"]["better"] == "higher"


def test_a_run_is_the_benchmark_command_at_its_run_length(tmp_path):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        "import json, sys\nprint(json.dumps(sys.argv[1:]))\n")
    bench = {"command": [sys.executable, "perfbench/run.py"], "run_seconds": 7}
    assert benchpairs.run_once(tmp_path, bench, "exact_small", 3) == [
        "--workload", "exact_small", "--seed", "3", "--seconds", "7"]
