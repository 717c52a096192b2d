"""Self-tests of the benchmark harness.

Run from the root of a checkout: ``python3 -m pytest bench/test_bench.py -q``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import gen  # noqa: E402
from run import percentile  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402


def test_percentile_needs_ten_samples_beyond():
    values = [float(v) for v in range(100)]
    assert percentile(values, 0.9) == 89.0
    assert percentile(values, 0.5) == 49.0
    with pytest.raises(ValueError, match="beyond"):
        percentile(values[:99], 0.9)


def test_self_time_of_a_hand_built_tree():
    spans = [
        (0, 100, -1),  # root
        (10, 40, 0),  # child
        (20, 30, 1),  # grandchild
        (50, 60, 0),  # child
    ]
    assert self_times(spans) == [60, 20, 10, 10]


def test_self_time_counts_overlapping_children_once():
    spans = [(0, 100, -1), (10, 50, 0), (40, 70, 0), (90, 120, 0)]
    assert self_times(spans)[0] == 100 - 60 - 10


def test_layer_shares_sum_to_one():
    tracer = Tracer()
    tracer.functions = ["cli.main", "model.center_at", "lp.find_feasible_point"]
    tracer.layer_of = ["cli", "model", "lp"]
    tracer.spans = [[0, 0, 100, -1, 0], [1, 10, 30, 0, 0], [2, 40, 90, 0, 0], [1, 50, 60, 2, 0]]
    summary = tracer.op_summary(0)
    assert summary["root_ns"] == 100
    assert summary["self_ns"] == {"cli": 30, "model": 30, "lp": 40}
    assert summary["calls"] == {"cli": 1, "model": 2, "lp": 1}
    assert sum(summary["self_ns"].values()) == summary["root_ns"]


def test_only_decisions_inside_simulate_book_count_as_book_decisions():
    tracer = Tracer()
    tracer.functions = ["cli.main", "dutchbook.simulate_book", "decision.decision_weights",
                        "decision.evaluate_offer"]
    tracer.layer_of = ["cli", "dutchbook", "decision", "decision"]
    tracer.spans = [[0, 0, 100, -1, 0], [1, 10, 60, 0, 0], [3, 20, 40, 1, 0],
                    [2, 25, 35, 2, 0], [3, 40, 50, 1, 0], [3, 70, 80, 0, 0]]
    assert tracer.op_summary(0)["book_decisions"] == 2
    assert tracer.op_summary(0)["functions"]["decision.evaluate_offer"] == 3


def test_loop_stops_at_its_time_limit():
    from worker import Loop

    loop = Loop(argparse.Namespace(seconds=60, min_ops=100, limit=0.0), None, [])
    assert loop.enough(5) and loop.over_limit
    loop = Loop(argparse.Namespace(seconds=0, min_ops=5, limit=60.0), None, [])
    assert loop.enough(5) and not loop.over_limit


def test_seconds_beyond_what_the_time_limit_allows_are_refused():
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "desk", "--seconds", "61"],
        capture_output=True, text=True, cwd=BENCH.parent, timeout=60,
    )
    assert done.returncode != 0 and "--seconds" in done.stderr


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generators_are_deterministic(workload):
    length = len(gen.PLANS[workload])
    for index in (0, 1, length + 3):
        first, second = gen.make_op(workload, 7, index), gen.make_op(workload, 7, index)
        assert first.argv == second.argv
        assert {r: gen.dump(d) for r, d in first.docs.items()} == {
            r: gen.dump(d) for r, d in second.docs.items()
        }
    if workload != "desk":
        assert gen.make_op(workload, 7, 0).docs != gen.make_op(workload, 8, 0).docs


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_each_pass_holds_the_whole_plan(workload):
    plan = gen.PLANS[workload]
    for pass_no in range(2):
        kinds = [gen.make_op(workload, 3, pass_no * len(plan) + k).kind for k in range(len(plan))]
        assert sorted(kinds) == sorted(plan)


def test_validation_rejects_an_illegitimate_generated_book(tmp_path):
    from worker import validate

    op = gen.make_op("simulate-scale", 0, 1)
    while "book" not in op.roles:
        op = gen.make_op("simulate-scale", 0, op.index + 1)
    op.docs["book"]["bets"][1]["offer"]["slots"] = ["s00"]
    gen.materialize(op, tmp_path)
    with pytest.raises(RuntimeError, match="generator bug"):
        validate(op, tmp_path)


LEDGER = [
    "       h (1/2)  t (1/2)",
    "pre    a: -5    a: 5",
    "mon    b: 2     b: -3",
    "tue    -        b: -3",
    "total  -3       -1",
    "all offers accepted: yes",
    "dutch book: yes",
    "worst world total: -3",
]


def test_ledger_check_accepts_a_consistent_ledger():
    assert checks.check_ledger(LEDGER) is None


@pytest.mark.parametrize(
    "line, replacement",
    [(4, "total  -3       -2"), (7, "worst world total: -1"), (6, "dutch book: no")],
)
def test_ledger_check_rejects_inconsistencies(line, replacement):
    broken = list(LEDGER)
    broken[line] = replacement
    assert checks.check_ledger(broken) is not None


def test_credence_check_requires_a_distribution():
    good = ["center   credence", "h/mon (b)  1/3", "t/mon (b)  1/3", "t/tue (b)  1/3",
            "world  credence", "h  1/3", "t  2/3"]
    assert checks.check_credence(good) is None
    assert checks.check_credence(good[:-1] + ["t  1/3"]) is not None
    assert checks.check_credence(good[:1] + ["h/mon (b)  1/2"] + good[2:]) is not None


def test_evaluate_check_matches_decisions_to_deltas():
    rows = ["bet  offered  delta  decision", "b1  x (a)  1/2  accept", "b2  x (a)  0  reject"]
    assert checks.check_evaluate(rows) is None
    assert checks.check_evaluate(rows[:2] + ["b2  x (a)  0  accept"]) is not None


def test_synthesize_check_replays_the_witness():
    lines = ["constraints:", "  c: x >= 1", "outcome: feasible", "  x = 3", *LEDGER]

    class Verdict:
        def __init__(self, dutch):
            self.is_dutch_book = dutch

    seen = {}
    assert checks.check_synthesize(lines, True, lambda p: seen.update(p) or Verdict(True)) is None
    assert seen == {"x": Fraction(3)}
    assert checks.check_synthesize(lines, True, lambda p: Verdict(False)) is not None
    assert checks.check_synthesize(lines, False, lambda p: Verdict(True)) is not None


def _run(*args: str) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args], capture_output=True, text=True,
        cwd=BENCH.parent, timeout=170, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_untraced_run_reports_every_end_to_end_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    result = _run("--workload", "desk", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 100
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}


def test_traced_run_reports_every_per_layer_metric_and_matches_untraced_output():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    result = _run("--workload", "desk", "--seed", "1", "--seconds", "1", "--trace", "1")
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
    assert result["metrics"]["cli.calls"]["value"] == 1
