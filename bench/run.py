"""The centerbook benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 bench/run.py --workload desk --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all --trace 1

Each workload run happens in a fresh child process (``worker.py``); the
workloads of ``--workload all`` run one after another. With ``--trace 0``
the run reports the end-to-end metrics: throughput, median and 90th
percentile op time, set-up time and peak memory. With ``--trace 1`` it runs
the op list twice, untraced and then traced, each for half of --seconds,
checks that both print identical outputs, and reports per-layer calls,
self time and share plus the counters in ``per_layer_metrics``. The last
line of output is one JSON object with the run's result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen
import speed
from tracing import LAYERS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SOURCE = ROOT / "src"
WORK = ROOT / ".bench_work"

# op_p90_ms needs at least 10 samples beyond the 90th percentile.
MIN_OPS = 100
TRACE_MIN_OPS = 30
SETUP_LAUNCHES = 9
# Wall-time caps on the op loop of one worker (untraced, and each of the two
# workers of a traced run). A worker stops at its cap after the op in flight,
# and gets SLACK_S more before it is killed, so a run ends within three
# minutes. MAX_SECONDS is the longest --seconds the caps leave room for.
WORKER_LIMIT_S = 130.0
TRACE_LIMIT_S = 55.0
SLACK_S = 25.0
MAX_SECONDS = 60.0

SETUP_PROBE = (
    "import sys\n"
    "from centerbook import cli\n"
    "for arg in sys.argv[1:]:\n"
    "    loader, _, source = arg.partition('=')\n"
    "    getattr(cli, loader)(cli.resolve_source(source))\n"
)


def percentile(values: list[float], q: float, beyond: int = 10) -> float:
    """Nearest-rank percentile; refuses when fewer than ``beyond`` samples lie above it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    if len(ordered) - rank < beyond:
        raise ValueError(
            f"p{q * 100:g} of {len(ordered)} samples has {len(ordered) - rank} "
            f"beyond it; at least {beyond} are needed"
        )
    return ordered[rank - 1]


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SOURCE), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(workload: str, seed: int, seconds: float, trace: int, min_ops: int,
               limit: float, work: Path) -> dict:
    out = WORK / f"{workload}-{'traced' if trace else 'untraced'}.json"
    command = [
        sys.executable, str(BENCH / "worker.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--min-ops", str(min_ops),
        "--trace", str(trace), "--limit", str(limit),
        "--work", str(work), "--out", str(out),
    ]
    subprocess.run(command, env=child_env(), cwd=ROOT, check=True, timeout=limit + SLACK_S)
    result = json.loads(out.read_text(encoding="utf-8"))
    if not Path(result["source"]).resolve().is_relative_to(SOURCE):
        raise ValueError(f"the worker ran centerbook from {result['source']}, not {SOURCE}")
    with out.with_suffix(".ops.jsonl").open(encoding="utf-8") as records:
        result["ops"] = [json.loads(line) for line in records]
    if result["over_limit"]:
        print(f"{workload}: stopped at the {limit:g} s limit after {len(result['ops'])} ops; "
              "percentiles below count every op that ran", file=sys.stderr)
    return result


def samples_beyond(result: dict) -> int:
    """Samples needed beyond a percentile: none in a run cut short by its time limit."""
    return 0 if result["over_limit"] else 10


def measure_setup(workload: str, seed: int, work: Path) -> float:
    """Median normalized time of fresh interpreters that import the CLI and load op 0's documents."""
    op = gen.make_op(workload, seed, 0)
    gen.materialize(op, work)
    args = [
        f"{loader}={gen.document_path(work, op, source) if source in op.roles else source}"
        for loader, source in op.loads
    ]
    command = [sys.executable, "-c", SETUP_PROBE, *args]
    times = []
    before = speed.probe()
    for launch in range(SETUP_LAUNCHES + 1):
        start = time.perf_counter()
        subprocess.run(command, env=child_env(), cwd=ROOT, check=True, timeout=60)
        elapsed = time.perf_counter() - start
        after = speed.probe()
        if launch:  # the first launch only warms the file cache
            times.append(speed.normalize(elapsed, before, after))
        before = after
    return statistics.median(times)


def failures(result: dict) -> list[dict]:
    return [op for op in result["ops"] if op["failure"]]


def end_to_end(workload: str, seed: int, seconds: float, work: Path) -> tuple[dict, int, int]:
    result = run_worker(workload, seed, seconds, 0, MIN_OPS, WORKER_LIMIT_S, work)
    ops = result["ops"]
    n = samples_beyond(result)
    normalized_ms = [op["normalized"] * 1000 for op in ops]
    metrics = {
        "ops_per_s": (1000 * len(ops) / sum(normalized_ms), "op/s"),
        "op_p50_ms": (percentile(normalized_ms, 0.5, n), "ms"),
        "op_p90_ms": (percentile(normalized_ms, 0.9, n), "ms"),
        "setup_s": (measure_setup(workload, seed, work), "s"),
        "peak_rss_mb": (result["maxrss_kb"] / 1024, "MB"),
    }
    failed = failures(result)
    report_failures(failed)
    wall_ms = [op["seconds"] * 1000 for op in ops]
    print(f"{workload}: {len(ops)} ops; error_rate {len(failed) / len(ops):.6g} "
          f"({len(failed)} failed); unnormalized wall time: "
          f"{len(ops) / result['busy_seconds']:.6g} op/s, p50 {percentile(wall_ms, 0.5, n):.6g} ms, "
          f"p90 {percentile(wall_ms, 0.9, n):.6g} ms")
    return metrics, len(ops), len(failed)


def per_layer(workload: str, seed: int, seconds: float, work: Path) -> tuple[dict, int, int]:
    half = seconds / 2
    plain = run_worker(workload, seed, half, 0, TRACE_MIN_OPS, TRACE_LIMIT_S, work)
    traced = run_worker(workload, seed, half, 1, TRACE_MIN_OPS, TRACE_LIMIT_S, work)
    failed = failures(plain) + failures(traced)
    report_failures(failed)
    mismatched = [
        a["index"] for a, b in zip(plain["ops"], traced["ops"]) if a["digest"] != b["digest"]
    ]
    if mismatched:
        print(f"traced and untraced outputs differ at ops {mismatched[:10]}", file=sys.stderr)
    trace = traced["trace"]
    if trace["missing"]:
        print(f"not traced (not found): {', '.join(trace['missing'])}", file=sys.stderr)
    ops = traced["ops"]
    n = len(ops)
    root_ns = trace["root_ns"] or 1
    metrics = {}
    for layer in LAYERS:
        self_ns = trace["self_ns"].get(layer, 0)
        metrics[f"{layer}.calls"] = (trace["calls"].get(layer, 0) / n, "call/op")
        metrics[f"{layer}.self_ms"] = (self_ns / 1e6 / n, "ms/op")
        metrics[f"{layer}.share"] = (self_ns / root_ns, "ratio")
    counters = trace["counters"]

    def ratio(part: str, whole: str | int) -> float:
        whole = counters.get(whole, 0) if isinstance(whole, str) else whole
        return counters.get(part, 0) / whole if whole else 0.0

    metrics.update({
        "input.centers": (sum(op["centers"] for op in ops) / n, "center/op"),
        "input.worlds": (sum(op["worlds"] for op in ops) / n, "world/op"),
        "input.params": (sum(op["params"] for op in ops) / n, "param/op"),
        "dutchbook.visits_per_decision": (
            ratio("visits", trace["book_decisions"]), "visit/call"),
        "lp.rows": (ratio("lp_rows", "lp_calls"), "row/call"),
        "lp.vars": (ratio("lp_vars", "lp_calls"), "var/call"),
        "lp.max_den_bits": (counters.get("lp_den_bits", 0), "bit"),
        "synth.feasible_ratio": (ratio("synth_feasible", "synth_calls"), "ratio"),
        "synth.grid.points": (ratio("grid_points", "grid_calls"), "point/call"),
        "model.alikeness.justified_ratio": (ratio("alike_justified", "alike_calls"), "ratio"),
        "trace.overhead": (
            percentile([op["normalized"] for op in ops], 0.5, samples_beyond(traced))
            / percentile([op["normalized"] for op in plain["ops"]], 0.5, samples_beyond(plain)),
            "ratio",
        ),
    })
    print(f"{workload}: {len(plain['ops'])} untraced and {n} traced ops, "
          f"{trace['spans']} spans, {len(failed)} failed")
    attempted = len(plain["ops"]) + n
    return metrics, attempted, len(failed) + len(mismatched)


def report_failures(failed: list[dict]) -> None:
    for op in failed[:10]:
        print(f"op {op['index']} ({op['kind']}): {op['failure']}", file=sys.stderr)


def run_one(workload: str, seed: int, seconds: float, trace: int) -> None:
    work = WORK / f"{workload}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        measure = per_layer if trace else end_to_end
        metrics, attempted, failed = measure(workload, seed, seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for name, (value, unit) in metrics.items():
        print(f"{workload:15s} {name:36s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


def main() -> int:
    parser = argparse.ArgumentParser(description="Run the centerbook benchmark.")
    parser.add_argument("--workload", choices=(*gen.WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not 0 < args.seconds <= MAX_SECONDS:
        print(f"error: --seconds must be above 0 and at most {MAX_SECONDS:g}", file=sys.stderr)
        return 2
    if not (SOURCE / "centerbook" / "__init__.py").is_file():
        print(f"error: no centerbook sources under {SOURCE}", file=sys.stderr)
        return 2
    workloads = gen.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        for workload in workloads:
            run_one(workload, args.seed, args.seconds, args.trace)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
