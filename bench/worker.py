"""Run one workload's op loop in this process and write the results as JSON.

One op is one in-process call of ``centerbook.cli.main(argv)`` with stdout
and stderr captured, in a closed loop with one client. Documents for a pass
of ops are generated, written and validated before the pass, outside the
timed region; outputs are checked after the pass and each op's record is
appended to a JSON-lines file next to --out. The loop stops once the summed
op time reaches --seconds and at least --min-ops ops have run, or, as an
over-limit run, once --limit wall seconds have passed.

Each synthetic op stands for a separate invocation of the command, so the
program's functools caches are cleared after it; desk ops repeat their
inputs and keep theirs, as a long-lived caller would. Peak memory is read
when op number --min-ops has finished, so it covers the same ops however
fast the program runs.

Every op's wall time is also reported normalized by the speed probe of
``speed.py``, which runs between ops at least every PROBE_INTERVAL_S.

Run by ``run.py``; by hand: ``PYTHONPATH=src python3 bench/worker.py
--workload desk --seed 0 --seconds 2 --min-ops 10 --trace 0 --limit 60
--work .bench_work/manual --out result.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import checks
import gen
import speed
from tracing import Tracer

import centerbook
from centerbook import cli
from centerbook.decision import offered_at_center
from centerbook.dutchbook import check_legitimacy, load_book, simulate_book
from centerbook.model import load_experiment
from centerbook.synth import load_template

REFERENCE = Path(__file__).resolve().parent / "reference"
DEFAULT_SEED = 0
PROBE_INTERVAL_S = 0.02


def run_cli(argv: list[str]) -> tuple[int, str, str, float]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        elapsed = time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), elapsed


@dataclass
class Sample:
    """One op, its output and its time."""

    op: gen.Op
    argv: list[str]
    code: int = 0
    stdout: str = ""
    stderr: str = ""
    seconds: float = 0.0
    normalized: float = 0.0  # seconds at the reference probe speed
    digest: str = ""
    failure: str | None = None


def validate(op: gen.Op, work: Path) -> None:
    """Generated documents must load and be legitimate, or the generator is at fault."""
    if not op.roles:
        return
    e = load_experiment(gen.document_path(work, op, "scenario"))
    if "book" in op.roles:
        book = load_book(gen.document_path(work, op, "book"))
    elif "template" in op.roles:
        template = load_template(gen.document_path(work, op, "template"))
        book = template.instantiate({name: lo for name, (lo, _) in template.bounds().items()})
    else:
        return
    check = check_legitimacy(e, book)
    if not check:
        raise RuntimeError(f"generator bug in op {op.index} ({op.kind}): {check.reason}")


def check_op(op: gen.Op, work: Path, code: int, stdout: str, stderr: str,
             desk_reference: dict) -> str | None:
    if "reference" in op.expect:
        expected = desk_reference[op.expect["reference"]]
        if (code, stdout, stderr) != (expected["code"], expected["stdout"], expected["stderr"]):
            return "output differs from the recorded reference"
        return None
    kind = op.expect["check"]
    if op.expect.get("justified") is False:
        if code != 4 or stdout or "is not justified" not in stderr:
            return f"expected the unjustified-class error (exit 4), got exit {code}"
        return None
    if code != 0:
        return f"exit {code}: {stderr.strip()[:200]}"
    lines = stdout.splitlines()
    if kind == "simulate":
        return checks.check_ledger(lines)
    if kind == "evaluate":
        return checks.check_evaluate(lines)
    if kind == "credence":
        return checks.check_credence(lines)

    def replay(parameters):
        e = load_experiment(gen.document_path(work, op, "scenario"))
        template = load_template(gen.document_path(work, op, "template"))
        agent = cli.parse_agent(op.argv[op.argv.index("--agent") + 1])
        return simulate_book(agent, e, template.instantiate(parameters))[1]

    return checks.check_synthesize(lines, op.expect["feasible"], replay)


def counters_of(kept) -> dict[str, int]:
    """Counter sums from the kept calls of one op."""
    sums = dict.fromkeys(
        ("visits", "lp_calls", "lp_rows", "lp_vars", "lp_den_bits", "synth_calls",
         "synth_feasible", "grid_calls", "grid_points", "alike_calls", "alike_justified"), 0)
    for name, args, result in kept:
        if name == "simulate_book":
            e, book = args[1], args[2]
            sums["visits"] += sum(
                1 for center in e.centers for bet in book.in_experiment_bets
                if offered_at_center(bet.offer, center)
            )
        elif name == "find_feasible_point":
            rows, bounds = args[0], args[1]
            sums["lp_calls"] += 1
            sums["synth_calls"] += 1
            sums["lp_rows"] += len(rows)
            sums["lp_vars"] += len(bounds)
            values = [c for coeffs, _, rhs in rows for c in (*coeffs.values(), rhs)]
            values += [v for pair in bounds.values() for v in pair]
            values += list((result or {}).values())
            bits = max((Fraction(v).denominator.bit_length() for v in values), default=0)
            sums["lp_den_bits"] = max(sums["lp_den_bits"], bits)
            sums["synth_feasible"] += result is not None
        elif name == "immunity_grid_check":
            sums["grid_calls"] += 1
            sums["synth_calls"] += 1
            sums["grid_points"] += result.grid.points
            sums["synth_feasible"] += result.feasible
        elif name == "verify_alikeness":
            sums["alike_calls"] += 1
            sums["alike_justified"] += bool(result.justified)
    return sums


def program_caches() -> list:
    """Every functools cache held in a global of a loaded centerbook module."""
    caches = {}
    for name, module in list(sys.modules.items()):
        if name == "centerbook" or name.startswith("centerbook."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    caches[id(value)] = value
    return list(caches.values())


def peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Loop:
    """The op loop of one worker: timing, speed probes, tracing and totals."""

    def __init__(self, args, tracer: Tracer | None, caches: list) -> None:
        self.args = args
        self.tracer = tracer
        self.caches = caches  # cleared after every op
        self.busy = 0.0  # summed wall time of the ops
        self.deadline = time.perf_counter() + args.limit
        self.over_limit = False
        self.rss_kb = 0  # peak RSS once op number min_ops has finished
        self.counters: dict[str, int] = {}

    def run(self, sample: Sample) -> None:
        first = self.tracer.begin_op(sample.op.index) if self.tracer else 0
        sample.code, sample.stdout, sample.stderr, sample.seconds = run_cli(sample.argv)
        for cache in self.caches:
            cache.cache_clear()
        if sample.op.index + 1 == self.args.min_ops:
            self.rss_kb = peak_rss_kb()
        if self.tracer:
            self.tracer.end_op(first)
            for key, value in counters_of(self.tracer.take_kept()).items():
                merge = max if key == "lp_den_bits" else int.__add__
                self.counters[key] = merge(self.counters.get(key, 0), value)
        self.busy += sample.seconds

    def run_pass(self, samples: list[Sample], done: int) -> int:
        """Run ops in order until the loop has run long enough; returns how many ran.

        The speed probe runs once PROBE_INTERVAL_S has passed since the last
        one; the ops in between are normalized by the probes on either side.
        """
        before = speed.probe()
        group: list[Sample] = []
        started = time.perf_counter()
        count = 0
        for sample in samples:
            self.run(sample)
            group.append(sample)
            count += 1
            stop = self.enough(done + count)
            if stop or count == len(samples) or time.perf_counter() - started >= PROBE_INTERVAL_S:
                after = speed.probe()
                for member in group:
                    member.normalized = speed.normalize(member.seconds, before, after)
                before, group, started = after, [], time.perf_counter()
            if stop:
                break
        return count

    def enough(self, ops: int) -> bool:
        if self.busy >= self.args.seconds and ops >= self.args.min_ops:
            return True
        self.over_limit = time.perf_counter() >= self.deadline
        return self.over_limit


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=gen.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--min-ops", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--limit", type=float, required=True,
                        help="wall seconds after which no new op starts")
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    desk_reference = json.loads((REFERENCE / "desk.json").read_text(encoding="utf-8"))
    digests = json.loads((REFERENCE / "digests.json").read_text(encoding="utf-8"))
    recorded = digests.get(args.workload, []) if args.seed == DEFAULT_SEED else []

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    caches = [] if args.workload == "desk" else program_caches()
    loop = Loop(args, tracer, caches)

    plan_length = len(gen.PLANS[args.workload])
    done = 0
    with args.out.with_suffix(".ops.jsonl").open("w", encoding="utf-8") as records:
        while not loop.enough(done):
            ops = [gen.make_op(args.workload, args.seed, index)
                   for index in range(done, done + plan_length)]
            batch = []
            for op in ops:
                batch.append(Sample(op, gen.materialize(op, args.work)))
                validate(op, args.work)
            gc.collect()
            for sample in batch[:loop.run_pass(batch, done)]:
                op = sample.op
                sample.failure = check_op(op, args.work, sample.code, sample.stdout,
                                          sample.stderr, desk_reference)
                sample.digest = checks.digest(sample.code, sample.stdout, sample.stderr)
                if (sample.failure is None and op.index < len(recorded)
                        and recorded[op.index] != sample.digest):
                    sample.failure = "output differs from the one recorded for the default seed"
                records.write(json.dumps({
                    "index": op.index, "kind": op.kind, "seconds": sample.seconds,
                    "normalized": sample.normalized, "code": sample.code,
                    "digest": sample.digest, "failure": sample.failure,
                    "centers": op.centers, "worlds": op.worlds, "params": op.params,
                }) + "\n")
                done += 1
            for op in ops:
                for role in op.roles:
                    gen.document_path(args.work, op, role).unlink()

    result = {
        "ops": done,
        "busy_seconds": loop.busy,
        "over_limit": loop.over_limit,
        "maxrss_kb": loop.rss_kb or peak_rss_kb(),
        "source": centerbook.__file__,
    }
    if tracer:
        result["trace"] = {
            "calls": tracer.calls,
            "self_ns": tracer.self_ns,
            "root_ns": tracer.root_ns,
            "functions": tracer.function_calls,
            "book_decisions": tracer.book_decisions,
            "counters": loop.counters,
            "spans": len(tracer.spans),
            "missing": tracer.missing,
        }
        tracer.write(args.out.with_suffix(".spans.jsonl"))
    args.out.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
