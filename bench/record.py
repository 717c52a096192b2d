"""Record the reference outputs the benchmark checks against.

Writes ``reference/desk.json`` (exit code, stdout and stderr of every desk
op) and ``reference/digests.json`` (an output digest for the first ops of
each synthetic workload at the default seed). The references pin the
outputs of the commit that defined the benchmark; recording again is only
right when a change of output is intended.

Usage, from the root of a checkout:

    PYTHONHASHSEED=0 PYTHONPATH=src python3 bench/record.py
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import checks
import gen
from worker import DEFAULT_SEED, REFERENCE, check_op, run_cli, validate

# Ops recorded per synthetic workload: about twice what one default run makes.
RECORDED_OPS = {"simulate-scale": 400, "synth-lp": 200, "alike-audit": 600}


def main() -> int:
    desk = {}
    for kind, argv in gen.DESK_OPS.items():
        code, stdout, stderr, _ = run_cli(list(argv))
        desk[kind] = {"code": code, "stdout": stdout, "stderr": stderr}
    REFERENCE.mkdir(exist_ok=True)
    (REFERENCE / "desk.json").write_text(json.dumps(desk, indent=1) + "\n", encoding="utf-8")

    digests = {}
    with tempfile.TemporaryDirectory(dir=REFERENCE.parent) as tmp:
        work = Path(tmp)
        for workload, count in RECORDED_OPS.items():
            digests[workload] = []
            for index in range(count):
                op = gen.make_op(workload, DEFAULT_SEED, index)
                argv = gen.materialize(op, work)
                validate(op, work)
                code, stdout, stderr, _ = run_cli(argv)
                why = check_op(op, work, code, stdout, stderr, desk)
                if why:
                    print(f"{workload} op {index} ({op.kind}): {why}", file=sys.stderr)
                    return 1
                digests[workload].append(checks.digest(code, stdout, stderr))
            print(f"{workload}: {count} ops recorded")
    (REFERENCE / "digests.json").write_text(json.dumps(digests, indent=0) + "\n",
                                            encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
