"""The speed probe that normalizes benchmark times.

The machines the benchmark runs on share their cores with other tenants,
and their speed drifts for seconds to minutes at a time between levels up
to 2x apart. A fixed piece of interpreter-bound work (dictionary updates
on tuple keys, a sort and a sum), timed next to each measurement, tracks
that drift; a time divided by the probe's time and multiplied by
REFERENCE_PROBE_S is the time the work would take on a machine where the
probe takes REFERENCE_PROBE_S, which is about what it takes on a quiet
core of the 2-vCPU machine the benchmark was built on.
"""

from __future__ import annotations

import math
import time

REFERENCE_PROBE_S = 0.00045
_KEYS = [(k % 97, k % 89) for k in range(1000)]


def probe() -> float:
    """Wall time of the fixed work, fastest of two runs."""
    fastest = math.inf
    for _ in range(2):
        start = time.perf_counter()
        counts: dict[tuple[int, int], int] = {}
        for key in _KEYS:
            counts[key] = counts.get(key, 0) + 1
        sum(value for _, value in sorted(counts.items()))
        fastest = min(fastest, time.perf_counter() - start)
    return fastest


def normalize(seconds: float, before: float, after: float) -> float:
    """``seconds`` at the reference speed, given the probes on either side of it."""
    return seconds * REFERENCE_PROBE_S / ((before + after) / 2)
