"""Statistics shared by ``run.py`` and ``compare.py``."""

from __future__ import annotations

import json
import math
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Samples a reported tail percentile must leave beyond it.
TAIL_SAMPLES_BEYOND = 10

#: End-to-end metrics ``BENCHMARK.json`` cannot list, because a metric
#: listed there is reported on every workload and is never 0. They are
#: printed, written by ``--out`` and compared like the listed ones;
#: a value of None means "not defined on this workload".
EXTRA_END_TO_END = (
    {"name": "fail_rate", "unit": "1", "better": "lower", "bound": 0.0},
    {"name": "serve_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1},
    {"name": "serve_p95_ms", "unit": "ms", "better": "lower", "bound": 0.1},
    {"name": "sampled_cyc_err_pct", "unit": "%", "better": "lower",
     "bound": 0.0},
)

#: Metrics that repeat exactly for a given seed and model. A change in
#: one of them between two sets of runs means the model changed.
DETERMINISTIC = frozenset({
    "tea_err_pct", "sampled_cyc_err_pct",
    "memory.l1d_accesses", "memory.l1d_miss_ratio", "memory.llc_miss_ratio",
    "memory.dram_reads", "branch.mispredicts", "core.samples_taken",
    "core.samples_dropped", "backends.windows", "backends.detailed_frac",
    "engine.store_hits",
})


def benchmark_spec() -> dict:
    """The parsed ``BENCHMARK.json`` at the repository root."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def tail_samples(p: float) -> int:
    """The fewest samples that leave :data:`TAIL_SAMPLES_BEYOND` of them
    beyond the *p*-th percentile."""
    return math.ceil(TAIL_SAMPLES_BEYOND * 100 / (100 - p))


def percentile(values: list[float], p: float) -> float:
    """The *p*-th percentile (nearest rank) of *values*."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0
