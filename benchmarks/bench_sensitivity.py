"""Sensitivity sweeps behind the lbm case-study mechanisms.

The paper's lbm analysis rests on two microarchitectural claims:
(i) the ROB fills with compute and blocks the next iteration's loads
(so the critical load's latency is exposed); (ii) after prefetching,
the store queue is the bottleneck. These sweeps verify both mechanisms
in the model.
"""

import os

from repro.experiments import sensitivity
from repro.experiments.runner import ExperimentRunner

SCALE = float(os.environ.get("TEA_BENCH_SCALE", "1.0"))


def test_rob_size_sensitivity(benchmark, emit):
    result = benchmark.pedantic(
        lambda: sensitivity.rob_size_sweep(ExperimentRunner(scale=SCALE)),
        rounds=1,
        iterations=1,
    )
    emit("sensitivity_rob", sensitivity.format_result(result))
    by_size = {p.value: p for p in result.points}
    # A bigger window exposes more MLP: a small window makes lbm
    # clearly slower, and the largest window is the fastest overall.
    assert by_size[48].cycles > by_size[192].cycles
    assert by_size[768].cycles <= by_size[192].cycles
    # With a cramped window the machine drowns in DR-SQ back-pressure;
    # a big window all but eliminates it.
    assert by_size[48].dr_sq_share > by_size[768].dr_sq_share


def test_store_queue_sensitivity(benchmark, emit):
    result = benchmark.pedantic(
        lambda: sensitivity.store_queue_sweep(
            ExperimentRunner(scale=SCALE)
        ),
        rounds=1,
        iterations=1,
    )
    emit("sensitivity_sq", sensitivity.format_result(result))
    by_size = {p.value: p for p in result.points}
    # A tiny store queue throttles prefetched lbm hard...
    assert by_size[8].cycles > by_size[32].cycles
    # ...and its DR-SQ share is correspondingly higher.
    assert by_size[8].dr_sq_share > by_size[128].dr_sq_share