"""Sampling-noise error bars (methodology support for EXPERIMENTS.md).

Separates statistical from systematic error at this reproduction's
scaled-down run lengths: per-seed error spread must be small relative to
the TEA-vs-IBS gap, showing Fig 5's ordering is not sampling luck.
"""

import os

from repro.experiments import noise
from repro.experiments.runner import ExperimentRunner

SCALE = float(os.environ.get("TEA_BENCH_SCALE", "1.0"))
PERIOD = int(os.environ.get("TEA_BENCH_PERIOD", "293"))


def test_sampling_noise(benchmark, emit):
    result = benchmark.pedantic(
        lambda: noise.run(ExperimentRunner(scale=SCALE, period=PERIOD)),
        rounds=1,
        iterations=1,
    )
    emit("noise", noise.format_result(result))
    for name, by_technique in result.stats.items():
        tea = by_technique["TEA"]
        ibs = by_technique["IBS"]
        # The gap is systematic: even at mean + 3 sigma TEA stays far
        # below IBS at mean - 3 sigma.
        assert tea.mean + 3 * tea.std < ibs.mean - 3 * ibs.std, name
