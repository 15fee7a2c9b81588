"""Sampling-noise quantification: error bars over sampler seeds.

The reproduction runs ~10^3x fewer samples than the paper, so a share of
every reported error is statistical rather than systematic. This
experiment separates the two: each technique is run with *k* independent
sampler seeds (jitter phases and tag-slot choices differ; the simulated
cycles are identical) and the per-benchmark error is reported as
mean +/- standard deviation. TEA's mean falling with tight deviations,
while IBS's stays high with equally tight deviations, shows the Fig 5
gap is systematic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.engine import RunSpec
from repro.experiments.runner import ExperimentRunner, format_table

#: The benchmarks, techniques and sampler seeds of the sweep.
NAMES = ("lbm", "omnetpp", "exchange2")
TECHNIQUES = ("TEA", "IBS")
SEEDS = (11, 22, 33, 44, 55)


@dataclass
class NoiseStats:
    """Error distribution of one technique on one benchmark."""

    mean: float
    std: float
    runs: int

    @classmethod
    def from_values(cls, values: list[float]) -> "NoiseStats":
        """Mean and (population) standard deviation."""
        if not values:
            raise ValueError("no values")
        mean = sum(values) / len(values)
        variance = sum((v - mean) ** 2 for v in values) / len(values)
        return cls(mean=mean, std=math.sqrt(variance), runs=len(values))


@dataclass
class NoiseResult:
    """benchmark -> technique -> error distribution."""

    stats: dict[str, dict[str, NoiseStats]]
    seeds: tuple[int, ...]


def specs(
    runner: ExperimentRunner,
    names: tuple[str, ...] = NAMES,
    techniques: tuple[str, ...] = TECHNIQUES,
    seeds: tuple[int, ...] = SEEDS,
) -> dict[str, RunSpec]:
    """One spec per (benchmark, technique, seed), labelled
    ``name:technique:seed``, each attaching that one sampler.

    The specs of a benchmark differ only in their sampler plans, so the
    engine simulates each benchmark once with all of them attached.
    """
    return {
        f"{name}:{technique}:{seed}": RunSpec.make(
            name,
            scale=runner.scale,
            period=runner.period,
            config=runner.config,
            techniques=(technique,),
            extra_periods=(),
            seed=seed,
        )
        for name in names
        for technique in techniques
        for seed in seeds
    }


def run(
    runner: ExperimentRunner,
    names: tuple[str, ...] = NAMES,
    techniques: tuple[str, ...] = TECHNIQUES,
    seeds: tuple[int, ...] = SEEDS,
) -> NoiseResult:
    """Run the seed sweep on the runner's engine (one simulation per
    benchmark: all seeds' samplers watch the same cycles)."""
    runs = runner.engine.run_suite(specs(runner, names, techniques, seeds))
    stats: dict[str, dict[str, NoiseStats]] = {}
    for name in names:
        stats[name] = {
            technique: NoiseStats.from_values([
                runs[f"{name}:{technique}:{seed}"].error(technique)
                for seed in seeds
            ])
            for technique in techniques
        }
    return NoiseResult(stats=stats, seeds=seeds)


def format_result(result: NoiseResult) -> str:
    """Render the mean +/- std table."""
    techniques = list(next(iter(result.stats.values())))
    headers = ["benchmark"] + [
        f"{t} (mean +/- std)" for t in techniques
    ]
    rows = []
    for name, by_technique in sorted(result.stats.items()):
        rows.append(
            [name]
            + [
                f"{s.mean:6.1%} +/- {s.std:5.1%}"
                for s in (by_technique[t] for t in techniques)
            ]
        )
    return format_table(
        headers,
        rows,
        title=f"Sampling noise over {len(result.seeds)} sampler seeds "
        "(identical simulated cycles)",
    )
