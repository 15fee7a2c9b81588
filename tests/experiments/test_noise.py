"""Tests for the sampling-noise experiment."""

import pytest

from repro.experiments import noise
from repro.experiments.noise import NoiseStats
from repro.experiments.runner import ExperimentRunner


def test_noise_stats_from_values():
    stats = NoiseStats.from_values([0.1, 0.2, 0.3])
    assert stats.mean == pytest.approx(0.2)
    assert stats.std == pytest.approx(0.0816496580927726)
    assert stats.runs == 3


def test_noise_stats_empty_rejected():
    with pytest.raises(ValueError):
        NoiseStats.from_values([])


def test_noise_run_structure():
    result = noise.run(
        ExperimentRunner(scale=0.1, period=101),
        names=("exchange2",),
        techniques=("TEA", "IBS"),
        seeds=(1, 2, 3),
    )
    assert set(result.stats) == {"exchange2"}
    stats = result.stats["exchange2"]
    assert set(stats) == {"TEA", "IBS"}
    for technique_stats in stats.values():
        assert technique_stats.runs == 3
        assert 0.0 <= technique_stats.mean <= 1.0
        assert technique_stats.std >= 0.0
    # TEA below IBS even at a tiny scale.
    assert stats["TEA"].mean < stats["IBS"].mean


def test_format_result():
    result = noise.run(
        ExperimentRunner(scale=0.1, period=101),
        names=("exchange2",),
        seeds=(1, 2),
    )
    text = noise.format_result(result)
    assert "exchange2" in text
    assert "+/-" in text


def test_noise_specs_share_each_benchmarks_machine_run():
    """One one-sampler spec per (benchmark, technique, seed), each
    watching the benchmark's one machine run -- the run every other
    artefact of the runner reads."""
    runner = ExperimentRunner(scale=0.05, period=67)
    specs = noise.specs(runner)
    assert len(specs) == (
        len(noise.NAMES) * len(noise.TECHNIQUES) * len(noise.SEEDS)
    )
    assert len({spec.key for spec in specs.values()}) == len(specs)
    assert {spec.simulation_key for spec in specs.values()} == {
        runner.spec(name).simulation_key for name in noise.NAMES
    }
