"""Fig 8: PICS error versus sampling frequency.

The paper sweeps sampling frequency and finds accuracy insensitive above
4 kHz, which motivates 4 kHz as the default (balancing accuracy against
the run-time overhead modelled in :mod:`repro.core.overhead`). Our
periods are scaled like everything else; the reproduction target is the
shape: error flat-to-slowly-rising as the period grows, TEA lowest
everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.error import pics_error
from repro.core.events import event_mask
from repro.core.overhead import performance_overhead
from repro.experiments.runner import (
    TECHNIQUES,
    ExperimentRunner,
    format_table,
)
from repro.workloads import WORKLOAD_NAMES

#: Sweep periods (cycles). The paper's 4 kHz baseline maps to ~293 here;
#: smaller period = higher frequency.
SWEEP_PERIODS = (73, 151, 293, 601, 1201, 2403)


@dataclass
class FrequencyResult:
    """Mean error per technique per sampling period."""

    periods: tuple[int, ...]
    mean_errors: dict[str, dict[int, float]]  # technique -> period -> err


def sweep_runner(
    runner: ExperimentRunner,
    periods: tuple[int, ...] = SWEEP_PERIODS,
    techniques: tuple[str, ...] = TECHNIQUES,
) -> ExperimentRunner:
    """The Fig 8 plan on *runner*'s engine: *techniques*, each also
    attached at every sweep period."""
    return runner.derive(techniques=techniques, extra_periods=periods)


def run(
    runner: ExperimentRunner | None = None,
    names: tuple[str, ...] = WORKLOAD_NAMES,
    periods: tuple[int, ...] = SWEEP_PERIODS,
    techniques: tuple[str, ...] = TECHNIQUES,
) -> FrequencyResult:
    """Run the Fig 8 sweep (one simulation per benchmark, all periods
    attached out-of-band, exactly like the paper's methodology)."""
    runner = sweep_runner(runner or ExperimentRunner(), periods, techniques)
    sums: dict[str, dict[int, float]] = {
        t: {p: 0.0 for p in periods} for t in techniques
    }
    for name in names:
        bench = runner.run(name)
        golden = bench.golden
        for technique in techniques:
            for period in periods:
                sampler = bench.samplers[f"{technique}@{period}"]
                sums[technique][period] += pics_error(
                    sampler.profile(), golden, event_mask(sampler.events)
                )
    n = len(names)
    return FrequencyResult(
        periods=tuple(periods),
        mean_errors={
            t: {p: s / n for p, s in by_period.items()}
            for t, by_period in sums.items()
        },
    )


def format_result(result: FrequencyResult) -> str:
    """Render the Fig 8 table (rows: period; cols: technique)."""
    headers = ["period", "overhead"] + list(result.mean_errors)
    rows = []
    for period in result.periods:
        # Overhead uses the paper-scale equivalent period (x~2730 to map
        # our scaled periods back to the 800k-cycle 4 kHz baseline).
        scaled = period * 800_000 // 293
        rows.append(
            [str(period), f"{performance_overhead(scaled):5.2%}"]
            + [
                f"{result.mean_errors[t][period]:6.1%}"
                for t in result.mean_errors
            ]
        )
    return format_table(
        headers,
        rows,
        title="Fig 8: mean PICS error vs sampling period "
        "(smaller period = higher frequency)",
    )
