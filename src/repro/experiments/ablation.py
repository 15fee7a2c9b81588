"""Ablations called out by the paper.

1. **TEA-at-dispatch** (Section 5): the paper notes a TEA variant that
   tags instructions at dispatch "yields similar accuracy to IBS, SPE,
   and RIS" -- i.e. TEA's event set is not what makes it accurate, its
   time-proportional sampling is.

2. **Event-set width** (Fig 3 / Section 3): sweeping the PSV bit budget
   through the event hierarchy trades interpretability (the fraction of
   non-compute cycles that carry at least one explaining event, and the
   error a restricted golden reference would incur against the full one)
   against storage.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.error import pics_error
from repro.core.events import Event, event_mask, select_event_set
from repro.experiments.runner import ExperimentRunner, format_table
from repro.workloads import WORKLOAD_NAMES


# ----------------------------------------------------------------------
# Ablation 1: TEA tagging at dispatch.
# ----------------------------------------------------------------------
@dataclass
class DispatchTeaResult:
    """Mean errors of TEA, TEA-dispatch, and IBS."""

    mean_errors: dict[str, float]
    per_benchmark: dict[str, dict[str, float]]


#: The techniques the dispatch ablation compares.
DISPATCH_TECHNIQUES = ("TEA", "TEA-dispatch", "IBS")


def dispatch_runner(runner: ExperimentRunner) -> ExperimentRunner:
    """The dispatch ablation's plan on *runner*'s engine: its three
    techniques and no sweep periods."""
    return runner.derive(techniques=DISPATCH_TECHNIQUES, extra_periods=())


def run_dispatch_tea(
    runner: ExperimentRunner | None = None,
    names: tuple[str, ...] = WORKLOAD_NAMES,
) -> DispatchTeaResult:
    """Compare TEA vs its dispatch-tagging variant vs IBS."""
    runner = dispatch_runner(runner or ExperimentRunner())
    per_benchmark: dict[str, dict[str, float]] = {}
    for name in names:
        bench = runner.run(name)
        per_benchmark[name] = {
            t: bench.error(t) for t in DISPATCH_TECHNIQUES
        }
    mean = {
        t: sum(row[t] for row in per_benchmark.values())
        / len(per_benchmark)
        for t in DISPATCH_TECHNIQUES
    }
    return DispatchTeaResult(mean_errors=mean, per_benchmark=per_benchmark)


def format_dispatch_tea(result: DispatchTeaResult) -> str:
    """Render ablation 1."""
    headers = ["benchmark", "TEA", "TEA-dispatch", "IBS"]
    rows = [
        [name] + [f"{row[t]:6.1%}" for t in headers[1:]]
        for name, row in sorted(result.per_benchmark.items())
    ]
    rows.append(
        ["average"]
        + [f"{result.mean_errors[t]:6.1%}" for t in headers[1:]]
    )
    return format_table(
        headers,
        rows,
        title="Ablation: tagging TEA's events at dispatch forfeits its "
        "accuracy (Sec 5)",
    )


# ----------------------------------------------------------------------
# Ablation 2: PSV width vs interpretability.
# ----------------------------------------------------------------------
@dataclass
class EventSetPoint:
    """One PSV-width budget point."""

    bits: int
    events: tuple[str, ...]
    explained_fraction: float  # evented share of non-compute cycles kept
    error_vs_full: float  # error of the projected golden vs full golden


@dataclass
class EventSetResult:
    """The Fig 3 trade-off sweep."""

    points: list[EventSetPoint]


def run_event_sets(
    runner: ExperimentRunner | None = None,
    names: tuple[str, ...] = WORKLOAD_NAMES,
    budgets: tuple[int, ...] = (0, 1, 2, 3, 4, 5, 6, 7, 8, 9),
) -> EventSetResult:
    """Sweep the PSV bit budget through the event hierarchy."""
    runner = runner or ExperimentRunner()
    goldens = [runner.run(name).golden for name in names]
    full_mask = event_mask(frozenset(Event))
    points = []
    for bits in budgets:
        selected = select_event_set(bits)
        mask = event_mask(selected)
        explained = 0.0
        evented_total = 0.0
        error_sum = 0.0
        for golden in goldens:
            for stack in golden.stacks.values():
                for psv, cycles in stack.items():
                    if psv:  # cycles carrying at least one event
                        evented_total += cycles
                        if psv & mask:
                            explained += cycles
            error_sum += pics_error(
                golden.project(mask), golden, full_mask, normalize=False
            )
        points.append(
            EventSetPoint(
                bits=bits,
                events=tuple(
                    e.display_name for e in sorted(selected)
                ),
                explained_fraction=(
                    explained / evented_total if evented_total else 0.0
                ),
                # pics_error sums the correctly attributed cycles in
                # another order than the total, so the full-width
                # projection can land a rounding step below zero
                # (-1.3e-17 at scale 1.0), which prints as -0.0%.
                error_vs_full=max(0.0, error_sum / len(goldens)),
            )
        )
    return EventSetResult(points=points)


def format_event_sets(result: EventSetResult) -> str:
    """Render ablation 2."""
    headers = ["bits", "explained", "error vs 9-bit", "events"]
    rows = [
        [
            str(p.bits),
            f"{p.explained_fraction:6.1%}",
            f"{p.error_vs_full:6.1%}",
            ", ".join(p.events) if p.events else "(none)",
        ]
        for p in result.points
    ]
    return format_table(
        headers,
        rows,
        title="Ablation: PSV width vs interpretability "
        "(event hierarchy of Fig 3)",
    )
