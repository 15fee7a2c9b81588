"""TIP vs TEA: profiling alone answers Q1 but not Q2 (paper Sections
1-2).

TIP (the paper's baseline, MICRO 2021) uses the same time-proportional
attribution as TEA but carries no PSVs. Measured against the golden
reference with the event dimension *erased* (mask 0), TIP and TEA are
equally accurate -- both answer Q1, "which instructions take time".
Measured against the full event-aware golden reference, TIP's stacks are
all Base: the gap between its two errors is precisely the Q2 information
("why") that TEA adds for 242 extra bytes of state.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.error import pics_error
from repro.core.events import FULL_MASK
from repro.experiments.runner import ExperimentRunner, format_table
from repro.workloads import WORKLOAD_NAMES


@dataclass
class TipComparison:
    """Q1-only and full (Q1+Q2) errors for TIP and TEA."""

    q1_errors: dict[str, dict[str, float]]  # benchmark -> technique -> e
    full_errors: dict[str, dict[str, float]]

    def mean(self, table: str, technique: str) -> float:
        """Mean error over benchmarks for one technique/table."""
        data = self.q1_errors if table == "q1" else self.full_errors
        values = [row[technique] for row in data.values()]
        return sum(values) / len(values)


#: The techniques the comparison attaches.
TIP_TECHNIQUES = ("TEA", "TIP")


def tip_runner(runner: ExperimentRunner) -> ExperimentRunner:
    """The comparison's plan on *runner*'s engine: TEA and TIP, no
    sweep periods."""
    return runner.derive(techniques=TIP_TECHNIQUES, extra_periods=())


def run(
    runner: ExperimentRunner | None = None,
    names: tuple[str, ...] = WORKLOAD_NAMES,
) -> TipComparison:
    """Run the TIP-vs-TEA comparison."""
    runner = tip_runner(runner or ExperimentRunner())
    q1: dict[str, dict[str, float]] = {}
    full: dict[str, dict[str, float]] = {}
    for name in names:
        bench = runner.run(name)
        golden = bench.golden
        q1[name] = {}
        full[name] = {}
        for technique in TIP_TECHNIQUES:
            profile = bench.samplers[technique].profile()
            # Q1: collapse the event dimension entirely.
            q1[name][technique] = pics_error(profile, golden, 0)
            # Q1+Q2: the full event-aware comparison.
            full[name][technique] = pics_error(
                profile, golden, FULL_MASK
            )
    return TipComparison(q1_errors=q1, full_errors=full)


def format_result(result: TipComparison) -> str:
    """Render the comparison table."""
    headers = [
        "benchmark", "TIP Q1", "TEA Q1", "TIP Q1+Q2", "TEA Q1+Q2",
    ]
    rows = []
    for name in sorted(result.q1_errors):
        rows.append(
            [
                name,
                f"{result.q1_errors[name]['TIP']:6.1%}",
                f"{result.q1_errors[name]['TEA']:6.1%}",
                f"{result.full_errors[name]['TIP']:6.1%}",
                f"{result.full_errors[name]['TEA']:6.1%}",
            ]
        )
    rows.append(
        [
            "average",
            f"{result.mean('q1', 'TIP'):6.1%}",
            f"{result.mean('q1', 'TEA'):6.1%}",
            f"{result.mean('full', 'TIP'):6.1%}",
            f"{result.mean('full', 'TEA'):6.1%}",
        ]
    )
    return format_table(
        headers,
        rows,
        title="TIP vs TEA: profiling answers Q1; only PICS answer Q2",
    )
