"""The Top-Down method (Yasin, ISPASS 2014) as an event-driven baseline.

The paper's related work (Section 7) positions Top-Down analysis as "a
restricted form of a cycle stack": it classifies *pipeline slots* into
Retiring / Bad Speculation / Frontend Bound / Backend Bound, telling a
developer what *kind* of bottleneck dominates but not *which
instructions* cause it. Implementing it over the simulated core's
commit-state statistics makes the contrast concrete: the same run that
yields a Top-Down classification yields PICS that actually localise the
problem (see ``tea-repro topdown`` and its targets in
``benchmarks/bench_artefacts.py``).

Slot accounting (commit-centric adaptation):

* ``retiring``        -- slots that committed an instruction;
* ``bad_speculation`` -- slots of Flushed cycles (the pipeline emptied
  by a mispredict/exception/ordering flush) plus unused slots of the
  cycles in which a flush-causing instruction committed;
* ``frontend_bound``  -- slots of Drained cycles (ROB empty, fetch
  starved);
* ``backend_bound``   -- slots of Stalled cycles plus the unused commit
  slots of partially-filled Compute cycles.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.result import CoreResult
from repro.core.states import CommitState


@dataclass
class TopDownResult:
    """Level-1 Top-Down breakdown (fractions of all commit slots)."""

    retiring: float
    bad_speculation: float
    frontend_bound: float
    backend_bound: float

    @property
    def dominant(self) -> str:
        """Name of the dominant category."""
        categories = {
            "retiring": self.retiring,
            "bad_speculation": self.bad_speculation,
            "frontend_bound": self.frontend_bound,
            "backend_bound": self.backend_bound,
        }
        return max(categories, key=categories.get)

    def as_dict(self) -> dict[str, float]:
        """The four fractions as a plain dict."""
        return {
            "retiring": self.retiring,
            "bad_speculation": self.bad_speculation,
            "frontend_bound": self.frontend_bound,
            "backend_bound": self.backend_bound,
        }


def top_down(result: CoreResult, commit_width: int = 4) -> TopDownResult:
    """Compute the level-1 Top-Down breakdown of a finished run.

    Raises:
        ValueError: If the run has no cycles.
    """
    if result.cycles <= 0:
        raise ValueError("empty run")
    slots = result.cycles * commit_width
    retiring = result.committed

    flushed_cycles = result.state_cycles.get(CommitState.FLUSHED, 0)
    drained_cycles = result.state_cycles.get(CommitState.DRAINED, 0)
    stalled_cycles = result.state_cycles.get(CommitState.STALLED, 0)
    compute_cycles = result.state_cycles.get(CommitState.COMPUTE, 0)

    bad_speculation = flushed_cycles * commit_width
    frontend_bound = drained_cycles * commit_width
    compute_idle = max(compute_cycles * commit_width - retiring, 0)
    backend_bound = stalled_cycles * commit_width + compute_idle

    return TopDownResult(
        retiring=retiring / slots,
        bad_speculation=bad_speculation / slots,
        frontend_bound=frontend_bound / slots,
        backend_bound=backend_bound / slots,
    )


def format_top_down(
    breakdowns: dict[str, TopDownResult],
) -> str:
    """Render a per-benchmark Top-Down table."""
    from repro.experiments.runner import format_table

    headers = [
        "benchmark", "retiring", "bad spec", "frontend", "backend",
        "dominant",
    ]
    rows = [
        [
            name,
            f"{td.retiring:6.1%}",
            f"{td.bad_speculation:6.1%}",
            f"{td.frontend_bound:6.1%}",
            f"{td.backend_bound:6.1%}",
            td.dominant,
        ]
        for name, td in sorted(breakdowns.items())
    ]
    return format_table(
        headers,
        rows,
        title="Top-Down (level 1) classification -- what it can say; "
        "PICS say which instructions and why",
    )
