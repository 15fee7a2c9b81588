"""Human-readable summaries of a finished simulation.

`render_summary` prints the machine-level statistics a performance
engineer would check next to the PICS: IPC, commit-state cycle stack,
cache/TLB/branch/DRAM behaviour, and flush counts. Used by
``tea-repro profile``.
"""

from __future__ import annotations

from repro.core.result import CoreResult
from repro.core.states import CommitState


def _rate(part: float, whole: float) -> str:
    return f"{part / whole:.1%}" if whole else "n/a"


def render_summary(result: CoreResult) -> str:
    """A multi-line statistics summary of one run."""
    h = result.hierarchy
    lines = [
        f"program: {result.program.name}",
        f"cycles: {result.cycles:,}   instructions: "
        f"{result.committed:,}   IPC: {result.ipc:.2f}",
        "commit states: "
        + "  ".join(
            f"{state.name.lower()} "
            f"{result.state_cycles.get(state, 0) / result.cycles:.1%}"
            for state in CommitState
        ),
        f"flushes: {result.flushes.mispredicts} mispredicts, "
        f"{result.flushes.serial} serializing, "
        f"{result.flushes.ordering} ordering",
        f"branch mispredict rate: "
        f"{result.predictor.stats.mispredict_rate:.2%} "
        f"({result.predictor.stats.branches:,} branches)",
        f"L1I: {h.l1i.stats.accesses:,} accesses, miss rate "
        f"{h.l1i.stats.miss_rate:.2%}",
        f"L1D: {h.l1d.stats.accesses:,} accesses, miss rate "
        f"{h.l1d.stats.miss_rate:.2%}, "
        f"{h.l1d.stats.writebacks:,} writebacks, "
        f"{h.l1d.stats.prefetch_fills:,} prefetch fills",
        f"LLC: {h.llc.stats.accesses:,} accesses, miss rate "
        f"{h.llc.stats.miss_rate:.2%}",
        f"D-TLB: miss rate {h.dtlb.stats.miss_rate:.2%}, "
        f"{h.dtlb.stats.walks:,} walks   "
        f"I-TLB: miss rate {h.itlb.stats.miss_rate:.2%}",
        f"DRAM: {h.dram.stats.reads:,} line reads, "
        f"{h.dram.stats.writes:,} line writes, avg queue "
        f"{h.dram.stats.avg_queue_delay:.1f} cycles",
        f"evented executions: {_rate(result.evented_execs, result.committed)}"
        f" of commits; combined share of evented: "
        f"{result.combined_event_fraction():.1%}",
    ]
    return "\n".join(lines)
