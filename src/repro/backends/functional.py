"""The functional backend: atomic execution, architectural state only.

The AtomicSimpleCPU of the tier hierarchy: every instruction executes
and commits in one cycle, there is no pipeline, no event heap, no
speculation and no memory timing -- just the shared functional
interpreter advancing architectural state, plus per-instruction commit
counting so the result still renders as a (timeless) profile.

Because the interpreter is the *same* one the detailed core replays,
the final architectural state here is bit-identical to a detailed run
by construction; the differential gate in ``tests/backends`` and CI's
``backend-diff`` job verify exactly that on all 15 workloads.

This module must stay free of ``repro.uarch`` imports (tea-lint TL007):
it defines its own neutral result types instead of borrowing the
timing model's.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import compress

from repro import obs
from repro.backends.base import ExecutionBackend
from repro.core.pics import PicsProfile
from repro.core.states import CommitState
from repro.isa.interpreter import ArchState
from repro.isa.program import Program
from repro.isa.semantics import InstStream


@dataclass
class FlushCounts:
    """Pipeline-flush counts by cause (all zero: nothing speculates)."""

    mispredicts: int = 0
    serial: int = 0
    ordering: int = 0

    @property
    def total(self) -> int:
        """All flushes."""
        return self.mispredicts + self.serial + self.ordering


@dataclass
class FunctionalResult:
    """A completed functional run, on the ``CoreResult`` surface.

    ``cycles == committed`` (IPC 1 by definition), every attribution
    lands on the event-free signature, and there is no warm
    microarchitectural state to report.
    """

    program: Program
    cycles: int
    committed: int
    golden_raw: dict[tuple[int, int], float]
    exec_counts: dict[int, int]
    event_counts: dict[tuple[int, int], int] = field(default_factory=dict)
    stall_histogram: Counter = field(default_factory=Counter)
    evented_execs: int = 0
    combined_execs: int = 0
    flushes: FlushCounts = field(default_factory=FlushCounts)
    hierarchy: object = None
    predictor: object = None
    samplers: list = field(default_factory=list)
    state_cycles: dict[CommitState, int] = field(default_factory=dict)
    #: Final architectural state (the differential-gate subject).
    arch_state: ArchState | None = None

    @property
    def ipc(self) -> float:
        """Committed instructions per cycle (1.0 by construction)."""
        return self.committed / self.cycles if self.cycles else 0.0

    def golden_profile(self) -> PicsProfile:
        """The commit-count profile (each execution weighs one cycle)."""
        return PicsProfile.from_raw("golden", self.golden_raw)

    def sampler_profile(self, name: str) -> PicsProfile:
        """Samplers never attach to the functional tier.

        Raises:
            KeyError: Always.
        """
        raise KeyError(f"no sampler named {name!r}")

    def combined_event_fraction(self) -> float:
        """Fraction of evented executions with combined events (0)."""
        return 0.0

    def cpi_stack(self) -> dict[CommitState, float]:
        """Degenerate cycle stack: every cycle commits."""
        if not self.cycles:
            return {state: 0.0 for state in CommitState}
        return {
            state: count / self.cycles
            for state, count in self.state_cycles.items()
        }


def simulate_functional(
    program: Program,
    config=None,
    arch_state: ArchState | None = None,
    max_insts: int = 50_000_000,
    stream: InstStream | None = None,
) -> FunctionalResult:
    """Execute *program* atomically and return the functional result.

    Args:
        config: Accepted for signature uniformity across backends;
            the functional tier has no timing to configure.
        stream: An existing stream to drain (the sampled backend's
            fast-forward); a fresh one is built otherwise.
    """
    del config  # no timing model, nothing to configure
    if stream is None:
        stream = InstStream(program, arch_state, max_insts)
    counts = [0] * len(program)
    take = stream.take
    committed = 0
    if obs.enabled():
        # Instrumented twin of the loop below: same take/count order,
        # plus a progress beat every PROGRESS_EVERY_INSTS committed
        # instructions (counts only -- no clock reads here, TL003).
        beat_mask = obs.PROGRESS_EVERY_INSTS - 1
        while True:
            dyn = take()
            if dyn is None:
                break
            counts[dyn.static.index] += 1
            committed += 1
            if not committed & beat_mask:
                obs.report_progress(
                    program.name, "functional", committed, committed
                )
    else:
        while True:
            dyn = take()
            if dyn is None:
                break
            counts[dyn.static.index] += 1
            committed += 1
    # compress() skips never-executed indices in C, in ascending order.
    exec_counts = {i: counts[i] for i in compress(range(len(counts)), counts)}
    golden_raw = {(i, 0): float(c) for i, c in exec_counts.items()}
    state_cycles = {state: 0 for state in CommitState}
    state_cycles[CommitState.COMPUTE] = committed
    return FunctionalResult(
        program=program,
        cycles=committed,
        committed=committed,
        golden_raw=golden_raw,
        exec_counts=exec_counts,
        state_cycles=state_cycles,
        arch_state=stream.state,
    )


class FunctionalBackend(ExecutionBackend):
    """The functional tier as an :class:`ExecutionBackend`."""

    name = "functional"

    def simulate(
        self,
        program,
        config=None,
        samplers=(),
        arch_state=None,
        max_cycles: int = 500_000_000,
    ) -> FunctionalResult:
        """Run atomically; samplers are rejected (nothing to sample)."""
        if list(samplers):
            raise ValueError(
                "the functional backend has no cycle-level behaviour "
                "to sample"
            )
        del max_cycles  # cycles == instructions; max_insts bounds those
        return simulate_functional(program, config, arch_state=arch_state)
