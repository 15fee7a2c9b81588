"""Multicore simulation: per-core pipelines sharing the LLC and DRAM.

The paper notes TEA needs "one TEA unit per physical core" and that its
samples carry logical-core/process identifiers, so per-thread PICS come
for free. This module demonstrates that -- and enables a result the
paper does not show: *interference analysis*. Co-running workloads share
the LLC and the DRAM channel; a victim's PICS visibly shift toward
ST-LLC-bearing categories when a memory-hungry neighbour evicts its
lines, quantifying exactly which instructions pay for the contention.

Cores execute in loose lockstep: each scheduling step advances the
core with the smallest local clock, with fast-forwarding capped a
``quantum`` beyond its peers so shared-structure timestamps stay
near-monotonic.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.result import CoreResult
from repro.memory.cache import SetAssocCache
from repro.memory.dram import Dram
from repro.memory.hierarchy import MemoryHierarchy
from repro.uarch.config import CoreConfig
from repro.uarch.core import Core, SimulationError
from repro.workloads.base import Workload


@dataclass
class CoreSlot:
    """One hardware context: a workload plus its samplers."""

    workload: Workload
    samplers: list = None

    def __post_init__(self):
        if self.samplers is None:
            self.samplers = []


class MultiCoreSystem:
    """N cores with private L1s/TLBs and a shared LLC + DRAM channel.

    Args:
        slots: One :class:`CoreSlot` per core.
        config: Per-core configuration (Table 2 defaults).
        quantum: Maximum clock skew (cycles) allowed between cores.
    """

    def __init__(
        self,
        slots: list[CoreSlot],
        config: CoreConfig | None = None,
        quantum: int = 64,
    ) -> None:
        if not slots:
            raise ValueError("need at least one core slot")
        self.config = config or CoreConfig()
        self.quantum = quantum
        mem = self.config.memory
        self.shared_llc = SetAssocCache(
            "LLC", mem.llc_size, mem.llc_assoc, mem.line_bytes,
            mem.llc_mshrs,
        )
        self.shared_dram = Dram(
            mem.dram_latency, mem.dram_cycles_per_line
        )
        self.cores: list[Core] = []
        for slot in slots:
            hierarchy = MemoryHierarchy(
                mem,
                shared_llc=self.shared_llc,
                shared_dram=self.shared_dram,
            )
            self.cores.append(
                Core(
                    slot.workload.program,
                    config=self.config,
                    samplers=slot.samplers,
                    arch_state=slot.workload.fresh_state(),
                    hierarchy=hierarchy,
                )
            )

    def run(self, max_cycles: int = 500_000_000) -> list[CoreResult]:
        """Run every core to completion; returns one result per core.

        Cores that finish early stop consuming cycles (their clocks
        freeze); the rest continue against the shared LLC/DRAM.

        Raises:
            SimulationError: If any core exceeds *max_cycles*.
        """
        for core in self.cores:
            core.start()
        active = [c for c in self.cores if c.active()]
        while active:
            # Advance the core with the smallest local clock; cap its
            # fast-forward a quantum past the next-slowest peer.
            core = min(active, key=lambda c: c.cycle)
            if core.cycle >= max_cycles:
                raise SimulationError(
                    f"{core.program.name}: exceeded {max_cycles} cycles"
                )
            others = [c.cycle for c in active if c is not core]
            horizon = (
                min(others) + self.quantum if others else None
            )
            core.step(horizon)
            if not core.active():
                core.finish()
                active = [c for c in active if c is not core]
        return [core.result() for core in self.cores]


def co_run(
    workloads: list[Workload],
    samplers_per_core: list[list] | None = None,
    config: CoreConfig | None = None,
) -> list[CoreResult]:
    """Convenience: co-run workloads on one shared-LLC system."""
    slots = [
        CoreSlot(
            workload=workload,
            samplers=(
                samplers_per_core[i] if samplers_per_core else []
            ),
        )
        for i, workload in enumerate(workloads)
    ]
    return MultiCoreSystem(slots, config=config).run()
