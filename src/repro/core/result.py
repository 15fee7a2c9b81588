"""The result type every execution tier returns.

One :class:`CoreResult` answers for the detailed core, the functional
tier and (as the base of
:class:`~repro.backends.sampled.SampledResult`) the sampled tier, so
payloads, experiments and the CLI never branch on the tier. The tiers
differ in timing, not in the type of the answer: fields a tier does not
produce keep their defaults (the functional tier has no events, stalls
or flushes; only a live detailed run carries its memory hierarchy and
branch predictor).

A result rebuilt from the store may hold, instead of its program, a
zero-argument callable that returns it (see :class:`Resolved`): a
serve that never reads the program never builds it.

This module imports only :mod:`repro.core` and :mod:`repro.isa`, so the
uarch-free functional backend (tea-lint TL007) can build one.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any

from repro.core.pics import PicsProfile
from repro.core.states import CommitState
from repro.isa.interpreter import ArchState
from repro.isa.program import Program


class Resolved:
    """A dataclass field that holds a value or a zero-argument callable
    returning it. The callable is called on the first read, and its
    result replaces it, so every later read returns the same object.

    The field has no class-level default, so it stays a required
    argument of the generated ``__init__``.
    """

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name
        self.slot = f"_{name}"

    def __get__(self, obj: Any, owner: type | None = None) -> Any:
        if obj is None:
            raise AttributeError(self.name)
        value = obj.__dict__[self.slot]
        if callable(value):
            value = obj.__dict__[self.slot] = value()
        return value

    def __set__(self, obj: Any, value: Any) -> None:
        obj.__dict__[self.slot] = value


@dataclass
class FlushStats:
    """Pipeline-flush counts by cause."""

    mispredicts: int = 0
    serial: int = 0
    ordering: int = 0

    @property
    def total(self) -> int:
        """All flushes."""
        return self.mispredicts + self.serial + self.ordering


@dataclass
class CoreResult:
    """Everything a completed simulation produced.

    ``program`` also accepts a zero-argument callable returning the
    program, resolved on the first read (:class:`Resolved`).
    """

    program: Program = Resolved()
    cycles: int
    committed: int
    golden_raw: dict[tuple[int, int], float]
    exec_counts: dict[int, int]
    event_counts: dict[tuple[int, int], int] = field(default_factory=dict)
    stall_histogram: Counter = field(default_factory=Counter)
    evented_execs: int = 0
    combined_execs: int = 0
    flushes: FlushStats = field(default_factory=FlushStats)
    #: The live run's ``MemoryHierarchy`` and ``BranchPredictor``;
    #: ``None`` unless a detailed core produced this result directly
    #: (stored runs do not persist them).
    hierarchy: Any = None
    predictor: Any = None
    samplers: list = field(default_factory=list)
    state_cycles: dict[CommitState, int] = field(default_factory=dict)
    #: Final architectural state, set by the functional and sampled
    #: tiers (the differential gates' subject); not persisted.
    arch_state: ArchState | None = None

    @property
    def ipc(self) -> float:
        """Committed instructions per cycle."""
        return self.committed / self.cycles if self.cycles else 0.0

    def golden_profile(self) -> PicsProfile:
        """Golden-reference PICS at instruction granularity."""
        return PicsProfile.from_raw("golden", self.golden_raw)

    def sampler_profile(self, name: str) -> PicsProfile:
        """The PICS profile of an attached sampler, by technique name.

        Raises:
            KeyError: If no attached sampler has that name.
        """
        for sampler in self.samplers:
            if sampler.name == name:
                return sampler.profile()
        raise KeyError(f"no sampler named {name!r}")

    def combined_event_fraction(self) -> float:
        """Fraction of evented dynamic executions with combined events."""
        if not self.evented_execs:
            return 0.0
        return self.combined_execs / self.evented_execs

    def cpi_stack(self) -> dict[CommitState, float]:
        """Application-level cycle stack: share of cycles per commit
        state (the coarse, per-instruction-blind view of classic
        CPI-stack PMU architectures -- paper Section 7)."""
        if not self.cycles:
            return {state: 0.0 for state in CommitState}
        return {
            state: count / self.cycles
            for state, count in self.state_cycles.items()
        }
