"""Per-Instruction Cycle Stacks (PICS) and granularity aggregation.

A :class:`PicsProfile` maps a profile *unit* (static instruction index,
basic-block leader, function name, or the whole application) to a cycle
stack: a mapping from PSV signature (int bitmask) to attributed cycles.
The stack height of a unit is its contribution to execution time (paper
question Q1); the per-signature components explain why (Q2).
"""

from __future__ import annotations

import enum
from collections.abc import Hashable, Iterable, Mapping

from repro.core.psv import project_psv, signature_name
from repro.isa.program import Program

#: A cycle stack: PSV signature -> attributed cycles.
CycleStack = dict[int, float]
#: Raw sample/attribution accumulator: (instr index, psv) -> cycles.
RawProfile = dict[tuple[int, int], float]


class Granularity(enum.Enum):
    """Aggregation granularity for cycle stacks (paper Section 5.4)."""

    INSTRUCTION = "instruction"
    BASIC_BLOCK = "basic_block"
    FUNCTION = "function"
    APPLICATION = "application"


class PicsProfile:
    """A set of per-unit cycle stacks.

    The constructor copies *stacks*, so the profile never shares a dict
    with its caller. The methods that derive a profile build fresh
    stacks and hand them over through :meth:`_adopt` instead.

    Args:
        name: Technique name that produced the profile ("TEA", "golden"...).
        stacks: unit -> (signature -> cycles).
        granularity: What the unit keys mean.
    """

    def __init__(
        self,
        name: str,
        stacks: Mapping[Hashable, CycleStack],
        granularity: Granularity = Granularity.INSTRUCTION,
    ) -> None:
        self.name = name
        self.stacks: dict[Hashable, CycleStack] = {
            unit: dict(stack) for unit, stack in stacks.items()
        }
        self.granularity = granularity

    # ------------------------------------------------------------------
    # Construction.
    # ------------------------------------------------------------------
    @classmethod
    def _adopt(
        cls,
        name: str,
        stacks: dict[Hashable, CycleStack],
        granularity: Granularity = Granularity.INSTRUCTION,
    ) -> "PicsProfile":
        """A profile that keeps *stacks* itself, without the copy.

        Only for stacks the caller has just built and shares with no
        one.
        """
        profile = cls.__new__(cls)
        profile.name = name
        profile.stacks = stacks
        profile.granularity = granularity
        return profile

    @classmethod
    def from_raw(
        cls, name: str, raw: RawProfile | Mapping[tuple[int, int], float]
    ) -> "PicsProfile":
        """Build an instruction-granularity profile from a raw accumulator."""
        stacks: dict[Hashable, CycleStack] = {}
        for (index, psv), cycles in raw.items():
            stack = stacks.setdefault(index, {})
            stack[psv] = stack.get(psv, 0.0) + cycles
        return cls._adopt(name, stacks)

    # ------------------------------------------------------------------
    # Basic queries.
    # ------------------------------------------------------------------
    def total(self) -> float:
        """Total attributed cycles across all units and signatures."""
        return sum(sum(s.values()) for s in self.stacks.values())

    def height(self, unit: Hashable) -> float:
        """Stack height (total cycles) of one unit; 0 if absent."""
        return sum(self.stacks.get(unit, {}).values())

    def top_units(self, n: int) -> list[Hashable]:
        """The *n* units with the tallest stacks, tallest first."""
        return sorted(self.stacks, key=self.height, reverse=True)[:n]

    def units(self) -> Iterable[Hashable]:
        """All units with a stack."""
        return self.stacks.keys()

    def component(self, unit: Hashable, psv: int) -> float:
        """Cycles of one signature component of one unit."""
        return self.stacks.get(unit, {}).get(psv, 0.0)

    def named_stack(self, unit: Hashable) -> dict[str, float]:
        """One unit's stack keyed by human-readable signature names."""
        return {
            signature_name(psv): cycles
            for psv, cycles in sorted(self.stacks.get(unit, {}).items())
        }

    # ------------------------------------------------------------------
    # Transformations.
    # ------------------------------------------------------------------
    def project(self, mask: int) -> "PicsProfile":
        """Merge signatures down to the events in *mask*.

        Used to compare a technique with a restricted event set against a
        golden reference with the same components (paper Section 4).
        """
        stacks: dict[Hashable, CycleStack] = {}
        for unit, stack in self.stacks.items():
            new_stack: CycleStack = {}
            for psv, cycles in stack.items():
                key = project_psv(psv, mask)
                new_stack[key] = new_stack.get(key, 0.0) + cycles
            stacks[unit] = new_stack
        return PicsProfile._adopt(self.name, stacks, self.granularity)

    def scaled(self, target_total: float) -> "PicsProfile":
        """Scale all components so the profile total equals *target_total*.

        Sampled profiles are normalised to the golden total before error
        computation so the metric measures (mis)attribution rather than
        sample-count bookkeeping.
        """
        current = self.total()
        if current <= 0:
            return PicsProfile._adopt(self.name, {}, self.granularity)
        factor = target_total / current
        stacks = {
            unit: {psv: cycles * factor for psv, cycles in stack.items()}
            for unit, stack in self.stacks.items()
        }
        return PicsProfile._adopt(self.name, stacks, self.granularity)

    def aggregate(
        self, program: Program, granularity: Granularity
    ) -> "PicsProfile":
        """Re-key an instruction-granularity profile at *granularity*.

        Raises:
            ValueError: If this profile is not instruction-granularity.
        """
        if self.granularity != Granularity.INSTRUCTION:
            raise ValueError(
                "aggregate() requires an instruction-granularity profile; "
                f"got {self.granularity}"
            )
        if granularity == Granularity.INSTRUCTION:
            # A copy: the new profile must not share this one's stacks.
            return PicsProfile(self.name, self.stacks, granularity)

        def key_of(index: int) -> Hashable:
            if granularity == Granularity.BASIC_BLOCK:
                return program.bb_of(index)
            if granularity == Granularity.FUNCTION:
                return program.func_of(index)
            return program.name  # APPLICATION

        stacks: dict[Hashable, CycleStack] = {}
        for index, stack in self.stacks.items():
            unit = key_of(index)
            target = stacks.setdefault(unit, {})
            for psv, cycles in stack.items():
                target[psv] = target.get(psv, 0.0) + cycles
        return PicsProfile._adopt(self.name, stacks, granularity)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PicsProfile({self.name!r}, units={len(self.stacks)}, "
            f"total={self.total():.0f}, {self.granularity.value})"
        )
