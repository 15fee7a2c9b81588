"""Assembled program representation with symbol information.

A :class:`Program` is an immutable list of :class:`~repro.isa.instructions.
StaticInst` plus the symbol tables needed by profile aggregation: label map,
function extents, and basic-block boundaries. Programs are produced by
:class:`repro.isa.builder.ProgramBuilder`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

from repro.isa.instructions import StaticInst
from repro.isa.opcodes import BRANCH_OPS, CONTROL_OPS, Opcode


class ProgramError(ValueError):
    """Raised for malformed programs (unresolved labels, bad targets...)."""


@dataclass(frozen=True)
class FunctionInfo:
    """Extent of one function: instruction indices [start, end)."""

    name: str
    start: int
    end: int

    def __contains__(self, index: int) -> bool:
        return self.start <= index < self.end


class Program:
    """An assembled program.

    Args:
        name: Workload name (used in reports).
        insts: The instruction list; each instruction's ``index`` must equal
            its position.
        labels: Mapping of label name to instruction index.

    Raises:
        ProgramError: If the program fails validation (see :meth:`validate`).
    """

    def __init__(
        self,
        name: str,
        insts: list[StaticInst],
        labels: dict[str, int] | None = None,
    ) -> None:
        self.name = name
        self.insts: tuple[StaticInst, ...] = tuple(insts)
        self.labels: dict[str, int] = dict(labels or {})
        self.validate()
        self.functions: tuple[FunctionInfo, ...] = self._compute_functions()
        self._func_of: tuple[str, ...] = tuple(i.func for i in self.insts)
        self.basic_blocks: tuple[int, ...] = self._compute_basic_blocks()

    def __len__(self) -> int:
        return len(self.insts)

    def __getitem__(self, index: int) -> StaticInst:
        return self.insts[index]

    def __iter__(self):
        return iter(self.insts)

    def validate(self) -> None:
        """Check structural invariants of the program.

        Raises:
            ProgramError: If indices are not sequential, a control-flow
                target is out of range, the program is empty, or the program
                cannot terminate (contains no HALT).
        """
        if not self.insts:
            raise ProgramError(f"program {self.name!r} is empty")
        for pos, inst in enumerate(self.insts):
            if inst.index != pos:
                raise ProgramError(
                    f"{self.name}: instruction at position {pos} has "
                    f"index {inst.index}"
                )
            if inst.op in CONTROL_OPS and inst.op != Opcode.RET:
                if not 0 <= inst.target < len(self.insts):
                    raise ProgramError(
                        f"{self.name}: {inst.disasm()} at {pos} targets "
                        f"{inst.target}, outside [0, {len(self.insts)})"
                    )
        if not any(i.op == Opcode.HALT for i in self.insts):
            raise ProgramError(f"program {self.name!r} has no HALT")

    def func_of(self, index: int) -> str:
        """Name of the function containing instruction *index*."""
        return self._func_of[index]

    def bb_of(self, index: int) -> int:
        """Basic-block id (leader index) containing instruction *index*."""
        return self.basic_blocks[index]

    def disasm(self) -> str:
        """Full program disassembly, one line per instruction."""
        index_to_label = {v: k for k, v in self.labels.items()}
        lines = []
        current_func = None
        for inst in self.insts:
            if inst.func != current_func:
                current_func = inst.func
                lines.append(f"<{current_func}>:")
            prefix = ""
            if inst.index in index_to_label:
                prefix = f"{index_to_label[inst.index]}: "
            lines.append(f"  {inst.index:4d}  {prefix}{inst.disasm()}")
        return "\n".join(lines)

    def _compute_functions(self) -> tuple[FunctionInfo, ...]:
        funcs: list[FunctionInfo] = []
        start = 0
        current = self.insts[0].func
        for pos, inst in enumerate(self.insts):
            if inst.func != current:
                funcs.append(FunctionInfo(current, start, pos))
                start, current = pos, inst.func
        funcs.append(FunctionInfo(current, start, len(self.insts)))
        return tuple(funcs)

    def _compute_basic_blocks(self) -> tuple[int, ...]:
        """Map every instruction index to its basic-block leader index.

        Leaders are: instruction 0, every control-flow target, and every
        instruction following a control-flow instruction or a HALT.
        """
        leaders = {0}
        for inst in self.insts:
            if inst.op in CONTROL_OPS:
                if inst.target >= 0:
                    leaders.add(inst.target)
                if inst.index + 1 < len(self.insts):
                    leaders.add(inst.index + 1)
            elif inst.op in (Opcode.HALT, Opcode.SERIAL):
                if inst.index + 1 < len(self.insts):
                    leaders.add(inst.index + 1)
        ordered = sorted(leaders)
        mapping: list[int] = []
        for leader, end in zip(ordered, ordered[1:] + [len(self.insts)]):
            mapping.extend(repeat(leader, end - leader))
        return tuple(mapping)

    # Set of conditional-branch static indices (used by predictors/tests).
    @property
    def branch_indices(self) -> frozenset[int]:
        """Indices of all conditional branch instructions."""
        return frozenset(
            i.index for i in self.insts if i.op in BRANCH_OPS
        )
