"""Assembled program representation with symbol information.

A :class:`Program` is an immutable sequence of :class:`~repro.isa.
instructions.StaticInst` plus the symbol tables needed by profile
aggregation: label map, function extents, and basic-block boundaries.
Programs are produced by :class:`repro.isa.builder.ProgramBuilder`.

Padding that never runs need not be built: a :class:`Hole` stands for a
run of filler ``nop``s, and the program makes each slot's ``nop`` the
first time it is read. Lengths, indices and addresses are those of the
padded program, so a hole is invisible to everything that reads it.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat

from repro.isa.instructions import NO_REG, StaticInst
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


@dataclass(frozen=True)
class Hole:
    """Slots [start, end) of filler ``nop``s in function *func*.

    Each slot reads as ``StaticInst(index, Opcode.NOP, func=func)``, the
    instruction ``ProgramBuilder.nop`` would have emitted there. *label*
    is the first slot's label, if one was pending when the hole began.
    """

    start: int
    end: int
    func: str = "main"
    label: str | None = None


class Program:
    """An assembled program.

    Args:
        name: Workload name (used in reports).
        insts: The program in order: each item is a :class:`StaticInst`,
            whose ``index`` must equal its position, or a :class:`Hole`,
            whose ``start`` must.
        labels: Mapping of label name to instruction index.

    Raises:
        ProgramError: If the program fails validation (see :meth:`validate`).
    """

    def __init__(
        self,
        name: str,
        insts: Iterable[StaticInst | Hole],
        labels: dict[str, int] | None = None,
    ) -> None:
        self.name = name
        #: The program as built: its instructions and holes, in order.
        self.segments: tuple[StaticInst | Hole, ...] = tuple(insts)
        self.labels: dict[str, int] = dict(labels or {})
        self._holes = tuple(s for s in self.segments if type(s) is Hole)
        # The instructions that were built, holes left out.
        self._code = tuple(s for s in self.segments if type(s) is not Hole)
        self.validate()
        # One entry per slot: a hole's slots hold None until first read.
        self._slots: list[StaticInst | None] = []
        for seg in self.segments:
            if type(seg) is Hole:
                self._slots.extend(repeat(None, seg.end - seg.start))
            else:
                self._slots.append(seg)
        self.functions: tuple[FunctionInfo, ...] = self._compute_functions()

    def __len__(self) -> int:
        return len(self._slots)

    def __getitem__(self, index):
        """The instruction at *index*, or a tuple of them for a slice."""
        if isinstance(index, slice):
            span = range(len(self._slots))[index]
            if span:
                lo, hi = sorted((span[0], span[-1]))
                self._fill(lo, hi + 1)
            return tuple(self._slots[index])
        inst = self._slots[index]
        if inst is None:
            index %= len(self._slots)
            self._fill(index, index + 1)
            inst = self._slots[index]
        return inst

    def __iter__(self):
        self._fill(0, len(self._slots))
        return iter(self._slots)

    def _fill(self, lo: int, hi: int) -> None:
        """Make the filler ``nop`` of every unread hole slot in [lo, hi)."""
        slots = self._slots
        for hole in self._holes:
            if hole.start >= hi:
                break
            start, end = max(lo, hole.start), min(hi, hole.end)
            if start >= end:
                continue
            func, first, label = hole.func, hole.start, hole.label
            slots[start:end] = [
                inst if inst is not None else StaticInst(
                    pos, Opcode.NOP, NO_REG, NO_REG, NO_REG, 0, -1, func,
                    label if pos == first else None,
                )
                for pos, inst in enumerate(slots[start:end], start)
            ]

    def validate(self) -> None:
        """Check structural invariants of the program.

        Raises:
            ProgramError: If indices are not sequential, a hole is empty,
                a control-flow target is out of range, the program is
                empty, or the program cannot terminate (contains no HALT).
        """
        if not self.segments:
            raise ProgramError(f"program {self.name!r} is empty")
        pos = 0
        for seg in self.segments:
            if type(seg) is Hole:
                if seg.start != pos or seg.end <= pos:
                    raise ProgramError(
                        f"{self.name}: hole [{seg.start}, {seg.end}) at "
                        f"position {pos}"
                    )
                pos = seg.end
            else:
                if seg.index != pos:
                    raise ProgramError(
                        f"{self.name}: instruction at position {pos} has "
                        f"index {seg.index}"
                    )
                pos += 1
        for inst in self._code:
            if inst.op in CONTROL_OPS and inst.op != Opcode.RET:
                if not 0 <= inst.target < pos:
                    raise ProgramError(
                        f"{self.name}: {inst.disasm()} at {inst.index} "
                        f"targets {inst.target}, outside [0, {pos})"
                    )
        if not any(i.op == Opcode.HALT for i in self._code):
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
        for inst in self:
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
        start = pos = 0
        current = self.segments[0].func
        for seg in self.segments:
            if seg.func != current:
                funcs.append(FunctionInfo(current, start, pos))
                start, current = pos, seg.func
            pos = seg.end if type(seg) is Hole else pos + 1
        funcs.append(FunctionInfo(current, start, pos))
        return tuple(funcs)

    # The per-slot tables are built on first read: most programs are
    # only ever run, and a padded program has a slot per hole ``nop``.
    @cached_property
    def _func_of(self) -> tuple[str, ...]:
        """The function name of every slot."""
        table: list[str] = []
        for info in self.functions:
            table.extend(repeat(info.name, info.end - info.start))
        return tuple(table)

    @cached_property
    def basic_blocks(self) -> tuple[int, ...]:
        """Map every instruction index to its basic-block leader index.

        Leaders are: instruction 0, every control-flow target, and every
        instruction following a control-flow instruction or a HALT. A
        hole holds only ``nop``s, so it adds no leaders of its own.
        """
        n = len(self._slots)
        leaders = {0}
        for inst in self._code:
            if inst.op in CONTROL_OPS:
                if inst.target >= 0:
                    leaders.add(inst.target)
                if inst.index + 1 < n:
                    leaders.add(inst.index + 1)
            elif inst.op in (Opcode.HALT, Opcode.SERIAL):
                if inst.index + 1 < n:
                    leaders.add(inst.index + 1)
        ordered = sorted(leaders)
        mapping: list[int] = []
        for leader, end in zip(ordered, ordered[1:] + [n]):
            mapping.extend(repeat(leader, end - leader))
        return tuple(mapping)

    # Set of conditional-branch static indices (used by predictors/tests).
    @property
    def branch_indices(self) -> frozenset[int]:
        """Indices of all conditional branch instructions."""
        return frozenset(
            i.index for i in self._code if i.op in BRANCH_OPS
        )
