"""Static and dynamic instruction records.

A :class:`StaticInst` is one entry of an assembled :class:`repro.isa.program.
Program`; a :class:`DynInst` is one committed execution of a static
instruction as produced by the functional interpreter and consumed by the
timing model.

Register encoding
-----------------
Registers are encoded as small integers: ``0..31`` are the integer registers
``x0..x31`` (with ``x0`` hard-wired to zero) and ``32..63`` are the
floating-point registers ``f0..f31``. ``-1`` means "no register".
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.isa.opcodes import Opcode, OpClass, op_class

#: Number of integer architectural registers.
NUM_INT_REGS = 32
#: Number of floating-point architectural registers.
NUM_FP_REGS = 32
#: First encoded floating-point register number.
FP_BASE = NUM_INT_REGS
#: Encoding for "no register operand".
NO_REG = -1
#: Link register used by CALL/RET (x31).
LINK_REG = 31
#: Bytes per instruction (used to derive byte addresses for the I-cache).
INST_BYTES = 4


def reg_name(reg: int) -> str:
    """Human-readable name for an encoded register number."""
    if reg == NO_REG:
        return "-"
    if reg < FP_BASE:
        return f"x{reg}"
    return f"f{reg - FP_BASE}"


def is_fp_reg(reg: int) -> bool:
    """True if the encoded register number names a floating-point register."""
    return reg >= FP_BASE


@dataclass(frozen=True, slots=True)
class StaticInst:
    """One static instruction of an assembled program.

    Attributes:
        index: Position in the program's instruction list. The instruction's
            byte address is ``index * INST_BYTES``.
        op: Concrete opcode.
        rd: Destination register (encoded), or ``NO_REG``.
        rs1: First source register, or ``NO_REG``.
        rs2: Second source register, or ``NO_REG``.
        imm: Immediate operand (address offset, constant, or fp literal).
        target: Resolved control-flow target (instruction index) for direct
            branches/jumps/calls, else ``-1``.
        func: Name of the enclosing function (for function-granularity PICS).
        label: Source-level label attached to this instruction, if any.
    """

    index: int
    op: Opcode
    rd: int = NO_REG
    rs1: int = NO_REG
    rs2: int = NO_REG
    imm: float = 0
    target: int = -1
    func: str = "main"
    label: str | None = None

    @property
    def address(self) -> int:
        """Byte address of the instruction."""
        return self.index * INST_BYTES

    @property
    def op_class(self) -> OpClass:
        """Operation class used by the timing model."""
        return op_class(self.op)

    def sources(self) -> tuple[int, ...]:
        """Encoded source registers this instruction actually reads."""
        srcs = []
        if self.rs1 != NO_REG:
            srcs.append(self.rs1)
        if self.rs2 != NO_REG:
            srcs.append(self.rs2)
        return tuple(srcs)

    def disasm(self) -> str:
        """Render a human-readable disassembly line."""
        parts = [self.op.name.rstrip("_").lower()]
        ops = []
        if self.rd != NO_REG:
            ops.append(reg_name(self.rd))
        if self.rs1 != NO_REG:
            ops.append(reg_name(self.rs1))
        if self.rs2 != NO_REG:
            ops.append(reg_name(self.rs2))
        if self.target >= 0:
            ops.append(f"@{self.target}")
        elif self.imm:
            ops.append(str(self.imm))
        return parts[0] + (" " + ", ".join(ops) if ops else "")


@dataclass(slots=True)
class DynInst:
    """One committed dynamic execution of a static instruction.

    Produced by :class:`repro.isa.interpreter.Interpreter`; the timing model
    replays this stream, adding speculation and latency on top.

    Attributes:
        static: The static instruction executed.
        seq: Dynamic sequence number (0-based, committed order).
        eff_addr: Byte effective address for memory operations, else ``-1``.
        taken: For control-flow operations, whether the branch/jump was
            taken; always True for unconditional control flow.
        next_index: Index of the next instruction in program order that will
            execute after this one (the architectural next PC).
    """

    static: StaticInst
    seq: int
    eff_addr: int = -1
    taken: bool = False
    next_index: int = -1

    @property
    def index(self) -> int:
        """Static instruction index."""
        return self.static.index

    @property
    def op(self) -> Opcode:
        """Concrete opcode."""
        return self.static.op
