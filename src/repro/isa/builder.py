"""A tiny assembler for building workload programs.

:class:`ProgramBuilder` exposes one method per opcode plus ``label``/
``function`` bookkeeping, and resolves forward label references at
:meth:`ProgramBuilder.build` time::

    b = ProgramBuilder("countdown")
    b.li("x1", 100)
    b.label("loop")
    b.addi("x1", "x1", -1)
    b.bne("x1", "x0", "loop")
    b.halt()
    program = b.build()

Registers may be written as strings (``"x0".."x31"``, ``"f0".."f31"``) or as
already-encoded integers.
"""

from __future__ import annotations

from repro.isa.instructions import FP_BASE, LINK_REG, NO_REG, StaticInst
from repro.isa.opcodes import Opcode
from repro.isa.program import Program, ProgramError


def parse_reg(reg: int | str) -> int:
    """Encode a register name (``"x5"``, ``"f2"``) or pass through an int.

    Raises:
        ProgramError: If the name is malformed or out of range.
    """
    if isinstance(reg, int):
        if not 0 <= reg < 2 * FP_BASE:
            raise ProgramError(f"register number {reg} out of range")
        return reg
    if len(reg) >= 2 and reg[0] in "xf" and reg[1:].isdigit():
        num = int(reg[1:])
        if 0 <= num < FP_BASE:
            return num if reg[0] == "x" else FP_BASE + num
    raise ProgramError(f"bad register name {reg!r}")


#: Backwards-compatible alias used throughout the workloads.
Reg = parse_reg


class ProgramBuilder:
    """Incrementally assemble a :class:`~repro.isa.program.Program`."""

    def __init__(self, name: str) -> None:
        self.name = name
        # One (op, rd, rs1, rs2, imm, target_label, func, label) tuple
        # per instruction, before label resolution.
        self._insts: list[tuple] = []
        self._labels: dict[str, int] = {}
        self._current_func = "main"
        self._pending_label: str | None = None

    # ------------------------------------------------------------------
    # Structure.
    # ------------------------------------------------------------------
    def function(self, name: str) -> "ProgramBuilder":
        """Start a new function; subsequent instructions belong to it."""
        self._current_func = name
        return self

    def label(self, name: str) -> "ProgramBuilder":
        """Attach a label to the next emitted instruction."""
        if name in self._labels:
            raise ProgramError(f"duplicate label {name!r}")
        self._labels[name] = len(self._insts)
        self._pending_label = name
        return self

    def here(self) -> int:
        """Index the next emitted instruction will have."""
        return len(self._insts)

    # ------------------------------------------------------------------
    # Emission helper.
    # ------------------------------------------------------------------
    def _emit(
        self,
        op: Opcode,
        rd: int | str = NO_REG,
        rs1: int | str = NO_REG,
        rs2: int | str = NO_REG,
        imm: float = 0,
        target_label: str | None = None,
    ) -> "ProgramBuilder":
        self._insts.append((
            op,
            parse_reg(rd) if rd != NO_REG else NO_REG,
            parse_reg(rs1) if rs1 != NO_REG else NO_REG,
            parse_reg(rs2) if rs2 != NO_REG else NO_REG,
            imm,
            target_label,
            self._current_func,
            self._pending_label,
        ))
        self._pending_label = None
        return self

    # ------------------------------------------------------------------
    # Integer ALU.
    # ------------------------------------------------------------------
    def add(self, rd, rs1, rs2):
        """rd = rs1 + rs2"""
        return self._emit(Opcode.ADD, rd, rs1, rs2)

    def sub(self, rd, rs1, rs2):
        """rd = rs1 - rs2"""
        return self._emit(Opcode.SUB, rd, rs1, rs2)

    def and_(self, rd, rs1, rs2):
        """rd = rs1 & rs2"""
        return self._emit(Opcode.AND_, rd, rs1, rs2)

    def or_(self, rd, rs1, rs2):
        """rd = rs1 | rs2"""
        return self._emit(Opcode.OR_, rd, rs1, rs2)

    def xor(self, rd, rs1, rs2):
        """rd = rs1 ^ rs2"""
        return self._emit(Opcode.XOR_, rd, rs1, rs2)

    def slt(self, rd, rs1, rs2):
        """rd = 1 if rs1 < rs2 else 0"""
        return self._emit(Opcode.SLT, rd, rs1, rs2)

    def sll(self, rd, rs1, rs2):
        """rd = rs1 << (rs2 & 63)"""
        return self._emit(Opcode.SLL, rd, rs1, rs2)

    def srl(self, rd, rs1, rs2):
        """rd = rs1 >> (rs2 & 63)"""
        return self._emit(Opcode.SRL, rd, rs1, rs2)

    def addi(self, rd, rs1, imm: int):
        """rd = rs1 + imm"""
        return self._emit(Opcode.ADDI, rd, rs1, imm=imm)

    def andi(self, rd, rs1, imm: int):
        """rd = rs1 & imm"""
        return self._emit(Opcode.ANDI, rd, rs1, imm=imm)

    def ori(self, rd, rs1, imm: int):
        """rd = rs1 | imm"""
        return self._emit(Opcode.ORI, rd, rs1, imm=imm)

    def xori(self, rd, rs1, imm: int):
        """rd = rs1 ^ imm"""
        return self._emit(Opcode.XORI, rd, rs1, imm=imm)

    def slti(self, rd, rs1, imm: int):
        """rd = 1 if rs1 < imm else 0"""
        return self._emit(Opcode.SLTI, rd, rs1, imm=imm)

    def li(self, rd, imm: int):
        """rd = imm (load immediate)"""
        return self._emit(Opcode.LUI, rd, imm=imm)

    def mul(self, rd, rs1, rs2):
        """rd = rs1 * rs2"""
        return self._emit(Opcode.MUL, rd, rs1, rs2)

    def div(self, rd, rs1, rs2):
        """rd = rs1 // rs2 (truncating; x/0 = 0)"""
        return self._emit(Opcode.DIV, rd, rs1, rs2)

    def rem(self, rd, rs1, rs2):
        """rd = rs1 % rs2 (x%0 = x)"""
        return self._emit(Opcode.REM, rd, rs1, rs2)

    def nop(self):
        """No operation."""
        return self._emit(Opcode.NOP)

    # ------------------------------------------------------------------
    # Floating point.
    # ------------------------------------------------------------------
    def fadd(self, fd, fs1, fs2):
        """fd = fs1 + fs2"""
        return self._emit(Opcode.FADD, fd, fs1, fs2)

    def fsub(self, fd, fs1, fs2):
        """fd = fs1 - fs2"""
        return self._emit(Opcode.FSUB, fd, fs1, fs2)

    def fmul(self, fd, fs1, fs2):
        """fd = fs1 * fs2"""
        return self._emit(Opcode.FMUL, fd, fs1, fs2)

    def fdiv(self, fd, fs1, fs2):
        """fd = fs1 / fs2 (x/0 = 0.0)"""
        return self._emit(Opcode.FDIV, fd, fs1, fs2)

    def fsqrt(self, fd, fs1):
        """fd = sqrt(|fs1|)"""
        return self._emit(Opcode.FSQRT, fd, fs1)

    def fmin(self, fd, fs1, fs2):
        """fd = min(fs1, fs2)"""
        return self._emit(Opcode.FMIN, fd, fs1, fs2)

    def fmax(self, fd, fs1, fs2):
        """fd = max(fs1, fs2)"""
        return self._emit(Opcode.FMAX, fd, fs1, fs2)

    def fcvt(self, fd, rs1):
        """fd = float(rs1)"""
        return self._emit(Opcode.FCVT, fd, rs1)

    def fmv(self, rd, fs1):
        """rd = int(fs1)"""
        return self._emit(Opcode.FMV, rd, fs1)

    # ------------------------------------------------------------------
    # Memory.
    # ------------------------------------------------------------------
    def load(self, rd, rs1, offset: int = 0):
        """rd = mem[rs1 + offset]"""
        return self._emit(Opcode.LOAD, rd, rs1, imm=offset)

    def store(self, rs2, rs1, offset: int = 0):
        """mem[rs1 + offset] = rs2"""
        return self._emit(Opcode.STORE, NO_REG, rs1, rs2, imm=offset)

    def fload(self, fd, rs1, offset: int = 0):
        """fd = mem[rs1 + offset]"""
        return self._emit(Opcode.FLOAD, fd, rs1, imm=offset)

    def fstore(self, fs2, rs1, offset: int = 0):
        """mem[rs1 + offset] = fs2"""
        return self._emit(Opcode.FSTORE, NO_REG, rs1, fs2, imm=offset)

    def prefetch(self, rs1, offset: int = 0):
        """Software prefetch of mem[rs1 + offset]; no architectural effect."""
        return self._emit(Opcode.PREFETCH, NO_REG, rs1, imm=offset)

    # ------------------------------------------------------------------
    # Control flow.
    # ------------------------------------------------------------------
    def beq(self, rs1, rs2, label: str):
        """Branch to *label* if rs1 == rs2."""
        return self._emit(Opcode.BEQ, NO_REG, rs1, rs2, target_label=label)

    def bne(self, rs1, rs2, label: str):
        """Branch to *label* if rs1 != rs2."""
        return self._emit(Opcode.BNE, NO_REG, rs1, rs2, target_label=label)

    def blt(self, rs1, rs2, label: str):
        """Branch to *label* if rs1 < rs2."""
        return self._emit(Opcode.BLT, NO_REG, rs1, rs2, target_label=label)

    def bge(self, rs1, rs2, label: str):
        """Branch to *label* if rs1 >= rs2."""
        return self._emit(Opcode.BGE, NO_REG, rs1, rs2, target_label=label)

    def jump(self, label: str):
        """Unconditional direct jump to *label*."""
        return self._emit(Opcode.JUMP, target_label=label)

    def call(self, label: str):
        """Jump-and-link to *label*; the return address goes to x31."""
        return self._emit(Opcode.CALL, LINK_REG, target_label=label)

    def ret(self):
        """Indirect jump to the address in x31."""
        return self._emit(Opcode.RET, NO_REG, LINK_REG)

    # ------------------------------------------------------------------
    # Special.
    # ------------------------------------------------------------------
    def serial(self):
        """Serializing CSR op (models fsflags/frflags; always flushes)."""
        return self._emit(Opcode.SERIAL)

    def halt(self):
        """Terminate the program."""
        return self._emit(Opcode.HALT)

    # ------------------------------------------------------------------
    # Assembly.
    # ------------------------------------------------------------------
    def build(self) -> Program:
        """Resolve labels and produce the validated :class:`Program`.

        Raises:
            ProgramError: On unresolved labels or validation failure.
        """
        insts: list[StaticInst] = []
        for index, pending in enumerate(self._insts):
            op, rd, rs1, rs2, imm, target_label, func, label = pending
            target = -1
            if target_label is not None:
                if target_label not in self._labels:
                    raise ProgramError(
                        f"{self.name}: unresolved label {target_label!r}"
                    )
                target = self._labels[target_label]
            # Positional, in field order: keywords cost a third more
            # per instruction, and gcc has 73,744 of them.
            insts.append(StaticInst(
                index, op, rd, rs1, rs2, imm, target, func, label
            ))
        return Program(self.name, insts, self._labels)
