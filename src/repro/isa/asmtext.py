"""Textual assembly: parse and format programs as ``.asm`` text.

A small, regular syntax over the ISA so kernels can live in files and
profiles can reference readable listings::

    .func main
        li x1, 100
    loop:
        load x2, 1000(x1)
        addi x1, x1, -1
        bne x1, x0, loop
        halt

Rules: one instruction per line; ``#`` starts a comment; ``name:``
defines a label; ``.func name`` starts a function; ``.org index`` fills
the slots up to *index* with ``nop``s of the current function, kept as
one hole (:meth:`~repro.isa.builder.ProgramBuilder.pad_to`), and may
not move backwards; memory operands use ``offset(base)``.
:func:`format_asm` emits text that :func:`parse_asm` reparses into an
identical program (round-trip tested property-style), writing each hole
as an ``.org`` line.
"""

from __future__ import annotations

import re

from repro.isa.builder import ProgramBuilder
from repro.isa.instructions import NO_REG, StaticInst, reg_name
from repro.isa.opcodes import BRANCH_OPS, Opcode
from repro.isa.program import Hole, Program, ProgramError


class AsmSyntaxError(ProgramError):
    """Raised for malformed assembly text (includes the line number)."""


_MEM_OPERAND = re.compile(r"^(-?\d+)?\((\w+)\)$")

#: mnemonic -> (opcode, operand shape)
#: shapes: rrr (rd,rs1,rs2), rri (rd,rs1,imm), ri (rd,imm), rr (rd,rs1),
#: mem_load (rd, off(base)), mem_store (rs2, off(base)),
#: mem_pf (off(base)), branch (rs1,rs2,label), jump (label), none.
_FORMATS: dict[str, tuple[Opcode, str]] = {
    "add": (Opcode.ADD, "rrr"),
    "sub": (Opcode.SUB, "rrr"),
    "and": (Opcode.AND_, "rrr"),
    "or": (Opcode.OR_, "rrr"),
    "xor": (Opcode.XOR_, "rrr"),
    "slt": (Opcode.SLT, "rrr"),
    "sll": (Opcode.SLL, "rrr"),
    "srl": (Opcode.SRL, "rrr"),
    "mul": (Opcode.MUL, "rrr"),
    "div": (Opcode.DIV, "rrr"),
    "rem": (Opcode.REM, "rrr"),
    "addi": (Opcode.ADDI, "rri"),
    "andi": (Opcode.ANDI, "rri"),
    "ori": (Opcode.ORI, "rri"),
    "xori": (Opcode.XORI, "rri"),
    "slti": (Opcode.SLTI, "rri"),
    "li": (Opcode.LUI, "ri"),
    "fadd": (Opcode.FADD, "rrr"),
    "fsub": (Opcode.FSUB, "rrr"),
    "fmul": (Opcode.FMUL, "rrr"),
    "fdiv": (Opcode.FDIV, "rrr"),
    "fmin": (Opcode.FMIN, "rrr"),
    "fmax": (Opcode.FMAX, "rrr"),
    "fsqrt": (Opcode.FSQRT, "rr"),
    "fcvt": (Opcode.FCVT, "rr"),
    "fmv": (Opcode.FMV, "rr"),
    "load": (Opcode.LOAD, "mem_load"),
    "fload": (Opcode.FLOAD, "mem_load"),
    "store": (Opcode.STORE, "mem_store"),
    "fstore": (Opcode.FSTORE, "mem_store"),
    "prefetch": (Opcode.PREFETCH, "mem_pf"),
    "beq": (Opcode.BEQ, "branch"),
    "bne": (Opcode.BNE, "branch"),
    "blt": (Opcode.BLT, "branch"),
    "bge": (Opcode.BGE, "branch"),
    "jump": (Opcode.JUMP, "jump"),
    "call": (Opcode.CALL, "jump"),
    "ret": (Opcode.RET, "none"),
    "serial": (Opcode.SERIAL, "none"),
    "nop": (Opcode.NOP, "none"),
    "halt": (Opcode.HALT, "none"),
}

_OPCODE_TO_MNEMONIC = {op: m for m, (op, _) in _FORMATS.items()}


def _split_mem(operand: str, line_no: int) -> tuple[int, str]:
    match = _MEM_OPERAND.match(operand)
    if not match:
        raise AsmSyntaxError(
            f"line {line_no}: expected offset(base), got {operand!r}"
        )
    offset = int(match.group(1) or 0)
    return offset, match.group(2)


def parse_asm(text: str, name: str = "asm") -> Program:
    """Parse assembly text into a validated :class:`Program`.

    Raises:
        AsmSyntaxError: On unknown mnemonics, bad operand counts, or
            malformed operands (with the offending line number).
        ProgramError: If the assembled program fails validation.
    """
    builder = ProgramBuilder(name)
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith(".func"):
            parts = line.split()
            if len(parts) != 2:
                raise AsmSyntaxError(
                    f"line {line_no}: .func needs exactly one name"
                )
            builder.function(parts[1])
            continue
        if line.startswith(".org"):
            parts = line.split()
            if len(parts) != 2 or not parts[1].isdigit():
                raise AsmSyntaxError(
                    f"line {line_no}: .org needs exactly one index"
                )
            index = int(parts[1])
            if index < builder.here():
                raise AsmSyntaxError(
                    f"line {line_no}: .org {index} is below the current "
                    f"index {builder.here()}"
                )
            builder.pad_to(index)
            continue
        if line.endswith(":") and " " not in line:
            builder.label(line[:-1])
            continue
        mnemonic, _, rest = line.partition(" ")
        mnemonic = mnemonic.lower()
        if mnemonic not in _FORMATS:
            raise AsmSyntaxError(
                f"line {line_no}: unknown mnemonic {mnemonic!r}"
            )
        opcode, shape = _FORMATS[mnemonic]
        operands = [
            operand.strip()
            for operand in rest.split(",")
            if operand.strip()
        ]

        def need(count: int) -> None:
            if len(operands) != count:
                raise AsmSyntaxError(
                    f"line {line_no}: {mnemonic} expects {count} "
                    f"operand(s), got {len(operands)}"
                )

        try:
            if shape == "rrr":
                need(3)
                builder._emit(opcode, operands[0], operands[1],
                              operands[2])
            elif shape == "rri":
                need(3)
                builder._emit(opcode, operands[0], operands[1],
                              imm=int(operands[2]))
            elif shape == "ri":
                need(2)
                builder._emit(opcode, operands[0],
                              imm=int(operands[1]))
            elif shape == "rr":
                need(2)
                builder._emit(opcode, operands[0], operands[1])
            elif shape == "mem_load":
                need(2)
                offset, base = _split_mem(operands[1], line_no)
                builder._emit(opcode, operands[0], base, imm=offset)
            elif shape == "mem_store":
                need(2)
                offset, base = _split_mem(operands[1], line_no)
                builder._emit(opcode, NO_REG, base, operands[0],
                              imm=offset)
            elif shape == "mem_pf":
                need(1)
                offset, base = _split_mem(operands[0], line_no)
                builder._emit(opcode, NO_REG, base, imm=offset)
            elif shape == "branch":
                need(3)
                builder._emit(opcode, NO_REG, operands[0], operands[1],
                              target_label=operands[2])
            elif shape == "jump":
                need(1)
                if opcode == Opcode.CALL:
                    builder.call(operands[0])
                else:
                    builder.jump(operands[0])
            else:  # none
                need(0)
                if opcode == Opcode.RET:
                    builder.ret()
                else:
                    builder._emit(opcode)
        except ValueError as exc:
            raise AsmSyntaxError(f"line {line_no}: {exc}") from exc
    return builder.build()


def _format_operands(inst: StaticInst, labels: dict[int, str]) -> str:
    opcode = inst.op
    shape = _FORMATS[_OPCODE_TO_MNEMONIC[opcode]][1]
    if shape == "rrr":
        return (
            f"{reg_name(inst.rd)}, {reg_name(inst.rs1)}, "
            f"{reg_name(inst.rs2)}"
        )
    if shape == "rri":
        return (
            f"{reg_name(inst.rd)}, {reg_name(inst.rs1)}, "
            f"{int(inst.imm)}"
        )
    if shape == "ri":
        return f"{reg_name(inst.rd)}, {int(inst.imm)}"
    if shape == "rr":
        return f"{reg_name(inst.rd)}, {reg_name(inst.rs1)}"
    if shape == "mem_load":
        return (
            f"{reg_name(inst.rd)}, {int(inst.imm)}"
            f"({reg_name(inst.rs1)})"
        )
    if shape == "mem_store":
        return (
            f"{reg_name(inst.rs2)}, {int(inst.imm)}"
            f"({reg_name(inst.rs1)})"
        )
    if shape == "mem_pf":
        return f"{int(inst.imm)}({reg_name(inst.rs1)})"
    if shape == "branch":
        return (
            f"{reg_name(inst.rs1)}, {reg_name(inst.rs2)}, "
            f"{labels[inst.target]}"
        )
    if shape == "jump":
        return labels[inst.target]
    return ""


def format_asm(program: Program) -> str:
    """Emit re-parseable assembly text for *program*."""
    # Every control-flow target needs a label; reuse source labels and
    # synthesise `L<index>` for the rest.
    labels: dict[int, str] = {
        index: name for name, index in program.labels.items()
    }
    for seg in program.segments:
        if type(seg) is not Hole and (
            seg.op in BRANCH_OPS or seg.op in (Opcode.JUMP, Opcode.CALL)
        ):
            labels.setdefault(seg.target, f"L{seg.target}")
    lines: list[str] = []
    current_func = None
    for seg in program.segments:
        if seg.func != current_func:
            current_func = seg.func
            lines.append(f".func {current_func}")
        if type(seg) is Hole:
            if seg.start in labels:
                lines.append(f"{labels[seg.start]}:")
            # A label inside the hole needs its slot, so it splits it.
            for index in sorted(
                i for i in labels if seg.start < i < seg.end
            ):
                lines.append(f".org {index}")
                lines.append(f"{labels[index]}:")
            lines.append(f".org {seg.end}")
            continue
        if seg.index in labels:
            lines.append(f"{labels[seg.index]}:")
        mnemonic = _OPCODE_TO_MNEMONIC[seg.op]
        operands = _format_operands(seg, labels)
        lines.append(f"    {mnemonic} {operands}".rstrip())
    return "\n".join(lines) + "\n"
