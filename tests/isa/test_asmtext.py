"""Tests for the textual assembly parser/formatter."""

import pytest

from repro.isa.asmtext import AsmSyntaxError, format_asm, parse_asm
from repro.isa.instructions import StaticInst
from repro.isa.interpreter import Interpreter
from repro.isa.opcodes import Opcode
from repro.isa.program import Hole, Program

EXAMPLE = """
# countdown with a store and a call
.func main
    li x1, 5
loop:
    store x1, 1000(x2)
    load x3, 1000(x2)
    addi x1, x1, -1
    bne x1, x0, loop
    call helper
    halt

.func helper
helper:
    fcvt f1, x3
    fsqrt f2, f1
    prefetch 64(x2)
    ret
"""


def test_parse_example():
    program = parse_asm(EXAMPLE, "demo")
    assert program.name == "demo"
    assert program[0].op == Opcode.LUI
    assert program.func_of(len(program) - 1) == "helper"
    # Executes correctly end to end.
    interp = Interpreter(program)
    list(interp.run())
    assert interp.halted
    assert interp.state.int_regs[1] == 0


def test_memory_operand_parsing():
    program = parse_asm(".func main\n    load x1, -8(x5)\n    halt\n")
    assert program[0].imm == -8
    assert program[0].rs1 == 5


def test_bare_offsetless_memory_operand():
    program = parse_asm(".func main\n    load x1, (x5)\n    halt\n")
    assert program[0].imm == 0


def test_unknown_mnemonic():
    with pytest.raises(AsmSyntaxError, match="unknown mnemonic"):
        parse_asm("    frobnicate x1, x2\n    halt\n")


def test_wrong_operand_count():
    with pytest.raises(AsmSyntaxError, match="expects 3"):
        parse_asm("    add x1, x2\n    halt\n")


def test_bad_memory_operand():
    with pytest.raises(AsmSyntaxError, match="offset\\(base\\)"):
        parse_asm("    load x1, x2\n    halt\n")


def test_bad_func_directive():
    with pytest.raises(AsmSyntaxError, match=".func"):
        parse_asm(".func a b\n    halt\n")


def test_line_numbers_in_errors():
    with pytest.raises(AsmSyntaxError, match="line 3"):
        parse_asm("# comment\n    nop\n    bogus\n    halt\n")


def test_comments_and_blanks_ignored():
    program = parse_asm("\n# hi\n   \n    nop  # trailing\n    halt\n")
    assert len(program) == 2


def test_format_roundtrip_example():
    program = parse_asm(EXAMPLE, "demo")
    text = format_asm(program)
    reparsed = parse_asm(text, "demo")
    assert len(reparsed) == len(program)
    for a, b in zip(program, reparsed):
        assert (a.op, a.rd, a.rs1, a.rs2, a.imm, a.target, a.func) == (
            b.op, b.rd, b.rs1, b.rs2, b.imm, b.target, b.func
        )


def test_format_roundtrip_workloads():
    """Every shipped workload's program survives the text round trip."""
    from repro.workloads import WORKLOAD_NAMES, build

    for name in WORKLOAD_NAMES:
        program = build(name, scale=0.05).program
        reparsed = parse_asm(format_asm(program), name)
        assert len(reparsed) == len(program)
        for a, b in zip(program, reparsed):
            assert (a.op, a.rd, a.rs1, a.rs2, int(a.imm), a.target) == (
                b.op, b.rd, b.rs1, b.rs2, int(b.imm), b.target
            )


def test_org_pads_with_a_hole():
    program = parse_asm(
        ".func main\n    jump end\n.func padding\n.org 40\n"
        ".func main\nend:\n    halt\n"
    )
    assert len(program) == 41
    assert program.segments[1] == Hole(1, 40, "padding")
    assert program[39] == StaticInst(39, Opcode.NOP, func="padding")
    assert program[40].op == Opcode.HALT
    assert program.labels == {"end": 40}


def test_org_below_the_current_index():
    with pytest.raises(AsmSyntaxError, match="line 4: .org 1 is below"):
        parse_asm("    nop\n    nop\n\n.org 1\n    halt\n")


@pytest.mark.parametrize("line", [".org", ".org x", ".org 3 4", ".org -2"])
def test_bad_org_directive(line):
    with pytest.raises(AsmSyntaxError, match="line 2: .org needs"):
        parse_asm(f"    nop\n{line}\n    halt\n")


def test_format_writes_each_hole_as_one_org_line():
    from repro.workloads import build

    program = build("gcc", scale=0.05).program
    lines = format_asm(program).splitlines()
    orgs = [line for line in lines if line.startswith(".org")]
    assert len(orgs) == 36
    assert len(lines) < 800


def test_format_roundtrip_branch_into_a_hole():
    """A target inside a hole needs its label line, so the formatter
    splits the hole there."""
    program = Program("p", [
        StaticInst(0, Opcode.JUMP, target=50),
        Hole(1, 100, "padding", "pad"),
        StaticInst(100, Opcode.HALT),
    ], {"pad": 1})
    text = format_asm(program)
    assert ".org 50\nL50:\n.org 100\n" in text
    reparsed = parse_asm(text, "p")
    assert reparsed.labels == {"pad": 1, "L50": 50}
    assert len(reparsed) == len(program)
    assert reparsed.basic_blocks == program.basic_blocks
    for a, b in zip(program, reparsed):
        assert (a.index, a.op, a.target, a.func) == (
            b.index, b.op, b.target, b.func
        )
    assert reparsed[1].label == "pad"
    assert format_asm(reparsed) == text


def test_timing_simulation_of_parsed_program():
    from repro.uarch.core import simulate

    program = parse_asm(EXAMPLE, "demo")
    result = simulate(program)
    assert result.committed == sum(1 for _ in Interpreter(program).run())
