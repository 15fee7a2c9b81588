"""Tests for the ProgramBuilder assembler."""

import pytest

from repro.isa.builder import ProgramBuilder, parse_reg
from repro.isa.instructions import FP_BASE, LINK_REG
from repro.isa.opcodes import Opcode
from repro.isa.program import ProgramError


def test_parse_reg_int_registers():
    assert parse_reg("x0") == 0
    assert parse_reg("x31") == 31


def test_parse_reg_fp_registers():
    assert parse_reg("f0") == FP_BASE
    assert parse_reg("f31") == FP_BASE + 31


def test_parse_reg_passthrough_int():
    assert parse_reg(5) == 5


def test_parse_reg_rejects_bad_names():
    for bad in ("y1", "x32", "f32", "x", "xx1", ""):
        with pytest.raises(ProgramError):
            parse_reg(bad)


def test_parse_reg_table_agrees_with_the_parser():
    for num in range(FP_BASE):
        assert parse_reg(f"x{num}") == num
        assert parse_reg(f"f{num}") == FP_BASE + num
    # Spellings outside the table still parse.
    assert parse_reg("x05") == 5
    assert parse_reg("f007") == FP_BASE + 7
    with pytest.raises(ProgramError, match=r"bad register name 'x032'"):
        parse_reg("x032")


def test_parse_reg_rejects_out_of_range_int():
    with pytest.raises(ProgramError):
        parse_reg(64)
    with pytest.raises(ProgramError):
        parse_reg(-2)


def test_label_resolution_forward_and_backward():
    b = ProgramBuilder("t")
    b.label("start")
    b.jump("end")  # forward reference
    b.jump("start")  # backward reference
    b.label("end")
    b.halt()
    p = b.build()
    assert p[0].target == 2  # "end" is the halt
    assert p[1].target == 0


def test_unresolved_label_raises():
    b = ProgramBuilder("t")
    b.jump("nowhere")
    b.halt()
    with pytest.raises(ProgramError, match="nowhere"):
        b.build()


def test_duplicate_label_raises():
    b = ProgramBuilder("t")
    b.label("a")
    b.nop()
    with pytest.raises(ProgramError, match="duplicate"):
        b.label("a")


def test_call_uses_link_register():
    b = ProgramBuilder("t")
    b.call("fn")
    b.halt()
    b.label("fn")
    b.ret()
    p = b.build()
    assert p[0].op == Opcode.CALL
    assert p[0].rd == LINK_REG
    assert p[2].op == Opcode.RET
    assert p[2].rs1 == LINK_REG


def test_store_encodes_value_in_rs2():
    b = ProgramBuilder("t")
    b.store("x5", "x6", 16)
    b.halt()
    p = b.build()
    inst = p[0]
    assert inst.rs1 == 6
    assert inst.rs2 == 5
    assert inst.imm == 16


def test_function_annotation():
    b = ProgramBuilder("t")
    b.nop()
    b.function("helper")
    b.nop()
    b.halt()
    p = b.build()
    assert p[0].func == "main"
    assert p[1].func == "helper"
    assert p[2].func == "helper"


def test_here_reports_next_index():
    b = ProgramBuilder("t")
    assert b.here() == 0
    b.nop()
    assert b.here() == 1


def test_fluent_chaining():
    b = ProgramBuilder("t")
    b.li("x1", 3).addi("x1", "x1", -1).halt()
    assert len(b.build()) == 3


def test_builder_covers_all_alu_opcodes():
    b = ProgramBuilder("t")
    b.add("x1", "x2", "x3").sub("x1", "x2", "x3")
    b.and_("x1", "x2", "x3").or_("x1", "x2", "x3").xor("x1", "x2", "x3")
    b.slt("x1", "x2", "x3").sll("x1", "x2", "x3").srl("x1", "x2", "x3")
    b.andi("x1", "x2", 1).ori("x1", "x2", 1).xori("x1", "x2", 1)
    b.slti("x1", "x2", 1).mul("x1", "x2", "x3")
    b.div("x1", "x2", "x3").rem("x1", "x2", "x3")
    b.fadd("f1", "f2", "f3").fsub("f1", "f2", "f3")
    b.fmul("f1", "f2", "f3").fdiv("f1", "f2", "f3").fsqrt("f1", "f2")
    b.fmin("f1", "f2", "f3").fmax("f1", "f2", "f3")
    b.fcvt("f1", "x2").fmv("x1", "f2")
    b.fload("f1", "x2", 0).fstore("f1", "x2", 0)
    b.prefetch("x2", 64).serial().nop()
    b.halt()
    program = b.build()
    assert len(program) == 30
