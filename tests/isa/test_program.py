"""Tests for Program validation and symbol information."""

import dataclasses

import pytest

from repro.isa.builder import ProgramBuilder
from repro.isa.instructions import StaticInst
from repro.isa.opcodes import CONTROL_OPS, Opcode
from repro.isa.program import Program, ProgramError
from repro.workloads import WORKLOAD_NAMES, build


def build_simple():
    b = ProgramBuilder("p")
    b.li("x1", 2)  # 0
    b.label("loop")  # 1
    b.addi("x1", "x1", -1)  # 1
    b.bne("x1", "x0", "loop")  # 2
    b.nop()  # 3
    b.halt()  # 4
    return b.build()


def test_empty_program_rejected():
    with pytest.raises(ProgramError, match="empty"):
        Program("p", [])


def test_program_without_halt_rejected():
    with pytest.raises(ProgramError, match="HALT"):
        Program("p", [StaticInst(index=0, op=Opcode.NOP)])


def test_non_sequential_indices_rejected():
    insts = [
        StaticInst(index=1, op=Opcode.HALT),
    ]
    with pytest.raises(ProgramError, match="index"):
        Program("p", insts)


def test_out_of_range_target_rejected():
    insts = [
        StaticInst(index=0, op=Opcode.JUMP, target=10),
        StaticInst(index=1, op=Opcode.HALT),
    ]
    with pytest.raises(ProgramError, match="targets"):
        Program("p", insts)


def test_basic_block_leaders():
    p = build_simple()
    # Branch target (1) and post-branch (3) start blocks.
    assert p.bb_of(0) == 0
    assert p.bb_of(1) == 1
    assert p.bb_of(2) == 1
    assert p.bb_of(3) == 3


def test_function_extents():
    b = ProgramBuilder("p")
    b.nop()
    b.function("f")
    b.nop()
    b.nop()
    b.halt()
    p = b.build()
    names = [f.name for f in p.functions]
    assert names == ["main", "f"]
    assert p.func_of(0) == "main"
    assert p.func_of(3) == "f"
    assert 2 in p.functions[1]
    assert 0 not in p.functions[1]


def test_branch_indices():
    p = build_simple()
    assert p.branch_indices == {2}


def test_addresses_are_4_byte():
    p = build_simple()
    assert p[2].address == 8


def test_disasm_contains_labels_and_functions():
    p = build_simple()
    text = p.disasm()
    assert "<main>:" in text
    assert "loop:" in text
    assert "halt" in text


def test_iteration_and_indexing():
    p = build_simple()
    assert len(list(p)) == len(p) == 5
    assert p[4].op == Opcode.HALT


def build_single_instruction():
    b = ProgramBuilder("tiny")
    b.halt()
    return b.build()


def test_single_instruction_program():
    p = build_single_instruction()
    assert len(p) == 1
    assert p.bb_of(0) == 0
    assert p.func_of(0) == "main"
    assert p.basic_blocks == (0,)
    assert [f.name for f in p.functions] == ["main"]
    assert p.functions[0].start == 0
    assert p.functions[0].end == 1


def build_branch_before_halt():
    b = ProgramBuilder("p")
    b.label("top")  # 0
    b.addi("x1", "x1", -1)  # 0
    b.bne("x1", "x0", "top")  # 1
    b.halt()  # 2
    return b.build()


def test_branch_as_last_instruction_before_halt():
    # A branch whose fall-through is the final HALT: the post-branch
    # leader is the last index, not one past the end.
    p = build_branch_before_halt()
    assert p.bb_of(0) == 0
    assert p.bb_of(1) == 0
    assert p.bb_of(2) == 2


def build_halt_last():
    b = ProgramBuilder("p")
    b.nop()  # 0
    b.halt()  # 1
    return b.build()


def test_halt_as_final_instruction_adds_no_leader():
    # HALT at the very end must not register an out-of-range leader.
    p = build_halt_last()
    assert p.basic_blocks == (0, 0)


def build_back_to_back_branches():
    b = ProgramBuilder("p")
    b.label("a")  # 0
    b.nop()  # 0
    b.beq("x1", "x0", "a")  # 1
    b.bne("x2", "x0", "a")  # 2  (leader: follows a branch)
    b.nop()  # 3  (leader: follows a branch)
    b.halt()  # 4
    return b.build()


def test_back_to_back_branches_each_end_a_block():
    p = build_back_to_back_branches()
    assert p.bb_of(0) == 0
    assert p.bb_of(1) == 0
    assert p.bb_of(2) == 2
    assert p.bb_of(3) == 3
    assert p.bb_of(4) == 3
    assert p.branch_indices == {1, 2}


def build_two_functions():
    b = ProgramBuilder("p")
    b.nop()  # 0 (main)
    b.function("f")
    b.nop()  # 1 (f starts)
    b.label("loop")  # 2
    b.addi("x1", "x1", -1)  # 2
    b.bne("x1", "x0", "loop")  # 3
    b.halt()  # 4
    return b.build()


def test_bb_of_and_func_of_boundary_indices():
    p = build_two_functions()
    # First and last indices resolve without error.
    assert p.bb_of(0) == 0
    assert p.bb_of(len(p) - 1) == 4
    assert p.func_of(0) == "main"
    assert p.func_of(len(p) - 1) == "f"
    # Function boundary: index 0 is main's last, index 1 is f's first.
    assert p.func_of(1) == "f"
    assert p.functions[0].end == 1
    assert p.functions[1].start == 1
    assert 1 in p.functions[1]
    assert 1 not in p.functions[0]
    # Out-of-range indices raise rather than aliasing a block.
    with pytest.raises(IndexError):
        p.bb_of(len(p))
    with pytest.raises(IndexError):
        p.func_of(len(p))


def test_static_inst_stays_frozen():
    # Runs of one workload share its program, so no run may edit it.
    inst = build_simple()[2]
    with pytest.raises(dataclasses.FrozenInstanceError):
        inst.target = 0


# ----------------------------------------------------------------------
# Basic blocks against the per-position reference loop.
# ----------------------------------------------------------------------
def reference_basic_blocks(program: Program) -> tuple[int, ...]:
    """Leader of every position, found one position at a time."""
    n = len(program.insts)
    leaders = {0}
    for inst in program.insts:
        if inst.op in CONTROL_OPS:
            if inst.target >= 0:
                leaders.add(inst.target)
            if inst.index + 1 < n:
                leaders.add(inst.index + 1)
        elif inst.op in (Opcode.HALT, Opcode.SERIAL):
            if inst.index + 1 < n:
                leaders.add(inst.index + 1)
    mapping = []
    current_leader = 0
    for pos in range(n):
        if pos in leaders:
            current_leader = pos
        mapping.append(current_leader)
    return tuple(mapping)


def build_serial_and_halt_mid_program():
    b = ProgramBuilder("p")
    b.nop()  # 0
    b.serial()  # 1
    b.nop()  # 2  (leader: follows a SERIAL)
    b.halt()  # 3
    b.nop()  # 4  (leader: follows a HALT)
    b.halt()  # 5
    return b.build()


EDGE_CASES = (
    build_simple,
    build_single_instruction,
    build_branch_before_halt,
    build_halt_last,
    build_back_to_back_branches,
    build_two_functions,
    build_serial_and_halt_mid_program,
)


@pytest.mark.parametrize("builder", EDGE_CASES, ids=lambda f: f.__name__)
def test_basic_blocks_match_reference_on_edge_cases(builder):
    program = builder()
    assert program.basic_blocks == reference_basic_blocks(program)


@pytest.mark.parametrize(
    "name, kwargs",
    [(name, {}) for name in WORKLOAD_NAMES]
    + [("synth", {"seed": seed}) for seed in range(3)],
)
def test_basic_blocks_match_reference_on_workloads(name, kwargs):
    program = build(name, scale=0.05, **kwargs).program
    assert program.basic_blocks == reference_basic_blocks(program)
