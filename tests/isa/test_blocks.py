"""``Interpreter.advance``'s block path: exact against the interpreted
drive, opcode by opcode, at every stop, and compiled once per program.

A block is the straight-line run from where control lands through the
next control op; ``advance`` runs it as one generated function when it
fits in the call. Each test compares a stream driven through
``InstStream.skip``/``Interpreter.advance`` with
``Interpreter(compiled=False)``.
"""

from __future__ import annotations

import gc
import itertools
import weakref
from collections import Counter

import pytest

from repro.backends.functional import simulate_functional
from repro.backends.sampled import SampledBackend, WindowPlan
from repro.isa import interpreter
from repro.isa.instructions import FP_BASE, NO_REG, StaticInst
from repro.isa.interpreter import ArchState, Interpreter, InterpreterError
from repro.isa.opcodes import CONTROL_OPS, Opcode
from repro.isa.program import Program
from repro.isa.semantics import InstStream, arch_digest
from repro.workloads import build
from repro.workloads.synth import build_synth

# ----------------------------------------------------------------------
# (a) Every opcode and operand class, block path against interpreted.
# ----------------------------------------------------------------------

_F = FP_BASE
#: Operand classes: a nonzero int register, x0, an fp register, none.
RD = {"int": 5, "x0": 0, "fp": _F + 5, "none": NO_REG}
RS1 = {"int": 6, "x0": 0, "fp": _F + 6, "none": NO_REG}
RS2 = {"int": 7, "x0": 0, "fp": _F + 7, "none": NO_REG}


def _int_value(reg: int) -> int:
    """x1..x31: distinct, nonzero, of both signs."""
    return (reg * 37 + 5) * (-1) ** reg


#: A negative int, an int equal to the int rs1 (the compare boundary)
#: and a non-integral float immediate.
IMMS = {"neg": -8, "rs1": _int_value(RS1["int"]), "float": 2.5}
#: Where a control op under test goes: past the observing store.
_TARGET = 3
#: Loop iterations, so each block runs compiled more than once.
_ITERS = 3
#: Records the tail of each run keeps for comparison.
_KEEP = 2
#: A RET through x0 returns to pc 0 and loops: the limit ends it.
_MAX_INSTS = 200


def _state(op: Opcode) -> ArchState:
    """Distinct, nonzero, finite operands: negative and positive ints,
    non-integral floats, and an int in memory wherever a case loads
    first. RET's sources hold the pc it returns to."""
    state = ArchState()
    for r in range(1, 32):
        state.int_regs[r] = _int_value(r)
    for r in range(32):
        state.fp_regs[r] = (r + 0.25 + r / 7) * (-1) ** (r + 1)
    state.int_regs[30] = _ITERS
    if op is Opcode.RET:
        state.int_regs[RS1["int"]] = _TARGET
        state.fp_regs[RS1["fp"] - _F] = float(_TARGET)
        state.int_regs[31] = _TARGET  # what a RET through NO_REG reads
    for rs1 in RS1.values():
        for imm in IMMS.values():
            addr = int(state.read_reg(rs1) + imm)
            state.memory[addr] = addr * 3 - 1
    return state


def _program(op: Opcode, rd: int, rs1: int, rs2: int, imm) -> Program:
    """``jump`` into a loop whose block runs the instruction under test,
    stores its ``rd`` where each iteration leaves it, and stores a float
    where the next iteration loads (an int LOAD of a float written by
    FSTORE). A control op under test skips the observing store when it
    is taken."""
    target = _TARGET if op in CONTROL_OPS and op is not Opcode.RET else -1
    insts = [
        StaticInst(0, Opcode.JUMP, target=1),
        StaticInst(1, op, rd, rs1, rs2, imm, target),
        StaticInst(2, Opcode.STORE, rs1=30, rs2=rd, imm=1000),
        StaticInst(3, Opcode.FSTORE, rs1=rs1, rs2=_F + 9, imm=imm),
        StaticInst(4, Opcode.ADDI, 30, 30, imm=-1),
        StaticInst(5, Opcode.BNE, rs1=30, rs2=0, target=1),
        StaticInst(6, Opcode.HALT),
    ]
    return Program(f"{op.name}-{rd}-{rs1}-{rs2}-{imm}", insts)


def _key(dyn):
    return (dyn.seq, dyn.static.index, dyn.eff_addr, type(dyn.eff_addr),
            dyn.taken, dyn.next_index)


def _snapshot(state: ArchState):
    return (
        [(type(v), v) for v in state.int_regs],
        [(type(v), v) for v in state.fp_regs],
        {k: (type(v), v) for k, v in state.memory.items()},
    )


def _check_case(op, rd, rs1, rs2, imm):
    """Drive one case through ``skip`` (the block path) and through the
    interpreted drive; compare records, counts, state and errors."""
    program = _program(op, rd, rs1, rs2, imm)
    ref = Interpreter(program, _state(op), _MAX_INSTS, compiled=False)
    want = []
    try:
        want.extend(ref.run())
    except InterpreterError as exc:  # RET to pc 0 loops until the limit
        stream = InstStream(program, _state(op), _MAX_INSTS)
        with pytest.raises(InterpreterError) as got:
            stream.skip(_MAX_INSTS + 1)
        assert str(got.value) == str(exc)
        assert _snapshot(stream.state) == _snapshot(ref.state)
        return
    total = len(want)
    want_counts = [
        sum(1 for d in want if d.static.index == i)
        for i in range(len(program))
    ]
    # All through advance, so the last iteration runs as a block too;
    # then with a record tail, cut inside the last iteration.
    for keep in (0, _KEEP):
        stream = InstStream(program, _state(op), _MAX_INSTS, history=_KEEP)
        counts = [0] * len(program)
        assert stream.skip(total, counts, keep=keep) == total
        assert stream.interp.compiled
        assert stream.take() is None and stream.interp.halted
        assert counts == want_counts
        assert _snapshot(stream.state) == _snapshot(ref.state)
    assert list(map(_key, stream.recent_before(total, _KEEP))) == list(
        map(_key, want[-_KEEP:])
    )


@pytest.mark.parametrize("op", list(Opcode), ids=lambda op: op.name)
def test_every_operand_class_matches_interpreted(op):
    for rd, rs1, rs2, imm in itertools.product(
        RD.values(), RS1.values(), RS2.values(), IMMS.values()
    ):
        _check_case(op, rd, rs1, rs2, imm)


def test_every_case_runs_a_compiled_block(monkeypatch):
    """The cases above reach the block path: the loop body is compiled
    as a block that holds the instruction under test."""
    seen = []
    real = interpreter._compile_block

    def spy(program, entry):
        made = real(program, entry)
        seen.append((entry, made[1]))
        return made

    monkeypatch.setattr(interpreter, "_compile_block", spy)
    _check_case(Opcode.SUB, RD["int"], RS1["int"], RS2["int"], IMMS["neg"])
    assert (1, 5) in seen  # sub, store, fstore, addi, bne


# ----------------------------------------------------------------------
# (b) advance(n) stops exactly inside a block and resumes after it.
# ----------------------------------------------------------------------


def _loop_program() -> Program:
    """A 9-instruction block (loads, stores, int and fp arithmetic)
    run ten times, entered from a jump."""
    insts = [
        StaticInst(0, Opcode.JUMP, target=1),
        StaticInst(1, Opcode.LOAD, 2, 1, imm=64),
        StaticInst(2, Opcode.SUB, 3, 2, 4),
        StaticInst(3, Opcode.FSUB, _F + 1, _F + 1, _F + 2),
        StaticInst(4, Opcode.FSTORE, rs1=1, rs2=_F + 1, imm=128),
        StaticInst(5, Opcode.STORE, rs1=1, rs2=3, imm=64),
        StaticInst(6, Opcode.SLL, 5, 3, 6),
        StaticInst(7, Opcode.FMIN, _F + 3, _F + 1, _F + 3),  # fallback
        StaticInst(8, Opcode.ADDI, 1, 1, imm=8),
        StaticInst(9, Opcode.BNE, rs1=1, rs2=7, target=1),
        StaticInst(10, Opcode.HALT),
    ]
    return Program("loop", insts)


def _loop_state() -> ArchState:
    state = ArchState()
    state.int_regs[4] = -3
    state.int_regs[6] = 2
    state.int_regs[7] = 80
    state.fp_regs[1] = 0.5
    state.fp_regs[2] = 1.375
    state.fp_regs[3] = -0.75
    for addr in range(0, 256, 8):
        state.memory[addr] = addr - 7
    return state


def _reference_after(program, n):
    """State, position and counts after the first *n* instructions."""
    interp = Interpreter(program, _loop_state(), compiled=False)
    counts = [0] * len(program)
    for dyn in itertools.islice(interp.run(), n):
        counts[dyn.static.index] += 1
    return _snapshot(interp.state), interp.pc, interp.inst_count, counts


def test_advance_stops_at_every_offset_and_resumes():
    program = _loop_program()
    total = len(list(Interpreter(program, _loop_state(),
                                 compiled=False).run()))
    assert total == 1 + 9 * 10 + 1
    for n in range(total + 1):
        interp = Interpreter(program, _loop_state())
        counts = [0] * len(program)
        assert interp.advance(n, counts) == n
        state, pc, count, want_counts = _reference_after(program, n)
        assert (interp.pc, interp.inst_count) == (pc, count) == (pc, n)
        assert counts == want_counts
        assert _snapshot(interp.state) == state
        assert interp.advance(total, counts) == total - n
        assert interp.halted
        end = _reference_after(program, total)
        assert _snapshot(interp.state) == end[0]
        assert counts == end[3]


@pytest.mark.parametrize("chunk", range(1, 12))
def test_chunked_advance_matches_at_every_stop(chunk):
    """Every chunk size from 1 to past the block: each call stops where
    the interpreted drive is after the same count."""
    program = _loop_program()
    interp = Interpreter(program, _loop_state())
    counts = [0] * len(program)
    done = 0
    while not interp.halted:
        done += interp.advance(chunk, counts)
        state, pc, count, want_counts = _reference_after(program, done)
        assert (interp.pc, interp.inst_count) == (pc, count)
        assert counts == want_counts
        assert _snapshot(interp.state) == state


def test_limit_inside_a_block_raises_where_run_does():
    program = _loop_program()
    for max_insts in (5, 10, 11, 12, 50):
        fast = Interpreter(program, _loop_state(), max_insts=max_insts)
        slow = Interpreter(program, _loop_state(), max_insts=max_insts,
                           compiled=False)
        with pytest.raises(InterpreterError) as want:
            for _ in slow.run():
                pass
        with pytest.raises(InterpreterError) as got:
            fast.advance(10**6)
        assert str(got.value) == str(want.value)
        assert (fast.pc, fast.inst_count) == (slow.pc, slow.inst_count)
        assert _snapshot(fast.state) == _snapshot(slow.state)


def test_an_error_raised_in_a_block_propagates():
    """An int LOAD of an infinite float raises OverflowError inside the
    block; it reaches the caller as it is."""
    insts = [
        StaticInst(0, Opcode.JUMP, target=1),
        StaticInst(1, Opcode.ADDI, 2, 2, imm=1),
        StaticInst(2, Opcode.LOAD, 3, 0, imm=64),
        StaticInst(3, Opcode.JUMP, target=4),
        StaticInst(4, Opcode.HALT),
    ]
    program = Program("inf", insts)
    state = ArchState()
    state.memory[64] = float("inf")
    with pytest.raises(OverflowError):
        Interpreter(program, state).advance(100)
    assert state.int_regs[2] == 1


# ----------------------------------------------------------------------
# (c) One compile per entry per program; (d) exact with the cache empty
# and full.
# ----------------------------------------------------------------------


def _count_compiles(monkeypatch) -> Counter:
    calls: Counter = Counter()
    real = interpreter._compile_block

    def counting(program, entry):
        calls[entry] += 1
        return real(program, entry)

    monkeypatch.setattr(interpreter, "_compile_block", counting)
    return calls


@pytest.mark.parametrize("name", ["gcc", "nab", "x264"])
def test_second_run_of_a_program_compiles_nothing(monkeypatch, name):
    calls = _count_compiles(monkeypatch)
    workload = build(name, scale=0.05)
    program = workload.program
    first = simulate_functional(program, arch_state=workload.fresh_state())
    compiled = dict(calls)
    assert compiled and set(compiled.values()) == {1}
    again = simulate_functional(program, arch_state=workload.fresh_state())
    plan = WindowPlan(window=64, stride=256, warmup=32)
    SampledBackend(plan=plan).simulate(
        program, arch_state=workload.fresh_state()
    )
    assert dict(calls) == compiled
    assert again.exec_counts == first.exec_counts
    # A program built again is a new program: it compiles its own.
    rebuilt = build(name, scale=0.05)
    simulate_functional(rebuilt.program, arch_state=rebuilt.fresh_state())
    assert dict(calls) == {entry: 2 for entry in compiled}


def _interpreted_result(workload):
    interp = Interpreter(workload.program, workload.fresh_state(),
                         compiled=False)
    counts: Counter = Counter(d.static.index for d in interp.run())
    return interp.inst_count, dict(counts), arch_digest(interp.state)


@pytest.mark.parametrize(
    "make",
    [lambda: build("gcc", scale=0.05), lambda: build("nab", scale=0.05),
     lambda: build_synth(scale=0.5, seed=3)],
    ids=["gcc", "nab", "synth-3"],
)
def test_functional_is_exact_with_the_cache_empty_and_full(make):
    workload = make()
    want = _interpreted_result(workload)
    assert workload.program not in interpreter._BLOCK_CODE
    for _ in range(2):
        result = simulate_functional(
            workload.program, arch_state=workload.fresh_state()
        )
        got = (result.committed, result.exec_counts,
               arch_digest(result.arch_state))
        assert got == want
        assert interpreter._BLOCK_CODE[workload.program]


def test_block_cache_dies_with_its_program():
    program = _loop_program()
    Interpreter(program, _loop_state()).advance(10**6)
    assert interpreter._BLOCK_CODE[program]
    alive = weakref.ref(program)
    del program
    gc.collect()
    assert alive() is None


def test_generated_code_is_filed_under_the_isa_package():
    workload = build("lbm", scale=0.05)
    interp = Interpreter(workload.program, workload.fresh_state())
    interp.advance(10**6)
    code = {code.co_filename
            for code, length, _ in
            interpreter._BLOCK_CODE[workload.program].values() if length}
    assert code == {interpreter._BLOCK_FILE}
    assert "/repro/isa/" in interpreter._BLOCK_FILE.replace("\\", "/")


def test_blocks_without_a_fallback_keep_no_cycle():
    """Only a block that calls ``_execute`` holds the bound method, so
    an interpreter whose blocks all specialise is freed by reference
    counting, with its state and tables, as soon as it is dropped."""
    workload = build("mcf", scale=0.05)
    interp = Interpreter(workload.program, workload.fresh_state())
    interp.advance(10**6)
    assert interp.halted and interp._blocks
    alive = weakref.ref(interp)
    gc.disable()
    try:
        del interp
        assert alive() is None
    finally:
        gc.enable()
