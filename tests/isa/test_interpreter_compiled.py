"""Compiled-handler interpreter: exact equivalence with the plain loop.

``Interpreter(compiled=True)`` (the default) specialises each static
instruction into a closure with register indices and immediates baked
in; ``compiled=False`` is the original interpreted dispatch. The
specialisation contract is exactness: identical dynamic streams
(including effective-address *types*) and identical final architectural
state, or a clean whole-program fallback to the interpreted path. Each
closure is compiled the first time its pc executes, never up front.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.isa import interpreter
from repro.isa.builder import ProgramBuilder
from repro.isa.interpreter import ArchState, Interpreter
from repro.workloads import WORKLOAD_NAMES, build


def _stream(program, state, compiled: bool):
    interp = Interpreter(program, state, compiled=compiled)
    dyns = [
        (d.static, d.seq, d.eff_addr, type(d.eff_addr), d.taken,
         d.next_index)
        for d in interp.run()
    ]
    return dyns, interp


def _state_snapshot(state: ArchState):
    return (
        [(type(v), v) for v in state.int_regs],
        [(type(v), v) for v in state.fp_regs],
        {k: (type(v), v) for k, v in state.memory.items()},
    )


@pytest.mark.parametrize("name", sorted(WORKLOAD_NAMES))
def test_compiled_matches_interpreted(name):
    workload = build(name, scale=0.05)
    compiled_dyns, compiled = _stream(
        workload.program, workload.fresh_state(), True
    )
    interp_dyns, interpreted = _stream(
        workload.program, workload.fresh_state(), False
    )
    assert compiled_dyns == interp_dyns
    assert compiled.inst_count == interpreted.inst_count
    assert compiled.halted == interpreted.halted
    assert _state_snapshot(compiled.state) == _state_snapshot(
        interpreted.state
    )


def test_mixed_register_classes_fall_back_cleanly():
    """Ops outside the specialised set run through the fallback closure
    with identical results."""
    b = ProgramBuilder("t")
    b.li("x1", 37)
    b.li("x2", 5)
    b.div("x3", "x1", "x2")
    b.rem("x4", "x1", "x2")
    b.fcvt("f1", "x3")
    b.fsqrt("f2", "f1")
    b.fdiv("f3", "f1", "f2")
    b.halt()
    program = b.build()
    a, ia = _stream(program, None, True)
    bb, ib = _stream(program, None, False)
    assert a == bb
    assert _state_snapshot(ia.state) == _state_snapshot(ib.state)


def test_seeded_state_violating_invariant_falls_back():
    """A seeded state that breaks the register type invariant (an int
    in an fp register) disables compilation for the whole program
    rather than diverging."""
    b = ProgramBuilder("t")
    b.li("x1", 1)
    b.fadd("f3", "f1", "f2")
    b.halt()
    program = b.build()
    state = ArchState()
    state.fp_regs[1] = 2  # int where a float belongs
    state2 = ArchState()
    state2.fp_regs[1] = 2
    a, ia = _stream(program, state, True)
    bb, ib = _stream(program, state2, False)
    assert a == bb
    assert _state_snapshot(ia.state) == _state_snapshot(ib.state)


_PAD = 4096


def _sparse_program():
    """A loop that jumps over a long never-executed ``nop`` region into a
    block first reached on its third iteration, after the block's
    source registers (int and fp) were rewritten on every iteration."""
    b = ProgramBuilder("sparse")
    b.li("x1", 0)  # iteration
    b.li("x2", 5)  # trip count
    b.li("x3", 2)  # the late block runs from this iteration on
    b.li("x5", 1)
    b.label("loop")
    b.addi("x5", "x5", 3)
    b.fcvt("f1", "x5")
    b.jump("far")
    for _ in range(_PAD):
        b.nop()
    b.label("far")
    b.blt("x1", "x3", "skip")
    b.mul("x6", "x5", "x5")
    b.store("x6", "x0", 64)
    b.load("x7", "x0", 64)
    b.div("x8", "x7", "x3")  # no specialised closure: the fallback
    b.fadd("f2", "f1", "f1")
    b.fstore("f2", "x0", 128)
    b.fload("f3", "x0", 128)
    b.add("x9", "x9", "x8")
    b.label("skip")
    b.addi("x1", "x1", 1)
    b.bne("x1", "x2", "loop")
    b.halt()
    return b.build()


def test_late_block_past_dead_padding_matches_interpreted():
    program = _sparse_program()
    a, ia = _stream(program, None, True)
    bb, ib = _stream(program, None, False)
    assert a == bb
    assert ia.halted and ib.halted
    assert _state_snapshot(ia.state) == _state_snapshot(ib.state)
    executed = {d[0].index for d in a}
    assert all(i < 10 or i > _PAD for i in executed)
    assert ia.state.int_regs[9] == ib.state.int_regs[9] != 0


def _gcc():
    workload = build("gcc", scale=0.05)
    return workload.program, workload.fresh_state()


@pytest.mark.parametrize(
    "make", [lambda: (_sparse_program(), None), _gcc], ids=["sparse", "gcc"]
)
def test_each_executed_pc_is_compiled_once(monkeypatch, make):
    """Only executed pcs are compiled, once each: gcc's hot blocks sit
    2048 slots apart in padding that never runs."""
    calls: Counter = Counter()
    real = interpreter._compile_inst

    def counting(inst, pc, *args):
        calls[pc] += 1
        return real(inst, pc, *args)

    monkeypatch.setattr(interpreter, "_compile_inst", counting)
    program, state = make()
    dyns, interp = _stream(program, state, True)
    assert interp.halted
    assert set(calls) == {d[0].index for d in dyns}
    assert set(calls.values()) == {1}
    assert 10 * len(calls) < len(program)


def test_type_error_from_a_compiled_handler_propagates(monkeypatch):
    """Calling a pc's empty slot raises the TypeError that compiles it;
    a TypeError raised by an already compiled handler must pass through
    as is, with no recompile and no retried call."""
    real = interpreter._compile_inst
    compiled: Counter = Counter()
    called: Counter = Counter()
    program = _sparse_program()
    loop_pc = program.labels["loop"]

    def flaky(inst, pc, *args):
        compiled[pc] += 1
        handler = real(inst, pc, *args)

        def wrapper():
            called[pc] += 1
            if pc == loop_pc and called[pc] == 2:
                raise TypeError("from the handler")
            return handler()

        return wrapper

    monkeypatch.setattr(interpreter, "_compile_inst", flaky)
    with pytest.raises(TypeError, match="from the handler"):
        _stream(program, None, True)
    assert compiled[loop_pc] == 1
    assert called[loop_pc] == 2
