"""Functional interpreter producing the committed dynamic instruction stream.

The timing model in :mod:`repro.uarch` is trace-driven: this interpreter
executes a program architecturally (register file + memory) and yields one
:class:`~repro.isa.instructions.DynInst` per committed instruction, carrying
the branch outcome and memory effective address the timing model needs.
Consumers that only need the architectural state to move on (the
functional tier, the sampled tier's fast-forward) call
:meth:`Interpreter.advance` instead, which makes no records and runs
straight-line code a block at a time, through one generated function
per block built from the same per-instruction expressions.

Wrong-path execution is *not* produced here; the timing model models the
wrong-path penalty as a front-end stall (see DESIGN.md, "Known deviations").
"""

from __future__ import annotations

import builtins
import math
import os
import weakref
from collections.abc import Iterator
from types import CodeType, FunctionType

from repro.isa.instructions import (
    FP_BASE,
    NO_REG,
    NUM_FP_REGS,
    NUM_INT_REGS,
    DynInst,
    StaticInst,
)
from repro.isa.opcodes import (
    BRANCH_OPS,
    CONTROL_OPS,
    MEMORY_READ_OPS,
    MEMORY_WRITE_OPS,
    Opcode,
)
from repro.isa.program import Program

# Opcode members as module constants: on Python 3.11 a load such as
# ``Opcode.ADD`` goes through ``EnumType.__getattr__`` and is never
# specialised (tests/uarch/test_hot_path.py).
_ADD, _SUB, _MUL = Opcode.ADD, Opcode.SUB, Opcode.MUL
_AND, _OR, _XOR = Opcode.AND_, Opcode.OR_, Opcode.XOR_
_SLT, _SLL, _SRL = Opcode.SLT, Opcode.SLL, Opcode.SRL
_ADDI, _ANDI, _ORI, _XORI = Opcode.ADDI, Opcode.ANDI, Opcode.ORI, Opcode.XORI
_SLTI, _LUI, _PREFETCH = Opcode.SLTI, Opcode.LUI, Opcode.PREFETCH
_FADD, _FSUB, _FMUL = Opcode.FADD, Opcode.FSUB, Opcode.FMUL
_BEQ, _BNE, _BLT, _BGE = Opcode.BEQ, Opcode.BNE, Opcode.BLT, Opcode.BGE
_JUMP, _CALL, _RET = Opcode.JUMP, Opcode.CALL, Opcode.RET
_NOP, _SERIAL, _HALT = Opcode.NOP, Opcode.SERIAL, Opcode.HALT


class InterpreterError(RuntimeError):
    """Raised when functional execution cannot proceed or does not halt."""


class ArchState:
    """Architectural state: integer/fp register files and memory.

    Memory is a sparse ``dict`` of byte address to value. Workloads
    initialise arrays by writing to :attr:`memory` before execution. Reads
    of uninitialised addresses return 0 (integer) so pointer-free kernels
    need no setup.
    """

    def __init__(self) -> None:
        self.int_regs: list[int] = [0] * NUM_INT_REGS
        self.fp_regs: list[float] = [0.0] * NUM_FP_REGS
        self.memory: dict[int, float] = {}

    def read_reg(self, reg: int) -> float:
        """Read an encoded register (x0 always reads 0)."""
        if reg < FP_BASE:
            return self.int_regs[reg]
        return self.fp_regs[reg - FP_BASE]

    def write_reg(self, reg: int, value: float) -> None:
        """Write an encoded register (writes to x0 are discarded)."""
        if reg == NO_REG:
            return
        if reg < FP_BASE:
            if reg != 0:
                self.int_regs[reg] = int(value)
        else:
            self.fp_regs[reg - FP_BASE] = float(value)

    def read_mem(self, addr: int) -> float:
        """Read memory at a byte address (0 if uninitialised)."""
        return self.memory.get(addr, 0)

    def write_mem(self, addr: int, value: float) -> None:
        """Write memory at a byte address."""
        self.memory[addr] = value


class Interpreter:
    """Architecturally execute a :class:`~repro.isa.program.Program`.

    Args:
        program: The program to execute.
        state: Optional pre-initialised architectural state (workloads use
            this to set up arrays and pointer-chase permutations).
        max_insts: Safety bound on committed instructions; exceeded means
            the program diverged.
    """

    def __init__(
        self,
        program: Program,
        state: ArchState | None = None,
        max_insts: int = 50_000_000,
        compiled: bool = True,
    ) -> None:
        self.program = program
        self.state = state or ArchState()
        self.max_insts = max_insts
        self.halted = False
        # The resume position every drive shares: the pc of the next
        # instruction and the count committed before it. A drive stores
        # it before it hands an instruction out, never after, so a
        # generator closed at its yield leaves it as it was.
        self.pc = 0
        self.inst_count = 0
        # Per-instruction closure specialization (see _compile_inst).
        # False forces the interpreted path; the equivalence tests compare
        # the two streams instruction by instruction. The first run() or
        # advance() also sets it False when seeded registers break the
        # type invariant the specializer relies on.
        self.compiled = compiled
        # The compiled drive's per-pc closures and static instructions,
        # both filled on a pc's first execution: reading the program
        # costs a Python-level __getitem__, which the hot path must not
        # pay per instruction. Allocated by _use_compiled().
        self._handlers: list | None = None
        self._insts: list[StaticInst | None] | None = None
        # advance()'s blocks, bound to this state: entry pc ->
        # (function, length). Allocated by _use_compiled().
        self._blocks: dict[int, tuple] | None = None

    def run(self) -> Iterator[DynInst]:
        """Yield one :class:`DynInst` per committed instruction until HALT.

        Starts at the resume position, so a generator made after
        :meth:`advance` continues where it stopped.

        Raises:
            InterpreterError: If ``max_insts`` is exceeded, a RET jumps out
                of range, or execution falls off the end of the program.
        """
        if self._use_compiled():
            return self._drive_compiled()
        return self._run_interpreted()

    def _use_compiled(self) -> bool:
        """Whether the compiled drive runs; decided on the first call.

        The compiled drive produces exactly the stream of
        :meth:`_run_interpreted`. Each pc's closure is compiled by
        :func:`_compile_inst` the first time that pc executes, so set-up
        cost scales with the instructions that run, not with the
        program's static size. Anything the specializer cannot prove
        exact falls back to :meth:`_execute` per instruction.
        """
        if self._handlers is None and self.compiled:
            state = self.state
            if (
                all(type(v) is int for v in state.int_regs)
                and all(type(v) is float for v in state.fp_regs)
            ):
                n_insts = len(self.program)
                self._handlers = [None] * n_insts
                self._insts = [None] * n_insts
                self._blocks = {}
            else:
                # Seeded register state breaks the type invariant the
                # specializer relies on; run fully interpreted.
                self.compiled = False
        return self.compiled

    def _compile_at(self, pc: int):
        """Fill pc's table slots on its first execution; return its closure."""
        state = self.state
        inst = self._insts[pc] = self.program[pc]
        handler = self._handlers[pc] = _compile_inst(
            inst, pc, state.int_regs, state.fp_regs, state.memory,
            self._execute,
        )
        return handler

    def _pc_error(self, pc: int) -> InterpreterError:
        return InterpreterError(f"{self.program.name}: pc {pc} outside program")

    def _limit_error(self) -> InterpreterError:
        return InterpreterError(
            f"{self.program.name}: exceeded {self.max_insts} committed "
            "instructions without HALT"
        )

    def _drive_compiled(self) -> Iterator[DynInst]:
        if self.halted:
            return
        n_insts = len(self.program)
        handlers = self._handlers
        insts = self._insts
        max_insts = self.max_insts
        pc = self.pc
        seq = self.inst_count
        while True:
            if pc >= n_insts or pc < 0:
                raise self._pc_error(pc)
            if seq >= max_insts:
                raise self._limit_error()
            inst = insts[pc]
            try:
                next_pc, eff_addr, taken = handlers[pc]()
            except TypeError:
                # First execution of this pc: its slot still holds None.
                # A try block is free on CPython 3.11+, so the hot path
                # pays nothing, unlike an `is None` test per instruction.
                if handlers[pc] is not None:
                    raise
                next_pc, eff_addr, taken = self._compile_at(pc)()
                inst = insts[pc]
            dyn = DynInst(inst, seq, eff_addr, taken, next_pc)
            seq += 1
            self.inst_count = seq
            # HALT always returns next_pc == pc, so the opcode is read
            # only on the rare self-loop.
            if next_pc == pc and inst.op is Opcode.HALT:
                self.halted = True
                yield dyn
                return
            self.pc = pc = next_pc
            yield dyn

    def advance(self, n: int, counts: list[int] | None = None) -> int:
        """Run up to *n* instructions from the resume position, making
        no :class:`DynInst`; return how many ran.

        Fewer than *n* run only when HALT ends the program. Straight-line
        code runs a block at a time (see :func:`_compile_block`): where
        control lands, one generated function runs every instruction up
        to and including the next control op, if all of them fit in both
        *n* and ``max_insts``. Anything else -- a call that starts
        mid-block, a block that does not fit, HALT, a control op the
        emitter leaves out -- runs one closure per instruction, as
        :meth:`run`'s compiled drive does, with the same checks. So the
        call stops at exactly *n*, an :class:`InterpreterError` is raised
        at the same instruction as :meth:`run` raises it, and the two
        drives may be interleaved and produce the one stream. An
        exception raised inside a block propagates as it is, with the
        resume position left at the block's entry.

        Args:
            counts: When given, ``counts[index]`` is incremented once per
                executed instruction (a block's, when the call ends).

        Raises:
            InterpreterError: As :meth:`run`, or if the compiled drive
                cannot run (see :attr:`compiled`).
        """
        if not self._use_compiled():
            raise InterpreterError(
                f"{self.program.name}: advance() needs the compiled drive"
            )
        if self.halted:
            return 0
        n_insts = len(self.program)
        handlers = self._handlers
        insts = self._insts
        blocks = self._blocks
        pc = self.pc
        seq = start = self.inst_count
        stop = seq + n
        max_insts = self.max_insts
        limit = min(stop, max_insts)
        # Executions per block entry, added to counts in the finally.
        ran: dict[int, int] = {}
        ran_get = ran.get
        counting = counts is not None
        # The resume position may be mid-block: run one instruction at a
        # time until a control op has executed.
        at_entry = False
        try:
            while seq < stop:
                if at_entry:
                    try:
                        block, length = blocks[pc]
                    except KeyError:
                        block, length = self._bind_block(pc)
                    if length and seq + length <= limit:
                        entry = pc
                        pc = block()
                        seq += length
                        if counting:
                            ran[entry] = ran_get(entry, 0) + 1
                        continue
                if pc >= n_insts or pc < 0:
                    raise self._pc_error(pc)
                if seq >= max_insts:
                    raise self._limit_error()
                try:
                    next_pc = handlers[pc]()[0]
                except TypeError:
                    if handlers[pc] is not None:
                        raise
                    next_pc = self._compile_at(pc)()[0]
                if counting:
                    counts[pc] += 1
                seq += 1
                op = insts[pc].op
                if next_pc == pc and op is _HALT:
                    self.halted = True
                    break
                at_entry = op in CONTROL_OPS
                pc = next_pc
        finally:
            self.pc = pc
            self.inst_count = seq
            for entry, times in ran.items():
                for index in range(entry, entry + blocks[entry][1]):
                    counts[index] += times
        return seq - start

    def _bind_block(self, pc: int) -> tuple:
        """Bind the block entered at *pc* to this state, compiling it on
        the program's first entry there; return ``(function, length)``.

        A length of 0 (HALT, or a control op the emitter leaves out, at
        *pc*) binds no function.
        """
        if pc >= len(self.program) or pc < 0:
            raise self._pc_error(pc)
        compiled = _BLOCK_CODE.setdefault(self.program, {})
        try:
            code, length, consts = compiled[pc]
        except KeyError:
            code, length, consts = compiled[pc] = _compile_block(
                self.program, pc
            )
        state = self.state
        block = None
        if length:
            # The state and constants are the parameters' defaults: the
            # block reads them as locals and is called with no arguments.
            fallback = (self._execute,) if "X" in code.co_varnames else ()
            block = FunctionType(code, _BLOCK_GLOBALS, None, (
                state.int_regs, state.fp_regs, state.memory, *fallback,
                *consts,
            ))
        bound = self._blocks[pc] = (block, length)
        return bound

    def _run_interpreted(self) -> Iterator[DynInst]:
        if self.halted:
            return
        program = self.program
        n_insts = len(program)
        pc = self.pc
        seq = self.inst_count
        while True:
            if pc >= n_insts or pc < 0:
                raise self._pc_error(pc)
            if seq >= self.max_insts:
                raise self._limit_error()
            inst = program[pc]
            next_pc, eff_addr, taken = self._execute(inst, pc)
            dyn = DynInst(
                static=inst,
                seq=seq,
                eff_addr=eff_addr,
                taken=taken,
                next_index=next_pc,
            )
            seq += 1
            self.inst_count = seq
            if inst.op == Opcode.HALT:
                self.halted = True
                yield dyn
                return
            self.pc = pc = next_pc
            yield dyn

    def _execute(
        self, inst: StaticInst, pc: int
    ) -> tuple[int, int, bool]:
        """Execute one instruction; return (next_pc, eff_addr, taken)."""
        state = self.state
        op = inst.op
        next_pc = pc + 1
        eff_addr = -1
        taken = False

        # The chain is ordered by measured dynamic frequency over the
        # workload suite (ADDI alone is ~35% of committed instructions),
        # not by opcode grouping -- each test hits exactly one opcode, so
        # ordering is free.
        if op == Opcode.ADDI:
            state.write_reg(inst.rd, state.read_reg(inst.rs1) + inst.imm)
        elif op in (Opcode.LOAD, Opcode.FLOAD):
            eff_addr = int(state.read_reg(inst.rs1) + inst.imm)
            state.write_reg(inst.rd, state.read_mem(eff_addr))
        elif op == Opcode.BNE:
            taken = state.read_reg(inst.rs1) != state.read_reg(inst.rs2)
            if taken:
                next_pc = inst.target
        elif op == Opcode.ADD:
            state.write_reg(
                inst.rd, state.read_reg(inst.rs1) + state.read_reg(inst.rs2)
            )
        elif op == Opcode.FADD:
            state.write_reg(
                inst.rd, state.read_reg(inst.rs1) + state.read_reg(inst.rs2)
            )
        elif op == Opcode.FMUL:
            state.write_reg(
                inst.rd, state.read_reg(inst.rs1) * state.read_reg(inst.rs2)
            )
        elif op == Opcode.ANDI:
            state.write_reg(
                inst.rd, int(state.read_reg(inst.rs1)) & int(inst.imm)
            )
        elif op == Opcode.MUL:
            state.write_reg(
                inst.rd,
                int(state.read_reg(inst.rs1)) * int(state.read_reg(inst.rs2)),
            )
        elif op == Opcode.BEQ:
            taken = state.read_reg(inst.rs1) == state.read_reg(inst.rs2)
            if taken:
                next_pc = inst.target
        elif op in (Opcode.STORE, Opcode.FSTORE):
            eff_addr = int(state.read_reg(inst.rs1) + inst.imm)
            state.write_mem(eff_addr, state.read_reg(inst.rs2))
        elif op == Opcode.JUMP:
            taken = True
            next_pc = inst.target
        elif op == Opcode.NOP or op == Opcode.SERIAL:
            pass
        elif op == Opcode.SUB:
            state.write_reg(
                inst.rd, state.read_reg(inst.rs1) - state.read_reg(inst.rs2)
            )
        elif op == Opcode.AND_:
            state.write_reg(
                inst.rd,
                int(state.read_reg(inst.rs1)) & int(state.read_reg(inst.rs2)),
            )
        elif op == Opcode.OR_:
            state.write_reg(
                inst.rd,
                int(state.read_reg(inst.rs1)) | int(state.read_reg(inst.rs2)),
            )
        elif op == Opcode.XOR_:
            state.write_reg(
                inst.rd,
                int(state.read_reg(inst.rs1)) ^ int(state.read_reg(inst.rs2)),
            )
        elif op == Opcode.SLT:
            state.write_reg(
                inst.rd,
                1 if state.read_reg(inst.rs1) < state.read_reg(inst.rs2) else 0,
            )
        elif op == Opcode.SLL:
            state.write_reg(
                inst.rd,
                int(state.read_reg(inst.rs1))
                << (int(state.read_reg(inst.rs2)) & 63),
            )
        elif op == Opcode.SRL:
            state.write_reg(
                inst.rd,
                int(state.read_reg(inst.rs1))
                >> (int(state.read_reg(inst.rs2)) & 63),
            )
        elif op == Opcode.ORI:
            state.write_reg(
                inst.rd, int(state.read_reg(inst.rs1)) | int(inst.imm)
            )
        elif op == Opcode.XORI:
            state.write_reg(
                inst.rd, int(state.read_reg(inst.rs1)) ^ int(inst.imm)
            )
        elif op == Opcode.SLTI:
            state.write_reg(
                inst.rd, 1 if state.read_reg(inst.rs1) < inst.imm else 0
            )
        elif op == Opcode.LUI:
            state.write_reg(inst.rd, inst.imm)
        elif op == Opcode.DIV:
            divisor = int(state.read_reg(inst.rs2))
            dividend = int(state.read_reg(inst.rs1))
            state.write_reg(
                inst.rd, 0 if divisor == 0 else int(dividend / divisor)
            )
        elif op == Opcode.REM:
            divisor = int(state.read_reg(inst.rs2))
            dividend = int(state.read_reg(inst.rs1))
            state.write_reg(
                inst.rd,
                dividend if divisor == 0 else int(math.fmod(dividend, divisor)),
            )
        elif op == Opcode.FSUB:
            state.write_reg(
                inst.rd, state.read_reg(inst.rs1) - state.read_reg(inst.rs2)
            )
        elif op == Opcode.FDIV:
            divisor = state.read_reg(inst.rs2)
            state.write_reg(
                inst.rd,
                0.0 if divisor == 0 else state.read_reg(inst.rs1) / divisor,
            )
        elif op == Opcode.FSQRT:
            state.write_reg(inst.rd, math.sqrt(abs(state.read_reg(inst.rs1))))
        elif op == Opcode.FMIN:
            state.write_reg(
                inst.rd,
                min(state.read_reg(inst.rs1), state.read_reg(inst.rs2)),
            )
        elif op == Opcode.FMAX:
            state.write_reg(
                inst.rd,
                max(state.read_reg(inst.rs1), state.read_reg(inst.rs2)),
            )
        elif op == Opcode.FCVT:
            state.write_reg(inst.rd, float(state.read_reg(inst.rs1)))
        elif op == Opcode.FMV:
            state.write_reg(inst.rd, int(state.read_reg(inst.rs1)))
        elif op == Opcode.PREFETCH:
            eff_addr = int(state.read_reg(inst.rs1) + inst.imm)
        elif op == Opcode.BLT:
            taken = state.read_reg(inst.rs1) < state.read_reg(inst.rs2)
            if taken:
                next_pc = inst.target
        elif op == Opcode.BGE:
            taken = state.read_reg(inst.rs1) >= state.read_reg(inst.rs2)
            if taken:
                next_pc = inst.target
        elif op == Opcode.CALL:
            taken = True
            state.write_reg(inst.rd, pc + 1)
            next_pc = inst.target
        elif op == Opcode.RET:
            taken = True
            next_pc = int(state.read_reg(inst.rs1))
        elif op == Opcode.HALT:
            next_pc = pc
        else:  # pragma: no cover - exhaustive over Opcode
            raise InterpreterError(f"unimplemented opcode {op!r}")
        return next_pc, eff_addr, taken


# ----------------------------------------------------------------------
# Per-instruction specialization.
#
# _execute() pays, per committed instruction, a method call, an opcode
# dispatch chain, repeated StaticInst attribute reads, and read_reg/
# write_reg calls. All of that is static per instruction, so the hot
# opcodes compile to closures with register indices, immediates, and the
# constant part of the (next_pc, eff_addr, taken) result baked in.
#
# Exactness contract: a specialized closure elides an int()/float()
# conversion only where the register type invariant proves the value
# bit-identical -- int_regs hold ints and fp_regs hold floats.
# write_reg() preserves the invariant (it converts on store), every
# specialized store does too, and Interpreter._use_compiled() verifies
# it for the workload-seeded initial state on the first run() or
# advance(), running fully interpreted otherwise. A closure is compiled
# the first time its pc executes; which closure is built depends only
# on the static instruction, never on register values, so when it is
# compiled cannot change what it does. Any opcode or operand-class
# combination not provably exact falls back to a closure around
# _execute() itself. The interpreted path is kept intact
# (Interpreter(compiled=False)) and the equivalence tests compare the
# two streams instruction by instruction.
# ----------------------------------------------------------------------
def _compile_inst(inst, pc, int_regs, fp_regs, memory, fallback):
    """Build the execution closure for one static instruction."""
    op = inst.op
    rd = inst.rd
    rs1 = inst.rs1
    rs2 = inst.rs2
    imm = inst.imm
    target = inst.target
    nxt = pc + 1
    ret = (nxt, -1, False)

    int_rd = 0 < rd < FP_BASE
    fp_rd = rd >= FP_BASE
    no_rd = rd == NO_REG or rd == 0
    int_rs1 = 0 <= rs1 < FP_BASE
    int_rs2 = 0 <= rs2 < FP_BASE
    fp_rs1 = rs1 >= FP_BASE
    fp_rs2 = rs2 >= FP_BASE
    int_imm = type(imm) is int
    rdf = rd - FP_BASE
    r1f = rs1 - FP_BASE
    r2f = rs2 - FP_BASE

    if op is _ADDI and int_imm and int_rs1:
        if int_rd:
            def h():
                int_regs[rd] = int_regs[rs1] + imm
                return ret
            return h
        if fp_rd:
            def h():
                fp_regs[rdf] = float(int_regs[rs1] + imm)
                return ret
            return h
        if no_rd:
            return lambda: ret

    if op in MEMORY_READ_OPS and int_imm and int_rs1:
        if int_rd:
            def h():
                ea = int_regs[rs1] + imm
                int_regs[rd] = int(memory.get(ea, 0))
                return (nxt, ea, False)
            return h
        if fp_rd:
            def h():
                ea = int_regs[rs1] + imm
                fp_regs[rdf] = float(memory.get(ea, 0))
                return (nxt, ea, False)
            return h
        if no_rd:
            return lambda: (nxt, int_regs[rs1] + imm, False)

    if op in MEMORY_WRITE_OPS and int_imm and int_rs1:
        if int_rs2:
            def h():
                ea = int_regs[rs1] + imm
                memory[ea] = int_regs[rs2]
                return (nxt, ea, False)
            return h
        if fp_rs2:
            def h():
                ea = int_regs[rs1] + imm
                memory[ea] = fp_regs[r2f]
                return (nxt, ea, False)
            return h

    if op in BRANCH_OPS:
        t_ret = (target, -1, True)
        if int_rs1 and int_rs2:
            regs1 = regs2 = int_regs
            i1, i2 = rs1, rs2
        elif fp_rs1 and fp_rs2:
            regs1 = regs2 = fp_regs
            i1, i2 = r1f, r2f
        elif int_rs1 and fp_rs2:
            regs1, regs2 = int_regs, fp_regs
            i1, i2 = rs1, r2f
        elif fp_rs1 and int_rs2:
            regs1, regs2 = fp_regs, int_regs
            i1, i2 = r1f, rs2
        else:
            regs1 = None
        if regs1 is not None:
            if op is _BEQ:
                def h():
                    return t_ret if regs1[i1] == regs2[i2] else ret
            elif op is _BNE:
                def h():
                    return t_ret if regs1[i1] != regs2[i2] else ret
            elif op is _BLT:
                def h():
                    return t_ret if regs1[i1] < regs2[i2] else ret
            else:
                def h():
                    return t_ret if regs1[i1] >= regs2[i2] else ret
            return h

    if op in (_ADD, _SUB, _MUL):
        if no_rd:
            return lambda: ret
        if int_rd and int_rs1 and int_rs2:
            if op is _ADD:
                def h():
                    int_regs[rd] = int_regs[rs1] + int_regs[rs2]
                    return ret
            elif op is _SUB:
                def h():
                    int_regs[rd] = int_regs[rs1] - int_regs[rs2]
                    return ret
            else:
                def h():
                    int_regs[rd] = int_regs[rs1] * int_regs[rs2]
                    return ret
            return h
        if (
            fp_rd and fp_rs1 and fp_rs2
            and op in (_ADD, _SUB)
        ):
            if op is _ADD:
                def h():
                    fp_regs[rdf] = fp_regs[r1f] + fp_regs[r2f]
                    return ret
            else:
                def h():
                    fp_regs[rdf] = fp_regs[r1f] - fp_regs[r2f]
                    return ret
            return h

    if op in (_FADD, _FSUB, _FMUL):
        if no_rd:
            return lambda: ret
        if fp_rd and fp_rs1 and fp_rs2:
            if op is _FADD:
                def h():
                    fp_regs[rdf] = fp_regs[r1f] + fp_regs[r2f]
                    return ret
            elif op is _FSUB:
                def h():
                    fp_regs[rdf] = fp_regs[r1f] - fp_regs[r2f]
                    return ret
            else:
                def h():
                    fp_regs[rdf] = fp_regs[r1f] * fp_regs[r2f]
                    return ret
            return h

    if (
        op in (_ANDI, _ORI, _XORI)
        and int_rd and int_rs1 and int_imm
    ):
        if op is _ANDI:
            def h():
                int_regs[rd] = int_regs[rs1] & imm
                return ret
        elif op is _ORI:
            def h():
                int_regs[rd] = int_regs[rs1] | imm
                return ret
        else:
            def h():
                int_regs[rd] = int_regs[rs1] ^ imm
                return ret
        return h

    if op is _SLTI and int_rd and int_rs1:
        def h():
            int_regs[rd] = 1 if int_regs[rs1] < imm else 0
            return ret
        return h

    if op is _LUI:
        if int_rd:
            val_i = int(imm)

            def h():
                int_regs[rd] = val_i
                return ret
            return h
        if fp_rd:
            val_f = float(imm)

            def h():
                fp_regs[rdf] = val_f
                return ret
            return h
        if no_rd:
            return lambda: ret

    if (
        op in (_AND, _OR, _XOR, _SLT,
               _SLL, _SRL)
        and int_rd and int_rs1 and int_rs2
    ):
        if op is _AND:
            def h():
                int_regs[rd] = int_regs[rs1] & int_regs[rs2]
                return ret
        elif op is _OR:
            def h():
                int_regs[rd] = int_regs[rs1] | int_regs[rs2]
                return ret
        elif op is _XOR:
            def h():
                int_regs[rd] = int_regs[rs1] ^ int_regs[rs2]
                return ret
        elif op is _SLT:
            def h():
                int_regs[rd] = 1 if int_regs[rs1] < int_regs[rs2] else 0
                return ret
        elif op is _SLL:
            def h():
                int_regs[rd] = int_regs[rs1] << (int_regs[rs2] & 63)
                return ret
        else:
            def h():
                int_regs[rd] = int_regs[rs1] >> (int_regs[rs2] & 63)
                return ret
        return h

    if op is _PREFETCH and int_imm and int_rs1:
        return lambda: (nxt, int_regs[rs1] + imm, False)

    if op is _JUMP:
        j_ret = (target, -1, True)
        return lambda: j_ret

    if op is _CALL:
        j_ret = (target, -1, True)
        if int_rd:
            def h():
                int_regs[rd] = nxt
                return j_ret
            return h
        if no_rd:
            return lambda: j_ret

    if op is _RET and int_rs1:
        def h():
            return (int_regs[rs1], -1, True)
        return h

    if op in (_NOP, _SERIAL):
        return lambda: ret

    if op is _HALT:
        halt_ret = (pc, -1, False)
        return lambda: halt_ret

    def h():
        return fallback(inst, pc)
    return h


# ----------------------------------------------------------------------
# Block compilation for Interpreter.advance.
#
# A block is the straight-line run of instructions from an entry pc --
# where control lands -- through the first control op (branch, JUMP,
# CALL, RET), which it includes. It ends before HALT, before a control
# op the emitter leaves out, and at the end of the program. The block's
# function is the run's instructions as straight-line statements, each
# the expression _compile_inst's closure for that instruction and
# operand class evaluates, and it returns the next pc. An instruction
# _compile_inst does not specialise calls _execute from inside the
# block, so there is still one fallback. Immediates that are not small
# ints, and the fallback's StaticInsts, are bound as constants: the
# only literals in the source are ints formatted here.
#
# Code is compiled once per entry pc per Program (a Program is
# immutable) and bound per Interpreter to its register lists, memory
# and fallback. The cache is keyed weakly, so it changes nothing a
# Program pickles or compares and dies with the Program.
# ----------------------------------------------------------------------

#: Per program: ``entry pc -> (code, length, constants)``.
_BLOCK_CODE: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

#: The one namespace every block's code runs in: blocks read builtins
#: only.
_BLOCK_GLOBALS = {"__builtins__": builtins}

#: The generated code's ``co_filename``: tracebacks and stack samplers
#: place it in this package.
_BLOCK_FILE = os.path.join(os.path.dirname(__file__), "<blocks>")

_CMP = {_BEQ: "==", _BNE: "!=", _BLT: "<", _BGE: ">="}
_SYMBOL = {
    _ADD: "+", _SUB: "-", _MUL: "*", _FADD: "+", _FSUB: "-", _FMUL: "*",
    _AND: "&", _OR: "|", _XOR: "^", _ANDI: "&", _ORI: "|", _XORI: "^",
}


def _compile_block(program: Program, entry: int):
    """Compile the block entered at *entry*.

    Returns ``(code, length, constants)``: the code of the block's
    function, whose parameters are ``(int_regs, fp_regs, memory,
    [fallback,] *constants)``, and which runs *length* instructions and
    returns the next pc. A block of length 0 has no code.
    """
    consts: list = []

    def const(value) -> str:
        consts.append(value)
        return f"K{len(consts) - 1}"

    lines = []
    pc = entry
    returned = False
    while not returned and pc < len(program):
        inst = program[pc]
        source = _inst_source(inst, pc, const)
        if source is None:
            break
        if source:
            lines.append(source)
        pc += 1
        returned = inst.op in CONTROL_OPS
    if pc == entry:
        return None, 0, ()
    if not returned:
        lines.append(f"return {pc}")
    # X is a parameter only where the block calls the fallback: a bound
    # _execute holds its interpreter, and a block function holding it
    # would keep the interpreter and its state alive in a cycle until
    # the cyclic collector ran.
    fallback = ["X"] if any("X(" in line for line in lines) else []
    params = ", ".join(["R", "F", "M"] + fallback + [
        f"K{i}" for i in range(len(consts))
    ])
    body = "".join(f"    {line}\n" for line in lines)
    module = compile(
        f"def block_{entry}({params}):\n{body}", _BLOCK_FILE, "exec"
    )
    (code,) = (c for c in module.co_consts if type(c) is CodeType)
    return code, pc - entry, tuple(consts)


def _inst_source(inst: StaticInst, pc: int, const) -> str | None:
    """One instruction's statements in a block: ``""`` when it does
    nothing, ``None`` when the block must end before it.

    Mirrors :func:`_compile_inst` case by case: ``R``, ``F`` and ``M``
    stand for its ``int_regs``, ``fp_regs`` and ``memory``, ``X`` for
    its fallback, and ``const(value)`` names a bound constant.
    """
    op = inst.op
    rd = inst.rd
    rs1 = inst.rs1
    rs2 = inst.rs2
    imm = inst.imm
    target = inst.target
    nxt = pc + 1

    int_rd = 0 < rd < FP_BASE
    fp_rd = rd >= FP_BASE
    no_rd = rd == NO_REG or rd == 0
    int_rs1 = 0 <= rs1 < FP_BASE
    int_rs2 = 0 <= rs2 < FP_BASE
    fp_rs1 = rs1 >= FP_BASE
    fp_rs2 = rs2 >= FP_BASE
    int_imm = type(imm) is int
    d = f"R[{rd}]" if int_rd else f"F[{rd - FP_BASE}]"
    a = f"R[{rs1}]" if int_rs1 else f"F[{rs1 - FP_BASE}]"
    b = f"R[{rs2}]" if int_rs2 else f"F[{rs2 - FP_BASE}]"

    def lit(value) -> str:
        if type(value) is int and abs(value) < 1 << 62:
            return str(value)
        return const(value)

    if op is _ADDI and int_imm and int_rs1:
        if int_rd:
            return f"{d} = {a} + {lit(imm)}"
        if fp_rd:
            return f"{d} = float({a} + {lit(imm)})"
        if no_rd:
            return ""

    if op in MEMORY_READ_OPS and int_imm and int_rs1:
        if int_rd:
            return f"{d} = int(M.get({a} + {lit(imm)}, 0))"
        if fp_rd:
            return f"{d} = float(M.get({a} + {lit(imm)}, 0))"
        if no_rd:
            return ""

    if op in MEMORY_WRITE_OPS and int_imm and int_rs1 and (int_rs2 or fp_rs2):
        return f"M[{a} + {lit(imm)}] = {b}"

    if op in BRANCH_OPS and (int_rs1 or fp_rs1) and (int_rs2 or fp_rs2):
        return f"return {target} if {a} {_CMP[op]} {b} else {nxt}"

    if op in (_ADD, _SUB, _MUL):
        if no_rd:
            return ""
        if int_rd and int_rs1 and int_rs2:
            return f"{d} = {a} {_SYMBOL[op]} {b}"
        if fp_rd and fp_rs1 and fp_rs2 and op in (_ADD, _SUB):
            return f"{d} = {a} {_SYMBOL[op]} {b}"

    if op in (_FADD, _FSUB, _FMUL):
        if no_rd:
            return ""
        if fp_rd and fp_rs1 and fp_rs2:
            return f"{d} = {a} {_SYMBOL[op]} {b}"

    if op in (_ANDI, _ORI, _XORI) and int_rd and int_rs1 and int_imm:
        return f"{d} = {a} {_SYMBOL[op]} {lit(imm)}"

    if op is _SLTI and int_rd and int_rs1:
        return f"{d} = 1 if {a} < {lit(imm)} else 0"

    if op is _LUI:
        try:
            if int_rd:
                return f"{d} = {lit(int(imm))}"
            if fp_rd:
                return f"{d} = {const(float(imm))}"
        except (OverflowError, ValueError):
            # _compile_inst raises here on the pc's first execution;
            # the fallback raises the same error when the block gets
            # there.
            return f"X({const(inst)}, {pc})"
        if no_rd:
            return ""

    if (
        op in (_AND, _OR, _XOR, _SLT, _SLL, _SRL)
        and int_rd and int_rs1 and int_rs2
    ):
        if op is _SLT:
            return f"{d} = 1 if {a} < {b} else 0"
        if op is _SLL:
            return f"{d} = {a} << ({b} & 63)"
        if op is _SRL:
            return f"{d} = {a} >> ({b} & 63)"
        return f"{d} = {a} {_SYMBOL[op]} {b}"

    if op is _PREFETCH and int_imm and int_rs1:
        return ""

    if op is _JUMP:
        return f"return {target}"

    if op is _CALL:
        if int_rd:
            return f"{d} = {nxt}; return {target}"
        if no_rd:
            return f"return {target}"

    if op is _RET and int_rs1:
        return f"return {a}"

    if op in (_NOP, _SERIAL):
        return ""

    if op is _HALT or op in CONTROL_OPS:
        return None
    return f"X({const(inst)}, {pc})"
