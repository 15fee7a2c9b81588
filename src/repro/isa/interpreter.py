"""Functional interpreter producing the committed dynamic instruction stream.

The timing model in :mod:`repro.uarch` is trace-driven: this interpreter
executes a program architecturally (register file + memory) and yields one
:class:`~repro.isa.instructions.DynInst` per committed instruction, carrying
the branch outcome and memory effective address the timing model needs.
Consumers that only need the architectural state to move on (the
functional tier, the sampled tier's fast-forward) call
:meth:`Interpreter.advance` instead, which runs the same closures and
makes no records.

Wrong-path execution is *not* produced here; the timing model models the
wrong-path penalty as a front-end stall (see DESIGN.md, "Known deviations").
"""

from __future__ import annotations

import math
from collections.abc import Iterator

from repro.isa.instructions import (
    FP_BASE,
    NO_REG,
    NUM_FP_REGS,
    NUM_INT_REGS,
    DynInst,
    StaticInst,
)
from repro.isa.opcodes import Opcode
from repro.isa.program import Program


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

        Fewer than *n* run only when HALT ends the program. The closures,
        tables and checks are those of :meth:`run`'s compiled drive, so
        the two may be interleaved and produce the one stream.

        Args:
            counts: When given, ``counts[index]`` is incremented once per
                executed instruction.

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
        pc = self.pc
        seq = start = self.inst_count
        stop = seq + n
        max_insts = self.max_insts
        try:
            while seq < stop:
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
                if counts is not None:
                    counts[pc] += 1
                seq += 1
                if next_pc == pc and insts[pc].op is Opcode.HALT:
                    self.halted = True
                    break
                pc = next_pc
        finally:
            self.pc = pc
            self.inst_count = seq
        return seq - start

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

    if op is Opcode.ADDI and int_imm and int_rs1:
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

    if op in (Opcode.LOAD, Opcode.FLOAD) and int_imm and int_rs1:
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

    if op in (Opcode.STORE, Opcode.FSTORE) and int_imm and int_rs1:
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

    if op in (Opcode.BEQ, Opcode.BNE, Opcode.BLT, Opcode.BGE):
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
            if op is Opcode.BEQ:
                def h():
                    return t_ret if regs1[i1] == regs2[i2] else ret
            elif op is Opcode.BNE:
                def h():
                    return t_ret if regs1[i1] != regs2[i2] else ret
            elif op is Opcode.BLT:
                def h():
                    return t_ret if regs1[i1] < regs2[i2] else ret
            else:
                def h():
                    return t_ret if regs1[i1] >= regs2[i2] else ret
            return h

    if op in (Opcode.ADD, Opcode.SUB, Opcode.MUL):
        if no_rd:
            return lambda: ret
        if int_rd and int_rs1 and int_rs2:
            if op is Opcode.ADD:
                def h():
                    int_regs[rd] = int_regs[rs1] + int_regs[rs2]
                    return ret
            elif op is Opcode.SUB:
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
            and op in (Opcode.ADD, Opcode.SUB)
        ):
            if op is Opcode.ADD:
                def h():
                    fp_regs[rdf] = fp_regs[r1f] + fp_regs[r2f]
                    return ret
            else:
                def h():
                    fp_regs[rdf] = fp_regs[r1f] - fp_regs[r2f]
                    return ret
            return h

    if op in (Opcode.FADD, Opcode.FSUB, Opcode.FMUL):
        if no_rd:
            return lambda: ret
        if fp_rd and fp_rs1 and fp_rs2:
            if op is Opcode.FADD:
                def h():
                    fp_regs[rdf] = fp_regs[r1f] + fp_regs[r2f]
                    return ret
            elif op is Opcode.FSUB:
                def h():
                    fp_regs[rdf] = fp_regs[r1f] - fp_regs[r2f]
                    return ret
            else:
                def h():
                    fp_regs[rdf] = fp_regs[r1f] * fp_regs[r2f]
                    return ret
            return h

    if (
        op in (Opcode.ANDI, Opcode.ORI, Opcode.XORI)
        and int_rd and int_rs1 and int_imm
    ):
        if op is Opcode.ANDI:
            def h():
                int_regs[rd] = int_regs[rs1] & imm
                return ret
        elif op is Opcode.ORI:
            def h():
                int_regs[rd] = int_regs[rs1] | imm
                return ret
        else:
            def h():
                int_regs[rd] = int_regs[rs1] ^ imm
                return ret
        return h

    if op is Opcode.SLTI and int_rd and int_rs1:
        def h():
            int_regs[rd] = 1 if int_regs[rs1] < imm else 0
            return ret
        return h

    if op is Opcode.LUI:
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
        op in (Opcode.AND_, Opcode.OR_, Opcode.XOR_, Opcode.SLT,
               Opcode.SLL, Opcode.SRL)
        and int_rd and int_rs1 and int_rs2
    ):
        if op is Opcode.AND_:
            def h():
                int_regs[rd] = int_regs[rs1] & int_regs[rs2]
                return ret
        elif op is Opcode.OR_:
            def h():
                int_regs[rd] = int_regs[rs1] | int_regs[rs2]
                return ret
        elif op is Opcode.XOR_:
            def h():
                int_regs[rd] = int_regs[rs1] ^ int_regs[rs2]
                return ret
        elif op is Opcode.SLT:
            def h():
                int_regs[rd] = 1 if int_regs[rs1] < int_regs[rs2] else 0
                return ret
        elif op is Opcode.SLL:
            def h():
                int_regs[rd] = int_regs[rs1] << (int_regs[rs2] & 63)
                return ret
        else:
            def h():
                int_regs[rd] = int_regs[rs1] >> (int_regs[rs2] & 63)
                return ret
        return h

    if op is Opcode.PREFETCH and int_imm and int_rs1:
        return lambda: (nxt, int_regs[rs1] + imm, False)

    if op is Opcode.JUMP:
        j_ret = (target, -1, True)
        return lambda: j_ret

    if op is Opcode.CALL:
        j_ret = (target, -1, True)
        if int_rd:
            def h():
                int_regs[rd] = nxt
                return j_ret
            return h
        if no_rd:
            return lambda: j_ret

    if op is Opcode.RET and int_rs1:
        def h():
            return (int_regs[rs1], -1, True)
        return h

    if op in (Opcode.NOP, Opcode.SERIAL):
        return lambda: ret

    if op is Opcode.HALT:
        halt_ret = (pc, -1, False)
        return lambda: halt_ret

    def h():
        return fallback(inst, pc)
    return h
