"""RISC-like instruction set, program representation, and functional model.

This package provides the architectural substrate that the timing model in
:mod:`repro.uarch` simulates:

* :mod:`repro.isa.opcodes` -- the opcode and operation-class vocabulary.
* :mod:`repro.isa.instructions` -- static and dynamic instruction records.
* :mod:`repro.isa.program` -- an assembled program with symbol information
  (labels, functions, basic blocks) used for profile aggregation.
* :mod:`repro.isa.builder` -- a tiny assembler (``ProgramBuilder``) used by
  the synthetic workloads in :mod:`repro.workloads`.
* :mod:`repro.isa.interpreter` -- the functional interpreter that produces
  the committed dynamic instruction stream (branch outcomes and effective
  addresses) consumed by the timing model.
"""

from repro.isa.opcodes import Opcode, OpClass, op_class
from repro.isa.instructions import StaticInst, DynInst
from repro.isa.program import Program, FunctionInfo, Hole
from repro.isa.builder import ProgramBuilder, Reg
from repro.isa.interpreter import Interpreter, ArchState, InterpreterError
from repro.isa.asmtext import AsmSyntaxError, format_asm, parse_asm

__all__ = [
    "AsmSyntaxError",
    "format_asm",
    "parse_asm",
    "Opcode",
    "OpClass",
    "op_class",
    "StaticInst",
    "DynInst",
    "Program",
    "FunctionInfo",
    "Hole",
    "ProgramBuilder",
    "Reg",
    "Interpreter",
    "ArchState",
    "InterpreterError",
]
