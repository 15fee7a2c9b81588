"""Canonical warm-up replay for sampled-window state transfer.

At every sampled-simulation window boundary the detailed core starts
fresh, but caches, TLBs and the branch predictor must look as if the
program had been running -- cold structures would poison the window
with spurious misses. This module builds that warm state by replaying
the last *K* committed instructions (taken from the shared stream's
history) against fresh structures:

* instruction *i* of the replay is stamped cycle ``i`` -- the stamps
  only need to be deterministic and non-decreasing, because after the
  replay the hierarchy is *settled*: every in-flight fill is declared
  complete and the DRAM channel idle by cycle 0, so the window (which
  starts at cycle 0) inherits warm cache/TLB *contents* without any
  phantom fill latency or bank contention left over from the replay;
* the I-side touches one access per fetched line, mirroring the fetch
  stage's line tracking, with control flow resetting the current line;
* loads, stores and prefetches touch the D-side hierarchy in commit
  order;
* branches train the predictor exactly as the fetch stage would
  (direction + target + return-address stack).

The rule is deliberately *canonical* rather than cycle-accurate: both
the sampled run and its full-detailed reference apply the identical
replay over the identical history, which is what makes measurement
windows bit-identical between the two (the tentpole's differential
gate). This module must stay free of ``repro.uarch`` imports (TL007).
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.branch.predictor import BranchPredictor
from repro.isa.instructions import INST_BYTES, DynInst
from repro.isa.opcodes import Opcode, OpClass, op_class
from repro.memory.hierarchy import MemoryHierarchy

# Enum members bound to module level: reading one through its class is
# a slow attribute lookup on Python 3.11, and the replay reads them per
# instruction.
_LOAD = OpClass.LOAD
_STORE = OpClass.STORE
_PREFETCH = OpClass.PREFETCH
_BRANCH = OpClass.BRANCH
_JUMP = OpClass.JUMP
_CALL = Opcode.CALL
_RET = Opcode.RET


def warm_window_state(
    dyns: Sequence[DynInst],
    hierarchy: MemoryHierarchy,
    predictor: BranchPredictor,
    line_bytes: int,
) -> None:
    """Replay *dyns* (commit order) into fresh warm structures."""
    # The all-hit fast paths go first, as in the core: when they succeed
    # their side effects are those of the full access, and when they
    # return None they have touched nothing.
    inst_fast = hierarchy.inst_fast
    load_fast = hierarchy.load_fast
    current_line = -1
    for cycle, dyn in enumerate(dyns):
        static = dyn.static
        index = static.index
        addr = index * INST_BYTES
        line = addr // line_bytes
        if line != current_line:
            if inst_fast(addr, cycle) is None:
                hierarchy.access_inst(addr, cycle)
            current_line = line
        cls = op_class(static.op)
        if cls is _LOAD:
            if load_fast(dyn.eff_addr, cycle) is None:
                hierarchy.access_load(dyn.eff_addr, cycle)
        elif cls is _STORE:
            hierarchy.access_store(dyn.eff_addr, cycle)
        elif cls is _PREFETCH:
            hierarchy.prefetch(dyn.eff_addr, cycle)
        elif cls is _BRANCH:
            predictor.update(index, dyn.taken, dyn.next_index)
            if dyn.taken:
                current_line = -1
        elif cls is _JUMP:
            op = static.op
            if op is _RET:
                predictor.predict_return()
            else:
                predictor.update(index, True, dyn.next_index)
                if op is _CALL:
                    predictor.push_return(index + 1)
            current_line = -1
    hierarchy.settle(0)
