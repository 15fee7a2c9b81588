"""gcc analogue: instruction-fetch pressure (DR-L1 / DR-TLB).

SPEC's 602.gcc_s touches far more code than the L1 I-cache and I-TLB
cover, so its profile carries front-end (Drained) events. Mimicking that
with a naively huge straight-line footprint makes the golden profile
nearly uniform over tens of thousands of static instructions -- at this
reproduction's ~10^3x-scaled-down run lengths *every* sampling technique
then drowns in statistical noise (the paper's runs collect millions of
samples; ours, thousands).

Instead the kernel concentrates the same front-end behaviour: 36 hot
one-cache-line "pass" functions placed 8 KiB apart so that (i) all of
them map to the same L1I set and thrash its 8 ways (every visit is an
L1I conflict miss), and (ii) their 36 distinct pages cyclically overrun
the 32-entry I-TLB (every visit also misses the I-TLB). The padding
between blocks is never executed, so it is built as holes
(:meth:`~repro.isa.builder.ProgramBuilder.pad_to`): the program spans
73,744 slots but builds only its 581 instructions. The result: a
realistic DR-L1/DR-TLB-dominated profile over a few hundred executed
instructions.
"""

from __future__ import annotations

from repro.isa.builder import ProgramBuilder
from repro.isa.interpreter import ArchState
from repro.workloads.base import Workload, iterations

#: Hot blocks (each its own function; > 32 pages -> I-TLB thrash).
_N_BLOCKS = 36
#: Instruction slots between consecutive blocks: 8 KiB of address space,
#: which preserves the L1I set index (8192 % 4096 == 0).
_BLOCK_SPACING = 2048
#: Instructions per hot block (exactly one 64-byte cache line).
_BLOCK_INSTS = 16


def build_gcc(scale: float = 1.0) -> Workload:
    """Build the gcc kernel (*scale* controls the number of laps)."""
    laps = iterations(300, scale, minimum=4)

    b = ProgramBuilder("gcc")
    b.function("main")
    b.li("x1", laps)
    b.label("lap")
    b.jump("pass_0")
    b.label("lap_done")
    b.addi("x1", "x1", -1)
    b.bne("x1", "x0", "lap")
    b.halt()

    for block in range(_N_BLOCKS):
        b.function("padding").pad_to((block + 1) * _BLOCK_SPACING)
        b.function(f"pass_{block}")
        b.label(f"pass_{block}")
        base = (block % 7) + 2  # registers x2..x8
        for n in range(_BLOCK_INSTS - 3):
            reg = f"x{base + (n % 3)}"
            src = f"x{base + ((n + 1) % 3)}"
            b.addi(reg, src, (n & 15) + 1)
        b.xor("x9", "x9", f"x{base}")
        b.addi("x10", "x10", 1)
        if block + 1 < _N_BLOCKS:
            b.jump(f"pass_{block + 1}")
        else:
            b.jump("lap_done")
    program = b.build()

    def state_builder() -> ArchState:
        return ArchState()

    return Workload(
        name="gcc",
        program=program,
        state_builder=state_builder,
        description=(
            "36 set-conflicting hot code lines over 36 pages: "
            "DR-L1 + DR-TLB front-end stalls"
        ),
        traits=("DR_L1", "DR_TLB"),
        params={"laps": laps, "blocks": _N_BLOCKS},
    )
