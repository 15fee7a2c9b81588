"""The functional backend: atomic execution, architectural state only.

The AtomicSimpleCPU of the tier hierarchy: every instruction executes
and commits in one cycle, there is no pipeline, no event heap, no
speculation and no memory timing -- just the shared functional
interpreter advancing architectural state, plus per-instruction commit
counting so the result still renders as a (timeless) profile.

Because the interpreter is the *same* one the detailed core replays --
:meth:`~repro.isa.semantics.InstStream.skip` runs its compiled closures
without making a record per instruction -- the final architectural
state here is bit-identical to a detailed run by construction; the
differential gate in ``tests/backends`` and CI's ``backend-diff`` job
verify exactly that on all 15 workloads.

This module must stay free of ``repro.uarch`` imports (tea-lint TL007);
it returns the tier-neutral :class:`~repro.core.result.CoreResult`
every tier shares, with no events, stalls or flushes to report.
"""

from __future__ import annotations

from itertools import compress

from repro import obs
from repro.core.result import CoreResult
from repro.core.states import CommitState
from repro.isa.interpreter import ArchState
from repro.isa.program import Program
from repro.isa.semantics import InstStream


def simulate_functional(
    program: Program,
    config=None,
    arch_state: ArchState | None = None,
    max_insts: int = 50_000_000,
) -> CoreResult:
    """Execute *program* atomically and return its result.

    Every instruction commits in one cycle (``cycles == committed``),
    every attribution lands on the event-free signature, and the
    result carries the final architectural state.

    Args:
        config: Accepted for signature uniformity across backends;
            the functional tier has no timing to configure.
    """
    del config  # no timing model, nothing to configure
    stream = InstStream(program, arch_state, max_insts)
    counts = [0] * len(program)
    # One chunk runs to HALT (or past max_insts, which raises). With obs
    # on, a progress beat follows every full chunk of
    # PROGRESS_EVERY_INSTS committed instructions (counts only -- no
    # clock reads here, TL003).
    chunk = obs.PROGRESS_EVERY_INSTS if obs.enabled() else max_insts + 1
    committed = 0
    while True:
        ran = stream.skip(chunk, counts)
        committed += ran
        if ran < chunk:
            break
        obs.report_progress(program.name, "functional", committed, committed)
    # compress() skips never-executed indices in C, in ascending order.
    exec_counts = {i: counts[i] for i in compress(range(len(counts)), counts)}
    golden_raw = {(i, 0): float(c) for i, c in exec_counts.items()}
    state_cycles = {state: 0 for state in CommitState}
    state_cycles[CommitState.COMPUTE] = committed
    return CoreResult(
        program=program,
        cycles=committed,
        committed=committed,
        golden_raw=golden_raw,
        exec_counts=exec_counts,
        state_cycles=state_cycles,
        arch_state=stream.state,
    )
