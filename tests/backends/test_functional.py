"""Differential gate: functional tier vs the detailed core.

The two backends share one interpreter, so they may only ever disagree
about *time*. These tests pin the architectural side of that contract:
final register files, memory images, committed-instruction counts and
per-instruction execution counts must be bit-identical on every
workload in the suite.
"""

from __future__ import annotations

import pytest

from repro.backends import simulate_backend
from repro.backends.functional import simulate_functional
from repro.isa.semantics import InstStream, arch_digest, snapshot_arch
from repro.uarch.core import Core
from repro.workloads import WORKLOAD_NAMES, build

_SCALE = 0.05


def _detailed_final_state(workload):
    """Run the detailed core on a shared stream; return (result, state)."""
    stream = InstStream(workload.program, workload.fresh_state())
    core = Core(workload.program, stream=stream)
    result = core.run()
    return result, stream.state


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_functional_matches_detailed_arch_state(name):
    workload = build(name, scale=_SCALE)
    detailed, det_state = _detailed_final_state(workload)
    functional = simulate_functional(
        workload.program, arch_state=workload.fresh_state()
    )
    assert functional.committed == detailed.committed
    assert functional.exec_counts == detailed.exec_counts
    assert arch_digest(functional.arch_state) == arch_digest(det_state)
    assert snapshot_arch(functional.arch_state) == snapshot_arch(det_state)


def test_functional_is_timeless():
    workload = build("mcf", scale=_SCALE)
    result = simulate_functional(
        workload.program, arch_state=workload.fresh_state()
    )
    assert result.cycles == result.committed
    assert result.ipc == 1.0
    assert result.flushes.total == 0
    assert result.combined_event_fraction() == 0.0
    # Golden attribution degenerates to commit counts.
    assert result.golden_raw == {
        (i, 0): float(c) for i, c in result.exec_counts.items()
    }


def test_functional_backend_rejects_samplers():
    workload = build("lbm", scale=_SCALE)
    with pytest.raises(ValueError, match="no cycle-level behaviour"):
        simulate_backend(
            "functional",
            workload.program,
            samplers=[object()],
            arch_state=workload.fresh_state(),
        )


def test_functional_profile_shares_match_golden():
    """Commit-count shares equal the detailed golden *execution* mix
    for compute-bound code (no events to re-weight them)."""
    workload = build("exchange2", scale=_SCALE)
    result = simulate_functional(
        workload.program, arch_state=workload.fresh_state()
    )
    profile = result.golden_profile()
    assert profile.total() == pytest.approx(result.committed)
