"""Golden-attribution replay: the offline oracle over cycle records.

This is the strongest cross-validation in the suite: the replay
implements the paper's attribution policy from scratch against the
neutral per-cycle records a :class:`~repro.trace.store.TraceStore`
hands back, sharing no code with the core's built-in accounting.
"""

import pytest

from repro.core.states import CommitState
from repro.trace.cycletrace import (
    CommitRecord,
    CyclesRecord,
    replay_golden,
)
from repro.trace.store import TraceStore
from repro.uarch.core import Core
from repro.workloads import build


def run_with_store(program, arch_state=None):
    store = TraceStore()
    result = Core(program, arch_state=arch_state, cycle_trace=store).run()
    return result, store


def assert_profiles_equal(replayed, golden):
    assert set(replayed) == set(golden)
    for key in golden:
        assert replayed[key] == pytest.approx(golden[key])


def test_replay_matches_core_on_mixed(mixed_program):
    result, store = run_with_store(mixed_program)
    replayed = replay_golden(store.cycle_records())
    assert_profiles_equal(replayed, result.golden_raw)


@pytest.mark.parametrize(
    "name", ["nab", "lbm", "gcc", "xz", "omnetpp", "exchange2"]
)
def test_replay_matches_core_on_workloads(name):
    """Covers flushes (FL-EX, FL-MB, FL-MO), drains, and stalls."""
    wl = build(name, scale=0.08)
    result, store = run_with_store(
        wl.program, arch_state=wl.fresh_state()
    )
    replayed = replay_golden(store.cycle_records())
    assert_profiles_equal(replayed, result.golden_raw)
    assert sum(replayed.values()) == pytest.approx(result.cycles)


def test_replay_flushed_before_first_commit():
    """FLUSHED cycles with no committed instruction yet fall back to
    the drain rule: they are attributed to the next-committing µop."""
    records = [
        CyclesRecord(CommitState.FLUSHED, 4, -1),
        CommitRecord([(0, 7, 2)]),
    ]
    raw = replay_golden(records)
    assert raw == {(7, 2): pytest.approx(4 + 1.0)}


def test_replay_flushed_then_never_committed():
    """A trace that flushes and ends without a commit drops the cycles
    rather than crashing (nothing to blame them on)."""
    records = [CyclesRecord(CommitState.FLUSHED, 4, -1)]
    assert replay_golden(records) == {}


def test_replay_handles_synthetic_records():
    records = [
        CyclesRecord(CommitState.DRAINED, 5, -1),
        CommitRecord([(0, 10, 0), (1, 11, 3)]),
        CyclesRecord(CommitState.STALLED, 7, 2),
        CommitRecord([(2, 12, 4)]),
        CyclesRecord(CommitState.FLUSHED, 3, -1),
    ]
    raw = replay_golden(records)
    # Drain -> first committer (index 10), compute shares 0.5 each.
    assert raw[(10, 0)] == pytest.approx(5.5)
    assert raw[(11, 3)] == pytest.approx(0.5)
    # Stall on seq 2 -> index 12 with its final PSV, + compute + flush.
    assert raw[(12, 4)] == pytest.approx(7 + 1 + 3)
