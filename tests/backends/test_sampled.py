"""Differential gates and boundary behaviour for the sampled tier.

The load-bearing property is *window bit-identity*: a sampled run and a
full detailed run sliced at the same boundaries with the same
state-transfer protocol (``reference_ff=True``) must produce identical
per-window profiles -- the only thing fast-forwarding may change is how
the gaps between windows are executed, never what a window measures.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.backends.sampled import SampledBackend, WindowPlan
from repro.backends.warmup import warm_window_state
from repro.branch.predictor import BranchPredictor
from repro.core.samplers import make_sampler
from repro.isa.opcodes import OpClass, op_class
from repro.isa.semantics import InstStream, arch_digest
from repro.memory.hierarchy import MemoryHierarchy
from repro.uarch.config import CoreConfig
from repro.uarch.core import Core, simulate
from repro.workloads import build

_SCALE = 0.1
_PLAN = WindowPlan(window=256, stride=768, warmup=256)


def _run(name, plan, reference_ff=False, samplers=(), scale=_SCALE):
    workload = build(name, scale=scale)
    backend = SampledBackend(plan=plan, reference_ff=reference_ff)
    return backend.simulate(
        workload.program,
        samplers=list(samplers),
        arch_state=workload.fresh_state(),
    )


def _window_key(w):
    return (
        w.start,
        w.committed,
        w.cycles,
        w.golden_raw,
        dict(w.state_cycles),
        dict(w.event_counts),
        dict(w.exec_counts),
        Counter(w.stall_histogram),
    )


@pytest.mark.parametrize("name", ["lbm", "x264", "mcf", "gcc"])
def test_windows_bit_identical_to_detailed_reference(name):
    sampled = _run(name, _PLAN)
    reference = _run(name, _PLAN, reference_ff=True)
    assert len(sampled.windows) == len(reference.windows)
    assert len(sampled.windows) > 1
    for s, r in zip(sampled.windows, reference.windows):
        assert s.committed == r.committed
        assert _window_key(s) == _window_key(r)
    # Fast-forward lengths may differ only at the tail (the reference
    # executes every gap in detail but stops at the same boundaries).
    assert sampled.measured_cycles == reference.measured_cycles
    assert sampled.measured_committed == reference.measured_committed


def test_sampler_streams_identical_across_ff_modes():
    """Samplers live only inside windows; a sampler due exactly on a
    window edge fires in that window in both modes, so the raw sample
    streams must match sample for sample."""
    samplers_a = [make_sampler("TEA", 13, seed=7)]
    samplers_b = [make_sampler("TEA", 13, seed=7)]
    a = _run("x264", _PLAN, samplers=samplers_a)
    b = _run("x264", _PLAN, reference_ff=True, samplers=samplers_b)
    assert samplers_a[0].samples_taken > 0
    assert samplers_a[0].samples_taken == samplers_b[0].samples_taken
    assert samplers_a[0].raw == samplers_b[0].raw


def test_final_arch_state_matches_detailed():
    """Fast-forwarding changes timing, never architecture."""
    workload = build("xz", scale=_SCALE)
    backend = SampledBackend(plan=_PLAN)
    result = backend.simulate(
        workload.program, arch_state=workload.fresh_state()
    )
    stream = InstStream(workload.program, workload.fresh_state())
    detailed = Core(workload.program, stream=stream).run()
    assert result.committed == detailed.committed
    assert arch_digest(result.arch_state) == arch_digest(stream.state)


# ----------------------------------------------------------------------
# Window-boundary edge cases.
# ----------------------------------------------------------------------
def test_first_window_starts_at_instruction_zero():
    result = _run("lbm", _PLAN)
    assert result.windows[0].start == 0


def test_window_longer_than_program_degenerates_to_detailed():
    """A window that extends past program end is one full detailed run:
    estimates are exact, nothing fast-forwards."""
    workload = build("leela", scale=0.05)
    plan = WindowPlan(window=10_000_000, stride=4_096, warmup=1_024)
    backend = SampledBackend(plan=plan)
    result = backend.simulate(
        workload.program, arch_state=workload.fresh_state()
    )
    detailed = simulate(
        workload.program, arch_state=workload.fresh_state()
    )
    assert len(result.windows) == 1
    assert result.ff_committed == 0
    assert result.committed == detailed.committed
    assert result.cycles == detailed.cycles
    assert result.golden_raw == detailed.golden_raw


def test_zero_stride_is_contiguous_full_detail():
    """stride=0 tiles the whole run in back-to-back windows: every
    instruction is measured, none fast-forwarded, and the estimate is
    the sum of the slices (extrapolation scale 1)."""
    result = _run("mcf", WindowPlan(window=512, stride=0, warmup=512))
    assert result.ff_committed == 0
    assert result.measured_committed == result.committed
    assert all(w.ff_insts == 0 for w in result.windows)
    assert all(w.scale == 1.0 for w in result.windows)
    assert result.cycles == sum(w.cycles for w in result.windows)


def test_stride_past_program_end_stops_cleanly():
    """A fast-forward that runs off the end of the program consumes
    what remains and the run terminates."""
    workload = build("nab", scale=0.05)
    plan = WindowPlan(window=128, stride=50_000_000, warmup=128)
    backend = SampledBackend(plan=plan)
    result = backend.simulate(
        workload.program, arch_state=workload.fresh_state()
    )
    assert len(result.windows) == 1
    assert result.windows[0].ff_insts == result.ff_committed
    assert result.committed == result.measured_committed + result.ff_committed


def test_window_plan_validates_geometry():
    with pytest.raises(ValueError, match="window must be positive"):
        WindowPlan(window=0)
    with pytest.raises(ValueError, match="stride must be"):
        WindowPlan(stride=-1)
    with pytest.raises(ValueError, match="warmup must be"):
        WindowPlan(warmup=-1)


# ----------------------------------------------------------------------
# Warm-up replay and settle().
# ----------------------------------------------------------------------
def test_warmup_settles_hierarchy_timing():
    """After a warm-up replay the hierarchy holds warm *contents* but
    zero residual *timing*: a window starting at cycle 0 must see no
    phantom fill latency or DRAM queueing from the replay."""
    workload = build("lbm", scale=0.05)
    stream = InstStream(workload.program, workload.fresh_state(),
                        history=4_096)
    while stream.take() is not None:
        pass
    dyns = stream.recent_before(10**9, 1_024)
    assert dyns
    config = CoreConfig()
    hierarchy = MemoryHierarchy(config.memory)
    predictor = BranchPredictor(config.branch)
    warm_window_state(dyns, hierarchy, predictor,
                      config.memory.line_bytes)
    assert hierarchy.dram._next_free <= 0
    for cache in (hierarchy.l1i, hierarchy.l1d, hierarchy.llc):
        assert not cache._inflight
    # Re-touching the most recent load at cycle 0 is a warm hit with
    # its line already resident and ready.
    last_load = next(
        (d for d in reversed(dyns)
         if op_class(d.static.op) is OpClass.LOAD), None,
    )
    if last_load is not None:
        access = hierarchy.access_load(last_load.eff_addr, 0)
        assert access.ready_time <= config.memory.l1d_latency


def test_empty_warmup_history_is_cold_but_harmless():
    config = CoreConfig()
    hierarchy = MemoryHierarchy(config.memory)
    predictor = BranchPredictor(config.branch)
    warm_window_state([], hierarchy, predictor,
                      config.memory.line_bytes)
    assert hierarchy.dram._next_free <= 0


def test_empty_window_scale_raises():
    # A window that committed nothing has no measured cycles to
    # extrapolate from; returning any factor (the old code returned
    # 0.0) would silently erase its region from the totals.
    from repro.backends.sampled import WindowResult
    from repro.core.result import FlushStats

    window = WindowResult(
        start=0, committed=0, cycles=0, ff_insts=512,
        golden_raw={}, state_cycles={}, event_counts={},
        exec_counts={}, stall_histogram=Counter(),
        evented_execs=0, combined_execs=0, flushes=FlushStats(),
    )
    with pytest.raises(ValueError, match="committed no instructions"):
        window.scale
    # A committed window scales normally.
    populated = WindowResult(
        start=0, committed=256, cycles=300, ff_insts=768,
        golden_raw={}, state_cycles={}, event_counts={},
        exec_counts={}, stall_histogram=Counter(),
        evented_execs=0, combined_execs=0, flushes=FlushStats(),
    )
    assert populated.scale == pytest.approx(4.0)
