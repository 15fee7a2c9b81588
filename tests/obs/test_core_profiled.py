"""Observed core runs: bit-identical results plus sampled stage telemetry."""

import signal
import sys
import threading

import pytest

from repro import obs
from repro.core.samplers import make_sampler
from repro.obs import stageprof
from repro.obs.stageprof import STAGE_OF, STAGES, WINDOW_CYCLES, StageSampler
from repro.uarch.core import Core, simulate
from repro.workloads import build


def run_once(name="exchange2", scale=0.05, period=293):
    wl = build(name, scale=scale)
    sampler = make_sampler("TEA", period)
    result = simulate(
        wl.program, samplers=[sampler], arch_state=wl.fresh_state()
    )
    return result, sampler


def stage_spans(events):
    return [
        e for e in events if e["ph"] == "X" and e.get("cat") == "core-stage"
    ]


def test_profiled_run_is_bit_identical():
    baseline, base_sampler = run_once()
    obs.enable()
    profiled, prof_sampler = run_once()
    assert profiled.cycles == baseline.cycles
    assert profiled.committed == baseline.committed
    assert profiled.golden_raw == baseline.golden_raw
    assert (
        prof_sampler.profile().stacks == base_sampler.profile().stacks
    )


def test_profiled_run_emits_stage_spans_and_counters():
    obs.enable()
    result, _ = run_once()
    events = obs.COLLECTOR.snapshot()

    run_spans = [
        e for e in events
        if e["ph"] == "X" and e["name"].startswith("core.run:")
    ]
    assert len(run_spans) == 1

    # Stage spans need ticks, which a run this short may not get (see
    # test_sampled_run_attributes_stages); the named tracks, window
    # throughput and per-stage totals are always there.
    tracks = {
        e["args"]["name"] for e in events if e["name"] == "thread_name"
    }
    assert {f"stage:{stage}" for stage in STAGES} <= tracks
    counter_tracks = {e["name"] for e in events if e["ph"] == "C"}
    assert any(
        name.endswith(".throughput") for name in counter_tracks
    )

    snap = obs.COUNTERS.snapshot()
    assert {f"core.stage_s.{stage}" for stage in STAGES} <= set(
        snap["counters"]
    )
    assert "core.stage_ticks" in snap["counters"]
    assert snap["counters"]["core.cycles"] == result.cycles
    assert snap["counters"]["core.committed"] == result.committed
    # Cycles per commit state are keyed by the four commit states.
    states = {
        key for key in snap["counters"] if key.startswith("core.state.")
    }
    assert "core.state.compute" in states
    # Cache/TLB hit rates land as gauges in [0, 1].
    for label in ("l1i", "l1d", "llc", "itlb", "dtlb"):
        rate = snap["gauges"][f"mem.{label}.hit_rate"]
        assert 0.0 <= rate <= 1.0
    # Sampler overhead accounting.
    sampler_counts = [
        value
        for key, value in snap["counters"].items()
        if key.startswith("sampler.") and key.endswith(".samples")
    ]
    assert sampler_counts and sampler_counts[0] > 0


def test_stage_table_names_current_core_methods():
    # Renaming a stage method must fail here, not silently drop ticks.
    for method in STAGE_OF:
        assert callable(vars(Core).get(method)), method
    assert set(STAGE_OF.values()) == set(STAGES)


class _TickWhenPolled:
    """Sampler stand-in that delivers one synthetic tick when polled."""

    next_due = 1

    def __init__(self, stage_sampler):
        self.stage_sampler = stage_sampler

    def sample(self, core):
        self.stage_sampler._on_tick(signal.SIGPROF, sys._getframe())

    def advance(self):
        self.next_due = 1 << 62


def test_ticks_charge_the_innermost_stage_entry():
    sampler = StageSampler("unit", Core)
    sampler._on_tick(signal.SIGPROF, sys._getframe())  # outside step()
    assert sampler.ticks == []
    wl = build("exchange2", scale=0.05)
    core = Core(
        wl.program,
        samplers=[_TickWhenPolled(sampler)],
        arch_state=wl.fresh_state(),
    )
    core.step()  # polls samplers: step -> _poll_samplers -> sample
    assert sampler.ticks == [STAGES.index("sample")]


def test_window_flushing_produces_multiple_windows(monkeypatch):
    obs.enable()
    # Every window lasts half a wall second on this clock.
    clock = iter(range(0, 10**9, 500_000))
    monkeypatch.setattr(stageprof, "now_us", lambda: next(clock))
    commit, fetch = STAGES.index("commit"), STAGES.index("fetch")
    sampler = StageSampler("unit", Core)
    for window in range(1, 6):
        sampler.ticks += [commit, commit, commit, fetch]
        cycle, committed = window * WINDOW_CYCLES, window * 1000
        sampler.maybe_flush(cycle - 1, committed - 1)  # not yet
        sampler.maybe_flush(cycle, committed)
    # A tick-free tail of 10 cycles that commits 7 instructions.
    sampler.finish(5 * WINDOW_CYCLES + 10, 5 * 1000 + 7)

    events = obs.COLLECTOR.snapshot()
    spans = stage_spans(events)
    assert sorted((e["name"], e["args"]["ticks"]) for e in spans) == (
        [("stage:commit", 3)] * 5 + [("stage:fetch", 1)] * 5
    )
    assert {e["args"]["cycles"] for e in spans} == {WINDOW_CYCLES}
    counter_events = [e["name"] for e in events if e["ph"] == "C"]
    assert counter_events.count("core.unit.throughput") == 6
    assert counter_events.count("core.unit.stage_ms") == 5
    # Throughput is committed instructions per wall second.
    assert [
        e["args"] for e in events if e["name"] == "core.unit.throughput"
    ] == [{"insts_per_sec": 2000.0}] * 5 + [{"insts_per_sec": 14.0}]

    counters = obs.COUNTERS.snapshot()["counters"]
    assert counters["core.stage_ticks"] == 20
    # Each window's wall time is split 3:1 by its ticks.
    assert counters["core.stage_s.commit"] == pytest.approx(
        3 * counters["core.stage_s.fetch"]
    )
    assert counters["core.stage_s.commit"] > 0
    assert counters["core.stage_s.issue"] == 0


def test_sampled_run_attributes_stages():
    obs.enable()
    wl = build("lbm", scale=0.5)
    for _ in range(50):
        simulate(
            wl.program,
            samplers=[make_sampler("TEA", 293)],
            arch_state=wl.fresh_state(),
        )
        if obs.COUNTERS.snapshot()["counters"]["core.stage_ticks"] >= 200:
            break
    counters = obs.COUNTERS.snapshot()["counters"]
    assert counters["core.stage_ticks"] >= 200

    events = obs.COLLECTOR.snapshot()
    names = {e["name"] for e in stage_spans(events)}
    assert {"stage:commit", "stage:fetch", "stage:issue"} <= names
    assert any(
        e["ph"] == "C" and e["name"] == "core.lbm.stage_ms" for e in events
    )
    # Stage times share out (at most) the runs' wall time.
    run_us = sum(
        e["dur"] for e in events
        if e["ph"] == "X" and e["name"].startswith("core.run:")
    )
    stage_us = 1e6 * sum(
        value for key, value in counters.items()
        if key.startswith("core.stage_s.")
    )
    assert 0.5 * run_us < stage_us < 1.05 * run_us


def test_sampler_restores_previous_handler_and_timer():
    def previous(signum, frame):
        pass

    saved = signal.signal(signal.SIGPROF, previous)
    signal.setitimer(signal.ITIMER_PROF, 100.0, 100.0)
    try:
        with StageSampler("unit", Core) as sampler:
            assert signal.getsignal(signal.SIGPROF) == sampler._on_tick
        assert signal.getsignal(signal.SIGPROF) is previous
        delay, interval = signal.getitimer(signal.ITIMER_PROF)
        # The kernel rounds timer values to its resolution.
        assert interval == pytest.approx(100.0, abs=0.1)
        assert delay == pytest.approx(100.0, abs=1.0)
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(
            signal.SIGPROF, signal.SIG_DFL if saved is None else saved
        )


def test_sampler_is_inert_off_the_main_thread():
    obs.enable()
    handler = signal.getsignal(signal.SIGPROF)
    outcome = []
    thread = threading.Thread(target=lambda: outcome.append(run_once()))
    thread.start()
    thread.join(timeout=120)
    assert not thread.is_alive()
    assert len(outcome) == 1
    assert obs.COUNTERS.snapshot()["counters"]["core.stage_ticks"] == 0
    assert signal.getsignal(signal.SIGPROF) == handler
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)


def test_disabled_run_collects_nothing():
    obs.disable()
    run_once()
    assert len(obs.COLLECTOR) == 0
    snap = obs.COUNTERS.snapshot()
    assert snap["counters"] == {} and snap["gauges"] == {}
