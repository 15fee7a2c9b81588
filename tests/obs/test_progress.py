"""The progress layer: heartbeat events, sink throttling, backend
hooks, and the bit-identity guarantee (monitoring must never change
simulation results)."""

import pytest

from repro import obs
from repro.obs import progress


@pytest.fixture(autouse=True)
def progress_clean():
    progress.reset()
    yield
    progress.reset()


class CollectingSink:
    min_interval_s = 0.0  # no throttle: tests see every beat

    def __init__(self):
        self.events = []

    def __call__(self, event):
        self.events.append(event)


# ----------------------------------------------------------------------
# Event lifecycle: start / progress / done.
# ----------------------------------------------------------------------
def test_begin_report_end_emit_phased_events():
    sink = CollectingSink()
    progress.set_sink(sink)
    progress.set_run_context("suite:lbm", attempt=2)
    progress.begin_run("lbm", "detailed")
    progress.report_progress("lbm", "detailed", 500, 250)
    progress.end_run("lbm", "detailed", 1000, 1000, ok=True)
    phases = [e.phase for e in sink.events]
    assert phases == ["start", "progress", "done"]
    mid = sink.events[1]
    assert mid.label == "suite:lbm"
    assert mid.workload == "lbm"
    assert mid.attempt == 2
    assert mid.cycles == 500 and mid.committed == 250
    assert mid.wall_s > 0
    assert mid.instrs_per_s > 0
    assert sink.events[2].ok is True


def test_start_and_done_beats_fire_even_when_obs_disabled():
    """The executor's stall detector needs liveness signals whether or
    not instrumentation is on; only mid-run beats are obs-gated."""
    assert not obs.enabled()
    sink = CollectingSink()
    progress.set_sink(sink)
    progress.begin_run("lbm", "functional")
    progress.end_run("lbm", "functional", 0, 42, ok=False)
    assert [e.phase for e in sink.events] == ["start", "done"]
    assert sink.events[-1].ok is False


def test_heartbeat_record_shape():
    sink = CollectingSink()
    progress.set_sink(sink)
    progress.begin_run("mcf", "sampled")
    record = sink.events[0].to_record()
    assert record["kind"] == "heartbeat"
    assert record["phase"] == "start"
    assert record["backend"] == "sampled"
    assert record["ts"] > 1e9  # epoch seconds, not perf_counter


def test_sink_throttle_drops_dense_progress_beats():
    class ThrottledSink(CollectingSink):
        min_interval_s = 10.0  # nothing mid-run should pass

    sink = ThrottledSink()
    progress.set_sink(sink)
    progress.begin_run("lbm", "detailed")
    for i in range(50):
        progress.report_progress("lbm", "detailed", i, i)
    progress.end_run("lbm", "detailed", 50, 50)
    # start passes, every progress beat is throttled, done passes.
    assert [e.phase for e in sink.events] == ["start", "done"]


def test_gauges_and_hub_update_only_when_enabled():
    progress.begin_run("lbm", "detailed")
    progress.report_progress("lbm", "detailed", 100, 50)
    assert obs.COUNTERS.get("progress.cycles") is None
    obs.enable()
    progress.report_progress("lbm", "detailed", 200, 150)
    assert obs.COUNTERS.get("progress.cycles") == 200.0
    assert obs.COUNTERS.get("progress.committed") == 150.0


# ----------------------------------------------------------------------
# Backend hooks: beats flow from real simulations, results unchanged.
# ----------------------------------------------------------------------
def _dense_beats(monkeypatch):
    """Force per-step hook cadence so tiny workloads emit beats."""
    monkeypatch.setattr(obs, "PROGRESS_EVERY_CYCLES", 1)
    monkeypatch.setattr(progress, "PROGRESS_EVERY_CYCLES", 1)
    monkeypatch.setattr(progress, "PROGRESS_EVERY_INSTS", 1)


def test_detailed_core_emits_progress_beats(monkeypatch):
    from repro.uarch.core import simulate
    from repro.workloads import build

    _dense_beats(monkeypatch)
    obs.enable()
    sink = CollectingSink()
    progress.set_sink(sink)
    workload = build("exchange2", scale=0.05)
    simulate(workload.program, arch_state=workload.fresh_state())
    beats = [e for e in sink.events if e.phase == "progress"]
    assert beats
    assert beats[-1].backend == "detailed"
    assert beats[-1].cycles > 0
    # Counts are cumulative and non-decreasing.
    cycles = [b.cycles for b in beats]
    assert cycles == sorted(cycles)


def test_functional_backend_emits_progress_beats(monkeypatch):
    from repro.backends.functional import simulate_functional
    from repro.workloads import build

    monkeypatch.setattr(
        "repro.backends.functional.obs.PROGRESS_EVERY_INSTS", 2
    )
    obs.enable()
    sink = CollectingSink()
    progress.set_sink(sink)
    workload = build("exchange2", scale=0.05)
    result = simulate_functional(
        workload.program, arch_state=workload.fresh_state()
    )
    beats = [e for e in sink.events if e.phase == "progress"]
    assert beats
    assert beats[-1].backend == "functional"
    assert beats[-1].committed <= result.committed


def test_functional_result_identical_with_monitoring_on(monkeypatch):
    """The instrumented loop twin must be observe-only: same committed
    count and architectural state with beats on or off."""
    from repro.backends.functional import simulate_functional
    from repro.workloads import build

    def run():
        workload = build("exchange2", scale=0.05)
        result = simulate_functional(
            workload.program, arch_state=workload.fresh_state()
        )
        return (
            result.committed,
            dict(result.exec_counts),
            dict(result.golden_raw),
        )

    baseline = run()
    monkeypatch.setattr(
        "repro.backends.functional.obs.PROGRESS_EVERY_INSTS", 2
    )
    obs.enable()
    progress.set_sink(CollectingSink())
    assert run() == baseline


def test_detailed_profile_identical_with_monitoring_on(monkeypatch):
    """Golden-profile bit-identity: cycles and sample counts must not
    shift when heartbeats are flowing."""
    from repro.core.samplers import make_sampler
    from repro.uarch.core import simulate
    from repro.workloads import build

    def run():
        workload = build("exchange2", scale=0.05)
        sampler = make_sampler("TEA", 293)
        result = simulate(
            workload.program,
            samplers=[sampler],
            arch_state=workload.fresh_state(),
        )
        return result.cycles, result.committed, dict(sampler.raw)

    baseline = run()
    _dense_beats(monkeypatch)
    obs.enable()
    progress.set_sink(CollectingSink())
    with_beats = run()
    assert with_beats == baseline
