"""Span/counter plane: gating, collection, and cross-process merging."""

import os
import threading

import pytest

from repro import obs
from repro.obs.spans import _NOOP_SPAN


def test_disabled_span_is_shared_noop():
    obs.disable()
    first = obs.span("decode")
    second = obs.span("fetch", extra=1)
    assert first is _NOOP_SPAN and second is _NOOP_SPAN
    with first:
        pass
    assert len(obs.COLLECTOR) == 0


def test_enable_exports_env_for_workers():
    obs.enable()
    assert obs.enabled()
    assert os.environ[obs.OBS_ENV] == "1"
    obs.disable()
    assert os.environ[obs.OBS_ENV] == "0"


def test_span_records_complete_event():
    obs.enable()
    with obs.span("decode", stage=3):
        pass
    events = obs.COLLECTOR.snapshot()
    assert len(events) == 1
    event = events[0]
    assert event["name"] == "decode"
    assert event["ph"] == "X"
    assert event["dur"] >= 0
    assert event["pid"] == os.getpid()
    assert event["args"] == {"stage": 3}


def test_span_records_error_on_exception():
    obs.enable()
    with pytest.raises(RuntimeError):
        with obs.span("boom"):
            raise RuntimeError("no")
    event = obs.COLLECTOR.snapshot()[0]
    assert event["args"]["error"] == "RuntimeError"


def test_disable_mid_span_does_not_leak_event():
    """Regression: disable() between __enter__ and __exit__ (test
    teardown, mid-run reconfiguration) used to let the exit path emit
    a late event into the supposedly-quiesced collector."""
    obs.enable()
    span = obs.span("straddler")
    with span:
        obs.disable()
    assert len(obs.COLLECTOR) == 0


def test_span_duration_clamped_on_clock_step(monkeypatch):
    """Regression: a backwards wall-clock step (NTP) made dur
    negative, which validate_chrome_trace rejects. Clamp at zero."""
    from repro.obs import spans as spans_mod

    obs.enable()
    stamps = iter([5_000_000, 4_000_000])  # clock steps back 1s
    monkeypatch.setattr(spans_mod, "now_us", lambda: next(stamps))
    with obs.span("ntp"):
        pass
    event = obs.COLLECTOR.snapshot()[0]
    assert event["dur"] == 0
    assert event["ts"] == 5_000_000


def test_mark_drain_ingest_round_trip():
    obs.enable()
    with obs.span("before"):
        pass
    mark = obs.COLLECTOR.mark()
    with obs.span("inside"):
        pass
    obs.COLLECTOR.add_instant("tick")
    drained = obs.COLLECTOR.drain_from(mark)
    assert [e["name"] for e in drained] == ["inside", "tick"]
    assert [e["name"] for e in obs.COLLECTOR.snapshot()] == ["before"]
    obs.COLLECTOR.ingest(drained)
    assert len(obs.COLLECTOR) == 3
    obs.COLLECTOR.ingest(None)  # harmless
    obs.COLLECTOR.ingest([])
    assert len(obs.COLLECTOR) == 3


def test_collector_is_thread_safe():
    obs.enable()

    def emit(tag):
        for index in range(50):
            with obs.span(f"{tag}:{index}"):
                pass

    threads = [
        threading.Thread(target=emit, args=(t,)) for t in range(4)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert len(obs.COLLECTOR) == 200


def test_counters_gated_while_disabled():
    obs.disable()
    obs.COUNTERS.inc("x")
    obs.COUNTERS.gauge("g", 1.0)
    snap = obs.COUNTERS.snapshot()
    assert snap["counters"] == {}
    assert snap["gauges"] == {}


def test_counter_registry_semantics():
    obs.enable()
    obs.COUNTERS.inc("runs")
    obs.COUNTERS.inc("runs", 2)
    obs.COUNTERS.gauge("occ", 7.5)
    snap = obs.COUNTERS.snapshot()
    assert snap["counters"]["runs"] == 3
    assert snap["gauges"]["occ"] == 7.5


def test_counter_sample_emits_trace_event_and_gauges():
    obs.enable()
    obs.COUNTERS.sample("core.mem", {"l1d": 0.95, "llc": 0.5})
    events = obs.COLLECTOR.snapshot()
    assert len(events) == 1
    assert events[0]["ph"] == "C"
    assert events[0]["args"] == {"l1d": 0.95, "llc": 0.5}
    snap = obs.COUNTERS.snapshot()
    assert snap["gauges"]["core.mem.l1d"] == 0.95
