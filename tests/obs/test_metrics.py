"""The metrics layer: Prometheus exposition of the counter registry
(validated against the text-format rules) and the textfile exporter."""

import json
import threading

import pytest

from repro import obs
from repro.obs.metrics import (
    expose_prometheus,
    prometheus_text,
    sanitize_metric_name,
    validate_prometheus_text,
)


# ----------------------------------------------------------------------
# Prometheus exposition: the round-trip validator test.
# ----------------------------------------------------------------------
def _populated_registry():
    obs.enable()
    obs.COUNTERS.inc("engine.simulations", 4)
    obs.COUNTERS.gauge("progress.committed", 123456)
    for value in (0.0005, 0.003, 0.003, 0.8, 12.0):
        obs.COUNTERS.observe("run.wall_s", value)
    return obs.COUNTERS


def test_prometheus_text_round_trips_through_validator():
    registry = _populated_registry()
    text = prometheus_text(registry)
    assert validate_prometheus_text(text) == []
    # Counters/gauges carry their declared types.
    assert "# TYPE tea_engine_simulations counter" in text
    assert "# TYPE tea_progress_committed gauge" in text
    assert "# TYPE tea_run_wall_s histogram" in text
    assert "tea_engine_simulations 4" in text


def test_prometheus_histogram_buckets_are_cumulative():
    registry = _populated_registry()
    text = prometheus_text(registry)
    lines = [
        line for line in text.splitlines()
        if line.startswith("tea_run_wall_s_bucket")
    ]
    counts = [float(line.rsplit(" ", 1)[1]) for line in lines]
    assert counts == sorted(counts)  # cumulative => monotone
    assert lines[-1].startswith('tea_run_wall_s_bucket{le="+Inf"}')
    assert counts[-1] == 5.0
    assert "tea_run_wall_s_count 5" in text
    assert "tea_run_wall_s_sum" in text


def test_validator_rejects_broken_exposition():
    # _count disagreeing with the +Inf bucket must be flagged.
    bad = "\n".join(
        [
            "# TYPE tea_h histogram",
            'tea_h_bucket{le="1"} 2',
            'tea_h_bucket{le="+Inf"} 3',
            "tea_h_sum 1.5",
            "tea_h_count 7",
            "",
        ]
    )
    assert validate_prometheus_text(bad) != []
    # Non-monotone cumulative buckets must be flagged.
    bad2 = "\n".join(
        [
            "# TYPE tea_h histogram",
            'tea_h_bucket{le="1"} 5',
            'tea_h_bucket{le="2"} 3',
            'tea_h_bucket{le="+Inf"} 5',
            "tea_h_sum 1.0",
            "tea_h_count 5",
            "",
        ]
    )
    assert any(
        "decrease" in p for p in validate_prometheus_text(bad2)
    )


def test_sanitize_metric_name():
    assert (
        sanitize_metric_name("core.commit.cycles")
        == "tea_core_commit_cycles"
    )
    assert sanitize_metric_name("9lives") == "tea__9lives"
    assert sanitize_metric_name("ok_name") == "tea_ok_name"


def test_expose_prometheus_writes_textfile_atomically(tmp_path):
    registry = _populated_registry()
    path = tmp_path / "metrics.prom"
    samples = expose_prometheus(str(path), registry=registry)
    assert samples > 0
    text = path.read_text()
    assert validate_prometheus_text(text) == []
    assert text.endswith("\n")
    assert list(tmp_path.iterdir()) == [path]  # no temp file left


# ----------------------------------------------------------------------
# Histogram buckets + quantiles (CounterRegistry.observe).
# ----------------------------------------------------------------------
def test_observe_populates_log_spaced_buckets():
    from repro.obs.counters import BUCKET_BOUNDS, CounterRegistry

    assert list(BUCKET_BOUNDS) == sorted(BUCKET_BOUNDS)
    obs.enable()
    registry = CounterRegistry()
    for value in (0.001, 0.02, 0.02, 5.0, 5.0, 5.0, 120.0, 1e12):
        registry.observe("h", value)
    summary = registry.get("h")
    buckets = summary["buckets"]
    assert buckets["+Inf"] == 8
    # Cumulative counts at each emitted bound.
    assert buckets["0.001"] == 1
    assert buckets["0.02"] == 3
    assert buckets["5"] == 6
    assert buckets["200"] == 7  # 120 falls in the (100, 200] bucket


def test_hist_quantiles_from_buckets():
    from repro.obs.counters import CounterRegistry, hist_quantile

    obs.enable()
    registry = CounterRegistry()
    for value in (0.001, 0.02, 0.02, 5.0, 5.0, 5.0, 120.0, 1e12):
        registry.observe("h", value)
    assert registry.quantile("h", 0.5) == pytest.approx(5.0)
    # The p99 rank lands in the overflow bucket; clamp to the max.
    assert registry.quantile("h", 0.99) == pytest.approx(1e12)
    assert registry.quantile("h", 0.0) == pytest.approx(0.001)
    assert hist_quantile({}, 0.5) is None
    assert registry.quantile("absent", 0.5) is None


def test_registry_get_returns_histogram_summary():
    """Regression: get() used to return None for histogram names."""
    from repro.obs.counters import CounterRegistry

    obs.enable()
    registry = CounterRegistry()
    registry.observe("wall", 2.0)
    registry.observe("wall", 4.0)
    summary = registry.get("wall")
    assert summary["count"] == 2
    assert summary["sum"] == pytest.approx(6.0)
    assert summary["min"] == 2.0 and summary["max"] == 4.0
    assert registry.get("never") is None


def test_hist_snapshot_carries_buckets_key():
    """The snapshot stays backward compatible: old keys intact, the
    new "buckets" mapping added."""
    obs.enable()
    obs.COUNTERS.observe("lat", 0.5)
    hist = obs.COUNTERS.snapshot()["histograms"]["lat"]
    assert {"count", "sum", "min", "max", "buckets"} <= set(hist)
    assert json.dumps(hist)  # JSON-serialisable for the run log


# ----------------------------------------------------------------------
# Satellite: multi-thread registry contention.
# ----------------------------------------------------------------------
def test_counter_registry_is_thread_safe_under_contention():
    from repro.obs.counters import CounterRegistry

    obs.enable()
    registry = CounterRegistry()
    threads_n, iters = 8, 2_000

    def hammer(tid: int) -> None:
        for i in range(iters):
            registry.inc("shared")
            registry.inc(f"mine.{tid}")
            registry.gauge("last", float(i))
            registry.observe("obs", float(i % 7))

    threads = [
        threading.Thread(target=hammer, args=(tid,))
        for tid in range(threads_n)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert registry.get("shared") == threads_n * iters
    for tid in range(threads_n):
        assert registry.get(f"mine.{tid}") == iters
    summary = registry.get("obs")
    assert summary["count"] == threads_n * iters
    assert summary["buckets"]["+Inf"] == threads_n * iters
