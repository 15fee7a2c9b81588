"""The metrics layer: Prometheus exposition of the counter registry
(validated against the text-format rules) and the textfile exporter."""

import threading

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
    return obs.COUNTERS


def test_prometheus_text_round_trips_through_validator():
    registry = _populated_registry()
    text = prometheus_text(registry)
    assert validate_prometheus_text(text) == []
    # Counters/gauges carry their declared types.
    assert "# TYPE tea_engine_simulations counter" in text
    assert "# TYPE tea_progress_committed gauge" in text
    assert "tea_engine_simulations 4" in text


def test_validator_rejects_broken_exposition():
    # The registry has counters and gauges only: a histogram family
    # is an unknown type, and its suffixed samples are undeclared.
    bad = "\n".join(
        [
            "# TYPE tea_h histogram",
            'tea_h_bucket{le="+Inf"} 3',
            "tea_h_count 3",
            "",
        ]
    )
    problems = validate_prometheus_text(bad)
    assert any("unknown metric type 'histogram'" in p for p in problems)
    assert any("tea_h_bucket has no TYPE" in p for p in problems)
    # Non-numeric values and undeclared samples must be flagged.
    bad2 = "\n".join(["# TYPE tea_c counter", "tea_c one", "tea_d 1", ""])
    problems = validate_prometheus_text(bad2)
    assert any("non-numeric value" in p for p in problems)
    assert any("tea_d has no TYPE" in p for p in problems)


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

    threads = [
        threading.Thread(target=hammer, args=(tid,))
        for tid in range(threads_n)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    counters = registry.snapshot()["counters"]
    assert counters["shared"] == threads_n * iters
    for tid in range(threads_n):
        assert counters[f"mine.{tid}"] == iters
