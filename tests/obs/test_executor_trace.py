"""Suite-executor tracing: one timeline across worker pids."""

import os
import time

from repro import obs
from repro.engine.executor import SuiteExecutor
from repro.engine.faults import FaultyWorker
from repro.obs.export import (
    chrome_trace_doc,
    export_chrome_trace,
    read_chrome_trace,
)


def sleepy_payload(item):
    """Picklable worker: slow enough that both pool workers get work."""
    label, _ = item
    with obs.span(f"work:{label}"):
        time.sleep(0.25)
    return label, {"label": label, "pid": os.getpid()}


def flaky_payload(item):
    label, _ = item
    if label == "bad":
        raise RuntimeError("injected")
    return label, {"label": label}


def items(*labels):
    return [(label, None) for label in labels]


def test_parallel_suite_merges_spans_from_multiple_pids(tmp_path):
    obs.enable()
    executor = SuiteExecutor(jobs=2, fn=sleepy_payload)
    result = executor.execute(items("a", "b", "c", "d"))
    assert sorted(result.payloads) == ["a", "b", "c", "d"]

    events = obs.COLLECTOR.snapshot()
    run_spans = [
        e for e in events
        if e["ph"] == "X" and e["name"].startswith("run:")
    ]
    assert len(run_spans) == 4
    worker_pids = {e["pid"] for e in run_spans}
    assert len(worker_pids) >= 2  # the timeline spans worker processes
    assert os.getpid() not in worker_pids  # recorded where they ran

    # Nested spans from inside the worker fn travel back too.
    work_spans = {
        e["name"] for e in events if e["name"].startswith("work:")
    }
    assert work_spans == {"work:a", "work:b", "work:c", "work:d"}

    # Dispatch instants come from the parent.
    dispatches = [
        e for e in events
        if e["ph"] == "i" and e["name"].startswith("dispatch:")
    ]
    assert len(dispatches) == 4
    assert {e["pid"] for e in dispatches} == {os.getpid()}

    # The merged timeline exports as a valid Perfetto trace.
    path = tmp_path / "suite.json"
    export_chrome_trace(path, events)
    doc = read_chrome_trace(path)
    pids = {
        e["pid"]
        for e in doc["traceEvents"]
        if e["ph"] == "X" and e["name"].startswith("run:")
    }
    assert len(pids) >= 2


def test_serial_suite_keeps_spans_on_shared_timeline():
    obs.enable()
    executor = SuiteExecutor(jobs=1, fn=sleepy_payload)
    executor.execute(items("only"))
    events = obs.COLLECTOR.snapshot()
    names = [e["name"] for e in events]
    assert "run:only" in names and "work:only" in names
    assert "dispatch:only" in names


def test_retry_and_failure_events_recorded():
    obs.enable()
    executor = SuiteExecutor(
        jobs=1, retries=1, fn=flaky_payload, backoff=0.01,
    )
    result = executor.execute(items("good", "bad"))
    assert result.report.outcomes["bad"].status == "failed"

    events = obs.COLLECTOR.snapshot()
    retries = [e for e in events if e["name"] == "retry:bad"]
    assert len(retries) == 1
    assert retries[0]["args"]["cause"].startswith("RuntimeError")
    backoffs = [e for e in events if e["name"] == "backoff:bad"]
    assert len(backoffs) == 1 and backoffs[0]["ph"] == "X"
    # Failed run spans carry the error class.
    failed_runs = [
        e for e in events
        if e["name"] == "run:bad" and e["ph"] == "X"
    ]
    assert len(failed_runs) == 2  # first attempt + retry
    assert all(
        e["args"]["error"] == "RuntimeError" for e in failed_runs
    )

    snap = obs.COUNTERS.snapshot()
    assert snap["counters"]["executor.runs_ok"] == 1
    assert snap["counters"]["executor.retries"] == 1
    assert snap["counters"]["executor.runs_failed"] == 1


def test_runs_failed_counts_every_label_left_without_a_payload(tmp_path):
    """A raise, a worker death and a timeout each end a label without a
    payload, and each is one ``executor.runs_failed``."""
    obs.enable()
    worker = FaultyWorker(
        tmp_path,
        {
            "victim": ("kill", "kill"),
            "hung": ("hang", "hang"),
            "doom": ("raise",),
        },
        hang_s=60.0,
    )
    executor = SuiteExecutor(jobs=2, retries=0, fn=worker, timeout=2.0)
    result = executor.execute(items("victim", "hung", "doom", "fine"))
    report = result.report
    counters = obs.COUNTERS.snapshot()["counters"]
    assert counters["executor.runs_failed"] == len(report.failed_labels)
    assert counters["executor.runs_ok"] == 1
    assert set(result.payloads) == {"fine"}
    assert report.outcomes["victim"].status == "failed"
    assert report.outcomes["hung"].status == "timeout"
    assert report.outcomes["doom"].status == "failed"


def test_disabled_executor_ships_no_events():
    obs.disable()
    executor = SuiteExecutor(jobs=1, fn=flaky_payload)
    executor.execute(items("good"))
    assert len(obs.COLLECTOR) == 0
    doc = chrome_trace_doc([])
    assert doc["traceEvents"] == []
