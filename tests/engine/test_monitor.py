"""Live suite monitoring: the SuiteMonitor state machine, incremental
run-log tailing, stall detection ahead of the timeout, executor
heartbeat integration, and the concurrent-append safety of RunLog."""

import json
import multiprocessing
import os
import time

from repro.engine import (
    RunLog,
    SuiteExecutor,
    SuiteMonitor,
    read_run_log,
    render_monitor,
)
from repro.engine.faults import FaultyWorker
from repro.engine.monitor import (
    STATUS_DONE,
    STATUS_RUNNING,
    STATUS_STALLED,
    STATUS_TIMEOUT,
)


def beat(label, phase, ts, **extra):
    record = {
        "kind": "heartbeat", "label": label, "workload": label,
        "backend": "detailed", "phase": phase, "attempt": 1,
        "pid": 42, "cycles": 0, "committed": 0, "ts": ts,
    }
    record.update(extra)
    return record


# ----------------------------------------------------------------------
# State machine.
# ----------------------------------------------------------------------
def test_monitor_tracks_lifecycle_from_records():
    monitor = SuiteMonitor(["a", "b"])
    assert monitor.states()["a"].status == "pending"
    monitor.observe(beat("a", "start", 10.0))
    assert monitor.states()["a"].status == STATUS_RUNNING
    monitor.observe(
        beat("a", "progress", 11.0, cycles=500, committed=250)
    )
    state = monitor.states()["a"]
    assert state.cycles == 500 and state.beats == 2
    monitor.observe(beat("a", "done", 12.0, ok=True))
    assert monitor.states()["a"].status == STATUS_DONE
    # Labels not pre-declared are discovered on the fly.
    monitor.observe(beat("late", "start", 12.5))
    assert monitor.states()["late"].status == STATUS_RUNNING


def test_monitor_failed_done_beat_means_retry_pending():
    monitor = SuiteMonitor(["a"])
    monitor.observe(beat("a", "start", 1.0))
    monitor.observe(beat("a", "done", 2.0, ok=False))
    assert monitor.states()["a"].status == "retrying"


def test_suite_record_settles_terminal_statuses():
    monitor = SuiteMonitor(["a", "b"])
    monitor.observe(
        {
            "kind": "suite",
            "outcomes": {
                "a": {"status": "ok", "attempts": 1},
                "b": {"status": "timeout", "attempts": 2},
            },
        }
    )
    assert monitor.suite_done
    assert monitor.states()["a"].status == STATUS_DONE
    assert monitor.states()["b"].status == STATUS_TIMEOUT
    assert monitor.states()["b"].attempt == 2


def test_resources_records_accumulate():
    monitor = SuiteMonitor(["a"])
    monitor.observe(
        {"kind": "resources", "label": "a", "max_rss_kb": 1000.0,
         "cpu_user_s": 1.0, "cpu_sys_s": 0.5}
    )
    monitor.observe(
        {"kind": "resources", "label": "a", "max_rss_kb": 800.0,
         "cpu_user_s": 2.0, "cpu_sys_s": 0.25}
    )
    state = monitor.states()["a"]
    assert state.max_rss_kb == 1000.0  # peak, not last
    assert state.cpu_user_s == 3.0


# ----------------------------------------------------------------------
# Stall detection: silence flags before any timeout would.
# ----------------------------------------------------------------------
def test_check_stalls_flags_silent_running_label():
    now = [100.0]
    monitor = SuiteMonitor(
        ["quiet", "chatty"], stall_after=2.0, clock=lambda: now[0]
    )
    monitor.note_dispatch("quiet", 1)
    monitor.note_dispatch("chatty", 1)
    now[0] = 101.5
    monitor.observe(beat("chatty", "progress", now[0]))
    now[0] = 103.0
    monitor.observe(beat("chatty", "done", now[0], ok=True))
    flagged = monitor.check_stalls()
    assert [r["label"] for r in flagged] == ["quiet"]
    record = flagged[0]
    assert record["kind"] == "heartbeat"
    assert record["phase"] == "stalled"
    assert record["stalled_for_s"] >= 2.0
    assert monitor.states()["quiet"].status == STATUS_STALLED
    # One flag per silence: no re-flag without fresh activity.
    now[0] = 110.0
    assert monitor.check_stalls() == []
    # A fresh beat is proof of life and rearms the detector.
    monitor.observe(beat("quiet", "progress", now[0]))
    assert monitor.states()["quiet"].status == STATUS_RUNNING
    now[0] = 120.0
    assert len(monitor.check_stalls()) == 1


# ----------------------------------------------------------------------
# Incremental tailing: offsets, torn lines.
# ----------------------------------------------------------------------
def test_feed_file_is_incremental_and_ignores_torn_tail(tmp_path):
    path = tmp_path / "runs.jsonl"
    monitor = SuiteMonitor()
    with open(path, "w") as handle:
        handle.write(json.dumps(beat("a", "start", 1.0)) + "\n")
        handle.write('{"kind": "heartbeat", "label": "a", "pha')
    offset = monitor.feed_file(str(path))
    assert monitor.states()["a"].beats == 1  # torn line not consumed
    with open(path, "a") as handle:
        handle.write('se": "x"}\n')  # completes to valid JSON
        handle.write(json.dumps(beat("a", "done", 2.0)) + "\n")
    offset = monitor.feed_file(str(path), offset)
    state = monitor.states()["a"]
    assert state.beats == 3
    assert state.status == STATUS_DONE
    assert offset == os.path.getsize(path)
    # Missing files leave the offset unchanged.
    assert monitor.feed_file(str(tmp_path / "nope.jsonl"), 7) == 7


def test_render_monitor_shows_rows_and_totals():
    monitor = SuiteMonitor(["lbm", "xz"], stall_after=5.0)
    monitor.observe(beat("lbm", "start", 1.0))
    monitor.observe(
        beat("lbm", "progress", 2.0, cycles=2_000_000,
             committed=1_500_000, instrs_per_s=1.5e6)
    )
    monitor.observe(beat("xz", "start", 1.0))
    monitor.observe(beat("xz", "done", 3.0, ok=True))
    view = render_monitor(monitor)
    assert "lbm" in view and "xz" in view
    assert "running" in view and "done" in view
    assert "1.5M" in view  # humanised committed count
    assert "labels:" in view


# ----------------------------------------------------------------------
# Executor integration: heartbeats mid-run, stalls before timeout.
# ----------------------------------------------------------------------
def test_parallel_suite_ships_heartbeats_and_resources(tmp_path):
    worker = FaultyWorker(tmp_path, {})
    events = []
    executor = SuiteExecutor(
        jobs=2, retries=0, fn=worker, heartbeat=0.1,
        on_event=events.append,
    )
    result = executor.execute([("a", None), ("b", None)])
    assert set(result.payloads) == {"a", "b"}
    kinds = [e.get("kind") for e in events]
    assert kinds.count("resources") == 2
    beats = [e for e in events if e.get("kind") == "heartbeat"]
    for label in ("a", "b"):
        phases = [b["phase"] for b in beats if b["label"] == label]
        assert phases[0] == "start"
        assert phases[-1] == "done"
    resources = [e for e in events if e.get("kind") == "resources"]
    assert all(r["max_rss_kb"] > 0 for r in resources)
    monitor = executor.monitor
    assert monitor is not None
    assert all(
        s.status == STATUS_DONE for s in monitor.states().values()
    )


def test_hung_worker_flagged_stalled_before_timeout(tmp_path):
    """The acceptance scenario: a silent hang is visible as *stalled*
    while the (much longer) timeout is still counting down."""
    worker = FaultyWorker(tmp_path, {"hung": ("hang",)}, hang_s=120.0)
    events = []
    start = time.monotonic()
    executor = SuiteExecutor(
        jobs=2, retries=0, fn=worker, timeout=3.0,
        heartbeat=0.1, stall_after=0.5, on_event=events.append,
    )
    result = executor.execute([("hung", None), ("fine", None)])
    stalled = [
        e for e in events
        if e.get("kind") == "heartbeat" and e.get("phase") == "stalled"
    ]
    assert stalled, "stall never flagged"
    first_stall_elapsed = time.monotonic() - start
    assert stalled[0]["label"] == "hung"
    assert stalled[0]["stalled_for_s"] < 3.0
    assert first_stall_elapsed > 0  # sanity; flag happened pre-settle
    report = result.report
    assert report.stalls >= 1
    assert report.outcomes["hung"].status == "timeout"
    assert report.outcomes["fine"].status == "ok"
    assert "stall" in report.summary()


def test_serial_suite_heartbeats_without_a_pool(tmp_path):
    worker = FaultyWorker(tmp_path, {})
    events = []
    executor = SuiteExecutor(
        jobs=1, retries=0, fn=worker, heartbeat=0.05,
        on_event=events.append,
    )
    executor.execute([("solo", None)])
    phases = [
        e["phase"] for e in events if e.get("kind") == "heartbeat"
    ]
    assert phases[0] == "start" and phases[-1] == "done"
    assert any(e.get("kind") == "resources" for e in events)


def test_suite_report_json_carries_stalls_and_rss(tmp_path):
    worker = FaultyWorker(tmp_path, {})
    executor = SuiteExecutor(
        jobs=1, retries=0, fn=worker, heartbeat=0.05
    )
    result = executor.execute([("solo", None)])
    doc = result.report.to_json()
    assert doc["stalls"] == 0
    assert doc["outcomes"]["solo"]["max_rss_kb"] > 0


# ----------------------------------------------------------------------
# Satellite: concurrent RunLog appends stay line-atomic.
# ----------------------------------------------------------------------
def _append_worker(path, worker_id, n):
    with RunLog(path) as log:
        for i in range(n):
            log.record_event(
                {"kind": "heartbeat", "label": f"w{worker_id}",
                 "seq": i, "phase": "progress", "ts": float(i)}
            )


def test_runlog_concurrent_appends_from_processes(tmp_path):
    """O_APPEND + one write per line: records from 4 processes must
    interleave without tearing or loss."""
    path = tmp_path / "runs.jsonl"
    workers, per_worker = 4, 200
    procs = [
        multiprocessing.Process(
            target=_append_worker, args=(str(path), w, per_worker)
        )
        for w in range(workers)
    ]
    for proc in procs:
        proc.start()
    for proc in procs:
        proc.join(timeout=60)
        assert proc.exitcode == 0
    records = read_run_log(path)
    assert len(records) == workers * per_worker
    # Every record parsed whole: per-writer sequences are complete.
    for w in range(workers):
        seqs = sorted(
            r["seq"] for r in records if r["label"] == f"w{w}"
        )
        assert seqs == list(range(per_worker))
    # And the raw file has exactly one JSON object per line.
    for line in path.read_text().splitlines():
        assert json.loads(line)["kind"] == "heartbeat"
