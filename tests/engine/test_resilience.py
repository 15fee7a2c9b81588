"""Fault-tolerant suite execution: remote tracebacks, deterministic
backoff, timeouts, pool recovery, keep-going reports, and
checkpoint/resume -- driven by the deterministic fault-injection
harness in :mod:`repro.engine.faults`."""

import time

import pytest

from repro.engine import (
    Engine,
    RunLog,
    RunStore,
    SuiteExecutionError,
    SuiteExecutor,
    backoff_delay,
    read_run_log,
    simulate_to_payload,
    summarize_run_log,
)
from repro.engine.executor import (
    STATUS_FAILED,
    STATUS_OK,
    STATUS_TIMEOUT,
)
from repro.engine.faults import FaultyWorker
from repro.engine.spec import RunSpec

from tests.engine.conftest import SMALL


def spec(name="exchange2") -> RunSpec:
    return RunSpec.make(name, **SMALL)


# ----------------------------------------------------------------------
# Remote traceback capture.
# ----------------------------------------------------------------------
def test_parallel_failure_report_carries_remote_traceback(tmp_path):
    """The failure report must show where the *worker* failed (deep in
    the injected helper), not the parent's future.result() re-raise."""
    worker = FaultyWorker(
        tmp_path, {"doom": ("raise", "raise")}
    )
    executor = SuiteExecutor(jobs=2, retries=1, fn=worker)
    failures = executor.execute([("doom", None), ("fine", None)]).report.failures
    tb = failures["doom"]
    assert "_fault_helper_inner" in tb
    assert "InjectedFault" in tb
    assert "injected fault in 'doom'" in tb
    assert "future.result" not in tb
    assert "fine" not in failures


def test_serial_failure_report_carries_real_traceback(tmp_path):
    worker = FaultyWorker(tmp_path, {"doom": ("raise",)})
    executor = SuiteExecutor(jobs=1, retries=0, fn=worker)
    failures = executor.execute([("doom", None)]).report.failures
    assert "_fault_helper_inner" in failures["doom"]


# ----------------------------------------------------------------------
# Deterministic jittered backoff.
# ----------------------------------------------------------------------
def test_backoff_delay_is_deterministic_per_seed():
    a = backoff_delay(2, base=0.5, label="lbm")
    assert a == backoff_delay(2, base=0.5, label="lbm")
    assert a != backoff_delay(2, base=0.5, label="xz")
    assert a != backoff_delay(3, base=0.5, label="lbm")


def test_backoff_delay_bounds_and_growth():
    assert backoff_delay(1, base=10.0) == 0.0
    assert backoff_delay(5, base=0.0) == 0.0
    for attempt in (2, 3, 4):
        scale = 2.0 ** (attempt - 2)
        delay = backoff_delay(attempt, base=1.0, label="w")
        assert 0.5 * scale <= delay < 1.5 * scale


def test_serial_retry_waits_out_the_backoff(tmp_path):
    worker = FaultyWorker(tmp_path, {"flaky": ("raise",)})
    executor = SuiteExecutor(
        jobs=1, retries=1, fn=worker, backoff=0.05
    )
    start = time.monotonic()
    result = executor.execute([("flaky", None)])
    elapsed = time.monotonic() - start
    assert result.report.outcomes["flaky"].status == STATUS_OK
    assert elapsed >= backoff_delay(2, base=0.05, label="flaky")
    assert result.report.retries == 1


def test_serial_retry_waits_while_queued_labels_run():
    """A serial retry waits out its backoff in the delayed heap, so the
    labels already queued run first; per-label outcomes are unchanged."""
    calls = []

    def record_call(item):
        calls.append(item[0])
        if calls == ["flaky"]:
            raise RuntimeError("transient")
        return item[0], {"ok": item[0]}

    # tealint: disable=TL005 -- jobs=1 runs the closure in process
    executor = SuiteExecutor(jobs=1, retries=1, fn=record_call, backoff=0.3)
    result = executor.execute([("flaky", None), ("a", None), ("b", None)])
    assert calls == ["flaky", "a", "b", "flaky"]
    assert {
        label: (out.status, out.attempts)
        for label, out in result.report.outcomes.items()
    } == {"flaky": (STATUS_OK, 2), "a": (STATUS_OK, 1), "b": (STATUS_OK, 1)}
    assert set(result.payloads) == {"flaky", "a", "b"}


# ----------------------------------------------------------------------
# Timeouts (hung workers).
# ----------------------------------------------------------------------
def test_hung_worker_is_cancelled_and_redispatched(tmp_path):
    worker = FaultyWorker(
        tmp_path, {"hang": ("hang", "ok")}, hang_s=120.0
    )
    executor = SuiteExecutor(
        jobs=2, retries=1, fn=worker, timeout=1.5
    )
    start = time.monotonic()
    result = executor.execute([("hang", None), ("fine", None)])
    elapsed = time.monotonic() - start
    assert elapsed < 60.0  # nowhere near the 120s hang
    report = result.report
    assert report.outcomes["hang"].status == STATUS_OK
    assert report.outcomes["hang"].attempts == 2
    assert report.outcomes["fine"].status == STATUS_OK
    assert report.timeouts == 1
    assert report.pool_recreations >= 1
    assert set(result.payloads) == {"hang", "fine"}


def test_always_hanging_worker_times_out_terminally(tmp_path):
    worker = FaultyWorker(tmp_path, {"hang": ("hang",)}, hang_s=120.0)
    executor = SuiteExecutor(
        jobs=2, retries=0, fn=worker, timeout=1.0
    )
    start = time.monotonic()
    result = executor.execute([("hang", None)])
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    outcome = result.report.outcomes["hang"]
    assert outcome.status == STATUS_TIMEOUT
    assert "timed out after 1.0s" in outcome.cause
    assert "hang" not in result.payloads


# ----------------------------------------------------------------------
# Worker death / pool recovery.
# ----------------------------------------------------------------------
def test_killed_worker_does_not_poison_the_suite(tmp_path):
    """One OOM-killed worker must not cascade into failures for every
    remaining label: the pool is recreated and the run retried."""
    worker = FaultyWorker(tmp_path, {"victim": ("kill", "ok")})
    executor = SuiteExecutor(jobs=2, retries=1, fn=worker)
    result = executor.execute(
        [("victim", None), ("a", None), ("b", None), ("c", None)]
    )
    report = result.report
    assert set(result.payloads) == {"victim", "a", "b", "c"}
    assert all(
        out.status == STATUS_OK for out in report.outcomes.values()
    )
    assert report.outcomes["victim"].attempts >= 2
    assert report.pool_recreations >= 1


def test_worker_death_fails_only_the_label_whose_worker_died(tmp_path):
    """A death that breaks two runs in flight charges neither: each
    reruns alone, so only the label that kills its worker again fails
    and the bystander still completes."""
    worker = FaultyWorker(
        tmp_path, {"victim": ("kill", "kill"), "slow": ("hang",)},
        hang_s=1.0,
    )
    executor = SuiteExecutor(jobs=2, retries=0, fn=worker)
    result = executor.execute([("victim", None), ("slow", None)])
    outcomes = result.report.outcomes
    assert outcomes["slow"].status == STATUS_OK
    assert outcomes["victim"].status == STATUS_FAILED
    assert "worker process died" in outcomes["victim"].cause
    assert set(result.payloads) == {"slow"}
    assert result.report.pool_recreations >= 2


# ----------------------------------------------------------------------
# Serial/parallel report parity and keep-going.
# ----------------------------------------------------------------------
def test_serial_and_parallel_reports_agree(tmp_path):
    plan = {"flaky": ("raise",), "doom": ("raise", "raise")}
    items = [("flaky", None), ("doom", None), ("fine", None)]

    serial = SuiteExecutor(
        jobs=1, retries=1, fn=FaultyWorker(tmp_path / "s", plan)
    ).execute(items)
    parallel = SuiteExecutor(
        jobs=2, retries=1, fn=FaultyWorker(tmp_path / "p", plan)
    ).execute(items)

    assert set(serial.payloads) == set(parallel.payloads)
    assert serial.report.retries == parallel.report.retries == 2
    for label in ("flaky", "doom", "fine"):
        left = serial.report.outcomes[label]
        right = parallel.report.outcomes[label]
        assert left.status == right.status
        assert left.attempts == right.attempts
        assert left.cause == right.cause


def test_keep_going_returns_partial_results(tmp_path):
    worker = FaultyWorker(tmp_path, {"doom": ("raise", "raise")})
    landed = []
    executor = SuiteExecutor(
        jobs=1,
        retries=1,
        fn=worker,
        on_result=lambda label, payload: landed.append(label),
    )
    result = executor.execute([("doom", None), ("fine", None)])
    assert set(result.payloads) == {"fine"}
    assert landed == ["fine"]
    report = result.report
    assert report.failed_labels == ["doom"]
    assert report.outcomes["doom"].status == STATUS_FAILED
    assert "InjectedFault" in report.outcomes["doom"].cause
    assert "doom" in report.summary()


def test_recovered_run_is_bit_identical_to_fault_free_serial(tmp_path):
    """A run that succeeds on retry after an injected transient fault
    must produce the exact payload a fault-free serial run does."""
    worker = FaultyWorker(
        tmp_path,
        {"exchange2": ("raise",)},
        fn=simulate_to_payload,
    )
    executor = SuiteExecutor(
        jobs=2, retries=1, fn=worker, timeout=600.0
    )
    result = executor.execute([("exchange2", (spec("exchange2"),))])
    assert result.report.outcomes["exchange2"].attempts == 2
    [clean] = simulate_to_payload(("exchange2", (spec("exchange2"),)))[1]

    def strip(payload):
        return {k: v for k, v in payload.items() if k != "wall_s"}

    [recovered] = result.payloads["exchange2"]
    assert strip(recovered) == strip(clean)


# ----------------------------------------------------------------------
# Engine-level checkpoint/resume.
# ----------------------------------------------------------------------
def test_engine_checkpoints_healthy_runs_and_resumes(tmp_path):
    """A partially failed suite stores every completed payload; a
    fresh engine over the same store re-simulates only the rest."""
    store = RunStore(tmp_path / "store")
    log_path = tmp_path / "runs.jsonl"
    specs = {"good": spec("exchange2"), "doom": spec("xz")}
    worker = FaultyWorker(
        tmp_path / "faults",
        {"doom": ("raise", "raise")},
        fn=simulate_to_payload,
    )
    broken = Engine(
        store=store,
        run_log=RunLog(log_path),
        retries=1,
        keep_going=True,
        worker_fn=worker,
    )
    runs = broken.run_suite(specs)
    assert set(runs) == {"good"}
    assert broken.simulations == 1
    assert store.contains(specs["good"])
    assert not store.contains(specs["doom"])
    assert broken.checkpointed(specs) == {
        "good": True, "doom": False,
    }
    report = broken.last_suite_report
    assert report.failed_labels == ["doom"]
    assert report.outcomes["good"].status == STATUS_OK

    # The run log carries the suite record and stats summarises it.
    suite_records = [
        r for r in read_run_log(log_path) if r.get("kind") == "suite"
    ]
    assert len(suite_records) == 1
    assert suite_records[0]["failed"] == ["doom"]
    assert suite_records[0]["retries"] == 1
    assert "suites: 1 execution(s)" in summarize_run_log(log_path)

    # Resume with a healthy worker: only the failed label simulates.
    resumed = Engine(store=store, run_log=RunLog(log_path))
    runs = resumed.run_suite(specs)
    assert set(runs) == {"good", "doom"}
    assert resumed.simulations == 1
    assert resumed.checkpointed(specs) == {
        "good": True, "doom": True,
    }


def test_engine_checkpoints_before_raising(tmp_path):
    """Without keep_going the suite still flushes completed payloads
    to the store before the failure propagates."""
    store = RunStore(tmp_path / "store")
    specs = {"good": spec("exchange2"), "doom": spec("xz")}
    worker = FaultyWorker(
        tmp_path / "faults",
        {"doom": ("raise", "raise")},
        fn=simulate_to_payload,
    )
    engine = Engine(
        store=store, retries=1, keep_going=False, worker_fn=worker
    )
    with pytest.raises(SuiteExecutionError) as excinfo:
        engine.run_suite(specs)
    assert store.contains(specs["good"])
    assert excinfo.value.suite_report.failed_labels == ["doom"]


def test_engine_checkpoints_before_decoding(tmp_path, monkeypatch):
    """A finished payload is stored before the parent decodes it, so an
    interrupt there loses no work."""
    import repro.engine.engine as engine_mod

    def interrupted(payload, workload):
        raise KeyboardInterrupt

    store = RunStore(tmp_path / "store")
    specs = {"good": spec("exchange2")}
    with monkeypatch.context() as patch:
        patch.setattr(engine_mod, "run_from_payload", interrupted)
        with pytest.raises(KeyboardInterrupt):
            Engine(store=store).run_suite(specs)
    assert store.contains(specs["good"])

    resumed = Engine(store=RunStore(store.root))
    assert set(resumed.run_suite(specs)) == {"good"}
    assert resumed.simulations == 0
    assert resumed.store.hits == 1


def test_engine_records_attempts_in_run_telemetry(tmp_path):
    log_path = tmp_path / "runs.jsonl"
    worker = FaultyWorker(
        tmp_path / "faults",
        {"flaky": ("raise",)},
        fn=simulate_to_payload,
    )
    engine = Engine(
        run_log=RunLog(log_path), retries=1, worker_fn=worker
    )
    engine.run_suite({"flaky": spec("exchange2")})
    records = [
        r for r in read_run_log(log_path) if r["kind"] == "run"
    ]
    assert [r["attempts"] for r in records] == [2]
    assert records[0]["source"] == "simulated"
    # Each attempt also left its resource-usage footprint.
    resources = [
        r for r in read_run_log(log_path)
        if r.get("kind") == "resources"
    ]
    assert [r["attempt"] for r in resources] == [1, 2]
