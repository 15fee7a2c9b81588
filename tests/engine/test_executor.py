"""Suite executor: retry semantics, failure reporting, parallelism."""

import functools
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.engine import SuiteExecutionError, SuiteExecutor
from repro.engine import executor as executor_module
from repro.engine.executor import simulate_to_payload
from repro.engine.spec import RunSpec

from tests.engine.conftest import SMALL


def test_serial_retry_recovers_from_one_failure():
    calls = []

    def flaky(item):
        calls.append(item[0])
        if len(calls) == 1:
            raise RuntimeError("transient")
        return item[0], {"ok": True}

    executor = SuiteExecutor(jobs=1, retries=1, fn=flaky)
    results = executor.execute([("a", None)]).payloads
    assert results == {"a": {"ok": True}}
    assert calls == ["a", "a"]


def test_exhausted_retries_name_the_failing_workload():
    def doomed(item):
        if item[0] == "doom":
            raise ValueError("kernel exploded")
        return item[0], {"ok": item[0]}

    executor = SuiteExecutor(jobs=1, retries=1, fn=doomed)
    report = executor.execute([("fine", None), ("doom", None)]).report
    exc = SuiteExecutionError(report.failures, report)
    assert "doom" in str(exc)
    assert "kernel exploded" in str(exc)
    assert "fine" not in exc.failures
    assert list(exc.failures) == ["doom"]
    report = exc.report()
    assert "--- doom ---" in report
    assert "ValueError: kernel exploded" in report


def test_zero_retries_fail_immediately():
    calls = []

    def flaky(item):
        calls.append(item[0])
        raise RuntimeError("always")

    executor = SuiteExecutor(jobs=1, retries=0, fn=flaky)
    report = executor.execute([("a", None)]).report
    assert report.failed_labels == ["a"]
    assert calls == ["a"]


def _flaky_worker(marker_dir, item):
    """Picklable worker that fails once per label, then succeeds."""
    import pathlib

    marker = pathlib.Path(marker_dir) / f"{item[0]}.failed"
    if not marker.exists():
        marker.write_text("")
        raise RuntimeError("first attempt dies")
    return item[0], {"ok": item[0]}


def test_parallel_retry_across_processes(tmp_path):
    fn = functools.partial(_flaky_worker, str(tmp_path))
    executor = SuiteExecutor(jobs=2, retries=1, fn=fn)
    results = executor.execute([("a", None), ("b", None)]).payloads
    assert results == {"a": {"ok": "a"}, "b": {"ok": "b"}}


def _strip_wall(payload):
    return {k: v for k, v in payload.items() if k != "wall_s"}


def test_parallel_matches_serial_bit_identically():
    """jobs=2 must return byte-identical payloads to jobs=1."""
    items = [
        ("exchange2", RunSpec.make("exchange2", **SMALL)),
        ("xz", RunSpec.make("xz", **SMALL)),
    ]
    serial = SuiteExecutor(jobs=1, fn=simulate_to_payload).execute(items)
    parallel = SuiteExecutor(jobs=2, fn=simulate_to_payload).execute(items)
    serial, parallel = serial.payloads, parallel.payloads
    assert set(serial) == set(parallel) == {"exchange2", "xz"}
    for label in serial:
        assert _strip_wall(parallel[label]) == _strip_wall(serial[label])


def _echo_worker(item):
    """Picklable worker that succeeds at once."""
    return item[0], {"ok": item[0]}


@pytest.mark.parametrize("heartbeat", [None, 0.05])
def test_successful_parallel_suite_lets_its_workers_exit(
    monkeypatch, heartbeat
):
    """A suite that finishes shuts its pool down; it kills no worker."""
    workers = []

    class RecordingPool(ProcessPoolExecutor):
        def shutdown(self, *args, **kwargs):
            workers.extend((self._processes or {}).values())
            super().shutdown(*args, **kwargs)

    monkeypatch.setattr(executor_module, "ProcessPoolExecutor", RecordingPool)
    executor = SuiteExecutor(jobs=2, fn=_echo_worker, heartbeat=heartbeat)
    labels = ["a", "b", "c", "d"]
    results = executor.execute([(label, None) for label in labels]).payloads
    assert results == {label: {"ok": label} for label in labels}
    assert workers
    for process in workers:
        process.join(timeout=30)
    assert [process.exitcode for process in workers] == [0] * len(workers)
