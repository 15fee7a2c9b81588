"""Resilient parallel suite execution over run specs.

:class:`SuiteExecutor` fans a list of ``(label, RunSpec)`` pairs out
across a :class:`~concurrent.futures.ProcessPoolExecutor` (serial
in-process fallback for ``jobs=1``) and survives the three fault
classes long sweep campaigns actually hit:

* **a run raises** -- the worker captures its own traceback and ships
  it back as data, so failure reports show the *remote* stack, and the
  run is retried with deterministic jittered exponential backoff;
* **a worker process dies** (OOM kill, segfault) -- the broken pool is
  torn down and recreated, in-flight runs are re-dispatched, and the
  suite keeps going instead of cascading `BrokenProcessPool` into
  every remaining label;
* **a worker hangs** -- each parallel attempt is bounded by a
  wall-clock ``timeout``; expired workers are killed (the pool is
  recreated) and the run is re-dispatched or reported as timed out.

Completed payloads are handed to an ``on_result`` callback the moment
they land, which is how the engine checkpoints partial suites to the
:class:`~repro.engine.store.RunStore` (interrupted suites resume from
the store instead of restarting). Every execution produces a
:class:`SuiteReport` -- per-label status, attempts, wall time, failure
cause -- and ``keep_going`` mode returns partial results plus that
report instead of raising.

Payloads -- not live objects -- cross the process boundary, so a
parallel suite reconstructs runs through exactly the same
serialisation path as a store hit and stays bit-identical to a serial
run.

With a ``heartbeat`` interval set, every worker additionally ships
periodic progress beats (:mod:`repro.obs.progress`) back over a
``multiprocessing`` queue; the parent folds them into a live
:class:`~repro.engine.monitor.SuiteMonitor` status table, detects
silently *stalled* workers before the wall-clock timeout fires, and
forwards each beat -- plus per-attempt ``resource.getrusage``
accounting -- to an ``on_event`` callback (the engine's run-log hook).
"""

from __future__ import annotations

import hashlib
import heapq
import multiprocessing
import time
import traceback
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from collections.abc import Callable, Sequence
from queue import Empty
from typing import Any

from repro import obs
from repro.engine import monitor as _monitor
from repro.engine.monitor import SuiteMonitor
from repro.engine.runs import run_to_payload, simulate_spec
from repro.engine.spec import RunSpec
from repro.obs import progress as _progress

try:
    import resource as _resource
except ImportError:  # pragma: no cover - non-POSIX platforms
    _resource = None

#: Per-label terminal statuses a :class:`SuiteReport` can carry.
STATUS_OK = "ok"
STATUS_FAILED = "failed"
STATUS_TIMEOUT = "timeout"


class SuiteExecutionError(RuntimeError):
    """One or more suite runs failed after retries.

    Attributes:
        failures: label -> formatted traceback (or cause) of the final
            attempt. For parallel runs this is the *worker-side*
            traceback, captured where the run actually failed.
        suite_report: The full :class:`SuiteReport` of the execution,
            when available.
    """

    def __init__(
        self,
        failures: dict[str, str],
        suite_report: "SuiteReport | None" = None,
    ) -> None:
        self.failures = dict(failures)
        self.suite_report = suite_report
        summary = ", ".join(
            f"{label} ({_last_line(tb)})"
            for label, tb in sorted(self.failures.items())
        )
        super().__init__(
            f"{len(self.failures)} suite run(s) failed: {summary}"
        )

    def report(self) -> str:
        """Full per-workload failure report (tracebacks included)."""
        sections = [
            f"--- {label} ---\n{tb.rstrip()}"
            for label, tb in sorted(self.failures.items())
        ]
        return "\n".join([str(self)] + sections)


def _last_line(tb: str) -> str:
    lines = [line for line in tb.strip().splitlines() if line.strip()]
    return lines[-1].strip() if lines else "unknown error"


def backoff_delay(
    attempt: int,
    base: float,
    factor: float = 2.0,
    seed: int = 12345,
    label: str = "",
) -> float:
    """Seconds to wait before *attempt* (1-based; the first is free).

    Exponential in the attempt number with a deterministic jitter in
    ``[0.5, 1.5)`` derived from ``sha256(seed, label, attempt)`` --
    the same seed always reproduces the same backoff schedule, so
    retry timing is testable and sweeps are replayable, while distinct
    labels still decorrelate their retry storms.
    """
    if attempt <= 1 or base <= 0:
        return 0.0
    digest = hashlib.sha256(
        f"{seed}:{label}:{attempt}".encode()
    ).digest()
    jitter = 0.5 + int.from_bytes(digest[:8], "big") / 2**64
    return base * factor ** (attempt - 2) * jitter


@dataclass
class LabelOutcome:
    """Terminal status of one suite label."""

    label: str
    status: str  # STATUS_OK | STATUS_FAILED | STATUS_TIMEOUT
    attempts: int
    wall_s: float = 0.0
    cause: str | None = None  # short "Type: message" style cause
    traceback: str | None = None  # formatted (remote) traceback

    def to_json(self) -> dict[str, Any]:
        """A compact JSON-ready record (traceback elided)."""
        doc: dict[str, Any] = {
            "status": self.status,
            "attempts": self.attempts,
            "wall_s": round(self.wall_s, 6),
        }
        if self.cause:
            doc["cause"] = self.cause
        return doc


@dataclass
class SuiteReport:
    """Structured account of one suite execution.

    Attributes:
        outcomes: label -> terminal :class:`LabelOutcome`.
        retries: Total re-dispatches performed (all labels).
        timeouts: Attempts cancelled for exceeding the timeout.
        pool_recreations: Times the worker pool was torn down and
            rebuilt (worker death or hung-worker cancellation).
        stalls: Silently stalled workers the heartbeat monitor
            flagged (no activity for ``stall_after`` seconds).
        wall_s: Wall-clock seconds the whole execution took.
    """

    outcomes: dict[str, LabelOutcome] = field(default_factory=dict)
    retries: int = 0
    timeouts: int = 0
    pool_recreations: int = 0
    stalls: int = 0
    wall_s: float = 0.0

    @property
    def ok_labels(self) -> list[str]:
        """Labels that completed successfully."""
        return [
            label
            for label, out in self.outcomes.items()
            if out.status == STATUS_OK
        ]

    @property
    def failed_labels(self) -> list[str]:
        """Labels that did not complete (failed or timed out)."""
        return [
            label
            for label, out in self.outcomes.items()
            if out.status != STATUS_OK
        ]

    @property
    def failures(self) -> dict[str, str]:
        """label -> traceback (or cause) for every non-ok label."""
        return {
            label: (
                self.outcomes[label].traceback
                or self.outcomes[label].cause
                or "unknown error"
            )
            for label in self.failed_labels
        }

    def summary(self) -> str:
        """One-paragraph human summary of the execution."""
        lines = [
            f"suite: {len(self.ok_labels)}/{len(self.outcomes)} run(s) "
            f"ok in {self.wall_s:.1f}s -- {self.retries} retrie(s), "
            f"{self.timeouts} timeout(s), {self.stalls} stall(s), "
            f"{self.pool_recreations} pool recreation(s)"
        ]
        for label in sorted(self.failed_labels):
            out = self.outcomes[label]
            lines.append(
                f"  {label}: {out.status} after {out.attempts} "
                f"attempt(s) ({out.cause or 'unknown error'})"
            )
        return "\n".join(lines)

    def to_json(self) -> dict[str, Any]:
        """A JSON-ready record (one telemetry line)."""
        return {
            "labels": len(self.outcomes),
            "ok": len(self.ok_labels),
            "failed": sorted(self.failed_labels),
            "retries": self.retries,
            "timeouts": self.timeouts,
            "pool_recreations": self.pool_recreations,
            "stalls": self.stalls,
            "wall_s": round(self.wall_s, 6),
            "outcomes": {
                label: out.to_json()
                for label, out in sorted(self.outcomes.items())
            },
        }


@dataclass
class SuiteResult:
    """Payloads plus the report of one :meth:`SuiteExecutor.execute`."""

    payloads: dict[str, dict[str, Any]]
    report: SuiteReport


def simulate_to_payload(
    item: tuple[str, RunSpec],
) -> tuple[str, dict[str, Any]]:
    """Worker entry point: simulate one spec, return its payload."""
    label, spec = item
    start = time.perf_counter()
    run = simulate_spec(spec)
    return label, run_to_payload(
        spec, run, wall_s=time.perf_counter() - start
    )


@dataclass
class _WorkerOutcome:
    """What one worker attempt produced (crosses the pickle boundary)."""

    label: str
    payload: dict[str, Any] | None
    error: str | None  # formatted traceback, captured in the worker
    cause: str | None  # "ExcType: message"
    wall_s: float
    obs: list | None = None  # trace events collected during the run
    resources: dict[str, float] | None = None  # getrusage accounting


def _rusage() -> tuple[float, float, float] | None:
    """``(max_rss_kb, cpu_user_s, cpu_sys_s)`` of this process."""
    if _resource is None:
        return None
    usage = _resource.getrusage(_resource.RUSAGE_SELF)
    return (
        float(usage.ru_maxrss), usage.ru_utime, usage.ru_stime,
    )


def _rusage_delta(
    before: tuple[float, float, float] | None,
    wall_s: float,
) -> dict[str, float] | None:
    """Per-attempt resource accounting since *before*.

    ``max_rss_kb`` is the process peak (the kernel reports no
    per-interval high-water mark); CPU times are true deltas.
    """
    after = _rusage()
    if before is None or after is None:
        return None
    return {
        "max_rss_kb": after[0],
        "cpu_user_s": round(after[1] - before[1], 6),
        "cpu_sys_s": round(after[2] - before[2], 6),
        "wall_s": round(wall_s, 6),
    }


def _run_captured(
    fn: Callable[[tuple[str, Any]], tuple[str, dict[str, Any]]],
    item: tuple[str, Any],
    attempt: int = 1,
) -> _WorkerOutcome:
    """Run *fn* on *item*, capturing any exception where it happened.

    Runs inside the worker process, so ``error`` carries the remote
    traceback -- not the parent's re-raise site. With observability on,
    trace events recorded during the run (including the ``run:<label>``
    span itself, stamped with the *worker's* pid) are drained from a
    pre-run mark -- so state inherited over ``fork`` is not re-shipped
    -- and travel back on the outcome for the parent to merge into one
    suite-wide timeline.

    The run is bracketed by unconditional ``start``/``done`` progress
    beats (:mod:`repro.obs.progress`) -- when the executor installed a
    heartbeat sink these reach the parent's stall detector even while
    instrumentation is off -- and by a ``getrusage`` snapshot pair
    that lands on the outcome as per-attempt resource accounting.
    """
    label = item[0]
    spec = item[1] if len(item) > 1 else None
    workload = getattr(spec, "workload", "") or label
    backend = getattr(spec, "backend", "") or "detailed"
    start = time.perf_counter()
    usage_before = _rusage()
    instrumented = obs.enabled()
    mark = obs.COLLECTOR.mark() if instrumented else 0
    _progress.set_run_context(label, attempt)
    _progress.begin_run(workload, backend)
    try:
        with obs.span(f"run:{label}"):
            _, payload = fn(item)
    except Exception as exc:
        wall_s = time.perf_counter() - start
        _progress.end_run(workload, backend, 0, 0, ok=False)
        _progress.clear_run_context()
        return _WorkerOutcome(
            label=label,
            payload=None,
            error=traceback.format_exc(),
            cause=f"{type(exc).__name__}: {exc}",
            wall_s=wall_s,
            obs=obs.COLLECTOR.drain_from(mark) if instrumented else None,
            resources=_rusage_delta(usage_before, wall_s),
        )
    wall_s = time.perf_counter() - start
    cycles = committed = 0
    if isinstance(payload, dict):
        cycles = int(payload.get("cycles") or 0)
        committed = int(payload.get("committed") or 0)
    _progress.end_run(workload, backend, cycles, committed, ok=True)
    _progress.clear_run_context()
    return _WorkerOutcome(
        label=label,
        payload=payload,
        error=None,
        cause=None,
        wall_s=wall_s,
        obs=obs.COLLECTOR.drain_from(mark) if instrumented else None,
        resources=_rusage_delta(usage_before, wall_s),
    )


class _QueueSink:
    """Worker-side heartbeat sink: beats -> the parent's queue.

    The ``min_interval_s`` attribute is the throttle
    :mod:`repro.obs.progress` honours, so the executor's heartbeat
    interval governs the beat rate. A full or torn-down queue drops
    the beat -- heartbeats are best-effort by design and must never
    fail a run.
    """

    def __init__(
        self, queue: Any, min_interval_s: float
    ) -> None:
        self.queue = queue
        self.min_interval_s = min_interval_s

    def __call__(self, event: "_progress.ProgressEvent") -> None:
        try:
            self.queue.put_nowait(event.to_record())
        except Exception:
            pass


def _heartbeat_init(queue: Any, interval_s: float) -> None:
    """Pool initializer: install the queue sink in a fresh worker.

    Travels to the worker through ``ProcessPoolExecutor``'s
    ``initargs`` (valid under both fork and spawn -- initargs ride the
    ``Process`` constructor, which is the one place a
    ``multiprocessing.Queue`` may cross).
    """
    _progress.set_sink(_QueueSink(queue, interval_s))


class _LocalSink:
    """Serial-path heartbeat sink: beats -> the parent handler."""

    def __init__(
        self,
        handler: Callable[[dict[str, Any]], None],
        min_interval_s: float,
    ) -> None:
        self._handler = handler
        self.min_interval_s = min_interval_s

    def __call__(self, event: "_progress.ProgressEvent") -> None:
        self._handler(event.to_record())


def _instant(name: str, **args: Any) -> None:
    """Record an executor lifecycle instant (no-op while disabled)."""
    if obs.enabled():
        obs.COLLECTOR.add_instant(name, args or None, cat="executor")


def _terminate_pool(pool: ProcessPoolExecutor) -> None:
    """Kill a pool's worker processes and release its resources.

    Used both when a hung worker must be cancelled (the only way to
    preempt a worker process is to terminate it) and after a
    :class:`BrokenProcessPool` (the pool object is unusable anyway).
    """
    processes = list(getattr(pool, "_processes", {}).values())
    for process in processes:
        try:
            process.terminate()
        except Exception:  # pragma: no cover - already-dead racing
            pass
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:  # pragma: no cover - broken-pool shutdown race
        pass


class SuiteExecutor:
    """Fan specs out over worker processes with fault tolerance.

    Args:
        jobs: Maximum concurrent workers (1 = serial, in-process).
        retries: Re-attempts per failing run (default 1).
        fn: Worker callable ``(label, spec) -> (label, payload)``;
            overridable for tests and fault injection. Must be
            picklable when ``jobs > 1``.
        timeout: Per-attempt wall-clock bound in seconds (parallel
            runs only -- an in-process attempt cannot be preempted).
            ``None`` disables the bound.
        backoff: Base backoff in seconds between attempts of the same
            run (see :func:`backoff_delay`); 0 retries immediately.
        backoff_factor: Exponential growth factor of the backoff.
        seed: Seed of the deterministic backoff jitter.
        keep_going: When true, :meth:`map` returns the partial payload
            dict instead of raising on failures (the report is always
            available via :attr:`last_report`).
        on_result: Callback ``(label, payload)`` invoked in the parent
            as each run lands -- the engine's checkpoint hook.
        heartbeat: Worker heartbeat interval in seconds; ``None``
            (default) disables live monitoring. When set, workers ship
            progress beats to the parent, a
            :class:`~repro.engine.monitor.SuiteMonitor` tracks
            per-label status on :attr:`monitor`, and silent stalls are
            flagged before the wall-clock timeout fires.
        stall_after: Seconds of worker silence before a running label
            counts as stalled (default: 4x the heartbeat interval).
        on_event: Callback for live ``"kind": "heartbeat"`` /
            ``"kind": "resources"`` records as the parent sees them --
            the engine streams these into the run log so ``tea-repro
            monitor`` can tail an in-flight suite.
    """

    def __init__(
        self,
        jobs: int = 1,
        retries: int = 1,
        fn: Callable[
            [tuple[str, RunSpec]], tuple[str, dict[str, Any]]
        ] = simulate_to_payload,
        *,
        timeout: float | None = None,
        backoff: float = 0.0,
        backoff_factor: float = 2.0,
        seed: int = 12345,
        keep_going: bool = False,
        on_result: Callable[[str, dict[str, Any]], None] | None = None,
        heartbeat: float | None = None,
        stall_after: float | None = None,
        on_event: Callable[[dict[str, Any]], None] | None = None,
    ) -> None:
        self.jobs = max(1, int(jobs))
        self.retries = max(0, int(retries))
        self.fn = fn
        self.timeout = None if timeout is None else float(timeout)
        self.backoff = max(0.0, float(backoff))
        self.backoff_factor = float(backoff_factor)
        self.seed = int(seed)
        self.keep_going = bool(keep_going)
        self.on_result = on_result
        self.heartbeat = (
            None if heartbeat is None else max(0.05, float(heartbeat))
        )
        if stall_after is None and self.heartbeat is not None:
            stall_after = (
                _monitor.STALL_AFTER_BEATS * self.heartbeat
            )
        self.stall_after = stall_after
        self.on_event = on_event
        self.monitor: SuiteMonitor | None = None
        self.last_report: SuiteReport | None = None

    # ------------------------------------------------------------------
    # Public API.
    # ------------------------------------------------------------------
    def map(
        self, items: Sequence[tuple[str, RunSpec]]
    ) -> dict[str, dict[str, Any]]:
        """Execute every item; payloads by label.

        Raises:
            SuiteExecutionError: If any item still fails after retries
                and ``keep_going`` is off (every other item's result is
                completed first). With ``keep_going`` the partial
                payload dict is returned instead.
        """
        result = self.execute(items)
        if result.report.failed_labels and not self.keep_going:
            raise SuiteExecutionError(
                result.report.failures, result.report
            )
        return result.payloads

    def execute(
        self, items: Sequence[tuple[str, RunSpec]]
    ) -> SuiteResult:
        """Execute every item; never raises for run-level failures."""
        items = list(items)
        start = time.monotonic()
        self.monitor = None
        if self.heartbeat is not None:
            self.monitor = SuiteMonitor(
                [item[0] for item in items],
                stall_after=self.stall_after,
            )
        if self.jobs <= 1 or not items or (
            len(items) <= 1 and self.timeout is None
        ):
            result = self._execute_serial(items)
        else:
            result = self._execute_parallel(items)
        result.report.wall_s = time.monotonic() - start
        self.last_report = result.report
        return result

    def _delay(self, attempt: int, label: str) -> float:
        return backoff_delay(
            attempt,
            self.backoff,
            self.backoff_factor,
            self.seed,
            label,
        )

    def _emit(self, label: str, payload: dict[str, Any]) -> None:
        if self.on_result is not None:
            self.on_result(label, payload)

    # ------------------------------------------------------------------
    # Live monitoring plumbing (heartbeat mode only).
    # ------------------------------------------------------------------
    def _live_event(self, record: dict[str, Any]) -> None:
        """Fold one live record into the monitor and forward it."""
        if self.monitor is not None:
            self.monitor.observe(record)
        if self.on_event is not None:
            self.on_event(record)

    def _settle_resources(
        self, label: str, attempt: int, outcome: _WorkerOutcome
    ) -> None:
        """Emit the per-attempt ``"kind": "resources"`` record."""
        if outcome.resources is None:
            return
        self._live_event(
            {
                "kind": "resources",
                "label": label,
                "attempt": attempt,
                "ts": time.time(),
                **outcome.resources,
            }
        )

    def _note(self, method: str, *args: Any) -> None:
        """Invoke a monitor notification if monitoring is on."""
        if self.monitor is not None:
            getattr(self.monitor, method)(*args)

    def _pump(self, queue: Any, report: SuiteReport) -> None:
        """Drain queued worker beats; run the stall check."""
        if self.monitor is None:
            return
        if queue is not None:
            while True:
                try:
                    record = queue.get_nowait()
                except Empty:
                    break
                except (OSError, ValueError):  # queue torn down
                    break
                self._live_event(record)
        for record in self.monitor.check_stalls():
            report.stalls += 1
            obs.COUNTERS.inc("executor.stalls")
            _instant(
                f"stall:{record['label']}",
                stalled_for_s=record.get("stalled_for_s"),
            )
            # The monitor already folded the stall; forward only.
            if self.on_event is not None:
                self.on_event(record)

    # ------------------------------------------------------------------
    # Serial path.
    # ------------------------------------------------------------------
    def _execute_serial(
        self, items: list[tuple[str, RunSpec]]
    ) -> SuiteResult:
        payloads: dict[str, dict[str, Any]] = {}
        report = SuiteReport()
        if self.heartbeat is not None:
            # In-process runs beat straight into the parent handler
            # (no queue). Stall detection needs a thread the serial
            # path deliberately does not have; beats and resource
            # records still flow.
            _progress.set_sink(
                _LocalSink(self._live_event, self.heartbeat)
            )
        try:
            for item in items:
                label = item[0]
                for attempt in range(1, self.retries + 2):
                    _instant(f"dispatch:{label}", attempt=attempt)
                    self._note("note_dispatch", label, attempt)
                    outcome = _run_captured(self.fn, item, attempt)
                    # Serial runs drained their own events out of the
                    # collector; put them back on the shared timeline.
                    obs.COLLECTOR.ingest(outcome.obs)
                    self._settle_resources(label, attempt, outcome)
                    if outcome.error is None:
                        payloads[label] = outcome.payload
                        report.outcomes[label] = LabelOutcome(
                            label, STATUS_OK, attempt, outcome.wall_s,
                        )
                        obs.COUNTERS.inc("executor.runs_ok")
                        self._note("note_done", label, "done")
                        self._emit(label, outcome.payload)
                        break
                    if attempt <= self.retries:
                        report.retries += 1
                        obs.COUNTERS.inc("executor.retries")
                        _instant(
                            f"retry:{label}",
                            attempt=attempt,
                            cause=outcome.cause,
                        )
                        self._note("note_retry", label, attempt + 1)
                        delay = self._delay(attempt + 1, label)
                        if delay > 0:
                            with obs.span(
                                f"backoff:{label}",
                                delay_s=round(delay, 6),
                            ):
                                time.sleep(delay)
                    else:
                        obs.COUNTERS.inc("executor.runs_failed")
                        self._note("note_done", label, "failed")
                        report.outcomes[label] = LabelOutcome(
                            label,
                            STATUS_FAILED,
                            attempt,
                            outcome.wall_s,
                            cause=outcome.cause,
                            traceback=outcome.error,
                        )
        finally:
            if self.heartbeat is not None:
                _progress.set_sink(None)
        return SuiteResult(payloads=payloads, report=report)

    # ------------------------------------------------------------------
    # Parallel path.
    # ------------------------------------------------------------------
    def _execute_parallel(
        self, items: list[tuple[str, RunSpec]]
    ) -> SuiteResult:
        workers = min(self.jobs, len(items))
        payloads: dict[str, dict[str, Any]] = {}
        report = SuiteReport()
        ready: deque[tuple[tuple[str, Any], int]] = deque(
            (item, 1) for item in items
        )
        delayed: list[tuple[float, int, tuple[str, Any], int]] = []
        running: dict[Any, tuple[tuple[str, Any], int, float]] = {}
        seq = 0  # heap tie-breaker keeping retry order deterministic

        beat_queue: Any = None
        pool_kwargs: dict[str, Any] = {}
        if self.heartbeat is not None:
            # Workers ship beat records back over this queue; it is
            # passed through the pool initializer (initargs ride the
            # Process constructor, the one place a multiprocessing
            # queue may legally cross, under fork and spawn alike).
            beat_queue = multiprocessing.Queue()
            pool_kwargs = {
                "initializer": _heartbeat_init,
                "initargs": (beat_queue, self.heartbeat),
            }
        pool = ProcessPoolExecutor(max_workers=workers, **pool_kwargs)

        def schedule_retry(
            item: tuple[str, Any], failed_attempt: int
        ) -> None:
            nonlocal seq
            report.retries += 1
            obs.COUNTERS.inc("executor.retries")
            self._note("note_retry", item[0], failed_attempt + 1)
            seq += 1
            delay = self._delay(failed_attempt + 1, item[0])
            heapq.heappush(
                delayed,
                (time.monotonic() + delay, seq, item, failed_attempt + 1),
            )

        try:
            while ready or delayed or running:
                now = time.monotonic()
                while delayed and delayed[0][0] <= now:
                    _, _, item, attempt = heapq.heappop(delayed)
                    ready.append((item, attempt))

                broken = False
                while ready and len(running) < workers:
                    item, attempt = ready.popleft()
                    try:
                        future = pool.submit(
                            _run_captured, self.fn, item, attempt
                        )
                    except (BrokenProcessPool, RuntimeError):
                        ready.appendleft((item, attempt))
                        broken = True
                        break
                    _instant(f"dispatch:{item[0]}", attempt=attempt)
                    self._note("note_dispatch", item[0], attempt)
                    running[future] = (item, attempt, time.monotonic())

                if not broken:
                    if not running:
                        if delayed:
                            time.sleep(
                                max(
                                    0.0,
                                    delayed[0][0] - time.monotonic(),
                                )
                            )
                        continue
                    broken = self._drain(
                        running, delayed, report, payloads,
                        schedule_retry,
                    )
                    broken = (
                        self._expire(running, report, schedule_retry)
                        or broken
                    )
                self._pump(beat_queue, report)

                if broken:
                    # Surviving in-flight runs are innocent bystanders:
                    # re-dispatch them without consuming an attempt.
                    for item, attempt, _ in running.values():
                        ready.append((item, attempt))
                    running.clear()
                    with obs.span(
                        "pool.recreate", workers=workers
                    ):
                        _terminate_pool(pool)
                        pool = ProcessPoolExecutor(
                            max_workers=workers, **pool_kwargs
                        )
                    report.pool_recreations += 1
                    obs.COUNTERS.inc("executor.pool_recreations")
        finally:
            _terminate_pool(pool)
            self._pump(beat_queue, report)
            if beat_queue is not None:
                beat_queue.close()
                beat_queue.join_thread()
        return SuiteResult(payloads=payloads, report=report)

    def _wait_timeout(
        self,
        running: dict[Any, tuple[tuple[str, Any], int, float]],
        delayed: list,
    ) -> float | None:
        """How long the completion wait may block.

        With heartbeats on, the wait additionally wakes at the beat
        interval so the parent pumps the queue and runs the stall
        check while workers are still in flight.
        """
        bounds = []
        if self.timeout is not None:
            earliest = min(
                started for (_, _, started) in running.values()
            )
            bounds.append(earliest + self.timeout - time.monotonic())
        if delayed:
            bounds.append(delayed[0][0] - time.monotonic())
        if self.heartbeat is not None:
            bounds.append(self.heartbeat)
        if not bounds:
            return None
        return max(0.0, min(bounds))

    def _drain(
        self,
        running: dict[Any, tuple[tuple[str, Any], int, float]],
        delayed: list,
        report: SuiteReport,
        payloads: dict[str, dict[str, Any]],
        schedule_retry: Callable[[tuple[str, Any], int], None],
    ) -> bool:
        """Wait for and settle completed futures; True if pool broke."""
        timeout = self._wait_timeout(running, delayed)
        done, _ = wait(
            set(running), timeout=timeout, return_when=FIRST_COMPLETED
        )
        broken = False
        for future in done:
            item, attempt, started = running.pop(future)
            label = item[0]
            try:
                outcome = future.result()
            except BrokenProcessPool:
                broken = True
                cause = "worker process died (BrokenProcessPool)"
                if attempt <= self.retries:
                    schedule_retry(item, attempt)
                else:
                    self._note("note_done", label, "failed")
                    report.outcomes[label] = LabelOutcome(
                        label,
                        STATUS_FAILED,
                        attempt,
                        time.monotonic() - started,
                        cause=cause,
                        traceback=traceback.format_exc(),
                    )
                continue
            except Exception as exc:  # pickling / pool-internal errors
                cause = f"{type(exc).__name__}: {exc}"
                if attempt <= self.retries:
                    schedule_retry(item, attempt)
                else:
                    self._note("note_done", label, "failed")
                    report.outcomes[label] = LabelOutcome(
                        label,
                        STATUS_FAILED,
                        attempt,
                        time.monotonic() - started,
                        cause=cause,
                        traceback=traceback.format_exc(),
                    )
                continue
            # Worker-side span events travelled back on the outcome;
            # merge them into the parent's timeline.
            obs.COLLECTOR.ingest(outcome.obs)
            self._settle_resources(label, attempt, outcome)
            if outcome.error is None:
                payloads[label] = outcome.payload
                report.outcomes[label] = LabelOutcome(
                    label, STATUS_OK, attempt, outcome.wall_s,
                )
                obs.COUNTERS.inc("executor.runs_ok")
                self._note("note_done", label, "done")
                self._emit(label, outcome.payload)
            elif attempt <= self.retries:
                _instant(
                    f"retry:{label}",
                    attempt=attempt,
                    cause=outcome.cause,
                )
                schedule_retry(item, attempt)
            else:
                obs.COUNTERS.inc("executor.runs_failed")
                self._note("note_done", label, "failed")
                report.outcomes[label] = LabelOutcome(
                    label,
                    STATUS_FAILED,
                    attempt,
                    outcome.wall_s,
                    cause=outcome.cause,
                    traceback=outcome.error,
                )
        return broken

    def _expire(
        self,
        running: dict[Any, tuple[tuple[str, Any], int, float]],
        report: SuiteReport,
        schedule_retry: Callable[[tuple[str, Any], int], None],
    ) -> bool:
        """Cancel attempts past the timeout; True if any expired.

        Worker processes cannot be interrupted, so expiry implies
        killing the pool; the caller recreates it and re-dispatches
        the surviving in-flight runs.
        """
        if self.timeout is None:
            return False
        now = time.monotonic()
        expired = [
            future
            for future, (_, _, started) in running.items()
            if now - started >= self.timeout
        ]
        for future in expired:
            item, attempt, started = running.pop(future)
            label = item[0]
            report.timeouts += 1
            obs.COUNTERS.inc("executor.timeouts")
            _instant(
                f"timeout:{label}",
                attempt=attempt,
                limit_s=self.timeout,
            )
            cause = (
                f"timed out after {self.timeout:.1f}s "
                f"(worker cancelled)"
            )
            if attempt <= self.retries:
                schedule_retry(item, attempt)
            else:
                self._note("note_done", label, "timeout")
                report.outcomes[label] = LabelOutcome(
                    label,
                    STATUS_TIMEOUT,
                    attempt,
                    now - started,
                    cause=cause,
                )
        return bool(expired)
