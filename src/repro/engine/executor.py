"""Resilient suite execution over run specs.

:class:`SuiteExecutor` runs a list of items through one attempt loop,
over a :class:`~concurrent.futures.ProcessPoolExecutor` or -- for
``jobs=1`` -- an in-process stand-in whose ``submit`` runs the call at
once.
Dispatch, backoff, resource records, trace events and the
:class:`SuiteReport` take the same path in both modes, and one
:meth:`SuiteExecutor._settle` decides each attempt. The loop survives
the three fault classes long sweep campaigns actually hit:

* **a run raises** -- the worker captures its own traceback and ships
  it back as data, so failure reports show the *remote* stack, and the
  run is retried after a deterministic jittered exponential backoff,
  waited out in a delayed heap while other labels run;
* **a worker process dies** (OOM kill, segfault) -- the broken pool is
  torn down and recreated and the runs in flight are re-dispatched. A
  death with one run in flight is charged to it; with more, none is
  charged and each reruns alone as a *suspect*, so a second death
  lands on the run that caused it;
* **a worker hangs** -- each pooled attempt is bounded by a wall-clock
  ``timeout``; expired workers are killed (the pool is recreated) and
  the run is re-dispatched or reported as timed out.

Completed payloads are handed to an ``on_result`` callback the moment
they land, which is how the engine checkpoints partial suites to the
:class:`~repro.engine.store.RunStore`. Every execution returns its
payloads with a :class:`SuiteReport` -- per-label status, attempts,
wall time, failure cause -- and never raises for run-level failures.

The engine's items are ``(label, specs)``: the specs that share one
machine run (:attr:`~repro.engine.spec.RunSpec.simulation_key`), and
the group's first label. :func:`simulate_to_payload` simulates them
once and returns one payload per spec. The executor knows nothing of
groups: an item is one attempt, retried, timed and charged as a whole.

Payloads -- not live objects -- cross the process boundary, so a
parallel suite reconstructs runs through exactly the same
serialisation path as a store hit and stays bit-identical to a serial
run.

With a ``heartbeat`` interval set, every run additionally ships
periodic progress beats (:mod:`repro.obs.progress`) to the parent
(over a ``multiprocessing`` queue from pool workers); the parent folds
them into a live :class:`~repro.engine.monitor.SuiteMonitor` status
table, detects silently *stalled* workers before the wall-clock
timeout fires, and forwards each beat -- plus per-attempt
``resource.getrusage`` accounting -- to an ``on_event`` callback (the
engine's run-log hook).
"""

from __future__ import annotations

import functools
import hashlib
import heapq
import multiprocessing
import time
import traceback
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
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
from repro.engine.runs import run_to_payload, simulate_specs
from repro.engine.spec import RunSpec
from repro.obs import progress as _progress
from repro.workloads import Workload

try:
    import resource as _resource
except ImportError:  # pragma: no cover - non-POSIX platforms
    _resource = None

#: Per-label terminal statuses a :class:`SuiteReport` can carry.
STATUS_OK = "ok"
STATUS_FAILED = "failed"
STATUS_TIMEOUT = "timeout"

#: Growth factor and jitter seed of :func:`backoff_delay`.
_BACKOFF_FACTOR = 2.0
_BACKOFF_SEED = 12345


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


def backoff_delay(attempt: int, base: float, label: str = "") -> float:
    """Seconds to wait before *attempt* (1-based; the first is free).

    Doubles with each attempt, times a deterministic jitter in
    ``[0.5, 1.5)`` derived from ``sha256(seed, label, attempt)`` with a
    fixed seed -- the same label always gets the same backoff schedule,
    so retry timing is testable and sweeps are replayable, while
    distinct labels still decorrelate their retry storms.
    """
    if attempt <= 1 or base <= 0:
        return 0.0
    digest = hashlib.sha256(
        f"{_BACKOFF_SEED}:{label}:{attempt}".encode()
    ).digest()
    jitter = 0.5 + int.from_bytes(digest[:8], "big") / 2**64
    return base * _BACKOFF_FACTOR ** (attempt - 2) * jitter


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
        retries: Retries scheduled after failed attempts (all labels).
        timeouts: Attempts cancelled for exceeding the timeout.
        pool_recreations: Times the worker pool was torn down and
            rebuilt (worker death or hung-worker cancellation).
        stalls: Silently stalled workers the heartbeat monitor
            flagged (no activity for ``stall_after`` seconds).
        wall_s: Wall-clock seconds the whole execution took.
        simulations: Items the execution ran; one item simulates the
            runs of every label it carries.
    """

    outcomes: dict[str, LabelOutcome] = field(default_factory=dict)
    retries: int = 0
    timeouts: int = 0
    pool_recreations: int = 0
    stalls: int = 0
    wall_s: float = 0.0
    simulations: int = 0

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
            "simulations": self.simulations,
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

    payloads: dict[str, Any]  # label -> what the worker returned
    report: SuiteReport


def simulate_to_payload(
    item: tuple[str, Sequence[RunSpec]],
    workload_of: Callable[[RunSpec], Workload] | None = None,
) -> tuple[str, list[dict[str, Any]]]:
    """Worker entry point: simulate the specs of one machine run once,
    return their payloads in member order.

    *workload_of* maps a spec to its built workload; the engine passes
    its own :meth:`~repro.engine.Engine.workload` to an item it runs in
    process. A pool worker gets none and builds the program itself, so
    no program is pickled.

    Each payload's ``wall_s`` is the simulation's wall time divided by
    the number of members, so the members' times sum to the worker's.
    """
    label, specs = item
    start = time.perf_counter()
    runs = simulate_specs(
        specs, None if workload_of is None else workload_of(specs[0])
    )
    wall_s = (time.perf_counter() - start) / len(specs)
    return label, [
        run_to_payload(spec, run, wall_s=wall_s)
        for spec, run in zip(specs, runs)
    ]


@dataclass
class _WorkerOutcome:
    """What one worker attempt produced (crosses the pickle boundary)."""

    label: str
    payload: Any  # what the worker returned; None on failure
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
    fn: Callable[[tuple[str, Any]], tuple[str, Any]],
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
    specs = item[1] if len(item) > 1 else None
    spec = specs[0] if specs else None
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
    if isinstance(payload, list) and payload:
        cycles = int(payload[0].get("cycles") or 0)
        committed = int(payload[0].get("committed") or 0)
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


class _BeatSink:
    """Heartbeat sink: beats -> *put*.

    In a pool worker *put* is the parent queue's ``put_nowait``; in
    process it is the executor's live-event handler. The
    ``min_interval_s`` attribute is the throttle
    :mod:`repro.obs.progress` honours, so the executor's heartbeat
    interval governs the beat rate. A *put* that raises (a full or
    torn-down queue) drops the beat -- heartbeats are best-effort by
    design and must never fail a run.
    """

    def __init__(
        self, put: Callable[[dict[str, Any]], None], min_interval_s: float
    ) -> None:
        self.put = put
        self.min_interval_s = min_interval_s

    def __call__(self, event: "_progress.ProgressEvent") -> None:
        try:
            self.put(event.to_record())
        except Exception:
            pass


def _heartbeat_init(queue: Any, interval_s: float) -> None:
    """Pool initializer: send a fresh worker's beats to the queue.

    Travels to the worker through ``ProcessPoolExecutor``'s
    ``initargs`` (valid under both fork and spawn -- initargs ride the
    ``Process`` constructor, which is the one place a
    ``multiprocessing.Queue`` may cross).
    """
    _progress.set_sink(_BeatSink(queue.put_nowait, interval_s))


class _InlinePool:
    """In-process stand-in for the worker pool (``jobs=1``).

    ``submit`` runs the call at once and returns a completed future,
    so serial suites take the attempt loop pooled ones do. An
    in-process attempt cannot be preempted, so it never times out.
    """

    def submit(self, fn: Callable[..., Any], *args: Any) -> Future:
        future: Future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:
            future.set_exception(exc)
        return future

    def shutdown(self, wait: bool = True, cancel_futures: bool = False) -> None:
        """Nothing to release."""


def _instant(name: str, **args: Any) -> None:
    """Record an executor lifecycle instant (no-op while disabled)."""
    if obs.enabled():
        obs.COLLECTOR.add_instant(name, args or None, cat="executor")


def _terminate_pool(pool: Any) -> None:
    """Kill a pool's worker processes and release its resources.

    Used when a hung worker must be cancelled (the only way to preempt
    a worker process is to terminate it), after a
    :class:`BrokenProcessPool` (the pool object is unusable anyway) and
    when the suite loop itself raises. A suite that finishes shuts its
    pool down cleanly instead.
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


class _Suite:
    """The queues and report of one :meth:`SuiteExecutor.execute`."""

    def __init__(self, items: list[tuple[str, Any]]) -> None:
        self.report = SuiteReport()
        self.payloads: dict[str, Any] = {}
        # (item, attempt) waiting for a worker; (due, seq, item,
        # attempt) retries waiting out their backoff, seq keeping the
        # retry order deterministic; future -> (item, attempt, started)
        # in flight, in dispatch order.
        self.ready: deque[tuple[tuple[str, Any], int]] = deque(
            (item, 1) for item in items
        )
        self.delayed: list[tuple[float, int, tuple[str, Any], int]] = []
        self.seq = 0
        self.running: dict[Future, tuple[tuple[str, Any], int, float]] = {}
        self.waived: dict[str, int] = {}  # attempts a death did not charge
        self.suspects: set[str] = set()  # next attempt runs alone
        self.solo = False  # the attempt in flight is a suspect's


class SuiteExecutor:
    """Run specs through one attempt loop with fault tolerance.

    Args:
        jobs: Maximum concurrent workers (1 = serial, in-process).
        retries: Re-attempts per failing run (default 1).
        fn: Worker callable ``item -> (label, payload)``, where an item
            is ``(label, ...)``; the default,
            :func:`simulate_to_payload`, takes ``(label, specs)`` and
            returns one payload per spec. Overridable for tests and
            fault injection. Must be picklable when ``jobs > 1``.
        timeout: Per-attempt wall-clock bound in seconds (pooled runs
            only -- an in-process attempt cannot be preempted).
            ``None`` disables the bound.
        backoff: Base backoff in seconds between attempts of the same
            run (see :func:`backoff_delay`); 0 retries immediately.
        on_result: Callback ``(label, payload)`` invoked in the parent
            as each run lands -- the engine's checkpoint hook.
        heartbeat: Worker heartbeat interval in seconds; ``None``
            (default) disables live monitoring. When set, runs ship
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
        fn: Callable[[tuple[str, Any]], tuple[str, Any]] = (
            simulate_to_payload
        ),
        *,
        timeout: float | None = None,
        backoff: float = 0.0,
        on_result: Callable[[str, Any], None] | None = None,
        heartbeat: float | None = None,
        stall_after: float | None = None,
        on_event: Callable[[dict[str, Any]], None] | None = None,
    ) -> None:
        self.jobs = max(1, int(jobs))
        self.retries = max(0, int(retries))
        self.fn = fn
        self.timeout = None if timeout is None else float(timeout)
        self.backoff = max(0.0, float(backoff))
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

    def runs_inline(self, items: Sequence[tuple[str, Any]]) -> bool:
        """Whether :meth:`execute` runs *items* in this process: with
        one job, or one item and no timeout to enforce."""
        return self.jobs <= 1 or not items or (
            len(items) <= 1 and self.timeout is None
        )

    def execute(self, items: Sequence[tuple[str, Any]]) -> SuiteResult:
        """Execute every item; never raises for run-level failures."""
        items = list(items)
        start = time.monotonic()
        self.monitor = None
        if self.heartbeat is not None:
            self.monitor = SuiteMonitor(
                [item[0] for item in items],
                stall_after=self.stall_after,
            )
        suite = _Suite(items)
        inline = self.runs_inline(items)
        beat_queue: Any = None
        if inline:
            workers = 1
            new_pool: Callable[[], Any] = _InlinePool
            if self.heartbeat is not None:
                _progress.set_sink(
                    _BeatSink(self._live_event, self.heartbeat)
                )
        else:
            workers = min(self.jobs, len(items))
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
            new_pool = functools.partial(
                ProcessPoolExecutor, max_workers=workers, **pool_kwargs
            )
        pool = new_pool()
        try:
            while suite.ready or suite.delayed or suite.running:
                now = time.monotonic()
                while suite.delayed and suite.delayed[0][0] <= now:
                    _, _, item, attempt = heapq.heappop(suite.delayed)
                    suite.ready.append((item, attempt))
                broken = self._dispatch(suite, pool, workers)
                if not broken:
                    if not suite.running:
                        # Only retries are left, waiting out a backoff.
                        due, _, item, _ = suite.delayed[0]
                        wait_s = due - time.monotonic()
                        if wait_s > 0:
                            with obs.span(
                                f"backoff:{item[0]}",
                                delay_s=round(wait_s, 6),
                            ):
                                time.sleep(wait_s)
                        continue
                    broken = self._drain(suite)
                    broken = self._expire(suite) or broken
                self._pump(beat_queue, suite.report)
                if broken:
                    # Runs still in flight are innocent bystanders:
                    # re-dispatch them without consuming an attempt.
                    suite.ready.extend(
                        (item, attempt)
                        for item, attempt, _ in suite.running.values()
                    )
                    suite.running.clear()
                    with obs.span("pool.recreate", workers=workers):
                        _terminate_pool(pool)
                        pool = new_pool()
                    suite.report.pool_recreations += 1
                    obs.COUNTERS.inc("executor.pool_recreations")
        except BaseException:
            _terminate_pool(pool)
            raise
        else:
            # Every run settled: let the idle workers exit cleanly. Pump
            # first, so a worker still flushing its last beats into the
            # queue cannot block the join.
            self._pump(beat_queue, suite.report)
            pool.shutdown(wait=True)
        finally:
            self._pump(beat_queue, suite.report)
            if beat_queue is not None:
                beat_queue.close()
                beat_queue.join_thread()
            if inline and self.heartbeat is not None:
                _progress.set_sink(None)
        suite.report.wall_s = time.monotonic() - start
        suite.report.simulations = len(items)
        return SuiteResult(payloads=suite.payloads, report=suite.report)

    # ------------------------------------------------------------------
    # The attempt loop.
    # ------------------------------------------------------------------
    def _dispatch(self, suite: _Suite, pool: Any, workers: int) -> bool:
        """Submit ready attempts to free workers; True if the pool broke.

        A suspect's attempt runs alone: it waits for the pool to empty,
        and nothing else is dispatched while it runs.
        """
        while suite.ready and len(suite.running) < workers:
            item, attempt = suite.ready[0]
            label = item[0]
            alone = label in suite.suspects
            if suite.running and (alone or suite.solo):
                break
            _instant(f"dispatch:{label}", attempt=attempt)
            self._note("note_dispatch", label, attempt)
            started = time.monotonic()
            try:
                future = pool.submit(_run_captured, self.fn, item, attempt)
            except (BrokenProcessPool, RuntimeError):
                return True
            suite.ready.popleft()
            suite.suspects.discard(label)
            suite.solo = alone
            suite.running[future] = (item, attempt, started)
        return False

    def _wait_timeout(self, suite: _Suite) -> float | None:
        """How long the completion wait may block.

        With heartbeats on, the wait additionally wakes at the beat
        interval so the parent pumps the queue and runs the stall
        check while workers are still in flight.
        """
        bounds = []
        if self.timeout is not None:
            earliest = min(
                started for (_, _, started) in suite.running.values()
            )
            bounds.append(earliest + self.timeout - time.monotonic())
        if suite.delayed:
            bounds.append(suite.delayed[0][0] - time.monotonic())
        if self.heartbeat is not None:
            bounds.append(self.heartbeat)
        if not bounds:
            return None
        return max(0.0, min(bounds))

    def _drain(self, suite: _Suite) -> bool:
        """Wait for finished attempts and settle them; True if a worker
        died.

        A worker death breaks every future in flight. With one attempt
        in flight the death is charged to it; with more, none is
        charged: each goes back as a suspect on its next attempt, which
        runs alone.
        """
        done, _ = wait(
            set(suite.running),
            timeout=self._wait_timeout(suite),
            return_when=FIRST_COMPLETED,
        )
        died = []
        for future in [f for f in suite.running if f in done]:
            item, attempt, started = suite.running.pop(future)
            try:
                outcome = future.result()
            except BrokenProcessPool:
                died.append((item, attempt, started, traceback.format_exc()))
                continue
            except Exception as exc:  # pickling / pool-internal errors
                outcome = _WorkerOutcome(
                    item[0], None, traceback.format_exc(),
                    f"{type(exc).__name__}: {exc}",
                    time.monotonic() - started,
                )
            else:
                # Worker-side span events travelled back on the
                # outcome; merge them into the parent's timeline.
                obs.COLLECTOR.ingest(outcome.obs)
                self._settle_resources(item[0], attempt, outcome)
            self._settle(suite, item, attempt, outcome)
        if not died:
            return False
        if len(died) + len(suite.running) == 1:
            item, attempt, started, tb = died[0]
            self._settle(suite, item, attempt, _WorkerOutcome(
                item[0], None, tb,
                "worker process died (BrokenProcessPool)",
                time.monotonic() - started,
            ))
            return True
        in_flight = [entry[:2] for entry in died]
        in_flight += [entry[:2] for entry in suite.running.values()]
        suite.running.clear()
        for item, attempt in in_flight:
            label = item[0]
            suite.waived[label] = suite.waived.get(label, 0) + 1
            suite.suspects.add(label)
            self._note("note_retry", label, attempt + 1)
            suite.ready.append((item, attempt + 1))
        return True

    def _expire(self, suite: _Suite) -> bool:
        """Settle attempts past the timeout; True if any expired.

        Worker processes cannot be interrupted, so expiry implies
        killing the pool; the loop recreates it and re-dispatches the
        surviving in-flight runs.
        """
        if self.timeout is None:
            return False
        now = time.monotonic()
        expired = [
            future
            for future, (_, _, started) in suite.running.items()
            if now - started >= self.timeout
        ]
        for future in expired:
            item, attempt, started = suite.running.pop(future)
            suite.report.timeouts += 1
            obs.COUNTERS.inc("executor.timeouts")
            _instant(
                f"timeout:{item[0]}",
                attempt=attempt,
                limit_s=self.timeout,
            )
            cause = (
                f"timed out after {self.timeout:.1f}s (worker cancelled)"
            )
            self._settle(
                suite, item, attempt,
                _WorkerOutcome(item[0], None, None, cause, now - started),
                STATUS_TIMEOUT,
            )
        return bool(expired)

    def _settle(
        self,
        suite: _Suite,
        item: tuple[str, Any],
        attempt: int,
        outcome: _WorkerOutcome,
        status: str = STATUS_FAILED,
    ) -> None:
        """Decide one attempt: the label's result, a retry, or its
        final failure (with *status*).

        An outcome without a ``cause`` succeeded. A failure is retried
        while the label's charged attempts -- all but those a worker
        death waived -- stay within ``retries``; the retry waits out
        its backoff in the delayed heap. Any other failure is final and
        counts in ``executor.runs_failed``.
        """
        label = item[0]
        charged = attempt - suite.waived.get(label, 0)
        if outcome.cause is None:
            suite.payloads[label] = outcome.payload
            suite.report.outcomes[label] = LabelOutcome(
                label, STATUS_OK, attempt, outcome.wall_s,
            )
            obs.COUNTERS.inc("executor.runs_ok")
            self._note("note_done", label, "done")
            if self.on_result is not None:
                self.on_result(label, outcome.payload)
        elif charged <= self.retries:
            suite.report.retries += 1
            obs.COUNTERS.inc("executor.retries")
            _instant(f"retry:{label}", attempt=attempt, cause=outcome.cause)
            self._note("note_retry", label, attempt + 1)
            suite.seq += 1
            due = time.monotonic() + backoff_delay(
                charged + 1, self.backoff, label
            )
            heapq.heappush(
                suite.delayed, (due, suite.seq, item, attempt + 1)
            )
        else:
            obs.COUNTERS.inc("executor.runs_failed")
            self._note("note_done", label, status)
            suite.report.outcomes[label] = LabelOutcome(
                label,
                status,
                attempt,
                outcome.wall_s,
                cause=outcome.cause,
                traceback=outcome.error,
            )

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
