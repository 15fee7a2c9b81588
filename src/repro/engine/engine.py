"""The simulation engine: memo -> store -> simulate orchestration.

:class:`Engine` is the single entry point every experiment, CLI
command, and benchmark script funnels through. For each
:class:`~repro.engine.spec.RunSpec` it serves, in order of cheapness:

1. the in-process memo (same object back, as experiments rely on),
2. the on-disk :class:`~repro.engine.store.RunStore` (cross-process
   cache hits, reconstructed bit-identically from the stored payload
   onto the engine's built workload; a payload that does not decode is
   a miss),
3. a fresh simulation -- inline for :meth:`Engine.run` and
   :meth:`Engine.trace` (the same run with a columnar trace attached);
   :meth:`Engine.run_suite` hands its misses to the fault-tolerant
   :class:`~repro.engine.executor.SuiteExecutor`, in process for
   ``jobs=1`` and over a worker pool otherwise, through one attempt
   loop with its retries, backoff, timeouts and pool recovery.

A suite simulates once per machine run: misses that share a
:attr:`~repro.engine.spec.RunSpec.simulation_key` (they differ only in
their sampler plans) form one executor item, whose worker attaches
every member's samplers to one run and returns each member the payload
a simulation of its own would have stored.

Suite runs checkpoint as they go: each completed payload is flushed to
the store the moment it lands, so an interrupted or partially failed
suite resumes from the store and re-simulates only what is missing.
With ``keep_going`` a failing suite returns its partial results and
leaves the full :class:`~repro.engine.executor.SuiteReport` on
:attr:`Engine.last_suite_report` instead of raising.

Every run is recorded to the attached
:class:`~repro.engine.telemetry.RunLog` with its source, so "how much
did the cache save" is always answerable after the fact.
"""

from __future__ import annotations

import dataclasses
import json
import time
from collections.abc import Callable, Mapping
from typing import TYPE_CHECKING, Any

from repro import obs
from repro.engine.executor import (
    STATUS_OK,
    LabelOutcome,
    SuiteExecutionError,
    SuiteExecutor,
    SuiteReport,
    simulate_to_payload,
)
from repro.engine.runs import (
    BenchmarkRun,
    build_workload,
    run_from_payload,
    run_to_payload,
    simulate_spec,
)
from repro.engine.spec import RunSpec
from repro.engine.store import RunStore
from repro.engine.telemetry import RunLog, RunMetrics
from repro.workloads import Workload

if TYPE_CHECKING:
    from repro.trace.store import TraceStore


class Engine:
    """Spec-keyed simulation engine with store, memo, and telemetry.

    Args:
        store: On-disk run store (``None`` disables persistence).
        run_log: JSONL telemetry sink (``None`` disables logging).
        jobs: Worker count for :meth:`run_suite`.
        retries: Per-run retry attempts for suite execution.
        timeout: Per-attempt wall-clock bound in seconds for pooled
            suite runs (``None`` disables it).
        backoff: Base seconds of the jittered exponential backoff
            between retry attempts of the same run.
        keep_going: Return partial suite results plus a
            :class:`SuiteReport` instead of raising on failures.
        worker_fn: Worker callable for suite execution, taking
            ``(label, specs)`` -- the specs of one machine run, under
            its first member's label -- and returning ``(label,
            payloads)`` in member order; overridable for tests and
            fault injection.
        heartbeat: Worker heartbeat interval in seconds; ``None``
            disables live telemetry. When set, suite executions emit
            ``"kind": "heartbeat"`` records into the run log as they
            happen, and the parent flags silently stalled workers
            before their timeout. Each executed attempt's
            ``"kind": "resources"`` record is logged either way.
        stall_after: Seconds of heartbeat silence before a running
            label is flagged stalled (default: four heartbeats).

    Attributes:
        simulations: Number of runs this engine simulated (both
            in-process and via workers); the members of a shared
            machine run count one each.
        last_suite_report: The :class:`SuiteReport` of the most recent
            :meth:`run_suite` that had to execute anything.
    """

    def __init__(
        self,
        store: RunStore | None = None,
        run_log: RunLog | None = None,
        jobs: int = 1,
        retries: int = 1,
        timeout: float | None = None,
        backoff: float = 0.0,
        keep_going: bool = False,
        worker_fn: Callable[
            [tuple[str, tuple[RunSpec, ...]]],
            tuple[str, list[dict[str, Any]]],
        ] = simulate_to_payload,
        heartbeat: float | None = None,
        stall_after: float | None = None,
    ) -> None:
        self.store = store
        self.run_log = run_log
        self.jobs = max(1, int(jobs))
        self.retries = retries
        self.timeout = timeout
        self.backoff = backoff
        self.keep_going = bool(keep_going)
        self.worker_fn = worker_fn
        self.heartbeat = heartbeat
        self.stall_after = stall_after
        self.simulations = 0
        self.last_suite_report: SuiteReport | None = None
        self._memo: dict[str, BenchmarkRun] = {}
        self._workloads: dict[str, Workload] = {}

    # ------------------------------------------------------------------
    # Single runs.
    # ------------------------------------------------------------------
    def run(self, spec: RunSpec) -> BenchmarkRun:
        """Serve one spec: memo, then store, then simulate."""
        run = self._memo.get(spec.key)
        if run is not None:
            self._record(spec, run, "memo", 0.0)
            obs.COUNTERS.inc("engine.memo_hits")
            return run
        start = time.perf_counter()
        with obs.span(f"engine.run:{spec.workload}", key=spec.key):
            run = self._load_stored(spec)
            if run is not None:
                source = "store"
                obs.COUNTERS.inc("engine.store_hits")
            else:
                run = self._simulate(spec)
                source = "simulated"
        self._memo[spec.key] = run
        self._record(spec, run, source, time.perf_counter() - start)
        return run

    def trace(self, spec: RunSpec, refresh: bool = False) -> TraceStore:
        """The columnar trace of *spec*: its stored sidecar, or a capture.

        A valid sidecar is returned mmap-backed with one ``trace``
        record, and nothing is simulated. Otherwise (or with
        *refresh*) the spec is simulated once with a fresh store
        attached; the payload and the sidecar are saved, the run is
        memoised, and one ``simulated`` run record and one ``trace``
        record are logged. A non-detailed spec raises ``ValueError``.
        """
        from repro.trace.store import TraceStore

        if self.store is not None and not refresh:
            cached = self.store.load_trace(spec)
            if cached is not None:
                if self.run_log is not None:
                    self.run_log.record_trace(spec, cached, cached=True)
                return cached
        trace = TraceStore()
        start = time.perf_counter()
        run = self._simulate(spec, trace)
        wall_s = time.perf_counter() - start
        if self.store is not None:
            self.store.save_trace(spec, trace)
        self._memo[spec.key] = run
        self._record(spec, run, "simulated", wall_s)
        if self.run_log is not None:
            self.run_log.record_trace(spec, trace, cached=False,
                                      wall_s=wall_s)
        return trace

    def _simulate(self, spec: RunSpec, trace: Any = None) -> BenchmarkRun:
        """Simulate a spec the memo and store missed; store its payload."""
        run = simulate_spec(spec, self.workload(spec), trace)
        self.simulations += 1
        obs.COUNTERS.inc("engine.simulations")
        if self.store is not None:
            self.store.save(spec, run_to_payload(spec, run))
        return run

    # ------------------------------------------------------------------
    # Suite runs.
    # ------------------------------------------------------------------
    def checkpointed(
        self, specs: Mapping[str, RunSpec]
    ) -> dict[str, bool]:
        """Which labelled specs already have a completed run.

        True when the spec is memoised in-process or has a stored
        payload on disk -- i.e. a resumed suite will not re-simulate
        it. Purely informational (no telemetry, no hit accounting).
        """
        status: dict[str, bool] = {}
        for label, spec in specs.items():
            status[label] = spec.key in self._memo or (
                self.store is not None and self.store.contains(spec)
            )
        return status

    def run_suite(
        self, specs: Mapping[str, RunSpec]
    ) -> dict[str, BenchmarkRun]:
        """Serve a labelled suite of specs, fanning misses out.

        Memo and store hits are served inline; the remaining specs are
        executed through a fault-tolerant :class:`SuiteExecutor`
        (in process for one job, over a process pool otherwise), one
        simulation per machine run they share.
        Completed payloads are flushed to the store *as they land*, so
        an interrupted suite re-simulates only what never finished.

        Returns every label in *specs* (in input order) mapped to its
        run -- or, with ``keep_going``, the labels that completed
        (partial results; the failure details live on
        :attr:`last_suite_report`).

        Raises:
            SuiteExecutionError: If any run fails after retries and
                ``keep_going`` is off; the error names each failing
                label and carries the worker-side tracebacks.
        """
        runs: dict[str, BenchmarkRun] = {}
        pending: dict[str, RunSpec] = {}
        for label, spec in specs.items():
            run = self._memo.get(spec.key)
            if run is not None:
                self._record(spec, run, "memo", 0.0)
                obs.COUNTERS.inc("engine.memo_hits")
                runs[label] = run
            else:
                pending[label] = spec

        if pending:
            # Probe the store before paying for execution: this is
            # also the resume path -- checkpointed runs load here and
            # never reach the executor.
            missing: dict[str, RunSpec] = {}
            seen_keys: set[str] = set()
            for label, spec in pending.items():
                if spec.key in seen_keys or spec.key in self._memo:
                    continue  # duplicate spec; resolved below
                start = time.perf_counter()
                run = self._load_stored(spec)
                if run is not None:
                    self._memo[spec.key] = run
                    obs.COUNTERS.inc("engine.store_hits")
                    self._record(
                        spec, run, "store", time.perf_counter() - start
                    )
                else:
                    missing[label] = spec
                    seen_keys.add(spec.key)

            if missing:
                with obs.span(
                    "engine.run_suite",
                    labels=len(missing),
                    jobs=self.jobs,
                ):
                    report = self._execute_missing(missing)
                self.last_suite_report = report
                if self.run_log is not None:
                    self.run_log.record_suite(report)
                if report.failed_labels and not self.keep_going:
                    raise SuiteExecutionError(report.failures, report)

            for label, spec in pending.items():
                run = self._memo.get(spec.key)
                if run is not None:
                    runs[label] = run

        return {
            label: runs[label] for label in specs if label in runs
        }

    def _load_stored(self, spec: RunSpec) -> BenchmarkRun | None:
        """The stored run for *spec*, or ``None`` on a store miss.

        A payload that passes the store's header checks but does not
        decode (a missing field, columns of unequal length, a repeated
        key) is a miss too: the store counts it as one, the caller
        simulates, and the save overwrites the file.
        """
        if self.store is None:
            return None
        payload = self.store.load(spec)
        if payload is None:
            return None
        workload = self.workload(spec)
        try:
            return run_from_payload(payload, workload)
        except (KeyError, TypeError, ValueError):
            # load() counted a hit before the payload was decoded.
            self.store.hits -= 1
            self.store.misses += 1
            return None

    def _execute_missing(self, missing: dict[str, RunSpec]) -> SuiteReport:
        """Execute the store-missing specs, one item per machine run;
        memoise and checkpoint.

        The report the executor returns has one outcome per item; it is
        expanded to one per member label, sharing the item's status,
        attempts and cause, with its wall time split evenly.
        """
        groups: dict[str, list[tuple[str, RunSpec]]] = {}
        for label, spec in missing.items():
            groups.setdefault(spec.simulation_key, []).append((label, spec))
        members = {group[0][0]: group for group in groups.values()}

        def flush(label: str, payloads: list[dict[str, Any]]) -> None:
            # Called as each item lands: persist before anything else
            # can fail, so completed work survives an interrupted or
            # partially failed suite. A worker's payload that does not
            # decode is a bug, so it raises (unlike a stored one).
            for (_, spec), payload in zip(
                members[label], payloads, strict=True
            ):
                if self.store is not None:
                    self.store.save(spec, payload)
                self.simulations += 1
                obs.COUNTERS.inc("engine.simulations")
                self._memo[spec.key] = run_from_payload(
                    payload, self.workload(spec)
                )

        executor = SuiteExecutor(
            jobs=self.jobs,
            retries=self.retries,
            fn=self.worker_fn,
            timeout=self.timeout,
            backoff=self.backoff,
            on_result=flush,
            heartbeat=self.heartbeat,
            stall_after=self.stall_after,
            on_event=self._live_event,
        )
        result = executor.execute([
            (label, tuple(spec for _, spec in group))
            for label, group in members.items()
        ])
        report = result.report
        outcomes: dict[str, LabelOutcome] = {}
        for label, outcome in report.outcomes.items():
            group = members[label]
            for member, _ in group:
                outcomes[member] = dataclasses.replace(
                    outcome, label=member,
                    wall_s=outcome.wall_s / len(group),
                )
            if outcome.status != STATUS_OK:
                continue
            for (_, spec), payload in zip(group, result.payloads[label]):
                self._record(
                    spec,
                    self._memo[spec.key],
                    "simulated",
                    float(payload.get("wall_s") or 0.0),
                    jobs=self.jobs,
                    attempts=outcome.attempts,
                )
        report.outcomes = outcomes
        return report

    def _live_event(self, record: dict[str, Any]) -> None:
        """Executor live-telemetry hook: append the record and flush.

        Heartbeat and resource records must hit the log *during* the
        suite -- a concurrently running ``tea-repro monitor`` tails the
        file -- so each one is written and flushed immediately.
        """
        if self.run_log is not None:
            self.run_log.record_event(record)

    def workload(self, spec: RunSpec) -> Workload:
        """The workload *spec* names, built once per engine.

        Keyed by what a build depends on -- the workload name, the
        canonical kwargs and the scale -- so specs that differ only in
        samplers, backend or config share one program. Every
        simulation still takes its own :meth:`Workload.fresh_state`.
        """
        payload = spec.canonical_payload()
        key = json.dumps(
            [payload["workload"], payload["kwargs"], payload["scale"]],
            sort_keys=True,
        )
        workload = self._workloads.get(key)
        if workload is None:
            workload = self._workloads[key] = build_workload(spec)
        return workload

    # ------------------------------------------------------------------
    # Telemetry.
    # ------------------------------------------------------------------
    def _record(
        self,
        spec: RunSpec,
        run: BenchmarkRun,
        source: str,
        wall_s: float,
        jobs: int = 1,
        attempts: int = 1,
    ) -> None:
        if self.run_log is None:
            return
        self.run_log.record(
            RunMetrics(
                workload=spec.workload,
                spec_key=spec.key,
                source=source,
                wall_s=wall_s,
                cycles=run.result.cycles,
                committed=run.result.committed,
                samples={
                    key: sampler.samples_taken
                    for key, sampler in run.samplers.items()
                },
                jobs=jobs,
                attempts=attempts,
                backend=getattr(spec, "backend", "detailed"),
            )
        )
