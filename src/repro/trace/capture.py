"""Capturing columnar traces for run specs, keyed by spec hash.

The capture plane mirrors :func:`repro.engine.runs.simulate_spec`
exactly -- same workload build, same sampler plan, same seeds -- but
attaches a :class:`~repro.trace.store.TraceStore` as the core's
``cycle_trace`` and gives every sampler a ``sink`` into the same
store, so one detailed simulation yields both the normal
:class:`BenchmarkRun` and the queryable trace. The store is persisted as a ``.teacol`` sidecar next
to the :class:`~repro.engine.store.RunStore` payload (same shard, same
spec key) and revalidated on load, so ``tea-repro query``
capture-once / query-many works across processes.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any

from repro.core.samplers import Sampler, make_sampler
from repro.engine.runs import (
    BenchmarkRun,
    build_workload,
    run_to_payload,
)
from repro.engine.spec import RunSpec
from repro.engine.store import RunStore
from repro.trace.store import TraceStore
from repro.uarch.core import simulate


class TraceBackendError(ValueError):
    """Raised when a spec's backend cannot produce a cycle trace."""


def capture_run(spec: RunSpec) -> tuple[BenchmarkRun, TraceStore]:
    """Simulate *spec* on the detailed core with trace capture on.

    Identical simulation to :func:`~repro.engine.runs.simulate_spec`
    (bit-identical profiles; the trace hooks only observe), plus a
    populated trace store.

    Args:
        spec: The run spec; must use the ``detailed`` backend -- the
            functional tier has no cycles and the sampled tier's
            fast-forward gaps would leave holes the golden replay
            cannot cross.

    Raises:
        TraceBackendError: For a non-detailed backend.
    """
    if spec.backend != "detailed":
        raise TraceBackendError(
            f"trace capture needs the detailed backend, not "
            f"{spec.backend!r} (spec {spec.label()})"
        )
    workload = build_workload(spec)
    store = TraceStore()
    samplers: dict[str, Sampler] = {}
    for key, technique, period, seed in spec.sampler_plan():
        sampler = make_sampler(
            technique, period, jitter=spec.jitter, seed=seed
        )
        sampler.sink = store.sampler_sink(key)
        samplers[key] = sampler
    result = simulate(
        workload.program,
        config=spec.config,
        samplers=list(samplers.values()),
        arch_state=workload.fresh_state(),
        cycle_trace=store,
    )
    store.meta.update(
        {
            "workload": spec.workload,
            "label": spec.label(),
            "cycles": result.cycles,
            "committed": result.committed,
        }
    )
    run = BenchmarkRun(
        workload=workload, result=result, samplers=samplers
    )
    return run, store


def ensure_trace(
    spec: RunSpec,
    run_store: RunStore | None = None,
    refresh: bool = False,
    run_log: Any = None,
) -> TraceStore:
    """The columnar trace for *spec*: load the sidecar or capture it.

    On a miss (or with *refresh*) this simulates the spec once, saves
    both the run payload and the trace sidecar, and returns a fresh
    in-memory store; on a hit it returns the mmap-backed sidecar.

    Args:
        spec: The run to trace (detailed backend).
        run_store: Store to persist in; default store when ``None``.
        refresh: Recapture even if a valid sidecar exists.
        run_log: Optional :class:`~repro.engine.telemetry.RunLog`;
            receives a trace record per capture/load.
    """
    # Not `run_store or RunStore()`: an *empty* RunStore is falsy
    # (it defines __len__), which must not silently reroute writes
    # to the default store.
    if run_store is None:
        run_store = RunStore()
    if not refresh:
        cached = run_store.load_trace(spec)
        if cached is not None:
            if run_log is not None:
                run_log.record_trace(
                    spec, cached, cached=True, wall_s=0.0
                )
            return cached
    start = perf_counter()
    run, store = capture_run(spec)
    wall_s = perf_counter() - start
    run_store.save(spec, run_to_payload(spec, run, wall_s=wall_s))
    run_store.save_trace(spec, store)
    if run_log is not None:
        run_log.record_trace(spec, store, cached=False, wall_s=wall_s)
    return store
