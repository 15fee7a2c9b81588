"""Per-run progress reporting: the worker-side heartbeat source.

The execution backends call :func:`report_progress` from their hot
loops -- always behind :func:`repro.obs.enabled`, so the disabled path
costs nothing (TL002) -- with nothing but *counts*: cycles simulated
and instructions committed. Wall-clock reads live here, not in the
backends, which keeps TL003 (no wall clocks in simulation code) intact:
the backend hands over counts, this module timestamps them.

Each report becomes a :class:`ProgressEvent` that

* updates the process-global progress gauges in
  :data:`~repro.obs.counters.COUNTERS`, and
* is forwarded to the installed *sink*, throttled to at most one event
  per :data:`MIN_SINK_INTERVAL_S` (``start``/``done`` phases always
  pass). The :class:`~repro.engine.executor.SuiteExecutor` installs a
  queue-forwarding sink in each worker process, which is how heartbeat
  records reach the parent.

The surrounding context (suite label and attempt number) is set per
run by :func:`set_run_context`; :func:`begin_run`/:func:`end_run`
bracket one run and emit the unconditional ``start``/``done`` beats.
"""

from __future__ import annotations

import os
import time
from dataclasses import asdict, dataclass
from typing import Callable

from repro.obs import spans as _spans
from repro.obs.counters import COUNTERS

#: Detailed-core hook cadence: one report per this many cycles.
PROGRESS_EVERY_CYCLES = 1 << 16
#: Functional-backend hook cadence: one report per this many
#: instructions.
PROGRESS_EVERY_INSTS = 1 << 16

#: Sink throttle: ``progress`` events closer together than this are
#: dropped (the gauges still update); ``start``/``done`` always pass.
MIN_SINK_INTERVAL_S = 0.25


@dataclass(slots=True)
class ProgressEvent:
    """One heartbeat: where a run is right now."""

    label: str          #: suite label (falls back to the workload)
    workload: str
    backend: str        #: detailed / functional / sampled
    phase: str          #: start / progress / done
    pid: int
    attempt: int
    cycles: int         #: cycles simulated so far
    committed: int      #: instructions retired so far
    wall_s: float       #: seconds since begin_run
    instrs_per_s: float  #: cumulative committed / wall_s
    ts: float           #: epoch seconds (cross-process comparable)
    ok: bool = True     #: done-phase only: did the run succeed

    def to_record(self) -> dict:
        """The ``"kind": "heartbeat"`` run-log record for this beat."""
        doc = asdict(self)
        doc["kind"] = "heartbeat"
        return doc


Sink = Callable[[ProgressEvent], None]


@dataclass(slots=True)
class _RunState:
    """Per-process state for the (single) run in flight."""

    label: str = ""
    attempt: int = 1
    start: float = 0.0        #: perf_counter at begin_run
    last_sink: float = -1.0   #: perf_counter of last forwarded beat


_state = _RunState()
_sink: Sink | None = None


def set_sink(sink: Sink | None) -> None:
    """Install (or clear) the process-wide heartbeat sink."""
    global _sink
    _sink = sink


def set_run_context(label: str = "", attempt: int = 1) -> None:
    """Attach suite context to subsequent progress events."""
    _state.label = label
    _state.attempt = int(attempt)


def clear_run_context() -> None:
    """Drop the suite context (end of a worker run)."""
    set_run_context()


def reset() -> None:
    """Forget run state and the sink (test/tooling helper)."""
    global _sink
    _sink = None
    _state.label = ""
    _state.attempt = 1
    _state.start = 0.0
    _state.last_sink = -1.0


def _emit(
    workload: str, backend: str, phase: str,
    cycles: int, committed: int, ok: bool = True,
) -> ProgressEvent:
    now = time.perf_counter()
    wall_s = max(now - _state.start, 0.0) if _state.start else 0.0
    instrs_per_s = committed / wall_s if wall_s > 0 else 0.0
    event = ProgressEvent(
        label=_state.label or workload,
        workload=workload,
        backend=backend,
        phase=phase,
        pid=os.getpid(),
        attempt=_state.attempt,
        cycles=int(cycles),
        committed=int(committed),
        wall_s=wall_s,
        instrs_per_s=instrs_per_s,
        ts=_spans.now_us() / 1e6,
        ok=ok,
    )
    if _spans._ENABLED:
        COUNTERS.gauge("progress.cycles", event.cycles)
        COUNTERS.gauge("progress.committed", event.committed)
        COUNTERS.gauge("progress.instrs_per_s", event.instrs_per_s)
    if _sink is not None:
        # A sink may carry its own throttle (the executor's heartbeat
        # interval); the module default applies otherwise.
        interval = getattr(
            _sink, "min_interval_s", MIN_SINK_INTERVAL_S
        )
        throttled = (
            phase == "progress"
            and _state.last_sink >= 0.0
            and now - _state.last_sink < interval
        )
        if not throttled:
            _state.last_sink = now
            _sink(event)
    return event


def begin_run(workload: str, backend: str) -> None:
    """Mark the start of one run; emits the ``start`` beat.

    Called by the executor's worker wrapper (and the serial path), not
    by the backends -- it must fire even when instrumentation is off so
    the parent's stall detector sees dispatch liveness.
    """
    _state.start = time.perf_counter()
    _state.last_sink = -1.0
    _emit(workload, backend, "start", 0, 0)


def report_progress(
    workload: str, backend: str, cycles: int, committed: int,
) -> None:
    """Backend hot-loop hook: report current counts.

    Callers guard with ``obs.enabled()``; the backends pass counts
    only and never read a clock (TL003).
    """
    if _state.start == 0.0:
        _state.start = time.perf_counter()
    _emit(workload, backend, "progress", cycles, committed)


def end_run(
    workload: str, backend: str, cycles: int, committed: int,
    ok: bool = True,
) -> None:
    """Mark the end of one run; emits the unconditional ``done`` beat."""
    _emit(workload, backend, "done", cycles, committed, ok=ok)
    _state.start = 0.0


__all__ = [
    "MIN_SINK_INTERVAL_S",
    "PROGRESS_EVERY_CYCLES",
    "PROGRESS_EVERY_INSTS",
    "ProgressEvent",
    "begin_run",
    "clear_run_context",
    "end_run",
    "report_progress",
    "reset",
    "set_run_context",
    "set_sink",
]
