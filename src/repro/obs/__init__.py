"""Observability: spans, counters, and simulator self-profiling.

TEA's whole point is explaining where time goes; ``repro.obs`` applies
the same discipline to the reproduction itself. Its pieces are all
**off by default** and zero-overhead while disabled:

* :mod:`repro.obs.spans` -- a lightweight span/trace API
  (``obs.span("decode")`` context manager) feeding a process-global,
  thread-safe :class:`SpanCollector`;
* :mod:`repro.obs.counters` -- a :class:`CounterRegistry` of counters
  and gauges the core and suite executor report into;
* :mod:`repro.obs.stageprof` -- :class:`StageSampler`, a ``SIGPROF``
  stack sampler giving wall time per core pipeline stage per
  250k-cycle window;
* :mod:`repro.obs.metrics` -- Prometheus text exposition of the
  registry (:func:`expose_prometheus` writes the textfile);
* :mod:`repro.obs.progress` -- per-run progress beats
  (:func:`report_progress`) the backends emit and the suite executor
  ships cross-process as ``"kind": "heartbeat"`` records.

Exports land in three places: Chrome trace-event JSON for Perfetto /
``chrome://tracing`` (:func:`export_chrome_trace`), ``"kind":
"span"`` / ``"kind": "counters"`` records in the engine run log
(:meth:`repro.engine.telemetry.RunLog.record_obs`), and the Prometheus
textfile.

Enable with ``REPRO_OBS=1`` or :func:`enable`; the CLI's
``--trace-out`` and ``--metrics-out`` flags do it for you.
"""

from repro.obs.counters import COUNTERS, CounterRegistry
from repro.obs.export import (
    chrome_trace_doc,
    export_chrome_trace,
    read_chrome_trace,
    validate_chrome_trace,
)
from repro.obs.metrics import (
    expose_prometheus,
    prometheus_text,
    sanitize_metric_name,
    validate_prometheus_text,
)
from repro.obs.progress import (
    PROGRESS_EVERY_CYCLES,
    PROGRESS_EVERY_INSTS,
    ProgressEvent,
    begin_run,
    clear_run_context,
    end_run,
    report_progress,
    set_run_context,
    set_sink,
)
from repro.obs.spans import (
    COLLECTOR,
    OBS_ENV,
    Span,
    SpanCollector,
    disable,
    enable,
    enabled,
    now_us,
    span,
)
from repro.obs.stageprof import STAGES, StageSampler

__all__ = [
    "COLLECTOR",
    "COUNTERS",
    "CounterRegistry",
    "OBS_ENV",
    "PROGRESS_EVERY_CYCLES",
    "PROGRESS_EVERY_INSTS",
    "ProgressEvent",
    "STAGES",
    "Span",
    "SpanCollector",
    "StageSampler",
    "begin_run",
    "chrome_trace_doc",
    "clear_run_context",
    "disable",
    "enable",
    "enabled",
    "end_run",
    "export_chrome_trace",
    "expose_prometheus",
    "now_us",
    "prometheus_text",
    "read_chrome_trace",
    "report_progress",
    "sanitize_metric_name",
    "set_run_context",
    "set_sink",
    "span",
    "validate_chrome_trace",
    "validate_prometheus_text",
]


def reset() -> None:
    """Clear collected events and metrics (test/tooling helper)."""
    from repro.obs import progress as _progress

    COLLECTOR.clear()
    COUNTERS.clear()
    _progress.reset()
