"""Observability: spans, counters, and simulator self-profiling.

TEA's whole point is explaining where time goes; ``repro.obs`` applies
the same discipline to the reproduction itself. Its pieces are all
**off by default** and zero-overhead while disabled:

* :mod:`repro.obs.spans` -- a lightweight span/trace API
  (``obs.span("decode")`` context manager, :func:`traced` decorator)
  feeding a process-global, thread-safe :class:`SpanCollector`;
* :mod:`repro.obs.counters` -- a :class:`CounterRegistry` of counters,
  gauges, and histograms the core and suite executor report into;
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
"span"`` / ``"kind": "counters"`` JSONL records merged into the engine
run log (:func:`events_to_jsonl`), and the Prometheus textfile.

Enable with ``REPRO_OBS=1`` or :func:`enable`; the CLI's
``--trace-out`` and ``--metrics-out`` flags do it for you.
"""

from repro.obs.counters import (
    BUCKET_BOUNDS,
    COUNTERS,
    CounterRegistry,
    counters,
    hist_quantile,
)
from repro.obs.export import (
    chrome_trace_doc,
    events_to_jsonl,
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
    collector,
    disable,
    enable,
    enabled,
    now_us,
    span,
    traced,
)
from repro.obs.stageprof import STAGES, StageSampler

__all__ = [
    "BUCKET_BOUNDS",
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
    "collector",
    "counters",
    "disable",
    "enable",
    "enabled",
    "end_run",
    "events_to_jsonl",
    "export_chrome_trace",
    "expose_prometheus",
    "hist_quantile",
    "now_us",
    "prometheus_text",
    "read_chrome_trace",
    "report_progress",
    "sanitize_metric_name",
    "set_run_context",
    "set_sink",
    "span",
    "traced",
    "validate_chrome_trace",
    "validate_prometheus_text",
]


def reset() -> None:
    """Clear collected events and metrics (test/tooling helper)."""
    from repro.obs import progress as _progress

    COLLECTOR.clear()
    COUNTERS.clear()
    _progress.reset()
