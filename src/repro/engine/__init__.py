"""The simulation engine layer.

Separates *simulation* from *analysis* (the paper's own TraceDoctor
out-of-band methodology) as a real architectural layer:

* :mod:`repro.engine.spec` -- canonical, content-hashed
  :class:`RunSpec` descriptions of a run;
* :mod:`repro.engine.store` -- the versioned, code-addressed on-disk
  :class:`RunStore` of completed runs;
* :mod:`repro.engine.executor` -- parallel :class:`SuiteExecutor`
  fan-out with retry, per-workload failure reporting, and worker
  heartbeats;
* :mod:`repro.engine.monitor` -- the :class:`SuiteMonitor` live view
  over heartbeat records (stall detection, progress rendering);
* :mod:`repro.engine.health` -- declarative ``tea-slo-v1`` SLO rules
  evaluated against a run log's stats (:func:`evaluate_health`);
* :mod:`repro.engine.telemetry` -- the ``tea-runlog-v1`` run log: the
  JSONL :class:`RunLog`, its one parser (:func:`tail_run_log`) and
  the one fold the views read (:func:`aggregate_records`);
* :mod:`repro.engine.engine` -- the :class:`Engine` orchestrator
  (memo -> store -> simulate).

:class:`repro.experiments.ExperimentRunner` is a thin façade over this
package.
"""

from repro.engine.engine import Engine
from repro.engine.executor import (
    LabelOutcome,
    SuiteExecutionError,
    SuiteExecutor,
    SuiteReport,
    SuiteResult,
    backoff_delay,
    simulate_to_payload,
)
from repro.engine.faults import FaultyWorker, InjectedFault
from repro.engine.health import (
    SLO_SCHEMA,
    HealthReport,
    check_run_log,
    evaluate_health,
    read_slo_file,
)
from repro.engine.monitor import (
    LabelState,
    SuiteMonitor,
    render_monitor,
)
from repro.engine.runs import (
    PAYLOAD_SCHEMA,
    BenchmarkRun,
    LoadedSampler,
    build_workload,
    run_from_payload,
    run_to_payload,
    simulate_spec,
    simulate_specs,
)
from repro.engine.spec import (
    DEFAULT_PERIOD,
    DEFAULT_SCALE,
    MODEL_VERSION,
    TECHNIQUES,
    RunSpec,
    canonical,
)
from repro.engine.store import RunStore, default_store_root
from repro.engine.telemetry import (
    DEFAULT_RUN_LOG_NAME,
    RECORD_KEYS,
    RUNLOG_SCHEMA,
    STATS_SCHEMA,
    RunLog,
    RunMetrics,
    aggregate_records,
    read_run_log,
    record_kind,
    summarize_records,
    summarize_records_json,
    summarize_run_log,
    tail_run_log,
    validate_stats_doc,
)

__all__ = [
    "BenchmarkRun",
    "DEFAULT_PERIOD",
    "DEFAULT_RUN_LOG_NAME",
    "DEFAULT_SCALE",
    "Engine",
    "FaultyWorker",
    "HealthReport",
    "InjectedFault",
    "LabelOutcome",
    "LabelState",
    "LoadedSampler",
    "MODEL_VERSION",
    "PAYLOAD_SCHEMA",
    "RECORD_KEYS",
    "RUNLOG_SCHEMA",
    "RunLog",
    "RunMetrics",
    "RunSpec",
    "RunStore",
    "SLO_SCHEMA",
    "STATS_SCHEMA",
    "SuiteExecutionError",
    "SuiteExecutor",
    "SuiteMonitor",
    "SuiteReport",
    "SuiteResult",
    "TECHNIQUES",
    "aggregate_records",
    "backoff_delay",
    "build_workload",
    "canonical",
    "check_run_log",
    "default_store_root",
    "evaluate_health",
    "read_run_log",
    "read_slo_file",
    "record_kind",
    "render_monitor",
    "run_from_payload",
    "run_to_payload",
    "simulate_spec",
    "simulate_specs",
    "simulate_to_payload",
    "summarize_records",
    "summarize_records_json",
    "summarize_run_log",
    "tail_run_log",
    "validate_stats_doc",
]
