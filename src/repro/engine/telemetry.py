"""Run telemetry: structured per-run metrics and the JSONL run log.

Every engine run -- simulated, loaded from the store, or served from
the in-process memo -- produces one :class:`RunMetrics` record. With a
:class:`RunLog` attached the engine appends each record as one JSON
line, giving a durable, greppable account of what actually simulated
versus what was a cache hit (``tea-repro stats`` summarises it, and the
acceptance check "a warm store performs zero new simulations" reads
exactly these counters).
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from collections.abc import Iterable, Mapping
from typing import Any

#: Default run-log filename (under the store root).
DEFAULT_RUN_LOG_NAME = "runs.jsonl"

#: Metric sources, in increasing cheapness.
SOURCES = ("simulated", "store", "memo")

#: Schema tag carried by ``tea-repro stats --json`` documents.
STATS_SCHEMA = "tea-stats-v1"


def validate_stats_doc(doc: Any) -> dict[str, Any]:
    """Validate a stats summary document's schema tag.

    Readers of ``tea-repro stats --json`` output call this first;
    BENCH files carry ``tea-bench-v1`` the same way.

    Raises:
        ValueError: When *doc* is not a dict or carries the wrong
            (or no) schema tag.
    """
    if not isinstance(doc, dict) or doc.get("schema") != STATS_SCHEMA:
        found = doc.get("schema") if isinstance(doc, dict) else None
        raise ValueError(
            f"not a {STATS_SCHEMA} stats document (schema={found!r})"
        )
    return doc


@dataclass
class RunMetrics:
    """Telemetry for one engine run.

    Attributes:
        workload: Workload name.
        spec_key: Canonical spec content hash.
        source: ``"simulated"`` (a new simulation ran), ``"store"``
            (cross-process store hit), or ``"memo"`` (in-process hit).
        wall_s: Wall-clock seconds this run cost the caller.
        cycles: Simulated core cycles of the run.
        committed: Committed instructions of the run.
        samples: Samples taken per attached sampler key.
        jobs: Worker count the run executed under (1 = in-process).
        attempts: Execution attempts the run took (>1 = it was
            retried after transient failures before succeeding).
        backend: Execution tier the run used (``"detailed"``,
            ``"functional"``, or ``"sampled"``).
        timestamp: Unix time the record was created.
        max_rss_kb: Peak resident set of the worker process
            (``getrusage``; 0 when not captured -- cache hits, or
            platforms without the ``resource`` module).
        cpu_user_s: User CPU seconds the final attempt cost.
        cpu_sys_s: System CPU seconds the final attempt cost.
    """

    workload: str
    spec_key: str
    source: str
    wall_s: float
    cycles: int
    committed: int
    samples: dict[str, int] = field(default_factory=dict)
    jobs: int = 1
    attempts: int = 1
    backend: str = "detailed"
    timestamp: float = field(default_factory=time.time)
    max_rss_kb: float = 0.0
    cpu_user_s: float = 0.0
    cpu_sys_s: float = 0.0

    @property
    def cycles_per_sec(self) -> float:
        """Simulated cycles per wall second (0 for instant cache hits)."""
        if self.wall_s <= 0:
            return 0.0
        return self.cycles / self.wall_s

    def to_json(self) -> dict[str, Any]:
        """A JSON-ready dict (one run-log line)."""
        doc = {
            "workload": self.workload,
            "spec_key": self.spec_key,
            "source": self.source,
            "wall_s": round(self.wall_s, 6),
            "cycles": self.cycles,
            "committed": self.committed,
            "cycles_per_sec": round(self.cycles_per_sec, 1),
            "samples": self.samples,
            "jobs": self.jobs,
            "attempts": self.attempts,
            "backend": self.backend,
            "timestamp": self.timestamp,
        }
        if self.max_rss_kb or self.cpu_user_s or self.cpu_sys_s:
            doc["resources"] = {
                "max_rss_kb": self.max_rss_kb,
                "cpu_user_s": self.cpu_user_s,
                "cpu_sys_s": self.cpu_sys_s,
            }
        return doc


class RunLog:
    """Append-only JSONL sink for :class:`RunMetrics` records.

    The log holds one lazily opened append-mode handle instead of
    reopening the file for every line (which a busy suite pays
    hundreds of times). Each record is written as one complete line
    and flushed immediately, so the append stays a single ``write``
    of a full line -- concurrent writers (parallel suites logging to
    a shared store) still interleave at line granularity, never
    mid-record.

    Args:
        path: Destination JSONL file (parents are created).
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle: Any = None

    # -- handle management ---------------------------------------------
    def _write_line(self, line: str) -> None:
        if self._handle is None:
            self._handle = open(self.path, "a")
        self._handle.write(line + "\n")
        self._handle.flush()

    def close(self) -> None:
        """Close the open handle; safe to call repeatedly."""
        handle, self._handle = self._handle, None
        if handle is not None:
            handle.close()

    def __enter__(self) -> "RunLog":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    # -- record emission -----------------------------------------------
    def record(self, metrics: RunMetrics) -> None:
        """Append one metrics record as a JSON line."""
        self._write_line(json.dumps(metrics.to_json(), sort_keys=True))

    def record_suite(self, report) -> None:
        """Append one suite-execution record as a JSON line.

        Args:
            report: A :class:`~repro.engine.executor.SuiteReport`; the
                line carries ``"kind": "suite"`` plus the report's
                retry/timeout/pool-recovery counters and per-label
                outcomes, so resilience behaviour is auditable from
                the same log as the runs (``tea-repro stats``
                summarises both).
        """
        doc = {"kind": "suite", "timestamp": time.time()}
        doc.update(report.to_json())
        self._write_line(json.dumps(doc, sort_keys=True))

    def record_event(self, record: Mapping[str, Any]) -> None:
        """Append one live-telemetry record as a JSON line.

        Used for the executor's ``"kind": "heartbeat"`` and
        ``"kind": "resources"`` records; the record is written as-is
        (the caller supplies ``kind`` and timestamps). Each record is
        one flushed line, so a concurrently tailing
        :class:`~repro.engine.monitor.SuiteMonitor` never sees a torn
        write.
        """
        self._write_line(json.dumps(dict(record), sort_keys=True))

    def record_trace(
        self,
        spec: Any,
        store: Any,
        cached: bool,
        wall_s: float = 0.0,
    ) -> None:
        """Append one columnar-trace record as a JSON line.

        Args:
            spec: The :class:`~repro.engine.spec.RunSpec` traced.
            store: The :class:`~repro.trace.store.TraceStore` captured
                or loaded; its row counts are recorded.
            cached: True when the trace came from the sidecar (no new
                simulation), false for a fresh capture.
            wall_s: Wall-clock seconds the capture cost (0 for hits).
        """
        self._write_line(
            json.dumps(
                {
                    "kind": "trace",
                    "workload": spec.workload,
                    "spec_key": spec.key,
                    "cached": bool(cached),
                    "wall_s": round(float(wall_s), 6),
                    "cycles": int(store.meta.get("cycles", 0)),
                    "rows": store.row_counts(),
                    "timestamp": time.time(),
                },
                sort_keys=True,
            )
        )

    def record_obs(
        self,
        events: list[dict[str, Any]],
        registry: Any = None,
    ) -> int:
        """Append observability records; returns how many were written.

        Trace events become ``"kind": "span"`` / ``"kind": "counters"``
        lines (see :func:`repro.obs.export.events_to_jsonl`); when a
        counter *registry* is given, its snapshot is appended as one
        final ``"kind": "counters"`` record named
        ``"registry.snapshot"``.
        """
        from repro.obs.export import events_to_jsonl

        records = events_to_jsonl(events)
        if registry is not None:
            snapshot = registry.snapshot()
            if any(snapshot.values()):
                records.append(
                    {
                        "kind": "counters",
                        "name": "registry.snapshot",
                        "ts": int(time.time() * 1e6),
                        "args": snapshot,
                    }
                )
        for record in records:
            self._write_line(json.dumps(record, sort_keys=True))
        return len(records)


def read_run_log(path: str | Path) -> list[dict[str, Any]]:
    """All records of a JSONL run log (skips malformed lines)."""
    records: list[dict[str, Any]] = []
    try:
        text = Path(path).read_text()
    except OSError:
        return records
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            records.append(json.loads(line))
        except ValueError:
            continue
    return records


def aggregate_records(
    records: Iterable[dict[str, Any]],
) -> dict[str, Any]:
    """Aggregate run-log records into one JSON-ready summary document.

    Records are partitioned by ``kind``: plain run records (no
    ``kind``), ``"suite"`` execution reports, and observability
    records (``"span"`` / ``"counters"``). Throughput aggregates --
    the overall rate and the per-run geometric mean -- are computed
    **only over simulated runs**: store and memo hits are near-instant
    and carry ``cycles_per_sec == 0``, so folding them in would drag
    every mean toward zero. Cache hits are reported as counts instead.
    """
    records = list(records)
    runs = [r for r in records if r.get("kind") is None]
    suites = [r for r in records if r.get("kind") == "suite"]
    traces = [r for r in records if r.get("kind") == "trace"]
    beats = [r for r in records if r.get("kind") == "heartbeat"]
    resources = [r for r in records if r.get("kind") == "resources"]
    span_count = sum(1 for r in records if r.get("kind") == "span")
    counter_count = sum(
        1 for r in records if r.get("kind") == "counters"
    )

    by_source = {source: 0 for source in SOURCES}
    wall_by_source = {source: 0.0 for source in SOURCES}
    sim_cycles = 0
    log_rates: list[float] = []
    per_workload: dict[str, dict[str, float]] = {}
    per_backend: dict[str, dict[str, float]] = {}
    for rec in runs:
        source = rec.get("source", "simulated")
        if source not in by_source:
            by_source[source] = 0
            wall_by_source[source] = 0.0
        by_source[source] += 1
        wall_by_source[source] += float(rec.get("wall_s", 0.0))
        tier = per_backend.setdefault(
            rec.get("backend", "detailed"),
            {"runs": 0, "sim_cycles": 0, "sim_wall_s": 0.0},
        )
        tier["runs"] += 1
        if source == "simulated":
            tier["sim_cycles"] += int(rec.get("cycles", 0))
            tier["sim_wall_s"] += float(rec.get("wall_s", 0.0))
        row = per_workload.setdefault(
            rec.get("workload", "?"),
            {s: 0 for s in SOURCES}
            | {"wall_s": 0.0, "cycles": 0, "sim_wall_s": 0.0},
        )
        row[source] = row.get(source, 0) + 1
        row["wall_s"] += float(rec.get("wall_s", 0.0))
        if source == "simulated":
            cycles = int(rec.get("cycles", 0))
            wall = float(rec.get("wall_s", 0.0))
            sim_cycles += cycles
            row["cycles"] += cycles
            row["sim_wall_s"] += wall
            if cycles > 0 and wall > 0:
                log_rates.append(math.log(cycles / wall))

    sim_wall = wall_by_source.get("simulated", 0.0)
    rate = sim_cycles / sim_wall if sim_wall > 0 else 0.0
    geomean = (
        math.exp(sum(log_rates) / len(log_rates)) if log_rates else 0.0
    )
    workloads = {
        name: {
            "simulated": int(row["simulated"]),
            "store": int(row["store"]),
            "memo": int(row["memo"]),
            "wall_s": round(row["wall_s"], 6),
            "sim_cycles": int(row["cycles"]),
            "sim_cycles_per_sec": round(
                row["cycles"] / row["sim_wall_s"], 1
            )
            if row["sim_wall_s"] > 0
            else 0.0,
        }
        for name, row in sorted(per_workload.items())
    }
    doc: dict[str, Any] = {
        "runs": {
            "total": len(runs),
            "by_source": {
                source: count
                for source, count in sorted(by_source.items())
            },
            "cache_hits": by_source.get("store", 0)
            + by_source.get("memo", 0),
            "sim_cycles": sim_cycles,
            "sim_wall_s": round(sim_wall, 6),
            "sim_cycles_per_sec": round(rate, 1),
            "sim_cycles_per_sec_geomean": round(geomean, 1),
        },
        "backends": {
            name: {
                "runs": int(row["runs"]),
                "sim_cycles": int(row["sim_cycles"]),
                "sim_wall_s": round(row["sim_wall_s"], 6),
                "sim_cycles_per_sec": round(
                    row["sim_cycles"] / row["sim_wall_s"], 1
                )
                if row["sim_wall_s"] > 0
                else 0.0,
            }
            for name, row in sorted(per_backend.items())
        },
        "workloads": workloads,
        "suites": {
            "executions": len(suites),
            "retries": sum(int(r.get("retries", 0)) for r in suites),
            "timeouts": sum(int(r.get("timeouts", 0)) for r in suites),
            "pool_recreations": sum(
                int(r.get("pool_recreations", 0)) for r in suites
            ),
            "failed_labels": sum(
                len(r.get("failed", ())) for r in suites
            ),
            "stalls": sum(int(r.get("stalls", 0)) for r in suites),
        },
        "live": {
            "heartbeats": len(beats),
            "stall_flags": sum(
                1 for r in beats if r.get("phase") == "stalled"
            ),
            "resources": len(resources),
            "max_rss_kb": round(
                max(
                    (float(r.get("max_rss_kb", 0.0)) for r in resources),
                    default=0.0,
                ),
                1,
            ),
            "cpu_user_s": round(
                sum(float(r.get("cpu_user_s", 0.0)) for r in resources),
                6,
            ),
            "cpu_sys_s": round(
                sum(float(r.get("cpu_sys_s", 0.0)) for r in resources),
                6,
            ),
        },
        "obs": {"spans": span_count, "counters": counter_count},
        "traces": {
            "captures": sum(1 for r in traces if not r.get("cached")),
            "loads": sum(1 for r in traces if r.get("cached")),
            "capture_wall_s": round(
                sum(
                    float(r.get("wall_s", 0.0))
                    for r in traces
                    if not r.get("cached")
                ),
                6,
            ),
            "rows": sum(
                sum(int(n) for n in r.get("rows", {}).values())
                for r in traces
            ),
        },
    }
    return doc


def summarize_records_json(
    records: Iterable[dict[str, Any]],
) -> dict[str, Any]:
    """The machine-readable run-log summary (``tea-repro stats --json``).

    The document leads with ``"schema": "tea-stats-v1"``; readers
    check it via :func:`validate_stats_doc` before trusting the rest.
    """
    return {"schema": STATS_SCHEMA, **aggregate_records(records)}


def summarize_records(records: Iterable[dict[str, Any]]) -> str:
    """Render a run-log summary (totals plus a per-workload table)."""
    from repro.experiments.runner import format_table

    records = list(records)
    agg = aggregate_records(records)
    suites = [r for r in records if r.get("kind") == "suite"]
    runs = agg["runs"]
    obs_counts = agg["obs"]
    trace_counts = agg["traces"]
    live = agg["live"]
    have_obs = obs_counts["spans"] or obs_counts["counters"]
    have_traces = trace_counts["captures"] or trace_counts["loads"]
    have_live = live["heartbeats"] or live["resources"]
    if not runs["total"] and not suites and not have_obs \
            and not have_traces and not have_live:
        return "run log: empty (no engine runs recorded yet)"
    if not runs["total"]:
        lines = []
        if suites:
            lines.append(_summarize_suites(suites))
        if have_obs:
            lines.append(_summarize_obs(obs_counts))
        if have_traces:
            lines.append(_summarize_traces(trace_counts))
        if have_live:
            lines.append(_summarize_live(live))
        return "\n".join(lines)

    by_source = runs["by_source"]
    total = runs["total"]
    lines = [
        f"run log: {total} run(s) -- "
        f"{by_source.get('simulated', 0)} simulated, "
        f"{by_source.get('store', 0)} store hit(s), "
        f"{by_source.get('memo', 0)} memo hit(s) "
        f"({runs['cache_hits'] / total:.0%} cached)",
        f"simulated: {runs['sim_cycles']:,} cycles in "
        f"{runs['sim_wall_s']:.2f}s wall "
        f"({runs['sim_cycles_per_sec']:,.0f} cycles/s, "
        f"geomean {runs['sim_cycles_per_sec_geomean']:,.0f} cycles/s "
        f"over simulated runs only)",
    ]
    backends = agg.get("backends", {})
    if backends:
        lines.append(
            "backends: "
            + "; ".join(
                f"{name} {row['runs']} run(s), "
                f"{row['sim_cycles_per_sec']:,.0f} sim cycles/s"
                for name, row in backends.items()
            )
        )
    lines.append("")
    rows = [
        [
            name,
            str(row["simulated"]),
            str(row["store"]),
            str(row["memo"]),
            f"{row['wall_s']:.2f}s",
            f"{row['sim_cycles']:,}",
        ]
        for name, row in agg["workloads"].items()
    ]
    lines.append(
        format_table(
            ["workload", "simulated", "store", "memo", "wall",
             "sim cycles"],
            rows,
        )
    )
    if suites:
        lines.append("")
        lines.append(_summarize_suites(suites))
    if have_obs:
        lines.append("")
        lines.append(_summarize_obs(obs_counts))
    if have_traces:
        lines.append("")
        lines.append(_summarize_traces(trace_counts))
    if have_live:
        lines.append("")
        lines.append(_summarize_live(live))
    return "\n".join(lines)


def _summarize_live(live: Mapping[str, Any]) -> str:
    """One-line summary of the live-telemetry records in the log."""
    return (
        f"live: {live['heartbeats']} heartbeat(s) "
        f"({live['stall_flags']} stall flag(s)), "
        f"{live['resources']} resource record(s), "
        f"peak RSS {live['max_rss_kb']:,.0f} kB"
    )


def _summarize_traces(trace_counts: Mapping[str, Any]) -> str:
    """One-line summary of the columnar-trace records in the log."""
    return (
        f"traces: {trace_counts['captures']} capture(s) "
        f"({trace_counts['capture_wall_s']:.2f}s wall), "
        f"{trace_counts['loads']} sidecar load(s), "
        f"{trace_counts['rows']:,} column row(s)"
    )


def _summarize_obs(obs_counts: Mapping[str, int]) -> str:
    """One-line summary of the observability records in the log."""
    return (
        f"obs: {obs_counts['spans']} span record(s), "
        f"{obs_counts['counters']} counter record(s)"
    )


def _summarize_suites(suites: list[dict[str, Any]]) -> str:
    """One-line resilience summary of the suite-execution records."""
    retries = sum(int(r.get("retries", 0)) for r in suites)
    timeouts = sum(int(r.get("timeouts", 0)) for r in suites)
    recreations = sum(
        int(r.get("pool_recreations", 0)) for r in suites
    )
    failed = sum(len(r.get("failed", ())) for r in suites)
    return (
        f"suites: {len(suites)} execution(s) -- {retries} retrie(s), "
        f"{timeouts} timeout(s), {recreations} pool recreation(s), "
        f"{failed} failed label(s)"
    )


def summarize_run_log(path: str | Path) -> str:
    """Read and summarise a JSONL run log."""
    return summarize_records(read_run_log(path))


# ----------------------------------------------------------------------
# BENCH files: committed throughput baselines for the regression gate.
# ----------------------------------------------------------------------

#: Schema tag written into every BENCH file.
BENCH_SCHEMA = "tea-bench-v1"


def write_bench_file(
    path: str | Path,
    workloads: Mapping[str, Mapping[str, float]],
    note: str = "",
) -> None:
    """Write a BENCH file of per-workload throughput measurements.

    Args:
        path: Destination (conventionally ``BENCH_<tag>.json``).
        workloads: name -> measurement mapping; each measurement must
            carry at least ``cycles_per_sec`` and may add context keys
            (e.g. ``before_cps``, ``speedup``).
        note: Free-form provenance note (machine, protocol, date).
    """
    doc: dict[str, Any] = {
        "schema": BENCH_SCHEMA,
        "note": note,
        "workloads": {
            name: dict(entry) for name, entry in sorted(workloads.items())
        },
    }
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def read_bench_file(path: str | Path) -> dict[str, dict[str, float]]:
    """The per-workload measurements of a BENCH file.

    Raises:
        ValueError: On a malformed file or unknown schema.
    """
    doc = json.loads(Path(path).read_text())
    if not isinstance(doc, dict) or doc.get("schema") != BENCH_SCHEMA:
        raise ValueError(
            f"{path}: not a {BENCH_SCHEMA} file "
            f"(schema={doc.get('schema') if isinstance(doc, dict) else None!r})"
        )
    workloads = doc.get("workloads")
    if not isinstance(workloads, dict):
        raise ValueError(f"{path}: missing 'workloads' mapping")
    return {name: dict(entry) for name, entry in workloads.items()}


def compare_bench(
    baseline: Mapping[str, Mapping[str, float]],
    current: Mapping[str, Mapping[str, float]],
    tolerance: float = 0.2,
) -> list[str]:
    """Throughput regressions of *current* against *baseline*.

    A workload regresses when its ``cycles_per_sec`` drops more than
    *tolerance* (fractional) below the baseline's. Returns one message
    per regression (empty list = gate passes); workloads present in only
    one of the two files are ignored -- the gate compares overlap, so
    adding or retiring a workload does not trip it.
    """
    problems: list[str] = []
    for name in sorted(set(baseline) & set(current)):
        base_cps = float(baseline[name].get("cycles_per_sec", 0.0))
        cur_cps = float(current[name].get("cycles_per_sec", 0.0))
        if base_cps <= 0:
            continue
        floor = base_cps * (1.0 - tolerance)
        if cur_cps < floor:
            problems.append(
                f"{name}: {cur_cps:,.0f} cycles/s is "
                f"{1.0 - cur_cps / base_cps:.1%} below baseline "
                f"{base_cps:,.0f} (tolerance {tolerance:.0%})"
            )
    return problems
