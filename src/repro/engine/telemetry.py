"""Run telemetry: the ``tea-runlog-v1`` run log, its one parser, and
the one fold every view reads.

Every engine run -- simulated, loaded from the store, or served from
the in-process memo -- produces one :class:`RunMetrics` record. With a
:class:`RunLog` attached the engine appends it as one JSON line, next
to the suite reports, trace captures, worker heartbeats, per-attempt
resource accounting and observability records of the same
invocation. Every line is a record of one of the kinds in
:data:`RECORD_KEYS`, tagged with its ``"kind"`` and stamped
``"schema": "tea-runlog-v1"``.

Reading goes one way. :func:`tail_run_log` (and :func:`read_run_log`
on top of it) is the one parser, and :func:`record_kind` the one
validator. :func:`aggregate_records` is the one fold: ``tea-repro
stats`` renders its ``tea-stats-v2`` document, and ``tea-repro
health`` rules bound its fields. ``tea-repro monitor`` feeds the same
parsed records to a :class:`~repro.engine.monitor.SuiteMonitor`. So
the views cannot disagree on what a log holds -- including the
acceptance check "a warm store performs zero new simulations", which
reads the run records' ``source`` counts.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from collections.abc import Iterable, Mapping
from typing import Any

#: Default run-log filename (under the store root).
DEFAULT_RUN_LOG_NAME = "runs.jsonl"

#: Metric sources, in increasing cheapness.
SOURCES = ("simulated", "store", "memo")

#: Schema tag :class:`RunLog` stamps on every run-log record.
RUNLOG_SCHEMA = "tea-runlog-v1"

#: Schema tag carried by ``tea-repro stats --json`` documents.
STATS_SCHEMA = "tea-stats-v2"

_NUMBER = (int, float)

#: The record kinds of a ``tea-runlog-v1`` log and the keys (with
#: their JSON types) each must carry; every other key is optional and
#: read with a default. Lines an older version wrote stay valid: they
#: carry no schema tag, and their run records no kind.
RECORD_KEYS: dict[str, dict[str, Any]] = {
    # One engine run (:class:`RunMetrics`).
    "run": {"workload": str, "source": str, "wall_s": _NUMBER,
            "cycles": int},
    # One suite execution (:class:`~repro.engine.executor.SuiteReport`).
    "suite": {"retries": int, "timeouts": int, "pool_recreations": int,
              "failed": list},
    # One columnar-trace capture or sidecar load.
    "trace": {"workload": str, "cached": bool, "wall_s": _NUMBER,
              "rows": dict},
    # One worker progress beat, or the parent's stall flag.
    "heartbeat": {"label": str, "phase": str, "ts": _NUMBER},
    # One worker attempt's ``getrusage`` accounting.
    "resources": {"label": str, "max_rss_kb": _NUMBER,
                  "cpu_user_s": _NUMBER, "cpu_sys_s": _NUMBER},
    # One obs span or instant (a Chrome trace event).
    "span": {"name": str, "ph": str, "ts": _NUMBER},
    # One obs counter sample, or the final registry snapshot.
    "counters": {"name": str, "ts": _NUMBER, "args": dict},
}


def record_kind(record: Any) -> str | None:
    """The kind of a valid ``tea-runlog-v1`` record; None otherwise.

    Valid means a JSON object, tagged with this schema or untagged, of
    a kind :data:`RECORD_KEYS` knows (an untagged kind is ``"run"``),
    that carries the keys of its kind with their types.
    """
    if not isinstance(record, dict) or (
        record.get("schema", RUNLOG_SCHEMA) != RUNLOG_SCHEMA
    ):
        return None
    kind = record.get("kind", "run")
    keys = RECORD_KEYS.get(kind) if isinstance(kind, str) else None
    if keys is None or not all(
        isinstance(record.get(key), types) for key, types in keys.items()
    ):
        return None
    return kind


def validate_stats_doc(doc: Any) -> dict[str, Any]:
    """Validate a stats summary document's schema tag.

    Readers of ``tea-repro stats --json`` output call this first.

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
    """Telemetry for one engine run: one ``"kind": "run"`` record.

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

    def to_json(self) -> dict[str, Any]:
        """A JSON-ready dict (one run-log line)."""
        return {
            "kind": "run",
            "workload": self.workload,
            "spec_key": self.spec_key,
            "source": self.source,
            "wall_s": round(self.wall_s, 6),
            "cycles": self.cycles,
            "committed": self.committed,
            "samples": self.samples,
            "jobs": self.jobs,
            "attempts": self.attempts,
            "backend": self.backend,
            "timestamp": self.timestamp,
        }


class RunLog:
    """Append-only JSONL sink of ``tea-runlog-v1`` records.

    The log holds one lazily opened append-mode handle instead of
    reopening the file for every line (which a busy suite pays
    hundreds of times). Each record is written as one complete line,
    stamped with the schema tag, and flushed immediately, so the append
    stays a single ``write`` of a full line -- concurrent writers
    (parallel suites logging to a shared store) still interleave at
    line granularity, never mid-record.

    Args:
        path: Destination JSONL file (parents are created).
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle: Any = None

    # -- handle management ---------------------------------------------
    def _write(self, record: Mapping[str, Any]) -> None:
        """Append *record*, stamped with the schema tag, as one line."""
        if self._handle is None:
            self._handle = open(self.path, "a")
        line = json.dumps(
            {**record, "schema": RUNLOG_SCHEMA}, sort_keys=True
        )
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
        """Append one ``"kind": "run"`` record."""
        self._write(metrics.to_json())

    def record_suite(self, report) -> None:
        """Append one ``"kind": "suite"`` record.

        Args:
            report: A :class:`~repro.engine.executor.SuiteReport`; the
                line carries the report's retry/timeout/pool-recovery
                counters and per-label outcomes, so resilience
                behaviour is auditable from the same log as the runs.
        """
        self._write(
            {"kind": "suite", "timestamp": time.time(), **report.to_json()}
        )

    def record_event(self, record: Mapping[str, Any]) -> None:
        """Append one live-telemetry record.

        Used for the executor's ``"kind": "heartbeat"`` and
        ``"kind": "resources"`` records; the record is written as-is
        (the caller supplies ``kind`` and timestamps). Each record is
        one flushed line, so a concurrently tailing
        :class:`~repro.engine.monitor.SuiteMonitor` never sees a torn
        write.
        """
        self._write(record)

    def record_trace(
        self,
        spec: Any,
        store: Any,
        cached: bool,
        wall_s: float = 0.0,
    ) -> None:
        """Append one ``"kind": "trace"`` record.

        Args:
            spec: The :class:`~repro.engine.spec.RunSpec` traced.
            store: The :class:`~repro.trace.store.TraceStore` captured
                or loaded; its row counts are recorded.
            cached: True when the trace came from the sidecar (no new
                simulation), false for a fresh capture.
            wall_s: Wall-clock seconds the capture cost (0 for hits).
        """
        self._write(
            {
                "kind": "trace",
                "workload": spec.workload,
                "spec_key": spec.key,
                "cached": bool(cached),
                "wall_s": round(float(wall_s), 6),
                "cycles": int(store.meta.get("cycles", 0)),
                "rows": store.row_counts(),
                "timestamp": time.time(),
            }
        )

    def record_obs(
        self,
        events: list[dict[str, Any]],
        registry: Any = None,
    ) -> int:
        """Append observability records; returns how many were written.

        Each trace event becomes one record: counter samples
        (``ph == "C"``) ``"kind": "counters"``, spans and instants
        ``"kind": "span"``; metadata events are dropped. When a counter
        *registry* is given, its snapshot is appended as one final
        ``"kind": "counters"`` record named ``"registry.snapshot"``.
        """
        written = 0
        for event in events:
            phase = event.get("ph")
            if phase == "M":
                continue
            kind = "counters" if phase == "C" else "span"
            self._write({**event, "kind": kind})
            written += 1
        if registry is not None:
            snapshot = registry.snapshot()
            if any(snapshot.values()):
                self._write(
                    {
                        "kind": "counters",
                        "name": "registry.snapshot",
                        "ts": int(time.time() * 1e6),
                        "args": snapshot,
                    }
                )
                written += 1
        return written


def tail_run_log(
    path: str | Path, offset: int = 0
) -> tuple[list[dict[str, Any]], int]:
    """The valid records of *path*'s complete lines past *offset*.

    Returns the records and the offset after the last complete line;
    hand that back on the next call to read only what was appended
    since. Only newline-terminated lines are read, so a record a writer
    is still appending is deferred, not misread. Lines that are not
    valid records (:func:`record_kind`) are skipped. A missing file
    has no records yet.
    """
    try:
        with open(path, "rb") as handle:
            handle.seek(offset)
            chunk = handle.read()
    except FileNotFoundError:
        return [], offset
    end = chunk.rfind(b"\n") + 1
    records = []
    for line in chunk[:end].splitlines():
        try:
            record = json.loads(line)
        except ValueError:
            continue
        if record_kind(record) is not None:
            records.append(record)
    return records, offset + end


def read_run_log(path: str | Path) -> list[dict[str, Any]]:
    """Every valid record of a run log (:func:`tail_run_log`)."""
    return tail_run_log(path)[0]


def _max_heartbeat_gap(beats: Iterable[Mapping[str, Any]]) -> float:
    """Longest heartbeat silence (seconds) among *beats*.

    The gap is measured between consecutive heartbeats of the same
    label *while it was running* -- i.e. from ``start``/``progress``
    beats to the next beat of that label, including its ``done``. A
    label's attempts are tracked separately (a retry restarts the
    clock), and explicit ``phase: "stalled"`` flags contribute their
    ``stalled_for_s`` directly, so a worker that died silently (never
    beat again) still registers.
    """
    last: dict[tuple[str, int], float] = {}
    worst = 0.0
    for rec in beats:
        phase = rec.get("phase")
        ts = float(rec.get("ts", 0.0))
        key = (str(rec.get("label", "")), int(rec.get("attempt", 1)))
        if phase == "stalled":
            worst = max(worst, float(rec.get("stalled_for_s", 0.0)))
            continue
        prev = last.get(key)
        if prev is not None and ts > prev:
            worst = max(worst, ts - prev)
        if phase == "done":
            last.pop(key, None)
        else:
            last[key] = ts
    return worst


def _sim_totals(**counts: Any) -> dict[str, Any]:
    """*counts* plus zeroed totals of simulated runs."""
    return {**counts, "sim_cycles": 0, "sim_insts": 0, "sim_wall_s": 0.0}


def _with_rate(group: dict[str, Any]) -> dict[str, Any]:
    """*group* with its simulated wall rounded and its
    ``sim_insts_per_sec``: committed instructions per simulated wall
    second, None when nothing simulated (there is no rate to judge)."""
    wall = group["sim_wall_s"]
    return group | {
        "sim_wall_s": round(wall, 6),
        "sim_insts_per_sec": (
            round(group["sim_insts"] / wall, 1) if wall > 0 else None
        ),
    }


def _total(records: Iterable[Mapping[str, Any]], key: str) -> int:
    return sum(int(rec.get(key, 0)) for rec in records)


def aggregate_records(
    records: Iterable[Mapping[str, Any]],
) -> dict[str, Any]:
    """Fold run-log records into the ``tea-stats-v2`` summary.

    The one fold over a run log: records are partitioned by kind once
    (an untagged record is a run record; unknown kinds are ignored),
    and every figure ``stats`` renders and every field a ``health``
    rule bounds comes from here. Rates cover **simulated runs only**:
    store and memo hits are near-instant, so folding them in would
    drag every rate toward zero. Cache hits are counted instead.
    """
    by_kind: dict[str, list[Mapping[str, Any]]] = {
        kind: [] for kind in RECORD_KEYS
    }
    for rec in records:
        bucket = by_kind.get(rec.get("kind", "run"))
        if bucket is not None:
            bucket.append(rec)
    runs, suites, traces = by_kind["run"], by_kind["suite"], by_kind["trace"]
    beats, resources = by_kind["heartbeat"], by_kind["resources"]

    by_source = dict.fromkeys(SOURCES, 0)
    totals = _sim_totals()
    backends: dict[str, dict[str, Any]] = {}
    workloads: dict[str, dict[str, Any]] = {}
    for rec in runs:
        source = rec.get("source", "simulated")
        wall = float(rec.get("wall_s", 0.0))
        by_source[source] = by_source.get(source, 0) + 1
        tier = backends.setdefault(
            rec.get("backend", "detailed"), _sim_totals(runs=0)
        )
        tier["runs"] += 1
        row = workloads.setdefault(
            rec.get("workload", "?"),
            _sim_totals(**dict.fromkeys(SOURCES, 0), wall_s=0.0),
        )
        row[source] = row.get(source, 0) + 1
        row["wall_s"] += wall
        if source == "simulated":
            for group in (totals, tier, row):
                group["sim_cycles"] += int(rec.get("cycles", 0))
                group["sim_insts"] += int(rec.get("committed", 0))
                group["sim_wall_s"] += wall

    labels = _total(suites, "labels")
    retries = _total(suites, "retries")
    captures = [rec for rec in traces if not rec.get("cached")]
    return {
        "runs": _with_rate(
            {
                "total": len(runs),
                "by_source": by_source,
                "cache_hits": by_source["store"] + by_source["memo"],
                **totals,
            }
        ),
        "backends": {
            name: _with_rate(row) for name, row in sorted(backends.items())
        },
        "workloads": {
            name: _with_rate(row | {"wall_s": round(row["wall_s"], 6)})
            for name, row in sorted(workloads.items())
        },
        "suites": {
            "executions": len(suites),
            "labels": labels,
            "retries": retries,
            "retry_rate": round(retries / labels, 6) if labels else 0.0,
            "timeouts": _total(suites, "timeouts"),
            "pool_recreations": _total(suites, "pool_recreations"),
            "failed_labels": sum(
                len(rec.get("failed", ())) for rec in suites
            ),
            "stalls": _total(suites, "stalls"),
        },
        "live": {
            "heartbeats": len(beats),
            "stall_flags": sum(
                1 for rec in beats if rec.get("phase") == "stalled"
            ),
            "max_stall_s": round(_max_heartbeat_gap(beats), 6),
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
        "obs": {
            "spans": len(by_kind["span"]),
            "counters": len(by_kind["counters"]),
        },
        "traces": {
            "captures": len(captures),
            "loads": len(traces) - len(captures),
            "capture_wall_s": round(
                sum(float(rec.get("wall_s", 0.0)) for rec in captures), 6
            ),
            "rows": sum(
                sum(int(n) for n in rec.get("rows", {}).values())
                for rec in traces
            ),
        },
    }


def summarize_records_json(
    records: Iterable[Mapping[str, Any]],
) -> dict[str, Any]:
    """The machine-readable run-log summary (``tea-repro stats --json``).

    The document leads with ``"schema": "tea-stats-v2"``; readers
    check it via :func:`validate_stats_doc` before trusting the rest.
    """
    return {"schema": STATS_SCHEMA, **aggregate_records(records)}


def _per_s(group: Mapping[str, Any]) -> str:
    """A group's ``sim_insts_per_sec`` for the text summary."""
    rate = group["sim_insts_per_sec"]
    return "n/a insts/s" if rate is None else f"{rate:,.0f} insts/s"


def summarize_records(records: Iterable[Mapping[str, Any]]) -> str:
    """Render the ``tea-stats-v2`` summary of *records* as text.

    The runs with a per-workload table come first, then one line for
    each other kind of record the log holds.
    """
    from repro.experiments.runner import format_table

    agg = aggregate_records(records)
    runs, suites, live = agg["runs"], agg["suites"], agg["live"]
    obs_counts, traces = agg["obs"], agg["traces"]
    sections = []
    if runs["total"]:
        by_source = runs["by_source"]
        table = format_table(
            ["workload", "simulated", "store", "memo", "wall",
             "sim cycles"],
            [
                [name, str(row["simulated"]), str(row["store"]),
                 str(row["memo"]), f"{row['wall_s']:.2f}s",
                 f"{row['sim_cycles']:,}"]
                for name, row in agg["workloads"].items()
            ],
        )
        sections.append(
            f"run log: {runs['total']} run(s) -- "
            f"{by_source['simulated']} simulated, "
            f"{by_source['store']} store hit(s), "
            f"{by_source['memo']} memo hit(s) "
            f"({runs['cache_hits'] / runs['total']:.0%} cached)\n"
            f"simulated: {runs['sim_cycles']:,} cycles, "
            f"{runs['sim_insts']:,} insts in {runs['sim_wall_s']:.2f}s "
            f"wall ({_per_s(runs)} over simulated runs only)\n"
            "backends: "
            + "; ".join(
                f"{name} {row['runs']} run(s), {_per_s(row)}"
                for name, row in agg["backends"].items()
            )
            + "\n\n"
            + table
        )
    if suites["executions"]:
        sections.append(
            f"suites: {suites['executions']} execution(s) -- "
            f"{suites['retries']} retrie(s), "
            f"{suites['timeouts']} timeout(s), "
            f"{suites['pool_recreations']} pool recreation(s), "
            f"{suites['failed_labels']} failed label(s)"
        )
    if obs_counts["spans"] or obs_counts["counters"]:
        sections.append(
            f"obs: {obs_counts['spans']} span record(s), "
            f"{obs_counts['counters']} counter record(s)"
        )
    if traces["captures"] or traces["loads"]:
        sections.append(
            f"traces: {traces['captures']} capture(s) "
            f"({traces['capture_wall_s']:.2f}s wall), "
            f"{traces['loads']} sidecar load(s), "
            f"{traces['rows']:,} column row(s)"
        )
    if live["heartbeats"] or live["resources"]:
        sections.append(
            f"live: {live['heartbeats']} heartbeat(s) "
            f"({live['stall_flags']} stall flag(s)), "
            f"{live['resources']} resource record(s), "
            f"peak RSS {live['max_rss_kb']:,.0f} kB"
        )
    return "\n\n".join(sections) or (
        "run log: empty (no engine runs recorded yet)"
    )


def summarize_run_log(path: str | Path) -> str:
    """Read and summarise a JSONL run log."""
    return summarize_records(read_run_log(path))

