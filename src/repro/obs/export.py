"""Exporters for collected observability data.

:func:`export_chrome_trace` writes a Chrome trace-event JSON file (the
``{"traceEvents": [...]}`` object form) loadable in Perfetto or
``chrome://tracing``. Timestamps are normalised to the earliest event
so the timeline starts at zero, and per-pid ``process_name`` metadata
is synthesised so worker processes render as named tracks. (The same
events reach the run log through
:meth:`repro.engine.telemetry.RunLog.record_obs`.)

:func:`validate_chrome_trace` is the schema check the test suite (and
CI) runs against emitted traces: it verifies the envelope and the
per-event field types Perfetto's importer relies on.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.obs.spans import COLLECTOR

#: Phases emitted by this package (a subset of the trace-event spec).
_KNOWN_PHASES = {"X", "C", "i", "I", "B", "E", "M"}


def _is_number(value: Any) -> bool:
    """A real JSON number -- bool is an int subclass and must not pass."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def chrome_trace_doc(
    events: list[dict[str, Any]] | None = None,
    normalize: bool = True,
) -> dict[str, Any]:
    """Build the Chrome trace-event JSON object for *events*.

    Args:
        events: Trace events (default: the global collector snapshot).
        normalize: Rebase timestamps so the earliest event is at 0 µs
            (metadata events, which carry ``ts: 0``, are ignored when
            finding the base).
    """
    if events is None:
        events = COLLECTOR.snapshot()
    events = [dict(event) for event in events]
    if normalize:
        # ts == 0 events take part in the base: excluding them while
        # still rebasing them used to push them to ts = -base, which
        # validate_chrome_trace rejects. The max(..., 0) clamp keeps
        # the invariant even for hand-built event lists that already
        # mix negative or missing stamps.
        stamps = [
            event["ts"]
            for event in events
            if event.get("ph") != "M" and "ts" in event
        ]
        base = min(stamps) if stamps else 0
        for event in events:
            if event.get("ph") != "M":
                event["ts"] = max(event.get("ts", base) - base, 0)
    pids = sorted(
        {event["pid"] for event in events if "pid" in event}
    )
    metadata = [
        {
            "name": "process_name",
            "ph": "M",
            "ts": 0,
            "pid": pid,
            "tid": 0,
            "args": {"name": f"tea-repro pid {pid}"},
        }
        for pid in pids
    ]
    return {
        "traceEvents": metadata + events,
        "displayTimeUnit": "ms",
        "otherData": {"generator": "tea-repro repro.obs"},
    }


def export_chrome_trace(
    path: str | Path,
    events: list[dict[str, Any]] | None = None,
) -> int:
    """Write a Perfetto-loadable trace file; returns the event count.

    The written document always validates against
    :func:`validate_chrome_trace`.
    """
    doc = chrome_trace_doc(events)
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(doc, sort_keys=True) + "\n")
    return len(doc["traceEvents"])


def validate_chrome_trace(doc: Any) -> list[str]:
    """Schema problems of a Chrome trace-event document (empty = OK).

    Checks the object-form envelope and, per event, the fields the
    Perfetto importer relies on: ``name`` (str), ``ph`` (known phase),
    ``ts`` (non-negative number), ``pid``/``tid`` (ints), ``dur``
    (non-negative number, ``"X"`` events only), and ``args`` (object,
    when present).
    """
    problems: list[str] = []
    if not isinstance(doc, dict):
        return ["document is not a JSON object"]
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["missing 'traceEvents' array"]
    for position, event in enumerate(events):
        where = f"traceEvents[{position}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        name = event.get("name")
        if not isinstance(name, str) or not name:
            problems.append(f"{where}: bad 'name' {name!r}")
        phase = event.get("ph")
        if phase not in _KNOWN_PHASES:
            problems.append(f"{where}: unknown phase {phase!r}")
        ts = event.get("ts")
        if not _is_number(ts) or ts < 0:
            problems.append(f"{where}: bad 'ts' {ts!r}")
        for field in ("pid", "tid"):
            value = event.get(field)
            if not isinstance(value, int) or isinstance(value, bool):
                problems.append(f"{where}: bad '{field}' {value!r}")
        if phase == "X":
            dur = event.get("dur")
            if not _is_number(dur) or dur < 0:
                problems.append(f"{where}: bad 'dur' {dur!r}")
        if "args" in event and not isinstance(event["args"], dict):
            problems.append(f"{where}: 'args' is not an object")
    return problems


def read_chrome_trace(path: str | Path) -> dict[str, Any]:
    """Load and validate a trace file written by this module.

    Raises:
        ValueError: When the document fails the schema check.
    """
    doc = json.loads(Path(path).read_text())
    problems = validate_chrome_trace(doc)
    if problems:
        raise ValueError(
            f"{path}: invalid Chrome trace -- " + "; ".join(problems[:5])
        )
    return doc
