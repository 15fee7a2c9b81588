"""Chrome trace-event export: envelope and schema check."""

import json

import pytest

from repro import obs
from repro.obs.export import (
    chrome_trace_doc,
    export_chrome_trace,
    read_chrome_trace,
    validate_chrome_trace,
)


def test_doc_normalizes_timestamps_and_names_processes():
    obs.enable()
    with obs.span("a"):
        pass
    with obs.span("b"):
        pass
    doc = chrome_trace_doc()
    assert doc["displayTimeUnit"] == "ms"
    spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert min(e["ts"] for e in spans) == 0  # rebased to origin
    metas = [e for e in doc["traceEvents"] if e["ph"] == "M"]
    assert any(e["name"] == "process_name" for e in metas)


def test_doc_normalize_keeps_ts_zero_events_in_base():
    """Regression: a non-metadata event stamped ts=0 (e.g. an early
    instant) used to be skipped when picking the rebase origin but
    still got rebased, landing at a negative timestamp the validator
    rejects. ts=0 events now anchor the base."""
    events = [
        {"name": "early", "ph": "i", "s": "p", "ts": 0, "pid": 1,
         "tid": 1},
        {"name": "work", "ph": "X", "ts": 1000, "dur": 10, "pid": 1,
         "tid": 1},
    ]
    doc = chrome_trace_doc(events)
    assert validate_chrome_trace(doc) == []
    by_name = {e["name"]: e for e in doc["traceEvents"] if e["ph"] != "M"}
    assert by_name["early"]["ts"] == 0
    assert by_name["work"]["ts"] == 1000  # relative spacing preserved


def test_doc_normalize_clamps_negative_timestamps():
    events = [
        {"name": "skewed", "ph": "i", "s": "p", "ts": -5, "pid": 1,
         "tid": 1},
        {"name": "work", "ph": "X", "ts": 40, "dur": 1, "pid": 1,
         "tid": 1},
    ]
    doc = chrome_trace_doc(events)
    assert validate_chrome_trace(doc) == []
    spans = [e for e in doc["traceEvents"] if e["ph"] != "M"]
    assert min(e["ts"] for e in spans) == 0


def test_validate_rejects_bool_fields():
    """bool is an int subclass; True must not pass as pid/tid/ts/dur."""
    doc = {
        "traceEvents": [
            {
                "name": "sneaky", "ph": "X", "ts": True, "dur": False,
                "pid": True, "tid": False,
            }
        ]
    }
    problems = validate_chrome_trace(doc)
    assert any("bad 'ts' True" in p for p in problems)
    assert any("bad 'dur' False" in p for p in problems)
    assert any("bad 'pid' True" in p for p in problems)
    assert any("bad 'tid' False" in p for p in problems)


def test_doc_leaves_collector_events_unmutated():
    obs.enable()
    with obs.span("a"):
        pass
    before = obs.COLLECTOR.snapshot()
    chrome_trace_doc()
    assert obs.COLLECTOR.snapshot() == before  # copies, not views


def test_export_and_read_round_trip(tmp_path):
    obs.enable()
    with obs.span("run", key="k"):
        pass
    obs.COUNTERS.sample("rates", {"l1d": 0.9})
    path = tmp_path / "deep" / "trace.json"
    count = export_chrome_trace(path)
    doc = read_chrome_trace(path)  # raises on schema problems
    assert len(doc["traceEvents"]) == count
    phases = {e["ph"] for e in doc["traceEvents"]}
    assert {"X", "C", "M"} <= phases


def test_validate_reports_problems():
    assert validate_chrome_trace([]) == ["document is not a JSON object"]
    assert validate_chrome_trace({}) == ["missing 'traceEvents' array"]
    bad = {
        "traceEvents": [
            {"name": "", "ph": "X", "ts": -1, "pid": "x", "tid": 0},
            "not an event",
            {"name": "ok", "ph": "Z", "ts": 0, "pid": 1, "tid": 1},
        ]
    }
    problems = validate_chrome_trace(bad)
    assert any("bad 'name'" in p for p in problems)
    assert any("bad 'ts'" in p for p in problems)
    assert any("bad 'pid'" in p for p in problems)
    assert any("not an object" in p for p in problems)
    assert any("unknown phase 'Z'" in p for p in problems)


def test_read_rejects_invalid_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"traceEvents": [{"ph": "??"}]}))
    with pytest.raises(ValueError, match="invalid Chrome trace"):
        read_chrome_trace(path)
