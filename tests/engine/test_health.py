"""SLO health gating: rules files, the stats fields the rules bound,
violation reporting, the CLI exit-code contract, and the engine's
end-to-end live-telemetry path into the run log."""

import json

import pytest

from repro.cli import main
from repro.engine import (
    Engine,
    RunLog,
    RunStore,
    evaluate_health,
    read_run_log,
    read_slo_file,
)
from repro.engine.telemetry import aggregate_records

from tests.engine.conftest import SMALL


def write_slo(path, rules):
    path.write_text(
        json.dumps({"schema": "tea-slo-v1", "rules": rules})
    )
    return str(path)


# ----------------------------------------------------------------------
# Rules files.
# ----------------------------------------------------------------------
def test_read_slo_file_round_trip(tmp_path):
    path = write_slo(
        tmp_path / "slo.json",
        {"max_stall_s": 5.0, "min_insts_per_sec": 100},
    )
    assert read_slo_file(path) == {
        "max_stall_s": 5.0, "min_insts_per_sec": 100.0,
    }


def test_read_slo_file_rejects_bad_schema_and_rules(tmp_path):
    bad_schema = tmp_path / "bad.json"
    bad_schema.write_text(json.dumps({"schema": "nope", "rules": {}}))
    with pytest.raises(ValueError, match="tea-slo-v1"):
        read_slo_file(bad_schema)
    with pytest.raises(ValueError, match="rules"):
        read_slo_file(
            write_slo(tmp_path / "empty.json", {})
        )
    with pytest.raises(ValueError, match="unknown rule"):
        read_slo_file(
            write_slo(tmp_path / "typo.json", {"max_stals": 1})
        )
    # The cycles/s floor is gone: a file naming it fails loudly.
    with pytest.raises(ValueError, match="unknown rule"):
        read_slo_file(
            write_slo(tmp_path / "old.json", {"min_cycles_per_sec": 1})
        )


def test_committed_smoke_slo_file_is_valid():
    import pathlib

    repo = pathlib.Path(__file__).resolve().parents[2]
    rules = read_slo_file(repo / "benchmarks" / "SLO_smoke.json")
    assert rules["max_failed_labels"] == 0


# ----------------------------------------------------------------------
# The stats fields the rules bound.
# ----------------------------------------------------------------------
def _beat(label, phase, ts, attempt=1, **extra):
    record = {
        "kind": "heartbeat", "label": label, "phase": phase,
        "attempt": attempt, "ts": ts,
    }
    record.update(extra)
    return record


def max_stall_s(records):
    return aggregate_records(records)["live"]["max_stall_s"]


def test_max_heartbeat_gap_per_label_and_attempt():
    records = [
        _beat("a", "start", 10.0),
        _beat("b", "start", 10.0),
        _beat("a", "progress", 11.0),
        _beat("b", "progress", 17.0),   # 7s gap on b
        _beat("a", "done", 12.0),
        # attempt 2 of a restarts the clock: no 10->30 gap.
        _beat("a", "start", 30.0, attempt=2),
        _beat("a", "done", 31.0, attempt=2),
    ]
    assert max_stall_s(records) == pytest.approx(7.0)


def test_max_heartbeat_gap_counts_stall_flags():
    records = [
        _beat("a", "start", 10.0),
        _beat("a", "stalled", 15.0, stalled_for_s=4.5),
    ]
    # The flag's own measured silence is authoritative.
    assert max_stall_s(records) == pytest.approx(4.5)


def test_measure_health_over_mixed_records():
    records = [
        {"workload": "lbm", "source": "simulated", "wall_s": 1.0,
         "cycles": 50_000, "committed": 20_000},
        {"kind": "suite", "labels": 4, "retries": 1, "failed": ["xz"]},
        _beat("lbm", "start", 1.0),
        _beat("lbm", "done", 2.0),
        {"kind": "resources", "label": "lbm", "max_rss_kb": 2048.0,
         "cpu_user_s": 0.9, "cpu_sys_s": 0.1},
    ]
    metrics = evaluate_health(records, {}).metrics
    assert metrics == {
        "max_stall_s": pytest.approx(1.0),
        "sim_insts_per_sec": pytest.approx(20_000.0),
        "retry_rate": pytest.approx(0.25),
        "max_rss_kb": 2048.0,
        "failed_labels": 1,
    }


# ----------------------------------------------------------------------
# Rule evaluation.
# ----------------------------------------------------------------------
def test_evaluate_health_passes_generous_rules():
    records = [
        {"workload": "lbm", "source": "simulated", "wall_s": 1.0,
         "cycles": 50_000, "committed": 20_000},
        _beat("lbm", "start", 1.0),
        _beat("lbm", "done", 1.5),
    ]
    report = evaluate_health(
        records,
        {"max_stall_s": 60.0, "min_insts_per_sec": 1.0,
         "max_failed_labels": 0},
    )
    assert report.ok
    assert report.to_json()["violations"] == []
    assert "PASS" in report.render()


def test_evaluate_health_flags_each_violated_rule():
    records = [
        {"workload": "lbm", "source": "simulated", "wall_s": 1.0,
         "cycles": 1_000, "committed": 400},
        {"kind": "suite", "labels": 2, "retries": 4, "failed": ["a"]},
        _beat("lbm", "start", 1.0),
        _beat("lbm", "done", 9.0),
        {"kind": "resources", "label": "lbm", "max_rss_kb": 9_999.0},
    ]
    report = evaluate_health(
        records,
        {"max_stall_s": 2.0, "min_insts_per_sec": 1e9,
         "max_retry_rate": 0.5, "max_rss_kb": 1_000.0,
         "max_failed_labels": 0},
    )
    assert not report.ok
    assert len(report.violations) == 5
    rendered = report.render()
    assert "FAIL" in rendered
    assert "FAIL min_insts_per_sec: measured 400 is below floor 1e+09" \
        in rendered


def test_throughput_floor_skipped_without_simulated_runs():
    records = [
        {"workload": "lbm", "source": "memo", "wall_s": 0.0,
         "cycles": 50_000, "committed": 20_000},
    ]
    report = evaluate_health(records, {"min_insts_per_sec": 1e9})
    assert report.ok  # nothing simulated => no throughput to judge
    assert report.metrics["sim_insts_per_sec"] is None
    assert "measured n/a -- skipped" in report.render()


# ----------------------------------------------------------------------
# CLI: health + monitor exit codes and output.
# ----------------------------------------------------------------------
def _seed_log(tmp_path):
    log_path = tmp_path / "runs.jsonl"
    with RunLog(log_path) as log:
        log.record_event(_beat("lbm", "start", 1.0))
        log.record_event(
            _beat("lbm", "progress", 1.5, cycles=100, committed=50,
                  workload="lbm", backend="detailed")
        )
        log.record_event(_beat("lbm", "done", 2.0, ok=True))
    return log_path


def test_cmd_health_pass_fail_and_error(tmp_path, capsys):
    log_path = _seed_log(tmp_path)
    good = write_slo(tmp_path / "good.json", {"max_stall_s": 60.0})
    assert main(["health", str(log_path), "--slo", good]) == 0
    assert "PASS" in capsys.readouterr().out
    bad = write_slo(tmp_path / "bad.json", {"max_stall_s": 0.1})
    assert main(["health", str(log_path), "--slo", bad]) == 1
    assert "FAIL" in capsys.readouterr().out
    broken = tmp_path / "broken.json"
    broken.write_text("{")
    assert main(["health", str(log_path), "--slo", str(broken)]) == 2


def test_cmd_health_on_a_missing_log_is_an_error(tmp_path, capsys):
    """A gate over a log that is not there must not pass: no records
    would satisfy every ceiling."""
    slo = write_slo(tmp_path / "slo.json", {"max_stall_s": 60.0})
    missing = tmp_path / "missing.jsonl"
    assert main(["health", str(missing), "--slo", slo]) == 2
    captured = capsys.readouterr()
    assert "PASS" not in captured.out
    assert str(missing) in captured.err


def test_cmd_health_json_document(tmp_path, capsys):
    log_path = _seed_log(tmp_path)
    slo = write_slo(tmp_path / "slo.json", {"max_stall_s": 60.0})
    assert main(
        ["health", str(log_path), "--slo", slo, "--json"]
    ) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is True
    assert doc["metrics"]["max_stall_s"] == 0.5
    assert doc["rules"] == {"max_stall_s": 60.0}


def test_cmd_monitor_once_and_json(tmp_path, capsys):
    log_path = _seed_log(tmp_path)
    assert main(["monitor", str(log_path), "--once"]) == 0
    out = capsys.readouterr().out
    assert "lbm" in out and "done" in out
    assert main(["monitor", str(log_path), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["labels"]["lbm"]["status"] == "done"
    assert doc["aggregate"]["beats"] == 3


def test_cmd_monitor_renders_mid_run_log(tmp_path, capsys):
    """A log with no suite record yet (the suite is still running)
    must render without waiting for completion."""
    log_path = tmp_path / "runs.jsonl"
    with RunLog(log_path) as log:
        log.record_event(_beat("lbm", "start", 1.0))
        log.record_event(
            _beat("lbm", "progress", 1.5, cycles=100, committed=50)
        )
        # Read while the writer still holds the log open.
        assert main(["monitor", str(log_path), "--once"]) == 0
    out = capsys.readouterr().out
    assert "running" in out
    assert "suite: finished" not in out


# ----------------------------------------------------------------------
# Engine end-to-end: heartbeats land in the run log mid-suite.
# ----------------------------------------------------------------------
def test_engine_suite_writes_live_records_to_run_log(tmp_path):
    from repro.engine.spec import RunSpec

    log_path = tmp_path / "runs.jsonl"
    engine = Engine(
        store=RunStore(tmp_path / "store"),
        run_log=RunLog(log_path),
        jobs=2,
        heartbeat=0.1,
    )
    specs = {
        "a": RunSpec.make("exchange2", **SMALL),
        "b": RunSpec.make("mcf", **SMALL),
    }
    runs = engine.run_suite(specs)
    engine.run_log.close()
    assert set(runs) == {"a", "b"}
    records = read_run_log(log_path)
    kinds = [r.get("kind") for r in records]
    assert kinds.count("resources") == 2
    beats = [r for r in records if r.get("kind") == "heartbeat"]
    assert {b["label"] for b in beats} == {"a", "b"}
    # Heartbeats precede the suite + run records in the log: they
    # were flushed live, not batched at the end.
    assert kinds.index("heartbeat") < kinds.index("suite")
    # The per-attempt resources records carry the accounting; the
    # run records do not repeat it.
    assert all(
        r["max_rss_kb"] > 0 for r in records if r["kind"] == "resources"
    )
    run_records = [r for r in records if r["kind"] == "run"]
    assert len(run_records) == 2
    assert not any("resources" in r for r in run_records)
