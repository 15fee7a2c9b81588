"""CLI observability: --trace-out and the run-log obs records."""

import json

from repro.cli import main
from repro.engine import RunLog, RunMetrics, read_run_log
from repro.obs.export import read_chrome_trace


def test_profile_trace_out_writes_valid_trace(tmp_path, capsys):
    trace_path = tmp_path / "prof.json"
    code = main(
        [
            "--scale", "0.05",
            "profile", "exchange2",
            "--trace-out", str(trace_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert f"wrote {trace_path}" in out

    doc = read_chrome_trace(trace_path)  # schema check
    events = doc["traceEvents"]
    names = {e["name"] for e in events}
    assert any(n.startswith("core.run:") for n in names)
    # Named core pipeline-stage tracks (their spans need sampler ticks,
    # which tests/obs/test_core_profiled.py collects enough of)...
    tracks = {
        e["args"]["name"] for e in events if e["name"] == "thread_name"
    }
    assert {"stage:commit", "stage:fetch"} <= tracks
    # ...plus counter samples.
    assert any(e["ph"] == "C" for e in events)


def test_trace_out_before_subcommand_also_works(tmp_path, capsys):
    trace_path = tmp_path / "prof.json"
    code = main(
        [
            "--scale", "0.05",
            "--trace-out", str(trace_path),
            "profile", "exchange2",
        ]
    )
    assert code == 0
    assert trace_path.exists()
    assert read_chrome_trace(trace_path)["traceEvents"]


def test_profile_without_trace_out_stays_quiet(tmp_path, capsys):
    assert main(["--scale", "0.05", "profile", "exchange2"]) == 0
    out = capsys.readouterr().out
    assert "wrote" not in out


def test_stats_json_round_trips_obs_records(tmp_path, capsys):
    log_path = tmp_path / "runs.jsonl"
    log = RunLog(log_path)
    log.record(
        RunMetrics(
            workload="lbm",
            spec_key="ab" * 32,
            source="simulated",
            wall_s=2.0,
            cycles=100_000,
            committed=40_000,
        )
    )
    log.record_obs(
        [
            {
                "name": "run:lbm", "ph": "X", "ts": 10, "dur": 5,
                "pid": 1, "tid": 1,
            },
            {
                "name": "rates", "ph": "C", "ts": 11, "pid": 1,
                "tid": 0, "args": {"l1d": 0.9},
            },
        ]
    )
    log.close()

    code = main(
        ["--no-store", "--run-log", str(log_path), "stats", "--json"]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["store"] is None
    assert doc["run_log"] == str(log_path)
    summary = doc["summary"]
    assert summary["runs"]["total"] == 1
    assert summary["obs"] == {"spans": 1, "counters": 1}
    # Obs records never pollute the throughput aggregates.
    assert summary["runs"]["sim_cycles_per_sec"] == 50_000.0
