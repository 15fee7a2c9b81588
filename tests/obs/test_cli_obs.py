"""CLI observability: --trace-out, --metrics-out and the run-log obs
records."""

import dataclasses
import json
import re

import pytest

from repro.cli import main
from repro.engine import (
    Engine,
    RunLog,
    RunMetrics,
    SuiteExecutionError,
    read_run_log,
)
from repro.experiments.artefacts import ARTEFACTS
from repro.obs.export import read_chrome_trace
from repro.obs.metrics import validate_prometheus_text


def _prom_samples(path) -> dict[str, str]:
    """Sample name (labels included) -> value of a Prometheus textfile."""
    text = path.read_text()
    assert validate_prometheus_text(text) == []
    return dict(
        line.rsplit(" ", 1)
        for line in text.splitlines()
        if line and not line.startswith("#")
    )


def test_profile_trace_out_writes_valid_trace(tmp_path, capsys):
    trace_path = tmp_path / "prof.json"
    metrics_path = tmp_path / "prof.prom"
    code = main(
        [
            "--scale", "0.05",
            "--metrics-out", str(metrics_path),
            "profile", "exchange2",
            "--trace-out", str(trace_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert f"wrote {trace_path}" in out
    assert f"wrote {metrics_path}" in out

    # The textfile counts the one profiled run and its cycles.
    cycles = re.search(r"exchange2: ([\d,]+) cycles", out).group(1)
    samples = _prom_samples(metrics_path)
    assert samples["tea_core_runs"] == "1"
    assert samples["tea_core_cycles"] == cycles.replace(",", "")

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
    assert summary["runs"]["sim_insts_per_sec"] == 20_000.0


def _export_args(tmp_path) -> list[str]:
    return [
        "--scale", "0.05", "--period", "67",
        "--store", str(tmp_path / "store"),
        "--trace-out", str(tmp_path / "t.json"),
        "--metrics-out", str(tmp_path / "m.prom"),
    ]


def _assert_exported(tmp_path) -> None:
    """Both export files are valid and the run log got its spans."""
    read_chrome_trace(tmp_path / "t.json")
    _prom_samples(tmp_path / "m.prom")
    records = read_run_log(tmp_path / "store" / "runs.jsonl")
    assert any(r.get("kind") == "span" for r in records)


def test_failed_suite_still_exports_obs(tmp_path, capsys, monkeypatch):
    """A suite failure exits 1 and still writes --trace-out,
    --metrics-out and the run log's obs records."""

    def failing_suite(self, specs):
        label, spec = next(iter(specs.items()))
        self.run(spec)  # one run lands, then the suite fails
        raise SuiteExecutionError({label: "InjectedFault: injected"})

    monkeypatch.setattr(Engine, "run_suite", failing_suite)
    code = main(_export_args(tmp_path) + ["--jobs", "2", "fig5"])
    assert code == 1
    assert "InjectedFault" in capsys.readouterr().err
    _assert_exported(tmp_path)


def test_raising_experiment_still_exports_obs(tmp_path, monkeypatch):
    def failing_experiment(runner):
        runner.run("exchange2")
        raise RuntimeError("injected experiment failure")

    monkeypatch.setitem(
        ARTEFACTS, "fig5",
        dataclasses.replace(ARTEFACTS["fig5"], run=failing_experiment),
    )
    with pytest.raises(RuntimeError, match="injected"):
        main(_export_args(tmp_path) + ["fig5"])
    _assert_exported(tmp_path)
