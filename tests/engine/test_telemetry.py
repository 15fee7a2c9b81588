"""Run telemetry: metrics records, the tea-runlog-v1 log and its one
parser, and `stats`."""

import json
import pathlib

import pytest

from repro.cli import main
from repro.engine import (
    DEFAULT_RUN_LOG_NAME,
    RECORD_KEYS,
    RUNLOG_SCHEMA,
    Engine,
    RunLog,
    RunMetrics,
    RunStore,
    read_run_log,
    record_kind,
    summarize_run_log,
    tail_run_log,
)
from repro.engine.spec import RunSpec
from repro.engine.telemetry import summarize_records

from tests.engine.conftest import SMALL


def metrics(**overrides) -> RunMetrics:
    base = dict(
        workload="lbm",
        spec_key="ab" * 32,
        source="simulated",
        wall_s=2.0,
        cycles=100_000,
        committed=40_000,
        samples={"TEA": 341},
    )
    base.update(overrides)
    return RunMetrics(**base)


def test_metrics_to_json():
    rec = metrics().to_json()
    assert rec["kind"] == "run"
    assert rec["workload"] == "lbm"
    assert rec["source"] == "simulated"
    assert rec["samples"] == {"TEA": 341}
    assert rec["timestamp"] > 0


def test_run_log_round_trip(tmp_path):
    path = tmp_path / "log" / "runs.jsonl"
    log = RunLog(path)
    log.record(metrics())
    log.record(metrics(source="memo", wall_s=0.0))
    with open(path, "a") as handle:
        handle.write("not json\n")  # must be skipped, not fatal
    records = read_run_log(path)
    assert [r["source"] for r in records] == ["simulated", "memo"]
    assert read_run_log(tmp_path / "missing.jsonl") == []


def test_summary_renders_totals_and_per_workload_rows(tmp_path):
    path = tmp_path / "runs.jsonl"
    log = RunLog(path)
    log.record(metrics())
    log.record(metrics(source="store", wall_s=0.1))
    log.record(metrics(workload="nab", source="memo", wall_s=0.0))
    text = summarize_run_log(path)
    assert "3 run(s)" in text
    assert "1 simulated" in text
    assert "1 store hit(s)" in text
    assert "1 memo hit(s)" in text
    assert "lbm" in text and "nab" in text


def test_summary_of_empty_log():
    assert "empty" in summarize_records([])


def spec(name="exchange2", **kwargs) -> RunSpec:
    return RunSpec.make(name, **SMALL, **kwargs)


def test_engine_records_every_source(tmp_path):
    store = RunStore(tmp_path / "store")
    log_path = tmp_path / "runs.jsonl"
    engine = Engine(store=store, run_log=RunLog(log_path))
    engine.run(spec())
    engine.run(spec())  # memo hit
    warm = Engine(store=store, run_log=RunLog(log_path))
    warm.run(spec())  # store hit
    sources = [r["source"] for r in read_run_log(log_path)]
    assert sources == ["simulated", "memo", "store"]
    assert warm.simulations == 0


def test_warm_suite_performs_zero_new_simulations(tmp_path):
    """Acceptance: a second suite over a warm store only reads caches,
    verified through the run-log source counters."""
    store = RunStore(tmp_path / "store")
    specs = {"exchange2": spec(), "xz": spec("xz")}

    cold = Engine(store=store, run_log=RunLog(tmp_path / "cold.jsonl"))
    cold.run_suite(specs)
    assert cold.simulations == len(specs)

    warm_log = tmp_path / "warm.jsonl"
    warm = Engine(store=store, run_log=RunLog(warm_log))
    warm.run_suite(specs)
    warm.run_suite(specs)
    assert warm.simulations == 0
    sources = {r["source"] for r in read_run_log(warm_log)}
    assert sources <= {"store", "memo"}
    assert store.hits >= len(specs)


def test_suite_results_identical_across_jobs(tmp_path):
    serial = Engine(store=None, jobs=1).run_suite(
        {"exchange2": spec(), "xz": spec("xz")}
    )
    parallel = Engine(store=None, jobs=2).run_suite(
        {"exchange2": spec(), "xz": spec("xz")}
    )
    for label, run in serial.items():
        other = parallel[label]
        assert other.result.cycles == run.result.cycles
        assert other.result.golden_raw == run.result.golden_raw
        for technique in spec().techniques:
            assert other.error(technique) == run.error(technique)


def test_cli_stats_command(tmp_path, capsys):
    store_dir = tmp_path / "store"
    store = RunStore(store_dir)
    log = RunLog(store_dir / DEFAULT_RUN_LOG_NAME)
    engine = Engine(store=store, run_log=log)
    engine.run(spec())
    assert main(["--store", str(store_dir), "stats"]) == 0
    out = capsys.readouterr().out
    assert "1 cached run(s)" in out
    assert "other code: 0 revision(s), 0 run(s)" in out
    assert "1 simulated" in out


def test_cli_stats_without_store(capsys):
    assert main(["--no-store", "stats"]) == 0
    out = capsys.readouterr().out
    assert "run log: none" in out


def test_run_log_lines_are_valid_json(tmp_path):
    path = tmp_path / "runs.jsonl"
    Engine(run_log=RunLog(path)).run(spec())
    lines = path.read_text().splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["source"] == "simulated"
    assert record["spec_key"] == spec().key
    assert record["samples"]  # every sampler reported a count


def test_metrics_attempts_default_and_override():
    assert metrics().to_json()["attempts"] == 1
    assert metrics(attempts=3).to_json()["attempts"] == 3


def test_record_suite_round_trip(tmp_path):
    from repro.engine import LabelOutcome, SuiteReport

    report = SuiteReport(
        outcomes={
            "lbm": LabelOutcome("lbm", "ok", attempts=2, wall_s=1.0),
            "xz": LabelOutcome(
                "xz", "failed", attempts=2, wall_s=0.5,
                cause="RuntimeError: boom",
            ),
        },
        retries=2,
        timeouts=1,
        pool_recreations=1,
        wall_s=3.5,
        simulations=1,
    )
    path = tmp_path / "runs.jsonl"
    log = RunLog(path)
    log.record(metrics())
    log.record_suite(report)
    records = read_run_log(path)
    assert len(records) == 2
    suite = records[1]
    assert suite["kind"] == "suite"
    assert suite["ok"] == 1
    assert suite["failed"] == ["xz"]
    assert suite["outcomes"]["xz"]["cause"] == "RuntimeError: boom"
    text = summarize_run_log(path)
    assert "1 run(s)" in text  # suite lines don't count as runs
    assert (
        "suites: 1 execution(s) -- 2 run(s) from 1 simulation(s), "
        "2 retrie(s), 1 timeout(s), 1 pool recreation(s), "
        "1 failed label(s)" in text
    )


def test_summary_of_suite_only_log():
    from repro.engine import SuiteReport

    rec = {"kind": "suite", **SuiteReport().to_json()}
    text = summarize_records([rec])
    assert "suites: 1 execution(s)" in text


# ----------------------------------------------------------------------
# Buffered run-log handle.
# ----------------------------------------------------------------------
def test_run_log_keeps_one_handle_and_flushes_per_line(tmp_path):
    path = tmp_path / "runs.jsonl"
    log = RunLog(path)
    log.record(metrics())
    handle = log._handle
    assert handle is not None  # opened lazily, kept across records
    log.record(metrics(source="memo", wall_s=0.0))
    assert log._handle is handle  # not reopened per line
    # Per-line flush: both records durable before close.
    assert len(read_run_log(path)) == 2
    log.close()
    assert log._handle is None
    log.close()  # idempotent


def test_run_log_reopens_after_close(tmp_path):
    path = tmp_path / "runs.jsonl"
    log = RunLog(path)
    log.record(metrics())
    log.close()
    log.record(metrics(source="store", wall_s=0.1))  # reopens append
    log.close()
    assert [r["source"] for r in read_run_log(path)] == [
        "simulated", "store",
    ]


def test_run_log_context_manager_closes(tmp_path):
    path = tmp_path / "runs.jsonl"
    with RunLog(path) as log:
        log.record(metrics())
        assert log._handle is not None
    assert log._handle is None
    assert len(read_run_log(path)) == 1


def test_concurrent_writers_interleave_at_line_granularity(tmp_path):
    path = tmp_path / "runs.jsonl"
    first = RunLog(path)
    second = RunLog(path)  # e.g. another process appending
    first.record(metrics())
    second.record(metrics(source="store", wall_s=0.1))
    first.record(metrics(source="memo", wall_s=0.0))
    first.close()
    second.close()
    records = read_run_log(path)
    assert [r["source"] for r in records] == [
        "simulated", "store", "memo",
    ]


def test_record_obs_appends_span_and_counter_lines(tmp_path):
    from repro.obs.counters import CounterRegistry

    path = tmp_path / "runs.jsonl"
    log = RunLog(path)
    log.record(metrics())
    written = log.record_obs(
        [
            {"name": "run:lbm", "ph": "X", "ts": 1, "dur": 2,
             "pid": 1, "tid": 1},
            {"name": "thread_name", "ph": "M", "ts": 0, "pid": 1,
             "tid": 9000, "args": {"name": "stage:commit"}},
            {"name": "rates", "ph": "C", "ts": 1, "pid": 1, "tid": 0,
             "args": {"l1d": 0.9}},
        ],
        registry=None,
    )
    log.close()
    assert written == 2  # metadata dropped
    kinds = [r["kind"] for r in read_run_log(path)]
    assert kinds == ["run", "span", "counters"]
    registry = CounterRegistry()
    # An all-empty registry snapshot adds no record.
    log2 = RunLog(tmp_path / "other.jsonl")
    assert log2.record_obs([], registry=registry) == 0
    log2.close()


# ----------------------------------------------------------------------
# Aggregation: rates exclude cache hits; stats --json.
# ----------------------------------------------------------------------
_GOLDEN_RECORDS = [
    {"workload": "lbm", "source": "simulated", "wall_s": 2.0,
     "cycles": 100_000, "committed": 40_000},
    {"workload": "lbm", "source": "store", "wall_s": 0.01,
     "cycles": 100_000, "committed": 40_000},
    {"workload": "nab", "source": "simulated", "wall_s": 1.0,
     "cycles": 200_000, "committed": 80_000},
    {"workload": "nab", "source": "memo", "wall_s": 0.0,
     "cycles": 200_000, "committed": 80_000},
    {"kind": "suite", "retries": 2, "timeouts": 1,
     "pool_recreations": 0, "failed": ["xz"], "stalls": 1},
    {"kind": "heartbeat", "label": "lbm", "workload": "lbm",
     "backend": "detailed", "phase": "start", "attempt": 1, "pid": 7,
     "cycles": 0, "committed": 0, "ts": 100.0},
    {"kind": "heartbeat", "label": "lbm", "workload": "lbm",
     "backend": "detailed", "phase": "stalled", "attempt": 1, "pid": 7,
     "cycles": 65_536, "committed": 40_000, "stalled_for_s": 2.5,
     "ts": 103.0},
    {"kind": "heartbeat", "label": "lbm", "workload": "lbm",
     "backend": "detailed", "phase": "done", "attempt": 1, "pid": 7,
     "cycles": 100_000, "committed": 60_000, "ok": True, "ts": 104.0},
    {"kind": "resources", "label": "lbm", "attempt": 1,
     "max_rss_kb": 51_200.0, "cpu_user_s": 1.5, "cpu_sys_s": 0.25,
     "wall_s": 2.0, "ts": 104.0},
    {"kind": "span", "name": "run:lbm", "ph": "X", "ts": 0, "dur": 5,
     "pid": 1, "tid": 1},
    {"kind": "counters", "name": "rates", "ph": "C", "ts": 0,
     "pid": 1, "tid": 0, "args": {"x": 1}},
    {"kind": "trace", "workload": "lbm", "spec_key": "ab" * 32,
     "cached": False, "wall_s": 0.25, "cycles": 100_000,
     "rows": {"ctrace": 900, "commit_uops": 800, "samples": 100,
              "spans": 0}},
    {"kind": "trace", "workload": "lbm", "spec_key": "ab" * 32,
     "cached": True, "wall_s": 0.0, "cycles": 100_000,
     "rows": {"ctrace": 900, "commit_uops": 800, "samples": 100,
              "spans": 0}},
]


def test_insts_per_sec_excludes_cache_hits():
    """Store/memo hits are near-instant; folding them into the
    throughput would drag it toward zero, so they are counted only."""
    from repro.engine.telemetry import aggregate_records

    agg = aggregate_records(_GOLDEN_RECORDS)
    runs = agg["runs"]
    # 120k instructions over the two simulated runs' 3 s of wall.
    assert runs["sim_insts_per_sec"] == pytest.approx(40_000.0)
    assert runs["cache_hits"] == 2
    # Per-workload throughput divides by *simulated* wall only.
    assert agg["workloads"]["lbm"]["sim_insts_per_sec"] == (
        pytest.approx(20_000.0)
    )
    # Nothing simulated: no rate at all, not a rate of zero.
    hits = [r for r in _GOLDEN_RECORDS if r.get("source") == "memo"]
    assert aggregate_records(hits)["runs"]["sim_insts_per_sec"] is None


def test_per_backend_aggregation():
    """Each tier's throughput aggregates separately: a sampled run's
    insts/s must not blend into the detailed-tier average."""
    from repro.engine.telemetry import aggregate_records

    records = [
        {"workload": "lbm", "source": "simulated", "wall_s": 2.0,
         "cycles": 100_000, "committed": 100_000},  # legacy: detailed
        {"workload": "lbm", "source": "simulated", "wall_s": 1.0,
         "cycles": 400_000, "committed": 400_000, "backend": "sampled"},
        {"workload": "mcf", "source": "simulated", "wall_s": 0.5,
         "cycles": 200_000, "committed": 200_000,
         "backend": "functional"},
        {"workload": "lbm", "source": "store", "wall_s": 0.01,
         "cycles": 400_000, "committed": 400_000, "backend": "sampled"},
    ]
    backends = aggregate_records(records)["backends"]
    assert backends["detailed"]["sim_insts_per_sec"] == pytest.approx(
        50_000.0
    )
    assert backends["sampled"]["sim_insts_per_sec"] == pytest.approx(
        400_000.0
    )
    assert backends["functional"]["sim_insts_per_sec"] == (
        pytest.approx(400_000.0)
    )
    assert backends["sampled"]["runs"] == 2  # cache hits still count
    text = summarize_records(records)
    assert "backends:" in text
    assert "sampled" in text


def test_stats_json_matches_golden_file():
    import pathlib

    from repro.engine import summarize_records_json

    golden_path = (
        pathlib.Path(__file__).parent / "data" / "stats_golden.json"
    )
    golden = json.loads(golden_path.read_text())
    assert summarize_records_json(_GOLDEN_RECORDS) == golden


def test_summary_text_with_mixed_kind_records():
    text = summarize_records(_GOLDEN_RECORDS)
    assert "4 run(s)" in text  # span/counter lines don't count as runs
    assert "2 simulated" in text
    assert "120,000 insts in 3.00s wall (40,000 insts/s" in text
    assert "suites: 1 execution(s)" in text
    assert "obs: 1 span record(s), 1 counter record(s)" in text


def test_summary_of_obs_only_log():
    obs_only = [
        r for r in _GOLDEN_RECORDS
        if r.get("kind") in ("span", "counters")
    ]
    text = summarize_records(obs_only)
    assert "obs: 1 span record(s), 1 counter record(s)" in text
    assert "run(s) --" not in text


def test_cmd_stats_json_empty_log(tmp_path, capsys):
    code = main(
        [
            "--no-store",
            "--run-log", str(tmp_path / "missing.jsonl"),
            "stats", "--json",
        ]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["store"] is None
    assert doc["summary"]["runs"]["total"] == 0
    assert doc["summary"]["suites"]["executions"] == 0


def test_cmd_stats_json_without_log(capsys):
    assert main(["--no-store", "stats", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"store": None, "run_log": None, "summary": None}


# ----------------------------------------------------------------------
# One schema, one parser: every view reads the same records.
# ----------------------------------------------------------------------
_DATA = pathlib.Path(__file__).parent / "data"
#: Seven valid records (one an untagged run record an older version
#: wrote), a JSON array, a record of a kind this version does not know,
#: and a torn tail: a complete object whose newline is not written yet.
_MIXED_LOG = _DATA / "mixed_runlog.jsonl"


def test_every_record_the_code_writes_is_tea_runlog_v1(tmp_path):
    """A heartbeat suite (run, suite, heartbeat, resources), a trace
    capture (trace) and record_obs (span, counters) into one log: every
    line validates, and all seven kinds appear."""
    from repro.obs.counters import CounterRegistry

    store = RunStore(tmp_path / "store")
    path = tmp_path / "store" / DEFAULT_RUN_LOG_NAME
    log = RunLog(path)
    engine = Engine(store=store, run_log=log, jobs=2, heartbeat=0.1)
    engine.run_suite({"a": spec(), "b": spec("mcf")})
    Engine(store=store, run_log=log).trace(spec("xz"))
    registry = CounterRegistry()
    registry.inc("engine.simulations")
    log.record_obs(
        [
            {"name": "run:a", "ph": "X", "ts": 1, "dur": 2, "pid": 1,
             "tid": 1},
            {"name": "rates", "ph": "C", "ts": 1, "pid": 1, "tid": 0,
             "args": {"l1d": 0.9}},
        ],
        registry,
    )
    log.close()
    lines = path.read_text().splitlines()
    assert all(json.loads(line)["schema"] == RUNLOG_SCHEMA for line in lines)
    records = read_run_log(path)
    assert len(records) == len(lines)
    assert {record_kind(record) for record in records} == set(RECORD_KEYS)


def test_validator_rejects_what_is_not_a_record():
    run = {"kind": "run", "schema": RUNLOG_SCHEMA, "workload": "lbm",
           "source": "memo", "wall_s": 0.0, "cycles": 10}
    assert record_kind(run) == "run"
    legacy = {key: value for key, value in run.items()
              if key not in ("kind", "schema")}
    assert record_kind(legacy) == "run"
    assert record_kind([1, 2]) is None
    assert record_kind(run | {"schema": "tea-runlog-v9"}) is None
    assert record_kind(run | {"kind": "profile"}) is None
    assert record_kind(run | {"kind": ["run"]}) is None
    assert record_kind(run | {"cycles": None}) is None
    assert record_kind({"kind": "run", "workload": "lbm"}) is None


def test_parser_skips_invalid_lines_and_defers_a_torn_tail(tmp_path):
    path = tmp_path / "runs.jsonl"
    raw = _MIXED_LOG.read_bytes()
    path.write_bytes(raw)
    records, offset = tail_run_log(path)
    assert [record_kind(record) for record in records] == [
        "run", "run", "heartbeat", "heartbeat", "heartbeat",
        "resources", "suite",
    ]
    assert offset == raw.rindex(b"\n") + 1 < len(raw)
    assert tail_run_log(path, offset) == ([], offset)
    with open(path, "a") as handle:
        handle.write("\n")  # the torn tail's writer ends its line
    records, end = tail_run_log(path, offset)
    assert [record["label"] for record in records] == ["nab"]
    assert end == len(raw) + 1


def test_stats_monitor_and_health_read_the_same_records(capsys):
    """The legacy run counts; the array, the unknown kind and the torn
    tail count in no view."""
    slo = _DATA.parents[2] / "benchmarks" / "SLO_smoke.json"
    log = str(_MIXED_LOG)
    assert main(["--no-store", "--run-log", log, "stats"]) == 0
    assert "run log: 2 run(s) -- 2 simulated" in capsys.readouterr().out
    assert main(["--no-store", "--run-log", log, "stats", "--json"]) == 0
    stats = json.loads(capsys.readouterr().out)["summary"]
    assert stats["runs"]["total"] == 2
    assert stats["runs"]["sim_insts_per_sec"] == 40_000.0
    assert stats["live"]["heartbeats"] == 3
    assert main(["monitor", log, "--json"]) == 0
    monitor = json.loads(capsys.readouterr().out)
    assert list(monitor["labels"]) == ["lbm"]
    assert monitor["aggregate"]["beats"] == 3
    assert monitor["aggregate"]["stalls"] == stats["live"]["stall_flags"]
    assert main(["health", log, "--slo", str(slo), "--json"]) == 0
    metrics = json.loads(capsys.readouterr().out)["metrics"]
    assert metrics["sim_insts_per_sec"] == 40_000.0
    assert metrics["max_stall_s"] == stats["live"]["max_stall_s"] == 4.0
