"""Query engine: attribution parity, canned queries, cross-run diffs.

The load-bearing invariant is that :meth:`TraceQuery.attribute` with
no filters reproduces the golden attribution *bit for bit* -- same
keys, same float sums, same insertion order -- so every grouped or
windowed query is a restriction of the paper's policy, not a parallel
implementation that can drift.
"""

import gzip
import json
from pathlib import Path

import pytest

from repro.core.events import Event
from repro.core.states import CommitState
from repro.engine.engine import Engine
from repro.engine.runs import build_workload, simulate_spec
from repro.engine.spec import RunSpec
from repro.engine.store import RunStore
from repro.memory.hierarchy import MemoryConfig
from repro.trace.cycletrace import replay_golden
from repro.trace.query import (
    TraceQuery,
    diff_attribution,
    flush_cause,
    group_attribution,
    parse_states,
    top_k,
)
from repro.trace.store import TraceStore
from repro.uarch.config import CoreConfig

DATA = Path(__file__).parent / "data"


def capture(spec):
    """One traced simulation of *spec*: the run and its trace."""
    store = TraceStore()
    return simulate_spec(spec, trace=store), store


def make_query(name, scale=0.05, config=None):
    spec = RunSpec.make(name, scale=scale, config=config)
    run, store = capture(spec)
    return run, TraceQuery(store, run.workload.program)


@pytest.fixture(scope="module")
def x264():
    return make_query("x264")


# -- attribution parity -------------------------------------------------


@pytest.mark.parametrize("name", ["mcf", "x264", "gcc"])
def test_attribute_bit_identical_to_replay(name):
    run, query = make_query(name)
    attributed = query.attribute()
    replayed = replay_golden(query.store.cycle_records())
    assert attributed == replayed == run.result.golden_raw
    # Same insertion order too: the query is the same visit sequence.
    assert list(attributed.items()) == list(replayed.items())


def test_state_filters_partition_total(x264):
    run, query = x264
    per_state = {
        state: query.attribute(states=(state,))
        for state in CommitState
    }
    total = query.attribute()
    assert sum(total.values()) == pytest.approx(run.result.cycles)
    for key, cycles in total.items():
        split = sum(
            raw.get(key, 0.0) for raw in per_state.values()
        )
        assert split == pytest.approx(cycles)
    state_cycles = query.state_cycles()
    for state, raw in per_state.items():
        assert sum(raw.values()) == pytest.approx(state_cycles[state])


def test_windows_partition_each_state(x264):
    _run, query = x264
    window_cycles = 500
    total = query.total_cycles()
    windows = range((total + window_cycles - 1) // window_cycles)
    for state in (CommitState.STALLED, CommitState.DRAINED):
        whole = query.attribute(states=(state,))
        merged = {}
        for w in windows:
            part = query.attribute(
                states=(state,),
                cycle_range=query.window_range(w, window_cycles),
            )
            for key, cycles in part.items():
                merged[key] = merged.get(key, 0.0) + cycles
        assert set(merged) <= set(whole) | set(merged)
        for key in set(whole) | set(merged):
            assert merged.get(key, 0.0) == pytest.approx(
                whole.get(key, 0.0), abs=1e-9
            )


def test_window_range_requires_length(x264):
    _run, query = x264
    assert query.window_range(None, None) is None
    assert query.window_range(2, 100) == (200, 300)
    with pytest.raises(ValueError, match="window-cycles"):
        query.window_range(2, None)


# -- helpers ------------------------------------------------------------


def test_parse_states():
    assert parse_states("total") is None
    assert parse_states("stalled") == (CommitState.STALLED,)
    with pytest.raises(ValueError, match="unknown state"):
        parse_states("bogus")


def test_flush_cause_priority():
    assert flush_cause(1 << Event.FL_MB) == "FL-MB"
    assert flush_cause(1 << Event.FL_EX) == "FL-EX"
    assert flush_cause(1 << Event.FL_MO) == "FL-MO"
    # Multiple FL bits: paper order wins (FL-MB first).
    assert flush_cause((1 << Event.FL_MB) | (1 << Event.FL_EX)) == "FL-MB"
    assert flush_cause(0) == "other"


def test_group_attribution_validation(x264):
    _run, query = x264
    raw = query.attribute()
    with pytest.raises(ValueError, match="unknown group-by"):
        group_attribution(raw, "loop")
    with pytest.raises(ValueError, match="needs the program"):
        group_attribution(raw, "bb", program=None)


def test_group_totals_consistent(x264):
    run, query = x264
    raw = query.attribute()
    program = run.workload.program
    for by in ("instruction", "bb", "function"):
        grouped = group_attribution(raw, by, program)
        assert sum(grouped.values()) == pytest.approx(
            sum(raw.values())
        )
    bbs = group_attribution(raw, "bb", program)
    assert all(program.bb_of(k) == k for k in bbs)


def test_top_k_deterministic_ties():
    grouped = {"b": 2.0, "a": 2.0, "c": 5.0, "d": 1.0}
    assert top_k(grouped, 3) == [("c", 5.0), ("a", 2.0), ("b", 2.0)]


# -- canned queries -----------------------------------------------------


def test_flush_histogram_partitions_flushed(x264):
    _run, query = x264
    hist = query.flush_histogram(per="bb")
    assert hist  # x264 mispredicts: nonzero flush buckets
    flushed = query.state_cycles()[CommitState.FLUSHED]
    assert sum(hist.values()) == flushed
    causes = {cause for _group, cause in hist}
    assert causes <= {"FL-MB", "FL-EX", "FL-MO", "other", "startup"}
    with pytest.raises(ValueError, match="unknown group-by"):
        query.flush_histogram(per="loop")
    with pytest.raises(ValueError, match="needs the program"):
        TraceQuery(query.store).flush_histogram(per="bb")


def test_labels(x264):
    run, query = x264
    assert query.label(None, "bb") == "(startup)"
    assert query.label("refine", "function") == "refine"
    assert query.label(0, "instruction").startswith("#0 ")
    assert query.label(10**6, "instruction") == f"#{10**6}"
    assert query.label(0, "bb").startswith("bb@0 ")
    bare = TraceQuery(query.store)
    assert bare.label(3, "instruction") == "#3"


# -- capture plumbing ---------------------------------------------------


def test_capture_rejects_non_detailed_backend(tmp_path):
    run_store = RunStore(tmp_path)
    for backend in ("functional", "sampled"):
        spec = RunSpec.make("mcf", scale=0.05, backend=backend)
        with pytest.raises(ValueError, match="detailed backend"):
            simulate_spec(spec, trace=TraceStore())
        with pytest.raises(ValueError, match="detailed backend"):
            Engine(store=run_store).trace(spec)
        assert not run_store.path_for(spec).exists()
        assert not run_store.trace_path_for(spec).exists()


def test_capture_only_observes():
    """Attaching the trace hooks must not perturb the simulation."""
    spec = RunSpec.make("mcf", scale=0.05)
    plain = simulate_spec(spec)
    traced, store = capture(spec)
    assert traced.result.cycles == plain.result.cycles
    assert traced.result.golden_raw == plain.result.golden_raw
    for key, sampler in plain.samplers.items():
        assert traced.samplers[key].raw == sampler.raw
        assert store.raw_profile(key) == sampler.raw
    assert store.meta["workload"] == "mcf"
    assert store.meta["cycles"] == plain.result.cycles


def test_engine_trace_capture_then_sidecar_hit(tmp_path):
    spec = RunSpec.make("mcf", scale=0.05)
    run_store = RunStore(tmp_path)
    first = Engine(store=run_store).trace(spec)
    assert run_store.trace_path_for(spec).is_file()
    # The run payload rode along with the sidecar.
    assert run_store.load(spec) is not None
    engine = Engine(store=run_store)
    second = engine.trace(spec)
    assert engine.simulations == 0
    try:
        assert second._mmap is not None  # sidecar hit, zero-copy
        assert second.cycle_records() == first.cycle_records()
        q1 = TraceQuery(first)
        q2 = TraceQuery(second)
        assert q2.attribute() == q1.attribute()
    finally:
        second.close()


def test_engine_trace_stale_sidecar_recaptures(tmp_path):
    spec = RunSpec.make("mcf", scale=0.05)
    run_store = RunStore(tmp_path)
    engine = Engine(store=run_store)
    engine.trace(spec)
    # Corrupt the sidecar's identity: a schema/spec mismatch must be
    # treated as a miss, never served.
    path = run_store.trace_path_for(spec)
    stale = TraceStore.from_bytes(path.read_bytes())
    stale.meta["spec_key"] = "0" * 64
    stale.save(path)
    misses_before = run_store.misses
    again = engine.trace(spec)
    assert run_store.misses == misses_before + 1
    assert again._mmap is None  # recaptured in memory
    # And the rewritten sidecar is valid again.
    assert run_store.load_trace(spec) is not None


def test_engine_trace_is_an_engine_run(tmp_path):
    """A capture is simulated, stored, memoised and logged like any
    run: the run that follows it is a memo hit."""
    from repro.engine.telemetry import RunLog, read_run_log

    spec = RunSpec.make("mcf", scale=0.05)
    log_path = tmp_path / "runs.jsonl"
    engine = Engine(store=RunStore(tmp_path), run_log=RunLog(log_path))
    store = engine.trace(spec)
    run = engine.run(spec)
    engine.run_log.close()
    assert engine.simulations == 1
    assert store.meta["cycles"] == run.result.cycles
    records = read_run_log(log_path)
    assert [r["source"] for r in records if r["kind"] == "run"] == [
        "simulated", "memo",
    ]
    assert [r["cached"] for r in records if r["kind"] == "trace"] == [
        False,
    ]


# -- cross-run diff -----------------------------------------------------


def test_diff_of_identical_runs_is_flat(x264):
    _run, query = x264
    report = diff_attribution(query, query)
    assert report.by == "instruction"
    assert not report.flagged
    assert all(row.delta_share == 0.0 for row in report.rows)


def test_diff_flags_injected_regression(x264):
    """A DRAM latency cliff injected into the after-run must surface
    as a flagged share regression at the default threshold."""
    _run, base = x264
    slow_config = CoreConfig(memory=MemoryConfig(dram_latency=500))
    _slow_run, slow = make_query("x264", config=slow_config)
    report = diff_attribution(base, slow, threshold=0.02)
    assert report.by == "instruction"  # same program shape
    assert report.after_total > report.before_total
    assert report.flagged
    worst = report.rows[0]
    assert worst.regression
    assert worst.delta_share > 0.2
    doc = report.to_json()
    assert doc["flagged"] is True
    assert doc["rows"][0]["delta_share"] == round(
        worst.delta_share, 6
    )
    # In the reverse direction the same instruction is an improvement
    # (shares renormalise, so *other* rows may still grow).
    relief = diff_attribution(slow, base, threshold=0.02)
    mirrored = next(r for r in relief.rows if r.key == worst.key)
    assert mirrored.delta_share == pytest.approx(-worst.delta_share)
    assert not mirrored.regression


def test_diff_falls_back_to_function_grouping():
    """Different program shapes cannot diff by instruction index."""
    _run_a, before = make_query("lbm")
    spec = RunSpec.make("lbm", {"prefetch_distance": 4}, scale=0.05)
    run_b, store_b = capture(spec)
    after = TraceQuery(store_b, run_b.workload.program)
    assert len(before.program) != len(after.program)
    report = diff_attribution(before, after)
    assert report.by == "function"
    assert all(isinstance(row.key, str) for row in report.rows)


# -- committed golden fixture ------------------------------------------


class TestGoldenFixture:
    """Queries over the committed trace must match the committed
    answers (regenerate both with ``tests/trace/make_golden.py``).

    The committed trace also carries a ``spans`` table that today's
    store no longer has, so loading it checks that sidecars written
    before that table was dropped still load."""

    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads((DATA / "query_golden.json").read_text())

    @staticmethod
    def load_store(golden) -> TraceStore:
        name = f"{golden['workload']}_x{golden['scale']}.teacol.gz"
        return TraceStore.from_bytes(
            gzip.decompress((DATA / name).read_bytes())
        )

    @pytest.fixture(scope="class")
    def query(self, golden):
        spec = RunSpec.make(golden["workload"], scale=golden["scale"])
        assert spec.key == golden["spec_key"]
        program = build_workload(spec).program
        return TraceQuery(self.load_store(golden), program)

    def test_summary(self, query, golden):
        assert query.total_cycles() == golden["total_cycles"]
        assert {
            state.name.lower(): cycles
            for state, cycles in query.state_cycles().items()
        } == golden["state_cycles"]
        assert query.store.row_counts() == golden["row_counts"]
        assert query.store.sampler_names() == golden["sampler_names"]

    def test_top_k(self, query, golden):
        top = query.top(k=5, by="instruction")
        assert [
            [key, round(value, 6)] for key, value in top
        ] == golden["top_total_instruction"]
        stalled = query.top(
            k=3, states=(CommitState.STALLED,), by="function"
        )
        assert [
            [key, round(value, 6)] for key, value in stalled
        ] == golden["top_stalled_function"]

    def test_flush_histogram(self, query, golden):
        hist = sorted(
            [group, cause, count]
            for (group, cause), count in query.flush_histogram(
                per="bb"
            ).items()
        )
        assert hist == golden["flush_hist_bb"]

    def test_sample_filter(self, query, golden):
        weight = sum(query.store.raw_profile("TEA").values())
        assert round(weight, 6) == golden["tea_sample_weight"]

    def test_absent_sampler_read_leaves_store_unchanged(self, golden):
        store = self.load_store(golden)
        strings, saved = len(store.strings), store.to_bytes()
        assert store.raw_profile("NOPE") == {}
        assert len(store.strings) == strings
        assert store.to_bytes() == saved

    def test_live_capture_matches_fixture(self, query, golden):
        """The committed trace is what today's simulator produces."""
        spec = RunSpec.make(golden["workload"], scale=golden["scale"])
        _run, live = capture(spec)
        assert live.cycle_records() == query.store.cycle_records()
