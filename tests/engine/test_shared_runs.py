"""One simulation per machine run: specs that differ only in their
sampler plans share one core run, in :func:`simulate_specs` and in
``Engine.run_suite``."""

import functools
import json

import pytest

from repro.engine import (
    Engine,
    RunLog,
    RunSpec,
    RunStore,
    read_run_log,
    simulate_to_payload,
)
from repro.engine.executor import STATUS_FAILED
from repro.engine.faults import FaultyWorker
from repro.engine.runs import run_to_payload, simulate_spec, simulate_specs
from repro.trace.store import TraceStore
from repro.uarch.config import CoreConfig

SCALE = 0.05


def seed_sets(n=3):
    """*n* specs of lbm with disjoint sampler seeds."""
    return [
        RunSpec.make(
            "lbm", scale=SCALE, extra_periods=(97,),
            seed=12345 + 100 * j, extra_seed=54321 + 100 * j,
        )
        for j in range(n)
    ]


def _strip(payload):
    return {k: v for k, v in payload.items() if k != "wall_s"}


def _assert_shared_equals_separate(specs):
    shared = simulate_specs(specs)
    assert len(shared) == len(specs)
    for spec, run in zip(specs, shared):
        alone = simulate_spec(spec)
        assert list(run.samplers) == list(alone.samplers)
        assert run.result.samplers == list(run.samplers.values())
        assert alone.result.samplers == list(alone.samplers.values())
        assert _strip(run_to_payload(spec, run)) == _strip(
            run_to_payload(spec, alone)
        )


def test_seed_set_group_matches_separate_runs_on_the_detailed_tier():
    _assert_shared_equals_separate(seed_sets())


def test_mixed_plan_group_matches_separate_runs_on_the_sampled_tier():
    _assert_shared_equals_separate([
        RunSpec.make("xz", scale=SCALE, backend="sampled"),
        RunSpec.make("xz", scale=SCALE, backend="sampled",
                     seed=999, extra_seed=7),
        RunSpec.make("xz", scale=SCALE, backend="sampled",
                     extra_periods=(97,)),
        RunSpec.make("xz", scale=SCALE, backend="sampled",
                     techniques=("TIP", "TEA-dispatch")),
    ])


@pytest.mark.parametrize("other", [
    RunSpec.make("lbm", scale=0.1),
    RunSpec.make("lbm", scale=SCALE, config=CoreConfig()),
    RunSpec.make("lbm", scale=SCALE, backend="sampled"),
    RunSpec.make("lbm", scale=SCALE, backend="functional"),
    RunSpec.make("lbm", {"prefetch_distance": 4}, scale=SCALE),
], ids=["scale", "config", "sampled", "functional", "kwargs"])
def test_specs_of_different_machine_runs_are_rejected(other):
    with pytest.raises(ValueError, match="differ only in"):
        simulate_specs([RunSpec.make("lbm", scale=SCALE), other])


def test_a_trace_records_one_spec():
    with pytest.raises(ValueError, match="one spec"):
        simulate_specs(seed_sets(n=2), trace=TraceStore())


def _counting_worker(calls_path, item):
    """Picklable worker: note the item's label, then simulate it."""
    with open(calls_path, "a") as f:
        f.write(item[0] + "\n")
    return simulate_to_payload(item)


@pytest.mark.parametrize("jobs", [1, 2])
def test_run_suite_simulates_once_per_machine_run(tmp_path, jobs):
    """Three seed sets of one kernel and one spec of another: two
    worker calls, and every label stored, logged and reported."""
    specs = {f"lbm#{j}": s for j, s in enumerate(seed_sets())}
    specs["xz"] = RunSpec.make("xz", scale=SCALE)
    calls = tmp_path / "calls"
    store = RunStore(tmp_path / "store")
    with RunLog(tmp_path / "runs.jsonl") as log:
        engine = Engine(
            store=store, run_log=log, jobs=jobs,
            worker_fn=functools.partial(_counting_worker, str(calls)),
        )
        runs = engine.run_suite(specs)
    assert sorted(calls.read_text().split()) == ["lbm#0", "xz"]
    assert list(runs) == list(specs)
    assert all(store.contains(spec) for spec in specs.values())
    assert engine.simulations == 4
    report = engine.last_suite_report
    assert sorted(report.outcomes) == sorted(specs)
    assert report.simulations == 2
    records = read_run_log(tmp_path / "runs.jsonl")
    simulated = [r for r in records if r.get("source") == "simulated"]
    assert sorted(r["spec_key"] for r in simulated) == sorted(
        spec.key for spec in specs.values()
    )
    [suite] = [r for r in records if r["kind"] == "suite"]
    assert (suite["labels"], suite["simulations"]) == (4, 2)
    # The item's time is split evenly over its members.
    lbm = [report.outcomes[f"lbm#{j}"].wall_s for j in range(3)]
    assert lbm[0] == lbm[1] == lbm[2] > 0
    for label, spec in specs.items():
        stored = json.loads(json.dumps(store.load(spec)))
        alone = json.loads(json.dumps(run_to_payload(spec, simulate_spec(spec))))
        stored.pop("code")
        assert _strip(stored) == _strip(alone), label


def test_a_failing_group_fails_every_member(tmp_path):
    specs = {f"lbm#{j}": s for j, s in enumerate(seed_sets())}
    specs["xz"] = RunSpec.make("xz", scale=SCALE)
    worker = FaultyWorker(
        tmp_path / "faults", {"lbm#0": ("raise", "raise")},
        fn=simulate_to_payload,
    )
    store = RunStore(tmp_path / "store")
    engine = Engine(store=store, retries=1, keep_going=True,
                    worker_fn=worker)
    runs = engine.run_suite(specs)
    assert list(runs) == ["xz"]
    report = engine.last_suite_report
    assert report.ok_labels == ["xz"]
    failed = [report.outcomes[f"lbm#{j}"] for j in range(3)]
    assert {out.status for out in failed} == {STATUS_FAILED}
    assert {out.attempts for out in failed} == {2}
    assert len({out.cause for out in failed}) == 1
    assert "InjectedFault" in failed[0].cause
    assert sorted(report.failed_labels) == ["lbm#0", "lbm#1", "lbm#2"]
    assert not any(store.contains(specs[f"lbm#{j}"]) for j in range(3))
    assert store.contains(specs["xz"])
