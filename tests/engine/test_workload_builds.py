"""One program build per workload per engine, and none a serve does
not read.

Specs that differ only in what the build does not read (samplers,
backend, config) share the engine's one built :class:`Workload`, on
every path that serves a run: an ``Engine.run`` miss or store hit, the
``run_suite`` store probe, and ``run_suite`` execution. A run the
engine decodes from a store hit builds its workload on the first read
of ``run.workload``; a suite item run in process simulates on the
engine's workload, and a pooled one builds its own in the worker.
"""

import gc
import weakref

import pytest

import repro.engine.engine as engine_mod
import repro.engine.runs as runs_mod
from repro.engine import Engine, RunStore
from repro.engine.spec import RunSpec

from tests.engine.conftest import SMALL


def seeded(j: int) -> RunSpec:
    """Spec #j of three that differ only in their sampler seeds."""
    return RunSpec.make(
        "exchange2", **SMALL,
        seed=12345 + 100 * j, extra_seed=54321 + 100 * j,
    )


SPECS = {f"exchange2#{j}": seeded(j) for j in range(3)}


@pytest.fixture
def builds(monkeypatch):
    """The specs the engine builds a workload for, in call order."""
    calls = []
    build = engine_mod.build_workload

    def counting(spec):
        calls.append(spec)
        return build(spec)

    monkeypatch.setattr(engine_mod, "build_workload", counting)
    return calls


@pytest.fixture(scope="module")
def fresh_errors():
    """Each spec's TEA error from an engine of its own."""
    return {
        label: Engine().run(spec).error("TEA")
        for label, spec in SPECS.items()
    }


@pytest.fixture(scope="module")
def filled_store(tmp_path_factory):
    store = RunStore(tmp_path_factory.mktemp("store"))
    Engine(store=store).run_suite(SPECS)
    return store


def assert_shared(runs, fresh_errors):
    """One workload object behind every run; errors as if unshared."""
    assert len({id(run.workload) for run in runs.values()}) == 1
    for label, run in runs.items():
        assert run.error("TEA") == fresh_errors[label]


def assert_built_on_first_read(runs, builds, fresh_errors):
    """Decoded runs' TEA errors build nothing; the first read of a
    run's workload builds the one workload all of them share."""
    before = len(builds)
    for label, run in runs.items():
        assert run.error("TEA") == fresh_errors[label]
    assert len(builds) == before
    next(iter(runs.values())).workload
    assert len(builds) == before + 1
    assert_shared(runs, fresh_errors)
    assert len(builds) == before + 1


def test_engine_run_builds_once_on_misses_and_hits(
    tmp_path, builds, fresh_errors
):
    engine = Engine(store=RunStore(tmp_path))
    simulated = {label: engine.run(spec) for label, spec in SPECS.items()}
    assert engine.simulations == 3
    assert len(builds) == 1
    assert_shared(simulated, fresh_errors)

    reader = Engine(store=RunStore(tmp_path))
    served = {label: reader.run(spec) for label, spec in SPECS.items()}
    assert reader.simulations == 0
    assert reader.store.hits == 3
    assert len(builds) == 1
    assert_built_on_first_read(served, builds, fresh_errors)


def test_store_probe_builds_once(filled_store, builds, fresh_errors):
    engine = Engine(store=RunStore(filled_store.root))
    runs = engine.run_suite(SPECS)
    assert engine.simulations == 0
    assert engine.store.hits == 3
    assert builds == []
    assert_built_on_first_read(runs, builds, fresh_errors)


def test_suite_execution_builds_once(tmp_path, builds, fresh_errors):
    engine = Engine(store=RunStore(tmp_path))
    runs = engine.run_suite(SPECS)
    assert engine.simulations == 3
    # The in-process worker simulated on the engine's build, which the
    # runs' readers then share.
    assert len(builds) == 1
    assert_shared(runs, fresh_errors)
    assert len(builds) == 1


@pytest.fixture
def programs(monkeypatch):
    """The workload names whose programs are built in this process."""
    calls = []
    build = runs_mod.build

    def counting(name, *args, **kwargs):
        calls.append(name)
        return build(name, *args, **kwargs)

    monkeypatch.setattr(runs_mod, "build", counting)
    return calls


@pytest.mark.parametrize("jobs", [1, 2])
def test_suite_builds_each_distinct_program_once(programs, jobs):
    """mcf three times (one machine run) plus lbm: in process the suite
    builds the two programs its readers read; a pool builds them in its
    workers and ships none, and the readers build them once each."""
    specs = {
        **{f"mcf#{j}": RunSpec.make(
            "mcf", **SMALL, seed=12345 + 100 * j, extra_seed=54321 + 100 * j,
        ) for j in range(3)},
        "lbm": RunSpec.make("lbm", **SMALL),
    }
    runs = Engine(jobs=jobs).run_suite(specs)
    assert sorted(programs) == (["lbm", "mcf"] if jobs == 1 else [])
    for run in runs.values():
        run.workload
    assert sorted(programs) == ["lbm", "mcf"]


def test_served_runs_need_no_cyclic_collector(filled_store):
    """A served run holds no reference back to its engine, whether its
    workload and program were read or not, so it dies with the last
    reference to it even while the cyclic collector is off."""
    gc.collect()
    gc.disable()
    try:
        engine = Engine(store=RunStore(filled_store.root))
        runs = engine.run_suite(SPECS)
        unread, workload_read, both_read = runs.values()
        for run in runs.values():
            run.error("TEA")
        workload_read.workload
        assert both_read.result.program is both_read.workload.program
        alive = [weakref.ref(run) for run in runs.values()]
        del engine, runs, run, unread, workload_read, both_read
        assert [ref() for ref in alive] == [None, None, None]
    finally:
        gc.enable()


def test_scale_and_builder_kwargs_key_the_build(builds):
    """Only the workload name, its kwargs and the scale decide whether
    a spec reuses a build; samplers and backend do not."""

    def spec(workload, kwargs=None, **options):
        options = {**SMALL, "backend": "functional", **options}
        return RunSpec.make(workload, kwargs, **options)

    engine = Engine()
    specs = [
        spec("exchange2"),
        spec("exchange2", backend="detailed", period=97, seed=1),
        spec("exchange2", scale=0.06),
        spec("synth", {"seed": 0}),
        spec("synth", {"seed": 0}, backend="detailed", seed=7),
        spec("synth", {"seed": 1}),
    ]
    runs = [engine.run(s) for s in specs]
    assert engine.simulations == 6
    assert [(s.workload, s.scale, s.workload_kwargs) for s in builds] == [
        ("exchange2", 0.05, {}),
        ("exchange2", 0.06, {}),
        ("synth", 0.05, {"seed": 0}),
        ("synth", 0.05, {"seed": 1}),
    ]
    assert runs[1].workload is runs[0].workload
    assert runs[2].workload is not runs[0].workload
    assert runs[4].workload is runs[3].workload
    assert runs[5].workload is not runs[3].workload
