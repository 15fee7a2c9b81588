"""One program build per workload per engine.

Specs that differ only in what the build does not read (samplers,
backend, config) share the engine's one built :class:`Workload`, on
every path that serves a run: an ``Engine.run`` miss or store hit, the
``run_suite`` store probe, and ``run_suite`` execution.
"""

import pytest

import repro.engine.engine as engine_mod
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
    assert len(builds) == 2
    assert_shared(served, fresh_errors)


def test_store_probe_builds_once(filled_store, builds, fresh_errors):
    engine = Engine(store=RunStore(filled_store.root))
    runs = engine.run_suite(SPECS)
    assert engine.simulations == 0
    assert engine.store.hits == 3
    assert len(builds) == 1
    assert_shared(runs, fresh_errors)


def test_suite_execution_builds_once(tmp_path, builds, fresh_errors):
    engine = Engine(store=RunStore(tmp_path))
    runs = engine.run_suite(SPECS, jobs=1)
    assert engine.simulations == 3
    assert len(builds) == 1
    assert_shared(runs, fresh_errors)


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
        spec("synth", {"seed": 0}, seed=7),
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
