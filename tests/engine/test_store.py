"""On-disk run store: round trips, invalidation, and counters."""

import io
import json

import pytest

from repro.backends.base import BACKEND_NAMES
from repro.core.result import CoreResult
from repro.engine import Engine, RunStore
from repro.engine.runs import PAYLOAD_SCHEMA
from repro.engine.spec import RunSpec

from tests.engine.conftest import SMALL


def small_spec(**kwargs) -> RunSpec:
    return RunSpec.make("exchange2", **SMALL, **kwargs)


@pytest.fixture(scope="module")
def warm_stores(tmp_path_factory):
    """``warm_stores(backend)``: a store holding one simulated run on
    that tier, plus the run that filled it (built on first use)."""
    filled = {}

    def fill(backend: str = "detailed"):
        if backend not in filled:
            store = RunStore(tmp_path_factory.mktemp(f"store-{backend}"))
            engine = Engine(store=store)
            run = engine.run(small_spec(backend=backend))
            assert engine.simulations == 1
            filled[backend] = store, run
        return filled[backend]

    return fill


@pytest.fixture(scope="module")
def warm_store(warm_stores):
    """The detailed tier's store and run."""
    return warm_stores("detailed")


@pytest.mark.parametrize("backend", BACKEND_NAMES)
def test_round_trip_is_bit_identical(warm_stores, backend):
    """simulate -> persist -> load reproduces profiles and errors
    exactly (float summation order included), not just approximately,
    and every tier comes back as the one result type."""
    store, fresh = warm_stores(backend)
    engine = Engine(store=RunStore(store.root))
    loaded = engine.run(small_spec(backend=backend))
    assert engine.simulations == 0

    assert type(loaded.result) is CoreResult
    assert isinstance(fresh.result, CoreResult)
    assert loaded.result.cycles == fresh.result.cycles
    assert loaded.result.committed == fresh.result.committed
    assert loaded.result.golden_raw == fresh.result.golden_raw
    assert list(loaded.result.golden_raw) == list(fresh.result.golden_raw)
    assert loaded.golden.stacks == fresh.golden.stacks
    assert loaded.result.state_cycles == fresh.result.state_cycles
    assert loaded.result.stall_histogram == fresh.result.stall_histogram
    assert loaded.result.flushes == fresh.result.flushes

    assert set(loaded.samplers) == set(fresh.samplers)
    for key, sampler in fresh.samplers.items():
        mirror = loaded.samplers[key]
        assert mirror.raw == sampler.raw
        assert list(mirror.raw) == list(sampler.raw)
        assert mirror.events == sampler.events
        assert mirror.samples_taken == sampler.samples_taken
        assert mirror.profile().stacks == sampler.profile().stacks
    # The run's own samplers: the functional tier has none.
    for technique in fresh.samplers:
        assert loaded.error(technique) == fresh.error(technique)


def test_loaded_run_omits_live_substrates(warm_stores):
    for backend in BACKEND_NAMES:
        store, _ = warm_stores(backend)
        engine = Engine(store=RunStore(store.root))
        loaded = engine.run(small_spec(backend=backend))
        assert loaded.result.hierarchy is None
        assert loaded.result.predictor is None
        assert loaded.result.arch_state is None


def test_hit_and_miss_counters(warm_store):
    store, _ = warm_store
    probe = RunStore(store.root)
    assert probe.load(small_spec()) is not None
    assert probe.load(small_spec(seed=999)) is None
    assert (probe.hits, probe.misses) == (1, 1)


def test_corrupt_file_is_a_miss(tmp_path, warm_store):
    store, run = warm_store
    spec = small_spec()
    copy = RunStore(tmp_path / "corrupt")
    path = copy.path_for(spec)
    path.parent.mkdir(parents=True)
    path.write_text("{not json")
    assert copy.load(spec) is None
    assert copy.misses == 1


@pytest.mark.parametrize(
    "field,value",
    [
        ("schema", "tea-run-v0"),
        ("model_version", -1),
        ("spec_key", "0" * 64),
    ],
)
def test_stale_payload_is_a_miss(tmp_path, warm_store, field, value):
    """Schema / model-version / key mismatches invalidate silently."""
    store, _ = warm_store
    spec = small_spec()
    payload = json.loads(store.path_for(spec).read_text())
    assert payload["schema"] == PAYLOAD_SCHEMA
    payload[field] = value
    copy = RunStore(tmp_path / "stale")
    copy.save(spec, payload)
    assert copy.load(spec) is None
    assert (copy.hits, copy.misses) == (0, 1)


def test_saved_text_is_the_compact_encoding(tmp_path, warm_store):
    """``save`` writes ``json.dumps``'s compact text, which is also what
    ``json.dump`` (the pure-Python encoder) writes for the payload."""
    store, _ = warm_store
    spec = small_spec()
    payload = json.loads(store.path_for(spec).read_text())
    copy = RunStore(tmp_path / "text")
    text = copy.save(spec, payload).read_text()
    assert text == json.dumps(payload, separators=(",", ":"))
    streamed = io.StringIO()
    json.dump(payload, streamed, separators=(",", ":"))
    assert text == streamed.getvalue()


def test_store_inventory_and_clear(tmp_path, warm_store):
    store, _ = warm_store
    spec = small_spec()
    copy = RunStore(tmp_path / "inv")
    assert len(copy) == 0
    assert copy.size_bytes() == 0
    copy.save(spec, json.loads(store.path_for(spec).read_text()))
    assert list(copy.keys()) == [spec.key]
    assert len(copy) == 1
    assert copy.size_bytes() > 0
    assert copy.path_for(spec).parent.name == spec.key[:2]
    copy.clear()
    assert len(copy) == 0


def test_default_root_honours_env(monkeypatch, tmp_path):
    from repro.engine import default_store_root

    monkeypatch.setenv("TEA_REPRO_STORE", str(tmp_path / "envstore"))
    assert default_store_root() == tmp_path / "envstore"
