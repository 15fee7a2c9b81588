"""On-disk run store: round trips, invalidation, and counters."""

import io
import json

import pytest

from repro.backends.base import BACKEND_NAMES
from repro.core.error import pics_error
from repro.core.pics import PicsProfile
from repro.core.result import CoreResult
from repro.engine import Engine, RunStore
from repro.engine.runs import PAYLOAD_SCHEMA, run_from_payload, run_to_payload
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
        ("schema", "tea-run-v1"),
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


def test_payload_tables_are_columns(warm_store):
    """Each per-entry table is stored as parallel columns in
    accumulator order, with PSVs stored as integers."""
    store, fresh = warm_store
    payload = json.loads(store.path_for(small_spec()).read_text())
    raw = fresh.result.golden_raw
    assert payload["golden_raw"] == [
        [index for index, _ in raw],
        [psv for _, psv in raw],
        list(raw.values()),
    ]
    for entry in payload["samplers"]:
        indices, psvs, cycles = entry["raw"]
        assert len(indices) == len(psvs) == len(cycles)
        assert all(type(psv) is int for psv in psvs)
    keys, counts = payload["exec_counts"]
    assert dict(zip(keys, counts)) == fresh.result.exec_counts


def _drop_samplers(payload):
    del payload["samplers"]


def _shorten_golden_column(payload):
    payload["golden_raw"][2].pop()


def _repeat_golden_key(payload):
    for column in payload["golden_raw"]:
        column.append(column[0])


@pytest.mark.parametrize(
    "corrupt", [_drop_samplers, _shorten_golden_column, _repeat_golden_key],
    ids=["dropped-key", "short-column", "repeated-key"],
)
@pytest.mark.parametrize("serve", ["run", "run_suite"])
def test_undecodable_payload_is_a_miss(tmp_path, warm_store, corrupt, serve):
    """A payload with a valid header that does not decode is re-simulated
    and overwritten, not served (nor a crash, nor a truncated profile)."""
    store, fresh = warm_store
    spec = small_spec()
    payload = json.loads(store.path_for(spec).read_text())
    corrupt(payload)
    copy = RunStore(tmp_path / "bad")
    copy.save(spec, payload)
    engine = Engine(store=copy)
    if serve == "run":
        run = engine.run(spec)
    else:
        run = engine.run_suite({"only": spec})["only"]
    assert engine.simulations == 1
    assert (copy.hits, copy.misses) == (0, 1)
    assert run.result.cycles == fresh.result.cycles
    assert list(run.result.golden_raw.items()) == list(
        fresh.result.golden_raw.items()
    )
    assert run.samplers.keys() == fresh.samplers.keys()
    for key, sampler in fresh.samplers.items():
        assert run.samplers[key].raw == sampler.raw
        assert run.error(key) == fresh.error(key)
    # The save overwrote the bad file: it is served now.
    again = Engine(store=RunStore(copy.root))
    assert again.run(spec).result.golden_raw == fresh.result.golden_raw
    assert again.simulations == 0


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


def test_failed_writes_leave_no_file(tmp_path, warm_store, monkeypatch):
    """A payload or sidecar write that fails removes its temp file and
    leaves no file under the key."""
    from repro.trace.store import TraceStore

    store, _ = warm_store
    spec = small_spec()
    payload = json.loads(store.path_for(spec).read_text())
    copy = RunStore(tmp_path / "failing")

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr("repro.engine.store.os.replace", fail)
    with pytest.raises(OSError, match="disk full"):
        copy.save(spec, payload)
    with pytest.raises(OSError, match="disk full"):
        copy.save_trace(spec, TraceStore())
    assert list(copy.runs_dir.rglob("*")) == [copy.path_for(spec).parent]
    monkeypatch.undo()
    copy.save(spec, payload)
    copy.save_trace(spec, TraceStore())
    assert copy.load(spec) == payload
    copy.load_trace(spec).close()


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


def test_run_builds_its_golden_profile_once(warm_store, monkeypatch):
    """Every technique's error reads one golden profile, built on the
    first access, and the errors equal the ones from a fresh build."""
    _, fresh = warm_store
    spec = small_spec()
    run = run_from_payload(run_to_payload(spec, fresh), fresh.workload)
    expected = {
        key: pics_error(
            sampler.profile(), run.result.golden_profile(), sampler.mask
        )
        for key, sampler in run.samplers.items()
    }
    built = []
    from_raw = PicsProfile.from_raw.__func__

    def counting(cls, name, raw):
        built.append(name)
        return from_raw(cls, name, raw)

    monkeypatch.setattr(PicsProfile, "from_raw", classmethod(counting))
    errors = {key: run.error(key) for key in run.samplers}
    assert len(errors) > 1
    assert built.count("golden") == 1
    assert errors == expected
