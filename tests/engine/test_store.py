"""On-disk run store: round trips, invalidation, and counters."""

import json

import pytest

from repro.backends.base import BACKEND_NAMES
from repro.core.error import correctly_attributed, pics_error
from repro.core.events import FULL_MASK
from repro.core.pics import PicsProfile
from repro.core.result import CoreResult
from repro.engine import Engine, RunStore
from repro.engine.runs import PAYLOAD_SCHEMA, run_from_payload, run_to_payload
from repro.engine.spec import RunSpec
from repro.engine.store import decode_payload, encode_payload

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
        ("code", "0" * 64),
        ("spec_key", "0" * 64),
    ],
)
def test_stale_payload_is_a_miss(tmp_path, warm_store, field, value):
    """Schema / code / key mismatches invalidate silently."""
    store, _ = warm_store
    spec = small_spec()
    payload = decode_payload(store.path_for(spec).read_bytes())
    assert payload["schema"] == PAYLOAD_SCHEMA
    payload[field] = value
    copy = RunStore(tmp_path / "stale")
    # Written directly: save() would stamp the current code.
    path = copy.path_for(spec)
    path.parent.mkdir(parents=True)
    path.write_bytes(encode_payload(payload))
    assert copy.load(spec) is None
    assert (copy.hits, copy.misses) == (0, 1)


def test_payload_tables_are_columns(warm_store):
    """Each per-entry table is stored as parallel columns in
    accumulator order, with PSVs stored as integers."""
    store, fresh = warm_store
    payload = decode_payload(store.path_for(small_spec()).read_bytes())
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


def _shorten_sampler_column(payload):
    payload["samplers"][0]["raw"][2].pop()


def _repeat_sampler_key(payload):
    for column in payload["samplers"][0]["raw"]:
        column.append(column[0])


@pytest.mark.parametrize(
    "corrupt",
    [_drop_samplers, _shorten_golden_column, _repeat_golden_key,
     _shorten_sampler_column, _repeat_sampler_key],
    ids=["dropped-key", "short-column", "repeated-key",
         "short-sampler-column", "repeated-sampler-key"],
)
@pytest.mark.parametrize("serve", ["run", "run_suite"])
def test_undecodable_payload_is_a_miss(tmp_path, warm_store, corrupt, serve):
    """A payload with a valid header that does not decode is re-simulated
    and overwritten, not served (nor a crash, nor a truncated profile)."""
    store, fresh = warm_store
    spec = small_spec()
    payload = decode_payload(store.path_for(spec).read_bytes())
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


def test_store_hit_resolves_the_simulated_program(tmp_path, warm_store):
    """A store hit's program is its workload's, built on the first
    read, and it is the program the simulated run had."""
    store, fresh = warm_store
    engine = Engine(store=RunStore(store.root))
    run = engine.run(small_spec())
    assert engine.store.hits == 1
    assert type(run.result) is CoreResult
    assert run.result.program is run.workload.program
    assert run.result.program.name == fresh.result.program.name
    assert len(run.result.program) == len(fresh.result.program)


def _leaves(value, path=()):
    """``(path, type, repr)`` of every leaf of a payload, in iteration
    order: equal lists mean equal values, types, float reprs and table
    orders."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, (*path, key))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _leaves(item, (*path, index))
    else:
        yield path, type(value), repr(value)


PLAIN = {int, float, str, bool, type(None)}


@pytest.mark.parametrize("backend", BACKEND_NAMES)
def test_saved_payload_round_trips_exactly(tmp_path, warm_stores, backend):
    """``save`` then ``load`` gives back an equal payload of plain values
    (every float with the same repr, every table in insertion order),
    and the run served from it has the simulated run's errors bit for
    bit."""
    _, fresh = warm_stores(backend)
    spec = small_spec(backend=backend)
    payload = run_to_payload(spec, fresh)
    copy = RunStore(tmp_path / "codec")
    copy.save(spec, payload)
    loaded = RunStore(copy.root).load(spec)
    assert loaded == payload
    leaves = list(_leaves(loaded))
    assert leaves == list(_leaves(payload))
    assert {kind for _, kind, _ in leaves} <= PLAIN

    engine = Engine(store=RunStore(copy.root))
    served = engine.run(spec)
    assert engine.simulations == 0
    assert list(served.result.golden_raw.items()) == list(
        fresh.result.golden_raw.items()
    )
    for key in fresh.samplers:
        assert repr(served.error(key)) == repr(fresh.error(key))


def test_failed_writes_leave_no_file(tmp_path, warm_store, monkeypatch):
    """A payload or sidecar write that fails removes its temp file and
    leaves no file under the key."""
    from repro.trace.store import TraceStore

    store, _ = warm_store
    spec = small_spec()
    payload = decode_payload(store.path_for(spec).read_bytes())
    copy = RunStore(tmp_path / "failing")

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr("repro.engine.store.os.replace", fail)
    with pytest.raises(OSError, match="disk full"):
        copy.save(spec, payload)
    with pytest.raises(OSError, match="disk full"):
        copy.save_trace(spec, TraceStore())
    assert list(copy.path_for(spec).parent.iterdir()) == []
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
    copy.save(spec, decode_payload(store.path_for(spec).read_bytes()))
    assert list(copy.keys()) == [spec.key]
    assert len(copy) == 1
    assert copy.size_bytes() > 0
    assert copy.path_for(spec).parent.name == spec.key[:2]
    copy.clear()
    assert len(copy) == 0


def test_runs_of_other_code_are_misses(tmp_path, monkeypatch):
    """A store filled by other code has no run and no trace for this
    code; with the code that filled it, both are served."""
    spec = small_spec()
    filler = Engine(store=RunStore(tmp_path))
    filler.trace(spec).close()
    assert filler.simulations == 1

    monkeypatch.setattr("repro.engine.store.code_digest", lambda: "f" * 64)
    other = Engine(store=RunStore(tmp_path))
    assert not other.store.contains(spec)
    other.run(spec)
    assert other.simulations == 1
    other.trace(spec).close()
    assert other.simulations == 2

    monkeypatch.undo()
    same = Engine(store=RunStore(tmp_path))
    assert same.store.contains(spec)
    same.run(spec)
    same.trace(spec).close()
    assert same.simulations == 0
    assert same.store.hits == 2


def test_stale_counts_other_code_and_layouts(tmp_path, monkeypatch):
    """Runs of another code revision or store layout are reported, not
    deleted; ``clear`` removes every layout's tree."""
    spec = small_spec()
    Engine(store=RunStore(tmp_path)).run(spec)
    store = RunStore(tmp_path)
    assert store.stale() == {"revisions": 0, "entries": 0, "size_bytes": 0}

    monkeypatch.setattr("repro.engine.store.code_digest", lambda: "f" * 64)
    other = RunStore(tmp_path)
    assert len(other) == 0
    stale = other.stale()
    assert stale["revisions"] == 1
    assert stale["entries"] == 1
    assert stale["size_bytes"] == store.size_bytes()
    Engine(store=other).run(spec)
    monkeypatch.undo()

    old = tmp_path / "runs-v1" / "ab" / "x.json"
    old.parent.mkdir(parents=True)
    old.write_text("{}")
    stale = RunStore(tmp_path).stale()
    assert (stale["revisions"], stale["entries"]) == (2, 2)
    assert len(store) == 1

    store.clear()
    assert not old.exists()
    assert sorted(tmp_path.glob("runs-v*")) == []
    assert store.stale() == {"revisions": 0, "entries": 0, "size_bytes": 0}


def test_prune_removes_exactly_what_stale_counts(tmp_path, monkeypatch):
    """With runs of two other code digests and a ``runs-v1`` tree,
    ``prune`` deletes what ``stale`` counted and returns those counts;
    the current code's run is still a store hit."""
    spec = small_spec()
    for digest in ("e" * 64, "f" * 64):
        monkeypatch.setattr("repro.engine.store.code_digest",
                            lambda digest=digest: digest)
        Engine(store=RunStore(tmp_path)).trace(spec).close()
    monkeypatch.undo()
    Engine(store=RunStore(tmp_path)).run(spec)
    old = tmp_path / "runs-v1" / "ab" / "x.json"
    old.parent.mkdir(parents=True)
    old.write_text("{}")

    store = RunStore(tmp_path)
    stale = store.stale()
    assert (stale["revisions"], stale["entries"]) == (3, 3)
    assert store.prune() == stale
    assert store.stale() == {"revisions": 0, "entries": 0, "size_bytes": 0}
    assert not old.exists()
    assert sorted(p.name for p in tmp_path.glob("runs-v*")) == [
        store.runs_dir.name
    ]
    assert list(store.keys()) == [spec.key]
    served = Engine(store=RunStore(tmp_path))
    served.run(spec)
    assert (served.simulations, served.store.hits) == (0, 1)


def test_stats_prune_reports_and_removes_other_code(tmp_path, monkeypatch,
                                                    capsys):
    from repro.cli import main

    spec = small_spec()
    monkeypatch.setattr("repro.engine.store.code_digest", lambda: "f" * 64)
    Engine(store=RunStore(tmp_path)).run(spec)
    monkeypatch.undo()
    Engine(store=RunStore(tmp_path)).run(spec)
    size = RunStore(tmp_path).stale()["size_bytes"]

    assert main(["--store", str(tmp_path), "stats", "--prune"]) == 0
    out = capsys.readouterr().out
    assert (f"pruned other code: 1 revision(s), 1 run(s), "
            f"{size / 1e6:.2f} MB") in out
    assert "1 cached run(s)" in out
    assert "other code: 0 revision(s), 0 run(s)" in out
    assert main(["--store", str(tmp_path), "stats", "--prune",
                 "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)["store"]
    assert doc["pruned"] == doc["stale"] == {
        "revisions": 0, "entries": 0, "size_bytes": 0,
    }
    assert doc["entries"] == 1


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


def test_errors_equal_the_projected_formula(warm_store, monkeypatch):
    """Each sampler's error on a stored run is bit for bit the Section 4
    formula over explicitly projected profiles; a full-mask error
    projects nothing, since that projection is the identity."""
    store, _ = warm_store
    run = Engine(store=RunStore(store.root)).run(small_spec())
    expected = {}
    for key, sampler in run.samplers.items():
        golden = run.golden.project(sampler.mask)
        measured = sampler.profile().project(sampler.mask)
        total = golden.total()
        correct = correctly_attributed(measured.scaled(total), golden)
        expected[key] = (total - correct) / total

    projected = []
    project = PicsProfile.project

    def counting(profile, mask):
        projected.append(mask)
        return project(profile, mask)

    monkeypatch.setattr(PicsProfile, "project", counting)
    full = [key for key, s in run.samplers.items() if s.mask == FULL_MASK]
    assert full and len(full) < len(run.samplers)
    for key in full:
        assert repr(run.error(key)) == repr(expected[key])
    assert projected == []
    for key in run.samplers:
        assert repr(run.error(key)) == repr(expected[key])
    assert projected and FULL_MASK not in projected
