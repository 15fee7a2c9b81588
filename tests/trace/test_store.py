"""Columnar store: SoA round trips, replay parity, format guards.

The store must be a lossless, bit-faithful database over both trace
streams -- the cycle/commit stream and sampler captures -- across
every shape it can take: live in-memory tables, serialised bytes, and
zero-copy mmap views.
"""

import json
import random
import struct
from array import array

import pytest

from repro.core.samplers import make_sampler
from repro.core.states import CommitState
from repro.trace.cycletrace import (
    CommitRecord,
    CyclesRecord,
    replay_golden,
)
from repro.trace.store import (
    KIND_COMMIT,
    KIND_CYCLES,
    MAGIC,
    SAMPLE_COLUMNS,
    ColumnTable,
    StringPool,
    TraceStore,
)
from repro.uarch.core import simulate
from repro.workloads import build


def run_with_store(program, arch_state=None, samplers=()):
    store = TraceStore()
    result = simulate(
        program,
        samplers=list(samplers),
        arch_state=arch_state,
        cycle_trace=store,
    )
    return result, store


def populated_store(mixed_program):
    """A store exercising all three tables plus meta and strings."""
    sampler = make_sampler("TEA", 13, seed=7)
    store = TraceStore()
    sampler.sink = store.sampler_sink("TEA")
    simulate(mixed_program, samplers=[sampler], cycle_trace=store)
    store.meta.update({"workload": "mixed", "cycles": 123})
    return store


# -- core hook ingestion -----------------------------------------------


@pytest.mark.parametrize("name", ["mcf", "x264", "gcc"])
def test_replay_over_store_matches_golden(name):
    wl = build(name, scale=0.05)
    result, store = run_with_store(
        wl.program, arch_state=wl.fresh_state()
    )
    replayed = replay_golden(store.cycle_records())
    assert replayed == result.golden_raw
    assert sum(replayed.values()) == pytest.approx(result.cycles)


def test_cycle_column_is_prefix_sum(mixed_program):
    _result, store = run_with_store(mixed_program)
    cycles = store.ctrace.column("cycle")
    counts = store.ctrace.column("count")
    running = 0
    for i in range(len(store.ctrace)):
        assert cycles[i] == running
        running += counts[i]


def test_commit_rows_reference_uop_ranges(mixed_program):
    _result, store = run_with_store(mixed_program)
    kinds = store.ctrace.column("kind")
    starts = store.ctrace.column("group_start")
    sizes = store.ctrace.column("group_size")
    next_start = 0
    for i in range(len(store.ctrace)):
        if kinds[i] == KIND_CYCLES:
            assert sizes[i] == 0
            continue
        assert kinds[i] == KIND_COMMIT
        assert starts[i] == next_start
        assert sizes[i] >= 1
        next_start = starts[i] + sizes[i]
    assert next_start == len(store.commit_uops)


# -- serialisation round trips -----------------------------------------


def assert_stores_equal(a, b):
    assert b.meta == a.meta
    assert b.strings.to_list() == a.strings.to_list()
    for name, table in a.tables.items():
        other = b.tables[name]
        assert len(other) == len(table)
        for cname, _code in table.schema:
            assert bytes(other.column(cname)) == bytes(
                table.column(cname)
            )


def test_bytes_round_trip(mixed_program):
    store = populated_store(mixed_program)
    data = store.to_bytes()
    loaded = TraceStore.from_bytes(data)
    assert_stores_equal(store, loaded)
    assert loaded.cycle_records() == store.cycle_records()
    assert loaded.raw_profile("TEA") == store.raw_profile("TEA")
    # Re-serialisation is deterministic byte-for-byte.
    assert loaded.to_bytes() == data


def test_save_load_mmap_round_trip(mixed_program, tmp_path):
    store = populated_store(mixed_program)
    path = store.save(tmp_path / "deep" / "trace.teacol")
    assert path.read_bytes().startswith(MAGIC)
    with TraceStore.load(path) as loaded:
        assert_stores_equal(store, loaded)
        assert loaded.cycle_records() == store.cycle_records()
        # mmap-backed columns are memoryview casts, not arrays.
        assert not isinstance(loaded.ctrace.column("cycle"), array)
    # close() dropped the views; the store is empty but usable.
    assert len(loaded.ctrace) == 0
    loaded.close()  # idempotent


def test_from_bytes_gives_mutable_arrays(mixed_program, tmp_path):
    store = populated_store(mixed_program)
    path = store.save(tmp_path / "trace.teacol")
    loaded = TraceStore.from_bytes(path.read_bytes())
    assert isinstance(loaded.ctrace.column("cycle"), array)
    loaded.on_cycles(CommitState.STALLED, 3, 9)  # still writable
    assert len(loaded.ctrace) == len(store.ctrace) + 1


def test_random_records_round_trip():
    rng = random.Random(42)
    store = TraceStore()
    records = []
    seq = 0
    for _ in range(200):
        if rng.random() < 0.6:
            state = rng.choice(
                [
                    CommitState.STALLED,
                    CommitState.DRAINED,
                    CommitState.FLUSHED,
                ]
            )
            head = seq if state is CommitState.STALLED else -1
            records.append(CyclesRecord(state, rng.randint(1, 50), head))
        else:
            uops = []
            for _ in range(rng.randint(1, 4)):
                uops.append((seq, rng.randrange(64), rng.randrange(256)))
                seq += 1
            records.append(CommitRecord(uops))
    for record in records:  # through the core's hooks, in order
        if isinstance(record, CyclesRecord):
            store.on_cycles(record.state, record.count, record.head_seq)
        else:
            store.on_commit(record.uops)
    assert store.cycle_records() == records
    reloaded = TraceStore.from_bytes(store.to_bytes())
    assert reloaded.cycle_records() == records


# -- corrupt inputs -----------------------------------------------------


def test_bad_magic_rejected():
    with pytest.raises(ValueError, match="not a TEACOL"):
        TraceStore.from_bytes(b"GARBAGE!" + b"\0" * 64)


def test_truncated_file_rejected(mixed_program):
    data = populated_store(mixed_program).to_bytes()
    with pytest.raises(ValueError, match="truncated TEACOL"):
        TraceStore.from_bytes(data[:-4])


def test_corrupt_header_rejected(mixed_program):
    data = bytearray(populated_store(mixed_program).to_bytes())
    start = len(MAGIC) + 4
    data[start] = ord("!")  # header JSON no longer parses
    with pytest.raises(ValueError, match="corrupt TEACOL header"):
        TraceStore.from_bytes(bytes(data))


def test_unsupported_format_rejected(mixed_program):
    data = populated_store(mixed_program).to_bytes()
    header_len = struct.unpack_from("<I", data, len(MAGIC))[0]
    body = len(MAGIC) + 4
    doc = json.loads(data[body: body + header_len])
    doc["format"] = 999
    encoded = json.dumps(doc, sort_keys=True).encode("utf-8")
    patched = (
        data[: len(MAGIC)]
        + struct.pack("<I", len(encoded))
        + encoded
        + data[body + header_len:]
    )
    with pytest.raises(ValueError, match="unsupported TEACOL format"):
        TraceStore.from_bytes(patched)


def test_missing_table_rejected():
    # A store with empty meta: the only '"samples"' in the file is the
    # table key in the header, so a same-length rename removes the
    # table without shifting any offset.
    data = TraceStore().to_bytes()
    assert data.count(b'"samples"') == 1
    patched = data.replace(b'"samples"', b'"samplez"', 1)
    with pytest.raises(ValueError, match="missing table 'samples'"):
        TraceStore.from_bytes(patched)


# -- string pool and column table --------------------------------------


def test_string_pool_semantics():
    pool = StringPool()
    assert pool[0] == "" and len(pool) == 1
    a = pool.intern("alpha")
    assert pool.intern("alpha") == a  # idempotent
    b = pool.intern("beta")
    assert a != b and pool[b] == "beta"
    assert pool.find("beta") == b and pool.find("gamma") is None
    assert pool.to_list() == ["", "alpha", "beta"]
    with pytest.raises(ValueError, match="id 0"):
        StringPool(["alpha"])


def test_column_table_append_arity():
    table = ColumnTable("samples", SAMPLE_COLUMNS)
    with pytest.raises(ValueError, match="expected 4 values"):
        table.append(1, 2, 3)
    table.append(1, 2, 4, 1.0)
    assert table.row(0) == (1, 2, 4, 1.0)
    assert list(table.rows()) == [(1, 2, 4, 1.0)]


# -- sampler sink -------------------------------------------------------


def test_sink_appends_each_capture():
    store = TraceStore()
    sink = store.sampler_sink("TEA")
    sink.write(3, 1, 0.5)
    assert len(store.samples) == 1  # no buffer: the row is there
    sink.write(3, 1, 1.5)
    store.sampler_sink("IBS").write(4, 2, 2.0)
    assert store.sampler_names() == ["TEA", "IBS"]
    assert store.raw_profile("TEA") == {(3, 1): 2.0}
    assert store.raw_profile("IBS") == {(4, 2): 2.0}


def test_row_counts_cover_all_tables(mixed_program):
    store = populated_store(mixed_program)
    counts = store.row_counts()
    assert set(counts) == {"ctrace", "commit_uops", "samples"}
    assert all(counts.values())
