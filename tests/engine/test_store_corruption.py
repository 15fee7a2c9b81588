"""Corrupt stored files are misses: nothing raises, nothing corrupt is
served, and the engine simulates again and overwrites the file."""

import json
import marshal
import random
import struct

import pytest

from repro.engine import Engine, RunStore
from repro.engine.spec import RunSpec
from repro.engine.store import decode_payload, encode_payload
from repro.trace.store import MAGIC, TraceStore

from tests.engine.conftest import SMALL

SPEC = RunSpec.make("exchange2", **SMALL)


@pytest.fixture(scope="module")
def stored(tmp_path_factory):
    """``(payload bytes, sidecar bytes, cycles)`` of one traced run."""
    store = RunStore(tmp_path_factory.mktemp("stored"))
    Engine(store=store).trace(SPEC).close()
    payload = store.path_for(SPEC).read_bytes()
    sidecar = store.trace_path_for(SPEC).read_bytes()
    return payload, sidecar, decode_payload(payload)["cycles"]


def serve(store: RunStore, how: str) -> tuple[Engine, object]:
    engine = Engine(store=store)
    if how == "run":
        return engine, engine.run(SPEC)
    return engine, engine.run_suite({"only": SPEC})["only"]


def assert_simulated_and_overwritten(tmp_path, how, cycles):
    """Serving the corrupt file simulates once and writes the payload
    back, which a second engine then serves."""
    store = RunStore(tmp_path)
    engine, run = serve(store, how)
    assert engine.simulations == 1
    assert (store.hits, store.misses) == (0, 1)
    assert run.result.cycles == cycles
    assert decode_payload(store.path_for(SPEC).read_bytes())["cycles"] == (
        cycles
    )
    again, run = serve(RunStore(tmp_path), how)
    assert again.simulations == 0
    assert run.result.cycles == cycles


def write(path, data: bytes) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)


@pytest.mark.parametrize("how", ["run", "run_suite"])
def test_one_changed_byte_of_the_cycle_count_is_a_miss(tmp_path, stored, how):
    """The change a JSON store served: one byte of ``cycles``, in a body
    that still unmarshals to the same payload with another count."""
    data, _, cycles = stored
    at = data.index(b"\x06cycles") + len(b"\x06cycles")
    assert data[at] & 0x7F == ord("i")  # an int, maybe flagged as a ref
    assert struct.unpack_from("<i", data, at + 1) == (cycles,)
    tampered = bytearray(data)
    tampered[at + 1] ^= 1
    header = len(encode_payload({})) - len(marshal.dumps({}))
    assert marshal.loads(tampered[header:])["cycles"] == cycles ^ 1

    write(RunStore(tmp_path).path_for(SPEC), bytes(tampered))
    assert_simulated_and_overwritten(tmp_path, how, cycles)


def corruptions(data: bytes) -> dict[str, bytes]:
    """A fixed set of corrupted copies of *data*: 1-4 flipped bits,
    truncations, and one appended byte."""
    rng = random.Random(33)
    out = {}
    for bits in (1, 2, 3, 4):
        for trial in range(16):
            flipped = bytearray(data)
            for bit in rng.sample(range(8 * len(data)), bits):
                flipped[bit // 8] ^= 1 << (bit % 8)
            out[f"flip{bits}-{trial}"] = bytes(flipped)
    for cut in (0, 1, 3, 4, 5, 16, len(data) // 2, len(data) - 1):
        out[f"cut{cut}"] = data[:cut]
    # A zero byte is what a CRC appended to the body (so that the whole
    # file checks to a constant) lets through.
    out["append-zero"] = data + b"\0"
    out["append-one"] = data + b"\1"
    return out


def test_every_corruption_is_a_miss(tmp_path, stored):
    data, _, _ = stored
    store = RunStore(tmp_path)
    path = store.path_for(SPEC)
    cases = corruptions(data)
    for name, corrupted in cases.items():
        with pytest.raises(ValueError):
            decode_payload(corrupted)
        write(path, corrupted)
        assert store.load(SPEC) is None, name
    assert (store.hits, store.misses) == (0, len(cases))


@pytest.mark.parametrize(
    "body",
    [b"[1, 2]", b"null", b'"x"', encode_payload([1, 2]),
     encode_payload(None), encode_payload("x")],
    ids=["json-list", "json-null", "json-str", "list", "none", "str"],
)
@pytest.mark.parametrize("how", ["run", "run_suite"])
def test_payload_that_is_not_a_dict_is_a_miss(tmp_path, stored, body, how):
    """JSON text that is not an object, and a checksummed body that is
    not a dict, are misses (a JSON store raised ``AttributeError``)."""
    _, _, cycles = stored
    store = RunStore(tmp_path)
    write(store.path_for(SPEC), body)
    assert store.load(SPEC) is None
    assert (store.hits, store.misses) == (0, 1)
    assert_simulated_and_overwritten(tmp_path, how, cycles)


def _toc_not_an_object(data: bytes) -> bytes:
    toc = json.dumps([1, 2]).encode()
    return MAGIC + struct.pack("<I", len(toc)) + toc


def _toc_edit(edit):
    """A sidecar whose table of contents *edit* changed, padded to its
    old length so every offset in it still points where it did."""

    def corrupt(data: bytes) -> bytes:
        start = len(MAGIC) + 4
        (size,) = struct.unpack("<I", data[len(MAGIC): start])
        toc = json.loads(data[start: start + size])
        edit(toc)
        text = json.dumps(toc, separators=(",", ":")).encode()
        assert len(text) <= size
        return data[:start] + text.ljust(size) + data[start + size:]

    return corrupt


SIDECARS = {
    "cut8": lambda data: data[:8],
    "cut10": lambda data: data[:10],
    "cut-half": lambda data: data[: len(data) // 2],
    "toc-not-an-object": _toc_not_an_object,
    "strings-count-not-an-int": _toc_edit(
        lambda toc: toc["strings"].update(count="x")
    ),
    "no-tables": _toc_edit(lambda toc: toc.pop("tables")),
    "no-strings": _toc_edit(lambda toc: toc.pop("strings")),
    "tables-a-list": _toc_edit(
        lambda toc: toc.update(tables=list(toc["tables"].values()))
    ),
    "column-offset-not-an-int": _toc_edit(
        lambda toc: toc["tables"]["samples"]["columns"][0].update(
            offset=float(toc["tables"]["samples"]["columns"][0]["offset"])
        )
    ),
}


@pytest.mark.parametrize("corrupt", SIDECARS.values(), ids=SIDECARS.keys())
def test_corrupt_sidecar_is_a_miss(tmp_path, stored, corrupt):
    """A truncated sidecar, or one whose table of contents is not a JSON
    object or has a field missing or of the wrong type, is a miss for
    the store and a capture for ``Engine.trace``, which overwrites the
    file with the trace it captured."""
    _, sidecar, _ = stored
    store = RunStore(tmp_path)
    path = store.trace_path_for(SPEC)
    write(path, corrupt(sidecar))
    with pytest.raises(ValueError):
        TraceStore.load(path)
    assert store.load_trace(SPEC) is None
    assert (store.hits, store.misses) == (0, 1)

    engine = Engine(store=RunStore(tmp_path))
    engine.trace(SPEC).close()
    assert engine.simulations == 1
    assert path.read_bytes() == sidecar
    again = Engine(store=RunStore(tmp_path))
    again.trace(SPEC).close()
    assert again.simulations == 0


def test_store_of_the_json_layout_is_stale_and_unread(tmp_path, stored):
    """A store filled under the ``runs-v2`` layout (JSON payloads) is one
    stale revision, and its run is simulated again, not read."""
    data, _, cycles = stored
    payload = decode_payload(data)
    store = RunStore(tmp_path)
    v2 = (tmp_path / "runs-v2" / store.code_dir.name / SPEC.key[:2]
          / f"{SPEC.key}.json")
    text = json.dumps(payload, separators=(",", ":"))
    write(v2, text.encode())
    assert store.stale() == {
        "revisions": 1, "entries": 1, "size_bytes": len(text),
    }
    assert store.load(SPEC) is None
    engine, run = serve(store, "run")
    assert engine.simulations == 1
    assert run.result.cycles == cycles
    assert v2.read_text() == text
