"""Versioned on-disk store for completed simulation runs.

Stored runs are payload dicts (see :mod:`repro.engine.runs`) addressed
by the code that made them and the :class:`~repro.engine.spec.RunSpec`
content hash, laid out as
``<root>/runs-v<N>/<code[:16]>/<key[:2]>/<key>.run`` with the run's
``.teacol`` trace sidecar beside it. ``code`` is
:func:`repro.version.code_digest`, a hash of the source of every
package that can change a result, so a run stored by other code is
never found; the payload and sidecar headers carry the full digest as
a second line of defence against hand-edited or copied files.

A ``.run`` file is a CRC-32 of its body followed by the body,
``marshal.dumps(payload)`` (:func:`encode_payload`,
:func:`decode_payload`); no other module knows these bytes. The
checksum is verified before :mod:`marshal` reads a byte, so a
corrupted file -- a flipped bit, a truncated or extended write -- is a
miss and ``marshal`` only ever parses what :meth:`RunStore.save`
wrote. ``marshal`` builds plain values and never runs code: the trust
model is that of ``__pycache__``, whose writers can already edit the
source whose results the store caches.

The default root is ``$TEA_REPRO_STORE`` or ``~/.cache/tea-repro``.
Writes are atomic (temp file + rename), so concurrent executor workers
and parallel CLI invocations can share one store safely.
"""

from __future__ import annotations

import marshal
import os
import shutil
import struct
import tempfile
import zlib
from functools import cached_property
from pathlib import Path
from collections.abc import Iterator
from typing import Any

from repro.engine.runs import PAYLOAD_SCHEMA
from repro.engine.spec import RunSpec
from repro.version import code_digest

#: On-disk layout revision (bump on path-layout or encoding changes).
#: v2: runs are filed under the code digest's directory.
#: v3: payloads are checksummed marshal bytes, not JSON text.
STORE_VERSION = 3

#: Suffix of a stored payload file (:func:`encode_payload`'s bytes).
PAYLOAD_SUFFIX = ".run"

#: Payload suffixes of every layout, for counting what other trees
#: hold (v1 and v2 stored JSON text).
_PAYLOAD_SUFFIXES = (PAYLOAD_SUFFIX, ".json")

#: A stored payload's header: the CRC-32 of the body that follows it.
_CRC = struct.Struct("<I")

#: Environment variable overriding the default store root.
STORE_ENV = "TEA_REPRO_STORE"

#: Schema identifier stamped into every trace sidecar's meta block.
TRACE_SCHEMA = "tea-trace-v1"


def default_store_root() -> Path:
    """The default store root (env override or ``~/.cache/tea-repro``)."""
    env = os.environ.get(STORE_ENV)
    if env:
        return Path(env).expanduser()
    return Path.home() / ".cache" / "tea-repro"


def encode_payload(payload: dict[str, Any]) -> bytes:
    """The bytes a payload is stored as: the CRC-32 of the body, then
    the body, ``marshal.dumps(payload)``.

    Raises:
        ValueError: On a value :mod:`marshal` refuses, such as an int
            subclass (an enum member); payloads hold plain values.
    """
    body = marshal.dumps(payload)
    return _CRC.pack(zlib.crc32(body)) + body


def decode_payload(data: bytes) -> dict[str, Any]:
    """The payload dict :func:`encode_payload` turned into *data*.

    The checksum is compared before :mod:`marshal` sees the body:
    ``marshal`` is not hardened against malformed input (a corrupted
    length can make it allocate that many slots before it finds the
    data missing).

    Raises:
        ValueError: When the checksum does not match, the body does not
            unmarshal, or it is not a dict.
    """
    body = data[_CRC.size:]
    if (
        len(data) < _CRC.size
        or _CRC.unpack_from(data)[0] != zlib.crc32(body)
    ):
        raise ValueError("stored payload fails its checksum")
    try:
        payload = marshal.loads(body)
    except (EOFError, TypeError) as exc:
        raise ValueError(
            f"stored payload does not unmarshal: {exc}"
        ) from None
    if not isinstance(payload, dict):
        raise ValueError(
            f"stored payload is a {type(payload).__name__}, not a dict"
        )
    return payload


def _write_atomic(path: Path, data: bytes) -> Path:
    """Write *data* to *path* through a temp file and a rename, so a
    reader sees the old file or the new one, never a torn write; the
    temp file is removed if the write fails."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=path.parent, prefix=".tmp-", suffix=path.suffix
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


class RunStore:
    """A spec-keyed, versioned store of completed run payloads.

    Args:
        root: Store root directory; defaults to
            :func:`default_store_root`.

    Attributes:
        hits: Number of :meth:`load` calls that returned a usable
            payload.
        misses: Number of :meth:`load` calls that found nothing usable,
            including payloads the engine could not decode.
    """

    def __init__(self, root: str | Path | None = None) -> None:
        self.root = Path(root) if root is not None else default_store_root()
        self.runs_dir = self.root / f"runs-v{STORE_VERSION}"
        self.hits = 0
        self.misses = 0

    @cached_property
    def code_dir(self) -> Path:
        """The directory of the current code's runs under
        :attr:`runs_dir` (the source is hashed on first use)."""
        return self.runs_dir / code_digest()[:16]

    def path_for(self, spec: RunSpec) -> Path:
        """The on-disk path a spec's payload lives at."""
        return self.code_dir / spec.key[:2] / (spec.key + PAYLOAD_SUFFIX)

    def contains(self, spec: RunSpec) -> bool:
        """Cheap existence probe for *spec* (no parse, no accounting).

        Used for resume status reporting; a corrupt or stale file can
        make this optimistic -- :meth:`load` remains the authority.
        """
        return self.path_for(spec).is_file()

    def load(self, spec: RunSpec) -> dict[str, Any] | None:
        """The stored payload for *spec*, or ``None`` on a miss.

        Files that fail their checksum, do not unmarshal to a dict, or
        are schema-, code- or key-mismatched count as misses (they will
        be overwritten by the next :meth:`save`). So does a payload
        that passes these checks but does not decode: the engine moves
        its count from :attr:`hits` to :attr:`misses`.
        """
        try:
            payload = decode_payload(self.path_for(spec).read_bytes())
        except (OSError, ValueError):
            self.misses += 1
            return None
        if (
            payload.get("schema") != PAYLOAD_SCHEMA
            or payload.get("code") != code_digest()
            or payload.get("spec_key") != spec.key
        ):
            self.misses += 1
            return None
        self.hits += 1
        return payload

    def save(self, spec: RunSpec, payload: dict[str, Any]) -> Path:
        """Stamp *payload* with the code digest :meth:`load` checks and
        atomically persist it under *spec*'s key."""
        payload["code"] = code_digest()
        return _write_atomic(
            self.path_for(spec), encode_payload(payload)
        )

    # -- columnar trace sidecars ---------------------------------------
    def trace_path_for(self, spec: RunSpec) -> Path:
        """The sidecar path a spec's columnar trace lives at.

        Traces sit next to the payload (same shard, same key) with a
        ``.teacol`` suffix, so :meth:`clear` and key-based tooling see
        both artefacts of a run together.
        """
        return self.code_dir / spec.key[:2] / f"{spec.key}.teacol"

    def save_trace(self, spec: RunSpec, store: Any) -> Path:
        """Atomically persist a :class:`~repro.trace.store.TraceStore`.

        Stamps ``meta`` with the schema/code/key triple
        :meth:`load_trace` validates against.
        """
        store.meta.update(
            {
                "schema": TRACE_SCHEMA,
                "code": code_digest(),
                "spec_key": spec.key,
            }
        )
        return _write_atomic(self.trace_path_for(spec), store.to_bytes())

    def load_trace(self, spec: RunSpec):
        """The stored trace for *spec*, or ``None`` on a miss.

        Corrupt or stale sidecars (schema / code / spec key mismatch)
        count as misses, exactly like :meth:`load`.
        """
        from repro.trace.store import TraceStore

        path = self.trace_path_for(spec)
        try:
            store = TraceStore.load(path)
        except (OSError, ValueError, RuntimeError):
            self.misses += 1
            return None
        meta = store.meta
        if (
            meta.get("schema") != TRACE_SCHEMA
            or meta.get("code") != code_digest()
            or meta.get("spec_key") != spec.key
        ):
            store.close()
            self.misses += 1
            return None
        self.hits += 1
        return store

    def keys(self) -> Iterator[str]:
        """Keys of every run stored by the current code."""
        for path in sorted(self.code_dir.glob(f"*/*{PAYLOAD_SUFFIX}")):
            yield path.stem

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    def size_bytes(self) -> int:
        """Total bytes of the current code's stored payloads."""
        return sum(
            path.stat().st_size
            for path in self.code_dir.glob(f"*/*{PAYLOAD_SUFFIX}")
        )

    def _runs_trees(self) -> list[Path]:
        """Every ``runs-v*`` tree under the root, this layout's too."""
        return sorted(p for p in self.root.glob("runs-v*") if p.is_dir())

    def _stale_trees(self) -> list[Path]:
        """The directories :meth:`stale` counts: each other code's
        directory under :attr:`runs_dir` and each other ``runs-v*``
        tree."""
        trees = [p for p in self._runs_trees() if p != self.runs_dir]
        if self.runs_dir.is_dir():
            trees += sorted(
                p for p in self.runs_dir.iterdir()
                if p.is_dir() and p != self.code_dir
            )
        return trees

    @staticmethod
    def _tally(trees: list[Path]) -> dict[str, int]:
        """Revisions, payloads (of either layout's suffix) and bytes of
        every file in *trees*."""
        files = [p for tree in trees for p in tree.rglob("*")
                 if p.is_file()]
        return {
            "revisions": len(trees),
            "entries": sum(p.suffix in _PAYLOAD_SUFFIXES for p in files),
            "size_bytes": sum(p.stat().st_size for p in files),
        }

    def stale(self) -> dict[str, int]:
        """What the store holds that the current code never reads.

        Each other code's directory under :attr:`runs_dir` and each
        other ``runs-v*`` tree counts as one revision; ``entries``
        counts their payloads and ``size_bytes`` every file in them,
        trace sidecars included. Nothing is deleted (:meth:`prune`
        removes them).
        """
        return self._tally(self._stale_trees())

    def prune(self) -> dict[str, int]:
        """Delete exactly what :meth:`stale` counts and return those
        counts; the current code's runs stay."""
        trees = self._stale_trees()
        counts = self._tally(trees)
        for tree in trees:
            shutil.rmtree(tree, ignore_errors=True)
        return counts

    def clear(self) -> None:
        """Delete every stored run, those of other code revisions and
        store layouts too (the root directory is kept)."""
        for tree in self._runs_trees():
            shutil.rmtree(tree, ignore_errors=True)
