"""Versioned on-disk store for completed simulation runs.

Stored runs are JSON payloads (see :mod:`repro.engine.runs`) addressed
by the :class:`~repro.engine.spec.RunSpec` content hash, laid out as
``<root>/runs-v<N>/<key[:2]>/<key>.json``. Because the spec hash covers
:data:`~repro.engine.spec.MODEL_VERSION`, stale runs from an older
timing model simply never match; the payload-level schema and version
checks are a second line of defence against hand-edited files.

The default root is ``$TEA_REPRO_STORE`` or ``~/.cache/tea-repro``.
Writes are atomic (temp file + rename), so concurrent executor workers
and parallel CLI invocations can share one store safely.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
from pathlib import Path
from collections.abc import Iterator
from typing import Any

from repro.engine.runs import PAYLOAD_SCHEMA
from repro.engine.spec import RunSpec
from repro.version import MODEL_VERSION

#: On-disk layout revision (bump on path-layout changes).
STORE_VERSION = 1

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

    def path_for(self, spec: RunSpec) -> Path:
        """The on-disk path a spec's payload lives at."""
        return self.runs_dir / spec.key[:2] / f"{spec.key}.json"

    def contains(self, spec: RunSpec) -> bool:
        """Cheap existence probe for *spec* (no parse, no accounting).

        Used for resume status reporting; a corrupt or stale file can
        make this optimistic -- :meth:`load` remains the authority.
        """
        return self.path_for(spec).is_file()

    def load(self, spec: RunSpec) -> dict[str, Any] | None:
        """The stored payload for *spec*, or ``None`` on a miss.

        Corrupt, truncated, or version-mismatched files count as misses
        (they will be overwritten by the next :meth:`save`). So does a
        payload that passes these checks but does not decode: the
        engine moves its count from :attr:`hits` to :attr:`misses`.
        """
        path = self.path_for(spec)
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError):
            self.misses += 1
            return None
        if (
            payload.get("schema") != PAYLOAD_SCHEMA
            or payload.get("model_version") != MODEL_VERSION
            or payload.get("spec_key") != spec.key
        ):
            self.misses += 1
            return None
        self.hits += 1
        return payload

    def save(self, spec: RunSpec, payload: dict[str, Any]) -> Path:
        """Atomically persist *payload* under *spec*'s key."""
        path = self.path_for(spec)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(fd, "w") as handle:
                # One dumps() call: json.dump() always runs the
                # pure-Python encoder, dumps() the C one (same text).
                handle.write(json.dumps(payload, separators=(",", ":")))
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return path

    # -- columnar trace sidecars ---------------------------------------
    def trace_path_for(self, spec: RunSpec) -> Path:
        """The sidecar path a spec's columnar trace lives at.

        Traces sit next to the payload (same shard, same key) with a
        ``.teacol`` suffix, so :meth:`clear` and key-based tooling see
        both artefacts of a run together.
        """
        return self.runs_dir / spec.key[:2] / f"{spec.key}.teacol"

    def has_trace(self, spec: RunSpec) -> bool:
        """Cheap existence probe for a spec's trace sidecar."""
        return self.trace_path_for(spec).is_file()

    def save_trace(self, spec: RunSpec, store: Any) -> Path:
        """Atomically persist a :class:`~repro.trace.store.TraceStore`.

        Stamps ``meta`` with the schema/version/key triple
        :meth:`load_trace` validates against.
        """
        store.meta.update(
            {
                "schema": TRACE_SCHEMA,
                "model_version": MODEL_VERSION,
                "spec_key": spec.key,
            }
        )
        path = self.trace_path_for(spec)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=".tmp-", suffix=".teacol"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(store.to_bytes())
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return path

    def load_trace(self, spec: RunSpec):
        """The stored trace for *spec*, or ``None`` on a miss.

        Corrupt or stale sidecars (schema / model version / spec key
        mismatch) count as misses, exactly like :meth:`load`.
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
            or meta.get("model_version") != MODEL_VERSION
            or meta.get("spec_key") != spec.key
        ):
            store.close()
            self.misses += 1
            return None
        self.hits += 1
        return store

    def keys(self) -> Iterator[str]:
        """Keys of every stored run."""
        if not self.runs_dir.is_dir():
            return
        for path in sorted(self.runs_dir.glob("*/*.json")):
            yield path.stem

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    def size_bytes(self) -> int:
        """Total bytes of stored payloads."""
        if not self.runs_dir.is_dir():
            return 0
        return sum(
            path.stat().st_size
            for path in self.runs_dir.glob("*/*.json")
        )

    def clear(self) -> None:
        """Delete every stored run (the root directory is kept)."""
        shutil.rmtree(self.runs_dir, ignore_errors=True)
