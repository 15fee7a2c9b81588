"""Model versioning: which code a result came from.

* :data:`MODEL_VERSION` -- the behavioural revision of the simulation
  stack. It is hashed into every :class:`~repro.engine.spec.RunSpec`
  key and labels ``bench/reference.json``'s result digests. It is
  bumped by hand when results change on purpose.
* :func:`code_digest` -- a sha256 over the source of every package
  that can change a result (:data:`CODE_PACKAGES`). The
  :class:`~repro.engine.store.RunStore` files each run under it, so an
  edit to a kernel, the core, an op class or a Table 2 default misses
  the store with nothing to do by hand. ``repro.engine`` stays
  outside: how a spec becomes a run is versioned by its spec and
  payload schemas.
"""

from __future__ import annotations

import functools
import hashlib
from pathlib import Path

#: Behavioural revision of the simulation stack.
#: v2: samples_taken counts one sample per sample() even when its weight
#: is split across several committing µops (stored runs record it).
#: v3: tiered execution backends -- the core replays a shared InstStream,
#: warm-up replay settles hierarchy timing at window boundaries, and
#: RunSpec keys cover the backend/window geometry.
MODEL_VERSION = 3

#: Subpackages of ``repro`` whose source can change a simulation result.
CODE_PACKAGES = (
    "backends", "branch", "core", "isa", "memory", "uarch", "workloads",
)


def source_digest(package_root: Path) -> str:
    """sha256 over the path (relative to *package_root*) and the bytes
    of every ``*.py`` under its :data:`CODE_PACKAGES`, in path order."""
    digest = hashlib.sha256()
    for name in CODE_PACKAGES:
        for path in sorted((package_root / name).rglob("*.py")):
            data = path.read_bytes()
            rel = path.relative_to(package_root).as_posix()
            digest.update(f"{rel}\0{len(data)}\0".encode())
            digest.update(data)
    return digest.hexdigest()


@functools.cache
def code_digest() -> str:
    """:func:`source_digest` of the installed ``repro``, hashed once
    per process."""
    return source_digest(Path(__file__).parent)
