"""Model versioning: the single source of truth for result semantics.

Two artefacts live here, used by two different consumers:

* :data:`MODEL_VERSION` -- the behavioural revision of the simulation
  stack. It is hashed into every :class:`~repro.engine.spec.RunSpec`
  key, so bumping it invalidates every previously stored run in the
  :class:`~repro.engine.store.RunStore`.
* :data:`SEMANTIC_HASHES` -- a registry pinning the content hash of
  every *semantics-bearing* source file (the files whose changes can
  alter simulation results) to the :data:`MODEL_VERSION` they were
  pinned under. The tea-lint checker **TL006** verifies the pins on
  every lint run: a drifted file without a version bump is an error,
  which is what keeps stored runs and golden traces trustworthy.

Workflow when a registered file changes::

    1. bump MODEL_VERSION below (describe the change in the comment)
    2. python -m repro.version --refresh
    3. commit both together

``--refresh`` recomputes the pinned hashes and refuses to run when the
registered content drifted but :data:`MODEL_VERSION` still equals
:data:`PINNED_MODEL_VERSION` -- pass ``--allow-same-version`` only for
provably cosmetic edits (comments, formatting).

Hashes cover raw file bytes: deterministic, identical on every Python
version, and deliberately conservative -- a comment-only edit to a
semantics file also demands the explicit ``--allow-same-version``
acknowledgement.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

#: Behavioural revision of the simulation stack. Bump whenever the
#: timing model, samplers, or attribution policy change results; every
#: stored run keyed under the old version then misses automatically.
#: v2: samples_taken counts one sample per sample() even when its weight
#: is split across several committing µops (stored runs record it).
#: v3: tiered execution backends -- the core replays a shared InstStream,
#: warm-up replay settles hierarchy timing at window boundaries, and
#: RunSpec keys cover the backend/window geometry.
MODEL_VERSION = 3

#: Repo-relative paths of every file whose content can change
#: simulation results (timing model, samplers, memory system,
#: functional interpreter, branch predictor, PSV/event semantics).
#: Registering a file here makes tea-lint TL006 police its drift.
SEMANTIC_FILES = (
    "src/repro/backends/functional.py",
    "src/repro/backends/sampled.py",
    "src/repro/backends/warmup.py",
    "src/repro/branch/predictor.py",
    "src/repro/core/events.py",
    "src/repro/core/samplers.py",
    "src/repro/isa/interpreter.py",
    "src/repro/isa/semantics.py",
    "src/repro/memory/cache.py",
    "src/repro/memory/dram.py",
    "src/repro/memory/hierarchy.py",
    "src/repro/memory/tlb.py",
    "src/repro/uarch/core.py",
    "src/repro/uarch/uop.py",
)

# --- pinned hashes (auto-generated; python -m repro.version --refresh) ---
#: MODEL_VERSION the hashes below were pinned under.
PINNED_MODEL_VERSION = 3
#: sha256 of each registered file's bytes at pin time.
SEMANTIC_HASHES = {
    "src/repro/backends/functional.py":
        "eeb57f3c7cf5df15a07fd8a7910f1687ef457dc92cbcbe75aa803418e80bbfbe",
    "src/repro/backends/sampled.py":
        "b5fd4fb420b528463babaf8baaf22b9b1ba11fd7e2f6451e13a9b855df1de435",
    "src/repro/backends/warmup.py":
        "dc1d6734a99bbab6f126dc8444e1215ef281f66b680296081428409ece9dab0c",
    "src/repro/branch/predictor.py":
        "6c8345ac40c885720a09f6ff0a72a18eef53b39d93ac6ac846ce290e2125436b",
    "src/repro/core/events.py":
        "555e8d6b791c196523bf110921478b1cf34e8b8737cff926f5a7a324135d0255",
    "src/repro/core/samplers.py":
        "b46e99c3c94dd62d03d2f1a655c96e6216486fdf5262a0830babc1e2532d9b92",
    "src/repro/isa/interpreter.py":
        "857edc46f754dec44f1039d20afd61ac64c6343f5e854d3dc0005ee21052e94c",
    "src/repro/isa/semantics.py":
        "ae010f3dc51469f555002280607d8f1254ace202862057df734910f35e3b9543",
    "src/repro/memory/cache.py":
        "b18c125e06a7384de209d77600f50fabf5b45a92b1ddbb00763cb6a311d128da",
    "src/repro/memory/dram.py":
        "85fe19fe4b3316330ae218f5e3ac468b3119b5fcfbc9f88a803b574e4e16b026",
    "src/repro/memory/hierarchy.py":
        "027fb82bf74941d6f05460f4237ef932c937d94b08fef6e1196f50820b3d6fdf",
    "src/repro/memory/tlb.py":
        "6e799416dcd20a2c0efd72914ac75ae599d63a83984b0afc4256bf348662e338",
    "src/repro/uarch/core.py":
        "bb3936377520dcedc09bc8a40b40d3decd4b29b41444bc051835570bcd14777f",
    "src/repro/uarch/uop.py":
        "a8be01dbee119a12567425c9397b40aaf6c0d8a2bd85336bbe109f7f429d5184",
}
# --- end pinned hashes ---


def file_hash(path: Path) -> str:
    """sha256 hex digest of *path*'s bytes."""
    return hashlib.sha256(path.read_bytes()).hexdigest()


def current_hashes(root: Path) -> dict[str, str | None]:
    """Registered file -> current hash under *root* (None if missing)."""
    out: dict[str, str | None] = {}
    for rel in SEMANTIC_FILES:
        path = Path(root) / rel
        out[rel] = file_hash(path) if path.is_file() else None
    return out


def check_semantics(
    root: Path,
    pins: dict[str, str] | None = None,
    model_version: int | None = None,
    pinned_model_version: int | None = None,
    files: tuple[str, ...] | None = None,
) -> list[str]:
    """Verify the semantics pins against the tree under *root*.

    Returns a list of human-readable problems (empty = consistent).
    The *pins*/*model_version*/*pinned_model_version*/*files*
    overrides exist for tests; production callers use the module
    constants.
    """
    pins = SEMANTIC_HASHES if pins is None else pins
    version = MODEL_VERSION if model_version is None else model_version
    pinned = (
        PINNED_MODEL_VERSION
        if pinned_model_version is None
        else pinned_model_version
    )
    registered = SEMANTIC_FILES if files is None else files
    problems: list[str] = []
    for rel in registered:
        if rel not in pins:
            problems.append(
                f"registered semantics file {rel} has no pinned hash; "
                f"run 'python -m repro.version --refresh'"
            )
    actual = {
        rel: (
            file_hash(Path(root) / rel)
            if (Path(root) / rel).is_file()
            else None
        )
        for rel in pins
    }
    drifted = sorted(
        rel for rel, digest in actual.items()
        if digest is not None and digest != pins[rel]
    )
    missing = sorted(
        rel for rel, digest in actual.items() if digest is None
    )
    for rel in missing:
        problems.append(
            f"registered semantics file {rel} is missing from the tree"
        )
    if drifted and version == pinned:
        for rel in drifted:
            problems.append(
                f"{rel} changed but MODEL_VERSION is still {version}; "
                f"bump MODEL_VERSION in src/repro/version.py and run "
                f"'python -m repro.version --refresh'"
            )
    elif drifted:
        for rel in drifted:
            problems.append(
                f"{rel} changed and MODEL_VERSION was bumped to "
                f"{version}, but the pins are stale; run "
                f"'python -m repro.version --refresh'"
            )
    elif version != pinned:
        problems.append(
            f"MODEL_VERSION is {version} but the pins were generated "
            f"under {pinned}; run 'python -m repro.version --refresh'"
        )
    return problems


def find_repo_root(start: Path | None = None) -> Path:
    """Nearest ancestor of *start* (default cwd) with a pyproject.toml."""
    probe = Path.cwd() if start is None else Path(start).resolve()
    if probe.is_file():
        probe = probe.parent
    for candidate in (probe, *probe.parents):
        if (candidate / "pyproject.toml").is_file():
            return candidate
    return probe


_BLOCK_START = (
    "# --- pinned hashes (auto-generated; "
    "python -m repro.version --refresh) ---"
)
_BLOCK_END = "# --- end pinned hashes ---"


def refresh_pins(
    root: Path | None = None, allow_same_version: bool = False
) -> dict[str, str]:
    """Recompute the pins and rewrite this module's generated block.

    Raises:
        RuntimeError: If registered content drifted while MODEL_VERSION
            still equals PINNED_MODEL_VERSION (bump it first), unless
            *allow_same_version* acknowledges a cosmetic-only change.
    """
    root = find_repo_root() if root is None else Path(root)
    hashes = current_hashes(root)
    missing = sorted(rel for rel, h in hashes.items() if h is None)
    if missing:
        raise RuntimeError(
            "cannot pin missing semantics file(s): " + ", ".join(missing)
        )
    drifted = SEMANTIC_HASHES and any(
        SEMANTIC_HASHES.get(rel) != digest
        for rel, digest in hashes.items()
    )
    if (
        drifted
        and MODEL_VERSION == PINNED_MODEL_VERSION
        and not allow_same_version
    ):
        raise RuntimeError(
            "semantics files changed but MODEL_VERSION was not bumped; "
            "bump it in src/repro/version.py (or pass "
            "--allow-same-version for a provably cosmetic change)"
        )
    lines = [
        _BLOCK_START,
        "#: MODEL_VERSION the hashes below were pinned under.",
        f"PINNED_MODEL_VERSION = {MODEL_VERSION}",
        "#: sha256 of each registered file's bytes at pin time.",
        "SEMANTIC_HASHES = {",
    ]
    for rel in SEMANTIC_FILES:
        lines.append(f'    "{rel}":')
        lines.append(f'        "{hashes[rel]}",')
    lines.append("}")
    lines.append(_BLOCK_END)

    module_path = Path(__file__)
    source = module_path.read_text()
    start = source.index(_BLOCK_START)
    end = source.index(_BLOCK_END) + len(_BLOCK_END)
    module_path.write_text(
        source[:start] + "\n".join(lines) + source[end:]
    )
    return {rel: digest for rel, digest in hashes.items() if digest}


def main(argv: list[str] | None = None) -> int:
    """``python -m repro.version``: report or refresh the pins."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.version",
        description="Inspect or refresh the semantics-file pins.",
    )
    parser.add_argument(
        "--refresh", action="store_true",
        help="recompute the pinned hashes and rewrite version.py",
    )
    parser.add_argument(
        "--allow-same-version", action="store_true",
        help="permit --refresh without a MODEL_VERSION bump "
        "(cosmetic changes only)",
    )
    parser.add_argument(
        "--root", default=None, metavar="DIR",
        help="repository root (default: nearest pyproject.toml)",
    )
    args = parser.parse_args(argv)
    root = Path(args.root) if args.root else find_repo_root()
    if args.refresh:
        try:
            refresh_pins(root, allow_same_version=args.allow_same_version)
        except RuntimeError as exc:
            print(f"error: {exc}")
            return 1
        print(
            f"pinned {len(SEMANTIC_FILES)} semantics file(s) under "
            f"MODEL_VERSION {MODEL_VERSION}"
        )
        return 0
    problems = check_semantics(root)
    if problems:
        for problem in problems:
            print(problem)
        return 1
    print(
        f"semantics pins OK ({len(SEMANTIC_FILES)} file(s), "
        f"MODEL_VERSION {MODEL_VERSION})"
    )
    return 0


if __name__ == "__main__":  # pragma: no cover
    import sys

    sys.exit(main())
