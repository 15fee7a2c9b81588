"""The code digest that addresses stored runs (``repro.version``)."""

import shutil
from pathlib import Path

import pytest

import repro
from repro.version import CODE_PACKAGES, code_digest, source_digest

PACKAGE = Path(repro.__file__).parent

#: Subpackages the simulator does not import: their source cannot
#: change a result, so it stays out of the digest.
OUTSIDE_DIGEST = (
    "analysis", "engine", "experiments", "fuzz", "obs", "predict",
    "trace", "viz",
)

#: Files whose edit can change a result: the timing model, samplers,
#: memory system, interpreter and predictor, plus a kernel, the op
#: classes, the program builders and the Table 2 defaults.
RESULT_FILES = (
    "backends/functional.py",
    "backends/sampled.py",
    "backends/warmup.py",
    "branch/predictor.py",
    "core/events.py",
    "core/samplers.py",
    "isa/interpreter.py",
    "isa/semantics.py",
    "memory/cache.py",
    "memory/dram.py",
    "memory/hierarchy.py",
    "memory/tlb.py",
    "uarch/core.py",
    "uarch/uop.py",
    "workloads/lbm.py",
    "isa/opcodes.py",
    "isa/program.py",
    "isa/builder.py",
    "uarch/config.py",
)


@pytest.fixture(scope="module")
def package_copy(tmp_path_factory):
    """A copy of the installed ``repro`` package."""
    root = tmp_path_factory.mktemp("src") / "repro"
    shutil.copytree(
        PACKAGE, root, ignore=shutil.ignore_patterns("__pycache__")
    )
    return root


def digest_after_edit(root: Path, rel: str) -> str:
    """The digest of *root* with a comment appended to *rel*, which is
    restored afterwards."""
    path = root / rel
    original = path.read_bytes()
    try:
        path.write_bytes(original + b"\n# edited\n")
        return source_digest(root)
    finally:
        path.write_bytes(original)


def test_a_copy_hashes_like_the_installed_package(package_copy):
    assert source_digest(package_copy) == code_digest()


@pytest.mark.parametrize("rel", RESULT_FILES)
def test_an_edit_to_a_result_file_changes_the_digest(package_copy, rel):
    assert digest_after_edit(package_copy, rel) != code_digest()
    assert source_digest(package_copy) == code_digest()


@pytest.mark.parametrize(
    "rel", ["cli.py", "engine/engine.py", "engine/store.py"]
)
def test_an_edit_outside_the_code_packages_keeps_the_digest(
    package_copy, rel
):
    assert digest_after_edit(package_copy, rel) == code_digest()


def test_every_subpackage_is_in_or_out_of_the_digest():
    """A new subpackage fails here until it is put on one side."""
    subpackages = {
        path.parent.name for path in PACKAGE.glob("*/__init__.py")
    }
    assert not set(CODE_PACKAGES) & set(OUTSIDE_DIGEST)
    assert subpackages == set(CODE_PACKAGES) | set(OUTSIDE_DIGEST)
