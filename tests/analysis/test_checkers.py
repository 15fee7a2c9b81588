"""Fixture-driven tests: one class per tea-lint checker.

Fixtures live in ``tests/analysis/data/`` (excluded from real lint
runs) and are linted under *virtual* paths so the path-scoped
checkers treat them as hot-package modules.
"""

import pytest

from repro.analysis import lint_source
from repro.version import check_semantics

from tests.analysis.conftest import fixture_text

UARCH = "src/repro/uarch/fake.py"


def rules_of(result):
    return [f.rule for f in result.findings]


class TestObsOverheadTL002:
    def test_only_the_unguarded_use_is_flagged(self):
        result = lint_source(
            fixture_text("obs_mixed.py"), path=UARCH, rules=["TL002"]
        )
        assert rules_of(result) == ["TL002"]
        finding = result.findings[0]
        assert "obs.span" in finding.message
        assert finding.symbol == "Pipe.hot"

    def test_non_hot_package_is_exempt(self):
        result = lint_source(
            fixture_text("obs_mixed.py"),
            path="src/repro/engine/fake.py",
            rules=["TL002"],
        )
        assert result.findings == []

    def test_def_scoped_disable_with_reason(self):
        source = fixture_text("obs_mixed.py").replace(
            "    def hot(self):",
            "    # tealint: disable=TL002 -- guarded at the call site\n"
            "    def hot(self):",
        )
        result = lint_source(source, path=UARCH, rules=["TL002"])
        assert result.findings == []
        assert [f.rule for f in result.suppressed] == ["TL002"]


class TestDeterminismTL003:
    def test_all_banned_sources_flagged(self):
        result = lint_source(
            fixture_text("det_bad.py"), path=UARCH, rules=["TL003"]
        )
        messages = " | ".join(f.message for f in result.findings)
        assert "time.time" in messages
        assert "random.random" in messages
        assert "random.Random() without a seed" in messages
        assert "os.environ" in messages
        # The seeded rng construction is NOT among the findings.
        assert len(result.findings) == 4

    def test_workloads_package_is_covered(self):
        result = lint_source(
            fixture_text("det_bad.py"),
            path="src/repro/workloads/fake.py",
            rules=["TL003"],
        )
        assert result.findings

    def test_non_model_code_is_exempt(self):
        result = lint_source(
            fixture_text("det_bad.py"),
            path="src/repro/obs/fake.py",
            rules=["TL003"],
        )
        assert result.findings == []

    def test_from_import_of_banned_name(self):
        result = lint_source(
            "from time import time\n",
            path=UARCH,
            rules=["TL003"],
        )
        assert rules_of(result) == ["TL003"]


class TestSlotsTL004:
    def test_fixture_findings(self):
        result = lint_source(
            fixture_text("slots_bad.py"),
            path="src/repro/memory/fake.py",
            rules=["TL004"],
        )
        messages = [f.message for f in result.findings]
        assert any("self.last_use" in m for m in messages)
        assert any(
            "hot per-event class Uop has no __slots__" in m
            for m in messages
        )
        assert any("self.level" in m for m in messages)
        assert len(result.findings) == 3

    def test_unresolvable_base_is_skipped(self):
        source = (
            "from other import Base\n"
            "class Sub(Base):\n"
            "    __slots__ = ('x',)\n"
            "    def set(self, v):\n"
            "        self.y = v\n"
        )
        result = lint_source(source, path=UARCH, rules=["TL004"])
        assert result.findings == []

    def test_resolved_base_slots_union(self):
        source = (
            "class Base:\n"
            "    __slots__ = ('x',)\n"
            "class Sub(Base):\n"
            "    __slots__ = ('y',)\n"
            "    def set(self, v):\n"
            "        self.x = v\n"
            "        self.y = v\n"
            "        self.z = v\n"
        )
        result = lint_source(source, path=UARCH, rules=["TL004"])
        assert rules_of(result) == ["TL004"]
        assert "self.z" in result.findings[0].message


class TestWorkerSafetyTL005:
    def test_fixture_findings(self):
        result = lint_source(
            fixture_text("worker_bad.py"),
            path="tests/engine/fake_test.py",
            rules=["TL005"],
        )
        messages = [f.message for f in result.findings]
        assert sum("nested function" in m for m in messages) == 2
        assert sum("lambda" in m for m in messages) == 1
        assert sum("open() handle" in m for m in messages) == 1
        assert sum("module-level mutable" in m for m in messages) == 1
        assert len(result.findings) == 5

    def test_on_result_lambda_is_exempt(self):
        source = (
            "def go(SuiteExecutor, worker):\n"
            "    ex = SuiteExecutor(jobs=2, fn=worker)\n"
            "    ex.run([], on_result=lambda label, payload: None)\n"
        )
        result = lint_source(source, path="tests/fake.py", rules=["TL005"])
        assert result.findings == []


class TestBackendPurityTL007:
    BAD = (
        "import repro.uarch.core\n"
        "from repro.uarch.config import CoreConfig\n"
        "from repro.isa.program import Program\n"
    )

    def test_isa_package_may_not_import_uarch(self):
        result = lint_source(
            self.BAD, path="src/repro/isa/fake.py", rules=["TL007"]
        )
        assert rules_of(result) == ["TL007", "TL007"]
        messages = " | ".join(f.message for f in result.findings)
        assert "repro.uarch.core" in messages
        assert "repro.uarch.config" in messages
        assert "repro.isa.fake" in messages

    def test_uarch_free_backend_modules_are_covered(self):
        for mod in ("base", "functional", "warmup"):
            result = lint_source(
                "from repro.uarch.core import Core\n",
                path=f"src/repro/backends/{mod}.py",
                rules=["TL007"],
            )
            assert rules_of(result) == ["TL007"], mod

    def test_cycle_level_tier_is_exempt(self):
        for mod in ("detailed", "sampled", "__init__"):
            result = lint_source(
                "from repro.uarch.core import Core\n",
                path=f"src/repro/backends/{mod}.py",
                rules=["TL007"],
            )
            assert result.findings == [], mod

    def test_unrelated_packages_are_exempt(self):
        result = lint_source(
            self.BAD, path="src/repro/engine/fake.py", rules=["TL007"]
        )
        assert result.findings == []

    def test_relative_imports_and_isa_imports_pass(self):
        result = lint_source(
            "from repro.isa.program import Program\n"
            "from . import opcodes\n"
            "import repro.core.pics\n",
            path="src/repro/isa/fake.py",
            rules=["TL007"],
        )
        assert result.findings == []

    def test_real_pure_layers_are_clean(self):
        from pathlib import Path

        from repro.analysis import lint_paths

        from tests.analysis.conftest import REPO_ROOT

        root = Path(REPO_ROOT)
        targets = sorted((root / "src/repro/isa").glob("*.py")) + [
            root / "src/repro/backends/base.py",
            root / "src/repro/backends/functional.py",
            root / "src/repro/backends/warmup.py",
        ]
        result = lint_paths(targets, root=root, rules=["TL007"])
        assert result.findings == []


class TestPredictPurityTL008:
    BAD = (
        "import repro.uarch.core\n"
        "from repro.backends import make_backend\n"
        "from repro.engine import Engine\n"
        "from repro.uarch.config import CoreConfig\n"
        "from repro.isa.program import Program\n"
    )

    def test_predict_modules_may_not_import_the_simulator(self):
        result = lint_source(
            self.BAD, path="src/repro/predict/fake.py", rules=["TL008"]
        )
        assert rules_of(result) == ["TL008"] * 3
        messages = " | ".join(f.message for f in result.findings)
        assert "repro.uarch.core" in messages
        assert "repro.backends" in messages
        assert "repro.engine" in messages
        # Reading the configuration is allowed: the port mapping is
        # derived from it.
        assert "repro.uarch.config" not in messages

    def test_refine_is_the_exempt_escalation_tier(self):
        result = lint_source(
            self.BAD,
            path="src/repro/predict/refine.py",
            rules=["TL008"],
        )
        assert result.findings == []

    def test_submodule_imports_are_caught(self):
        result = lint_source(
            "from repro.engine.spec import RunSpec\n",
            path="src/repro/predict/fake.py",
            rules=["TL008"],
        )
        assert rules_of(result) == ["TL008"]
        assert "escalation" in result.findings[0].hint

    def test_unrelated_packages_are_exempt(self):
        result = lint_source(
            self.BAD, path="src/repro/core/fake.py", rules=["TL008"]
        )
        assert result.findings == []

    def test_real_predict_package_is_clean(self):
        from pathlib import Path

        from repro.analysis import lint_paths

        from tests.analysis.conftest import REPO_ROOT

        root = Path(REPO_ROOT)
        targets = sorted(
            (root / "src/repro/predict").glob("*.py")
        )
        assert targets, "predict package not found"
        result = lint_paths(targets, root=root, rules=["TL008"])
        assert result.findings == []


class TestModelVersionTL006:
    def test_repo_pins_are_consistent(self):
        from tests.analysis.conftest import REPO_ROOT

        assert check_semantics(REPO_ROOT) == []

    def test_drift_without_bump_is_an_error(self, tmp_path):
        (tmp_path / "model.py").write_text("STATE = 1\n")
        pins = {"model.py": "0" * 64}
        problems = check_semantics(
            tmp_path,
            pins=pins,
            model_version=3,
            pinned_model_version=3,
            files=("model.py",),
        )
        assert len(problems) == 1
        assert "bump MODEL_VERSION" in problems[0]

    def test_drift_with_bump_wants_refresh(self, tmp_path):
        (tmp_path / "model.py").write_text("STATE = 1\n")
        problems = check_semantics(
            tmp_path,
            pins={"model.py": "0" * 64},
            model_version=4,
            pinned_model_version=3,
            files=("model.py",),
        )
        assert len(problems) == 1
        assert "pins are stale" in problems[0]

    def test_missing_and_unpinned_files(self, tmp_path):
        problems = check_semantics(
            tmp_path,
            pins={"gone.py": "0" * 64},
            model_version=3,
            pinned_model_version=3,
            files=("gone.py", "never_pinned.py"),
        )
        assert any("missing from the tree" in p for p in problems)
        assert any("no pinned hash" in p for p in problems)

    def test_version_bump_without_refresh(self, tmp_path):
        from repro.version import file_hash

        target = tmp_path / "model.py"
        target.write_text("STATE = 1\n")
        problems = check_semantics(
            tmp_path,
            pins={"model.py": file_hash(target)},
            model_version=4,
            pinned_model_version=3,
            files=("model.py",),
        )
        assert len(problems) == 1
        assert "pins were generated under 3" in problems[0]

    def test_checker_skips_foreign_trees(self, tmp_path):
        # Linting a tree without src/repro/version.py: TL006 is moot.
        from repro.analysis import lint_paths

        target = tmp_path / "mod.py"
        target.write_text("x = 1\n")
        result = lint_paths([target], root=tmp_path, rules=["TL006"])
        assert result.findings == []


def test_refresh_pins_refuses_same_version_drift(tmp_path, monkeypatch):
    import repro.version as version

    for rel in version.SEMANTIC_FILES:
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text("drifted = True\n")
    monkeypatch.setattr(
        version, "SEMANTIC_HASHES", {
            rel: "0" * 64 for rel in version.SEMANTIC_FILES
        },
    )
    with pytest.raises(RuntimeError, match="not bumped"):
        version.refresh_pins(tmp_path)


def test_version_cli_reports_ok():
    from repro.version import main

    from tests.analysis.conftest import REPO_ROOT

    assert main(["--root", str(REPO_ROOT)]) == 0


def test_fixture_corpus_files_exist():
    from tests.analysis.conftest import DATA

    names = {p.name for p in DATA.glob("*.py")}
    assert {
        "obs_mixed.py",
        "det_bad.py",
        "slots_bad.py",
        "worker_bad.py",
        "broken_syntax.py",
    } <= names
