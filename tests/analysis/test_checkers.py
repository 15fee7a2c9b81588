"""Fixture-driven tests: one class per tea-lint checker.

Fixtures live in ``tests/analysis/data/`` (excluded from real lint
runs) and are linted under *virtual* paths so the path-scoped
checkers treat them as hot-package modules.
"""

from repro.analysis import lint_source

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
