"""Acceptance: tea-lint catches the exact regressions it exists for.

Each test takes the *real* shipped source, applies a one-line
sabotage, and asserts the right rule fires with a correct location --
and that the shipped tree itself stays clean modulo the committed
baseline.
"""

import json

from repro.analysis import (
    Baseline,
    DEFAULT_BASELINE_NAME,
    ModuleSource,
    lint_modules,
    lint_paths,
)

from tests.analysis.conftest import REPO_ROOT

CORE = REPO_ROOT / "src" / "repro" / "uarch" / "core.py"
WORKLOAD = REPO_ROOT / "src" / "repro" / "workloads" / "base.py"
ANALYZER = REPO_ROOT / "src" / "repro" / "predict" / "analyzer.py"


def lint_text(path, text, rules):
    module = ModuleSource(
        path.relative_to(REPO_ROOT).as_posix(), text
    )
    return lint_modules([module], rules=rules)


def test_shipped_tree_is_clean_modulo_baseline():
    baseline = Baseline.load(REPO_ROOT / DEFAULT_BASELINE_NAME)
    result = lint_paths(
        [REPO_ROOT / "src", REPO_ROOT / "tests"],
        root=REPO_ROOT,
        baseline=baseline,
    )
    assert result.findings == [], [
        f"{f.location}: {f.rule} {f.message}" for f in result.findings
    ]
    assert result.exit_code == 0
    # And the baseline itself carries no dead weight.
    assert result.unused_baseline == []


def test_unguarded_obs_span_in_step_breaks_tl002():
    original = CORE.read_text()
    anchor = (
        "        if self.reference_loop:\n"
        "            self._step_reference(horizon)\n"
        "            return\n"
    )
    sabotage = original.replace(
        anchor,
        anchor + '        with obs.span("core.step"):\n'
        "            pass\n",
    )
    assert sabotage != original, "anchor text drifted; update the test"
    result = lint_text(CORE, sabotage, rules=["TL002"])
    assert [f.rule for f in result.findings] == ["TL002"]
    finding = result.findings[0]
    assert finding.path == "src/repro/uarch/core.py"
    assert finding.symbol == "Core.step"
    assert "obs.span" in finding.message
    assert (
        sabotage.splitlines()[finding.line - 1].strip()
        == 'with obs.span("core.step"):'
    )
    assert result.exit_code == 1


def test_wall_clock_in_workload_breaks_tl003():
    original = WORKLOAD.read_text()
    sabotage = (
        original
        + "\n\nimport time\n\n\ndef _jitter():\n"
        + "    return time.time()\n"
    )
    result = lint_text(WORKLOAD, sabotage, rules=["TL003"])
    assert [f.rule for f in result.findings] == ["TL003"]
    finding = result.findings[0]
    assert finding.path == "src/repro/workloads/base.py"
    assert "time.time" in finding.message
    expected_line = len(sabotage.splitlines())  # the return line
    assert finding.line == expected_line
    assert result.exit_code == 1


def test_simulating_in_the_predictor_breaks_tl008():
    original = ANALYZER.read_text()
    sabotage = original.replace(
        "from repro.isa.program import Program\n",
        "from repro.isa.program import Program\n"
        "from repro.engine import Engine\n",
    )
    assert sabotage != original, "anchor text drifted; update the test"
    result = lint_text(ANALYZER, sabotage, rules=["TL008"])
    assert [f.rule for f in result.findings] == ["TL008"]
    finding = result.findings[0]
    assert finding.path == "src/repro/predict/analyzer.py"
    assert "repro.engine" in finding.message
    assert "refine" in finding.hint
    assert result.exit_code == 1


def test_shipped_predictor_is_simulation_free():
    result = lint_text(ANALYZER, ANALYZER.read_text(), rules=["TL008"])
    assert result.findings == []


def test_placeholder_baseline_reasons_are_warned_about():
    from repro.analysis import render_json, render_text
    from repro.analysis.baseline import PLACEHOLDER_REASON
    from repro.analysis.findings import Finding, LintResult

    finding = Finding(
        rule="TL003",
        severity="error",
        path="src/repro/uarch/fake.py",
        line=1,
        col=1,
        message="m",
    )
    baseline = Baseline.from_findings([finding])
    assert baseline.entries[finding.key] == PLACEHOLDER_REASON
    assert baseline.placeholder_keys() == [finding.key]

    justified = Baseline.from_findings(
        [finding], default_reason="known slow path, tracked in #12"
    )
    assert justified.placeholder_keys() == []

    result = LintResult(baselined=[finding], files_checked=1)
    text = render_text(result, baseline=baseline)
    assert "placeholder reason" in text
    assert "--reason" in text
    doc = json.loads(render_json(result, baseline=baseline))
    assert doc["counts"]["placeholder_baseline"] == 1
    assert doc["placeholder_baseline"][0]["rule"] == "TL003"
    # Non-gating: the nag never fails the run on its own.
    assert result.exit_code == 0
    clean = render_text(result, baseline=justified)
    assert "placeholder reason" not in clean


def test_baseline_file_is_well_formed():
    doc = json.loads((REPO_ROOT / DEFAULT_BASELINE_NAME).read_text())
    assert doc["entries"], "baseline should document the known findings"
    for entry in doc["entries"]:
        assert entry["reason"].strip(), entry
        assert not entry["reason"].startswith("TODO"), entry
