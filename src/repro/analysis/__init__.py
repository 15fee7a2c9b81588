"""tea-lint: AST-based invariant checks for the reproduction's
correctness contracts.

The simulator's load-bearing invariants -- observability staying
behind its fast path, model determinism, ``__slots__`` discipline,
picklable executor payloads, and the purity of the backends and the
static predictor -- are all checkable from source. This package checks
them:

>>> from repro.analysis import lint_paths
>>> result = lint_paths(["src"])
>>> result.exit_code
0

Checkers register themselves against :mod:`repro.analysis.registry`
on import; ``tea-repro lint`` is the CLI front end. See
``docs/internals.md`` (Static analysis) for the rule catalogue and
the suppression / baseline semantics.
"""

from repro.analysis.baseline import DEFAULT_BASELINE_NAME, Baseline
from repro.analysis.findings import (
    GATING_SEVERITIES,
    Finding,
    LintResult,
)
from repro.analysis.module import ModuleSource
from repro.analysis.registry import (
    CHECKERS,
    Rule,
    all_rules,
    checker,
)
from repro.analysis.report import render_json, render_text
from repro.analysis.runner import (
    DEFAULT_EXCLUDES,
    collect_files,
    lint_modules,
    lint_paths,
    lint_source,
    rule_catalogue,
)

__all__ = [
    "Baseline",
    "CHECKERS",
    "DEFAULT_BASELINE_NAME",
    "DEFAULT_EXCLUDES",
    "Finding",
    "GATING_SEVERITIES",
    "LintResult",
    "ModuleSource",
    "Rule",
    "all_rules",
    "checker",
    "collect_files",
    "lint_modules",
    "lint_paths",
    "lint_source",
    "render_json",
    "render_text",
    "rule_catalogue",
]
