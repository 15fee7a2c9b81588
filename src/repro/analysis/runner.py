"""The tea-lint driver: collect files, run checkers, filter findings.

The pipeline per run:

1. collect ``.py`` files under the given paths (explicit file
   arguments bypass the default excludes -- fixture corpora such as
   ``tests/analysis/data/`` are skipped when walking directories);
2. parse each into a :class:`~repro.analysis.module.ModuleSource`
   (syntax errors become ``TL000`` findings rather than crashes);
3. run every selected checker on every module;
4. drop findings silenced by inline suppressions, then split the rest
   against the baseline;
5. return a :class:`~repro.analysis.findings.LintResult`.
"""

from __future__ import annotations

from pathlib import Path
from collections.abc import Iterable, Sequence

from repro.analysis.baseline import Baseline
from repro.analysis.findings import Finding, LintResult
from repro.analysis.module import ModuleSource
from repro.analysis.registry import CHECKERS, Checker, select_checkers

# Populate the registry.
import repro.analysis.checkers  # noqa: F401  (registration side effect)

#: Path fragments (relative, posix) never collected from directories:
#: lint fixture corpora are deliberately-bad code.
DEFAULT_EXCLUDES = (
    "tests/analysis/data",
    "__pycache__",
    ".git",
)

#: Rule id for files that fail to parse.
SYNTAX_RULE = "TL000"


def find_repo_root() -> Path:
    """Nearest ancestor of the working directory with a pyproject.toml
    (the working directory itself when none has one)."""
    cwd = Path.cwd()
    for candidate in (cwd, *cwd.parents):
        if (candidate / "pyproject.toml").is_file():
            return candidate
    return cwd


def _excluded(path: Path, excludes: Sequence[str]) -> bool:
    posix = path.as_posix()
    return any(fragment in posix for fragment in excludes)


def collect_files(
    paths: Iterable[str | Path],
    excludes: Sequence[str] = DEFAULT_EXCLUDES,
) -> list[Path]:
    """Python files under *paths*, sorted, excludes applied to walks.

    Raises:
        FileNotFoundError: When a named path does not exist.
    """
    out: list[Path] = []
    seen: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if not path.exists():
            raise FileNotFoundError(f"no such path: {raw}")
        if path.is_file():
            candidates = [path]
        else:
            candidates = [
                p
                for p in sorted(path.rglob("*.py"))
                if not _excluded(p, excludes)
            ]
        for candidate in candidates:
            if candidate not in seen:
                seen.add(candidate)
                out.append(candidate)
    return out


def parse_module(
    path: Path, root: Path | None = None
) -> ModuleSource | Finding:
    """Parse one file; a syntax error becomes a TL000 finding."""
    text = path.read_text()
    rel = _relpath(path, root)
    try:
        return ModuleSource(rel, text)
    except SyntaxError as exc:
        return Finding(
            rule=SYNTAX_RULE,
            severity="error",
            path=rel,
            line=exc.lineno or 1,
            col=exc.offset or 1,
            message=f"syntax error: {exc.msg}",
            hint="the file cannot be analysed until it parses",
        )


def _relpath(path: Path, root: Path | None) -> str:
    if root is not None:
        try:
            return path.resolve().relative_to(
                Path(root).resolve()
            ).as_posix()
        except ValueError:
            pass
    return path.as_posix()


def _materialise(checker: Checker, module: ModuleSource) -> list[Finding]:
    """Run *checker* on *module*, its yields made Finding objects."""
    return [
        Finding(
            rule=checker.rule.id,
            severity=checker.rule.severity,
            path=module.path,
            line=line,
            col=col,
            message=message,
            hint=hint,
            symbol=module.symbol_at(line),
        )
        for line, col, message, hint in checker.fn(module)
    ]


def lint_modules(
    modules: Sequence[ModuleSource],
    rules: Iterable[str] | None = None,
    ignore: Iterable[str] | None = None,
    baseline: Baseline | None = None,
    parse_failures: Sequence[Finding] = (),
) -> LintResult:
    """Run the selected checkers over already-parsed modules."""
    collected: list[Finding] = list(parse_failures)
    for registered in select_checkers(rules, ignore):
        for module in modules:
            collected.extend(_materialise(registered, module))
    collected.sort(key=lambda f: (f.path, f.line, f.col, f.rule))

    by_path = {module.path: module for module in modules}
    active: list[Finding] = []
    suppressed: list[Finding] = []
    for finding in collected:
        module = by_path.get(finding.path)
        if module is not None and module.suppressed(
            finding.rule, finding.line
        ):
            suppressed.append(finding)
        else:
            active.append(finding)

    baseline = baseline or Baseline()
    active, baselined, unused = baseline.split(active)
    return LintResult(
        findings=active,
        baselined=baselined,
        suppressed=suppressed,
        unused_baseline=unused,
        files_checked=len(modules) + len(parse_failures),
    )


def lint_paths(
    paths: Iterable[str | Path],
    root: str | Path | None = None,
    rules: Iterable[str] | None = None,
    ignore: Iterable[str] | None = None,
    baseline: Baseline | None = None,
    excludes: Sequence[str] = DEFAULT_EXCLUDES,
) -> LintResult:
    """Lint files/directories on disk (the CLI entry point)."""
    root = Path.cwd() if root is None else Path(root)
    files = collect_files(paths, excludes)
    modules: list[ModuleSource] = []
    failures: list[Finding] = []
    for path in files:
        parsed = parse_module(path, root)
        if isinstance(parsed, Finding):
            failures.append(parsed)
        else:
            modules.append(parsed)
    return lint_modules(
        modules,
        rules=rules,
        ignore=ignore,
        baseline=baseline,
        parse_failures=failures,
    )


def lint_source(
    source: str,
    path: str = "<memory>.py",
    rules: Iterable[str] | None = None,
    ignore: Iterable[str] | None = None,
    baseline: Baseline | None = None,
) -> LintResult:
    """Lint one in-memory source under a virtual *path* (test helper).

    The virtual path drives path-scoped applicability: lint a snippet
    as if it were, say, ``src/repro/uarch/core.py``.
    """
    return lint_modules(
        [ModuleSource(path, source)],
        rules=rules,
        ignore=ignore,
        baseline=baseline,
    )


def rule_catalogue() -> list[dict[str, str]]:
    """Rule metadata for ``--list-rules`` and the JSON reporter."""
    return [
        {
            "id": registered.rule.id,
            "name": registered.rule.name,
            "summary": registered.rule.summary,
            "severity": registered.rule.severity,
        }
        for registered in CHECKERS.values()
    ]
