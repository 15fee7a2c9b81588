"""TL002 obs-overhead: hot modules must gate observability calls.

:mod:`repro.obs` is zero-overhead *only* behind its module-flag fast
path. Inside the simulator's hot packages (``repro.uarch``,
``repro.isa``, ``repro.memory``) every use of the spans/counters API
must therefore be lexically guarded by an ``obs.enabled()`` check --
otherwise a span allocates and reads the clock on every simulated
cycle whether observability is on or not.

Recognised guards:

* use inside the taken branch of ``if obs.enabled():`` (including
  compound tests such as ``if obs.enabled() and ...:``), or inside the
  ``else`` of ``if not obs.enabled():``;
* use anywhere after a leading early return
  ``if not obs.enabled(): return`` in the same function.

Call sites that are themselves only reachable from a guarded branch
(e.g. a helper called only behind the flag) cannot be proven safe
lexically; annotate those with an inline
``# tealint: disable=TL002 -- <why>`` at the def line.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.module import ModuleSource
from repro.analysis.registry import Rule, checker

#: Packages where unguarded observability calls are findings.
HOT_PACKAGES = ("repro.uarch", "repro.isa", "repro.memory")

#: Names importable from repro.obs whose bare use counts as obs use.
_OBS_API = {"span", "COLLECTOR", "COUNTERS"}


def _is_enabled_call(node: ast.AST) -> bool:
    """A call whose target is (obs.)enabled."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Name):
        return func.id == "enabled"
    return isinstance(func, ast.Attribute) and func.attr == "enabled"


def _test_mentions_enabled(test: ast.AST) -> bool:
    return any(_is_enabled_call(node) for node in ast.walk(test))


def _is_negated_enabled(test: ast.AST) -> bool:
    return isinstance(test, ast.UnaryOp) and isinstance(
        test.op, ast.Not
    ) and _test_mentions_enabled(test.operand)


def _obs_names(module: ModuleSource) -> tuple[set[str], set[str]]:
    """(module aliases, API names) bound from repro.obs imports."""
    module_aliases: set[str] = set()
    api_names: set[str] = set()
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in ("repro.obs", "obs"):
                    module_aliases.add(
                        alias.asname or alias.name.split(".")[-1]
                    )
        elif isinstance(node, ast.ImportFrom):
            if node.module == "repro" :
                for alias in node.names:
                    if alias.name == "obs":
                        module_aliases.add(alias.asname or "obs")
            elif node.module and node.module.startswith("repro.obs"):
                for alias in node.names:
                    if alias.name in _OBS_API:
                        api_names.add(alias.asname or alias.name)
    return module_aliases, api_names


def _guard_ranges(tree: ast.AST) -> list[tuple[int, int]]:
    """Line ranges lexically protected by an enabled() guard."""
    ranges: list[tuple[int, int]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.If):
            if _is_negated_enabled(node.test):
                branch = node.orelse
            elif _test_mentions_enabled(node.test):
                branch = node.body
            else:
                continue
            if branch:
                ranges.append(
                    (branch[0].lineno, branch[-1].end_lineno or 0)
                )
        elif isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
            ):
                body = body[1:]
            if (
                body
                and isinstance(body[0], ast.If)
                and _is_negated_enabled(body[0].test)
                and body[0].body
                and isinstance(
                    body[0].body[-1], (ast.Return, ast.Raise)
                )
                and len(body) > 1
            ):
                ranges.append(
                    (body[1].lineno, node.end_lineno or body[1].lineno)
                )
    return ranges


@checker(
    Rule(
        "TL002",
        "obs-overhead",
        "repro.obs use in hot packages must sit behind the "
        "obs.enabled() fast path",
    )
)
def check_obs_overhead(
    module: ModuleSource,
) -> Iterator[tuple[int, int, str, str]]:
    if not module.in_package(*HOT_PACKAGES):
        return
    module_aliases, api_names = _obs_names(module)
    if not module_aliases and not api_names:
        return
    guards = _guard_ranges(module.tree)

    def guarded(line: int) -> bool:
        return any(start <= line <= end for start, end in guards)

    for node in ast.walk(module.tree):
        usage: str | None = None
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in module_aliases
        ):
            if node.attr in ("enabled", "enable", "disable"):
                continue
            usage = f"{node.value.id}.{node.attr}"
        elif (
            isinstance(node, ast.Name)
            and isinstance(node.ctx, ast.Load)
            and node.id in api_names
        ):
            usage = node.id
        if usage is None or guarded(node.lineno):
            continue
        yield (
            node.lineno,
            node.col_offset + 1,
            f"unguarded observability use {usage!r} in hot module "
            f"{module.module_name}",
            "wrap it in 'if obs.enabled():' (or annotate the "
            "enclosing def with '# tealint: disable=TL002 -- why' "
            "when the guard lives at the call site)",
        )
