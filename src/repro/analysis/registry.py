"""The pluggable checker registry of tea-lint.

A checker is a plain function registered under a :class:`Rule` with the
:func:`checker` decorator. It is called once per analysed file with the
:class:`~repro.analysis.module.ModuleSource` and yields
``(line, col, message, hint)`` tuples; the runner fills in rule id,
severity, path, and enclosing symbol.

Adding a checker::

    @checker(Rule("TL0xx", "my-rule", "one-line summary"))
    def check_my_rule(module):
        for node in ast.walk(module.tree):
            ...
            yield node.lineno, node.col_offset + 1, "message", "hint"

and import its module from :mod:`repro.analysis.checkers` so
registration runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable, Iterable

from repro.analysis.findings import SEVERITIES, SEVERITY_ERROR


@dataclass(frozen=True)
class Rule:
    """Metadata of one lint rule.

    Attributes:
        id: Stable rule id (``TLnnn``).
        name: Short kebab-case name for humans.
        summary: One-line description for ``--list-rules`` and docs.
        severity: Default severity of its findings.
    """

    id: str
    name: str
    summary: str
    severity: str = SEVERITY_ERROR

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(f"unknown severity {self.severity!r}")


@dataclass(frozen=True)
class Checker:
    """A registered rule plus its checking function."""

    rule: Rule
    fn: Callable[..., Iterable]


#: Rule id -> registered checker, in registration order.
CHECKERS: dict[str, Checker] = {}


def checker(rule: Rule) -> Callable[[Callable], Callable]:
    """Register *fn* as the checker implementing *rule*."""

    def decorate(fn: Callable) -> Callable:
        if rule.id in CHECKERS:
            raise ValueError(f"duplicate rule id {rule.id}")
        CHECKERS[rule.id] = Checker(rule=rule, fn=fn)
        return fn

    return decorate


def all_rules() -> list[Rule]:
    """Every registered rule, in registration order."""
    return [c.rule for c in CHECKERS.values()]


def select_checkers(
    rules: Iterable[str] | None = None,
    ignore: Iterable[str] | None = None,
) -> list[Checker]:
    """The checkers to run after ``--rule``/``--ignore`` filtering.

    Raises:
        KeyError: When a named rule id is not registered.
    """
    wanted = None if rules is None else {r.upper() for r in rules}
    dropped = set() if ignore is None else {r.upper() for r in ignore}
    for rule_id in (wanted or set()) | dropped:
        if rule_id not in CHECKERS:
            raise KeyError(f"unknown rule {rule_id}")
    out = []
    for rule_id, registered in CHECKERS.items():
        if wanted is not None and rule_id not in wanted:
            continue
        if rule_id in dropped:
            continue
        out.append(registered)
    return out
