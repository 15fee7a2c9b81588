"""Declarative run-health gating: SLO rules over a run log's stats.

``tea-repro health <run-log> --slo rules.json`` reads the run log with
the one parser (:func:`~repro.engine.telemetry.read_run_log`), folds it
into the ``tea-stats-v2`` document ``tea-repro stats --json`` prints
(:func:`~repro.engine.telemetry.aggregate_records`), and checks each
rule of a committed ``tea-slo-v1`` file against the field of that
document it names. Any violated rule is a non-zero exit, which is what
lets CI fail a build whose suite ran to completion but ran *badly*:
workers that went silent for seconds, throughput that cratered, retry
storms, or memory blow-ups.

Rules (all optional; absent rules are not checked), each a ceiling or
a floor on one stats field (see :data:`RULES`):

``max_stall_s``
    Ceiling on ``live.max_stall_s``: the longest heartbeat silence
    (seconds) a running worker showed, from the gaps between
    consecutive heartbeats of each label/attempt and from
    ``phase: "stalled"`` flags.
``min_insts_per_sec``
    Floor on ``runs.sim_insts_per_sec``: committed instructions per
    simulated wall second over the log's simulated runs. A log with
    nothing simulated has no rate (null), and the floor is skipped.
``max_retry_rate``
    Ceiling on ``suites.retry_rate``: retries per dispatched label
    (0.5 = one retry per two labels) across the log's suite
    executions.
``max_rss_kb``
    Ceiling on ``live.max_rss_kb``: the peak worker resident set
    (kilobytes, as reported by ``getrusage``).
``max_failed_labels``
    Ceiling on ``suites.failed_labels``: terminally failed suite
    labels (default expectation for CI is 0, but the rule is only
    checked when present).
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.engine.telemetry import aggregate_records, read_run_log

#: Schema tag every SLO rules file must carry.
SLO_SCHEMA = "tea-slo-v1"

#: Each rule: the section and field of the stats document it bounds,
#: and whether the bound is a ceiling (True) or a floor (False).
RULES: dict[str, tuple[str, str, bool]] = {
    "max_stall_s": ("live", "max_stall_s", True),
    "min_insts_per_sec": ("runs", "sim_insts_per_sec", False),
    "max_retry_rate": ("suites", "retry_rate", True),
    "max_rss_kb": ("live", "max_rss_kb", True),
    "max_failed_labels": ("suites", "failed_labels", True),
}


def read_slo_file(path: str | Path) -> dict[str, float]:
    """The rules mapping of a ``tea-slo-v1`` file.

    Raises:
        ValueError: On a malformed file, unknown schema, or unknown
            rule name (typoed rules must not silently pass).
    """
    doc = json.loads(Path(path).read_text())
    if not isinstance(doc, dict) or doc.get("schema") != SLO_SCHEMA:
        found = doc.get("schema") if isinstance(doc, dict) else None
        raise ValueError(
            f"{path}: not a {SLO_SCHEMA} file (schema={found!r})"
        )
    rules = doc.get("rules")
    if not isinstance(rules, dict) or not rules:
        raise ValueError(f"{path}: missing or empty 'rules' mapping")
    unknown = sorted(set(rules) - set(RULES))
    if unknown:
        raise ValueError(
            f"{path}: unknown rule(s) {', '.join(unknown)} "
            f"(known: {', '.join(RULES)})"
        )
    return {name: float(value) for name, value in rules.items()}


@dataclass
class HealthReport:
    """Measured stats fields plus the rules they violated."""

    metrics: dict[str, float | None] = field(default_factory=dict)
    violations: list[str] = field(default_factory=list)
    rules: dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """True when every checked rule passed."""
        return not self.violations

    def to_json(self) -> dict[str, Any]:
        """A JSON-ready document (``tea-repro health --json``)."""
        return {
            "ok": self.ok,
            "metrics": dict(self.metrics),
            "rules": dict(self.rules),
            "violations": list(self.violations),
        }

    def render(self) -> str:
        """Human-readable verdict, one line per checked rule."""
        lines = [
            "health: " + ("PASS" if self.ok else "FAIL")
            + f" ({len(self.rules)} rule(s) checked)"
        ]
        for name, (_, metric, _) in RULES.items():
            if name not in self.rules:
                continue
            measured = self.metrics[metric]
            verdict = "violated" if any(
                v.startswith(name) for v in self.violations
            ) else "skipped" if measured is None else "ok"
            shown = "n/a" if measured is None else f"{measured:g}"
            lines.append(
                f"  {name} = {self.rules[name]:g}: "
                f"measured {shown} -- {verdict}"
            )
        for violation in self.violations:
            lines.append(f"  FAIL {violation}")
        return "\n".join(lines)


def evaluate_health(
    records: Iterable[Mapping[str, Any]],
    rules: Mapping[str, float],
) -> HealthReport:
    """Check the stats of a run log's records against SLO *rules*.

    The report's metrics are the stats fields :data:`RULES` bound. A
    field with no measurement is null (a rate with nothing simulated)
    and its rule is skipped; every other empty measurement is a 0,
    which trivially passes ceilings.
    """
    doc = aggregate_records(records)
    report = HealthReport(
        metrics={
            metric: doc[section][metric]
            for section, metric, _ in RULES.values()
        },
        rules=dict(rules),
    )
    for name, (_, metric, ceiling) in RULES.items():
        value = report.metrics[metric]
        if name not in rules or value is None:
            continue
        limit = float(rules[name])
        if value > limit if ceiling else value < limit:
            bound = "exceeds limit" if ceiling else "is below floor"
            report.violations.append(
                f"{name}: measured {value:g} {bound} {limit:g}"
            )
    return report


def check_run_log(
    path: str | Path, slo_path: str | Path
) -> HealthReport:
    """Read a run log and an SLO file; evaluate the rules.

    Raises:
        OSError: When the run log is missing or unreadable: a gate
            over a log that is not there must not pass.
        ValueError: On a malformed rules file.
    """
    rules = read_slo_file(slo_path)
    if not Path(path).is_file():
        raise FileNotFoundError(f"no run log at {path}")
    return evaluate_health(read_run_log(path), rules)


__all__ = [
    "RULES",
    "SLO_SCHEMA",
    "HealthReport",
    "check_run_log",
    "evaluate_health",
    "read_slo_file",
]
