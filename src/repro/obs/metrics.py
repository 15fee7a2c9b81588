"""Prometheus text exposition of the counter registry.

* :func:`prometheus_text` renders the process-global
  :class:`~repro.obs.counters.CounterRegistry` as ``# TYPE``-annotated
  counter and gauge families;
* :func:`expose_prometheus` writes it as a node-exporter-style textfile
  (the CLI's ``--metrics-out``);
* :func:`validate_prometheus_text` -- a small format validator (used by
  tests and the CI health-smoke job) checking TYPE lines and sample
  syntax.
"""

from __future__ import annotations

import os
import re

from repro.obs.counters import COUNTERS, CounterRegistry

#: Prefix every exposed metric family carries.
PROM_PREFIX = "tea_"

METRIC_KINDS = ("counter", "gauge")

_NAME_OK = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*\Z")
_SAMPLE_LINE = re.compile(
    r"(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>[^\s]+)\s*\Z"
)


def sanitize_metric_name(name: str, prefix: str = PROM_PREFIX) -> str:
    """Map an internal dotted metric name to a Prometheus-legal one.

    ``core.commit.cycles`` -> ``tea_core_commit_cycles``. Idempotent
    for already-legal names; a leading digit gains an underscore.
    """
    body = re.sub(r"[^a-zA-Z0-9_:]", "_", name)
    if body and body[0].isdigit():
        body = "_" + body
    return prefix + body


def _fmt_value(value: float) -> str:
    """Prometheus sample value: integers bare, floats via repr."""
    number = float(value)
    if number.is_integer() and abs(number) < 1e15:
        return str(int(number))
    return repr(number)


def prometheus_text(registry: CounterRegistry | None = None) -> str:
    """Render *registry* in Prometheus text format 0.0.4.

    *registry* defaults to the process-global ``COUNTERS``.
    """
    registry = COUNTERS if registry is None else registry
    snap = registry.snapshot()
    counters = snap["counters"]
    gauges = snap["gauges"]

    lines: list[str] = []
    for name in sorted(counters):
        prom = sanitize_metric_name(name)
        lines.append(f"# HELP {prom} {name}")
        lines.append(f"# TYPE {prom} counter")
        lines.append(f"{prom} {_fmt_value(counters[name])}")
    for name in sorted(gauges):
        prom = sanitize_metric_name(name)
        lines.append(f"# HELP {prom} {name}")
        lines.append(f"# TYPE {prom} gauge")
        lines.append(f"{prom} {_fmt_value(gauges[name])}")
    return "\n".join(lines) + "\n" if lines else ""


def validate_prometheus_text(text: str) -> list[str]:
    """Check *text* against the Prometheus text format.

    Returns human-readable problems (empty = valid). Verifies sample
    line syntax and that every sample belongs to a ``# TYPE``-declared
    family of a known kind.
    """
    problems: list[str] = []
    types: dict[str, str] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4:
                problems.append(f"line {lineno}: malformed TYPE line")
                continue
            _, _, name, kind = parts
            if not _NAME_OK.match(name):
                problems.append(
                    f"line {lineno}: illegal metric name {name!r}"
                )
            if kind not in METRIC_KINDS:
                problems.append(
                    f"line {lineno}: unknown metric type {kind!r}"
                )
            if name in types:
                problems.append(
                    f"line {lineno}: duplicate TYPE for {name}"
                )
            types[name] = kind
            continue
        if line.startswith("#"):
            continue
        match = _SAMPLE_LINE.match(line)
        if not match:
            problems.append(f"line {lineno}: unparseable sample line")
            continue
        name = match.group("name")
        try:
            float(match.group("value"))
        except ValueError:
            problems.append(
                f"line {lineno}: non-numeric value "
                f"{match.group('value')!r}"
            )
            continue
        if name not in types:
            problems.append(
                f"line {lineno}: sample {name} has no TYPE declaration"
            )
    return problems


def expose_prometheus(
    path: str, registry: CounterRegistry | None = None,
) -> int:
    """Write the Prometheus textfile to *path* (atomically).

    The node-exporter textfile-collector convention: render to a
    temporary sibling, then rename into place so scrapers never see a
    torn file. Returns the number of sample lines written.
    """
    text = prometheus_text(registry)
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(text)
    os.replace(tmp, path)
    return sum(
        1
        for line in text.splitlines()
        if line and not line.startswith("#")
    )
