"""Shared experiment runner: a thin façade over :mod:`repro.engine`.

The paper evaluates all sampling techniques out-of-band from a single
simulation so every technique observes the exact same cycles; the
engine layer reproduces that (one :class:`repro.uarch.Core` run per
benchmark with all samplers attached) and adds spec-keyed memoisation,
an optional cross-process result store, parallel suite execution, and
run telemetry. This module keeps the historical
:class:`ExperimentRunner` interface every experiment module uses, and
re-exports the engine's constants and :class:`BenchmarkRun` for
backwards compatibility. Store, jobs, run log and resilience settings
live on the :class:`Engine` a runner is given.
"""

from __future__ import annotations

from repro.engine import (
    DEFAULT_PERIOD,
    DEFAULT_SCALE,
    TECHNIQUES,
    BenchmarkRun,
    Engine,
    RunSpec,
)
from repro.uarch.config import CoreConfig

__all__ = [
    "BenchmarkRun",
    "DEFAULT_PERIOD",
    "DEFAULT_SCALE",
    "TECHNIQUES",
    "ExperimentRunner",
    "format_table",
]


class ExperimentRunner:
    """Simulates benchmarks once and serves all experiments from cache.

    A façade over :class:`repro.engine.Engine`: builds canonical
    :class:`RunSpec` keys from its configuration and delegates running,
    caching, persistence, and telemetry to the engine.

    Args:
        scale: Workload scale factor.
        period: Base sampling period (cycles).
        config: Core configuration override.
        techniques: Techniques to attach by default.
        extra_periods: Additional periods to attach per technique (used
            by the Fig 8 frequency sweep); sampler keys become
            ``f"{technique}@{period}"``.
        engine: The engine to run on (its memo, store, telemetry and
            suite settings); ``None`` builds an in-process
            :class:`Engine` with no store.
    """

    def __init__(
        self,
        scale: float = DEFAULT_SCALE,
        period: int = DEFAULT_PERIOD,
        config: CoreConfig | None = None,
        techniques: tuple[str, ...] = TECHNIQUES,
        extra_periods: tuple[int, ...] = (),
        *,
        engine: Engine | None = None,
    ) -> None:
        self.scale = scale
        self.period = period
        self.config = config
        self.techniques = tuple(techniques)
        self.extra_periods = tuple(extra_periods)
        self.engine = Engine() if engine is None else engine

    def spec(self, name: str, **workload_kwargs) -> RunSpec:
        """The canonical :class:`RunSpec` for one benchmark run."""
        return RunSpec.make(
            name,
            workload_kwargs,
            scale=self.scale,
            period=self.period,
            config=self.config,
            techniques=self.techniques,
            extra_periods=self.extra_periods,
        )

    def run(self, name: str, **workload_kwargs) -> BenchmarkRun:
        """Simulate one benchmark (memoised) with all samplers attached."""
        return self.engine.run(self.spec(name, **workload_kwargs))

    def derive(
        self,
        *,
        scale: float | None = None,
        period: int | None = None,
        config: CoreConfig | None = None,
        techniques: tuple[str, ...] | None = None,
        extra_periods: tuple[int, ...] | None = None,
    ) -> "ExperimentRunner":
        """A runner variant sharing this runner's engine.

        Used by the sweep/ablation experiments so their differently
        configured runs still land in the same memo, store, and run
        log.
        """
        return ExperimentRunner(
            scale=self.scale if scale is None else scale,
            period=self.period if period is None else period,
            config=self.config if config is None else config,
            techniques=(
                self.techniques if techniques is None else techniques
            ),
            extra_periods=(
                self.extra_periods
                if extra_periods is None
                else extra_periods
            ),
            engine=self.engine,
        )


def format_table(
    headers: list[str], rows: list[list[str]], title: str = ""
) -> str:
    """Render an aligned ASCII table (used by every experiment module)."""
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append(
        "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    )
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append(
            "  ".join(cell.ljust(w) for cell, w in zip(row, widths))
        )
    return "\n".join(lines)
