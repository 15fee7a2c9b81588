"""Experiment harness: one module per paper table/figure.

All experiments share :class:`repro.experiments.runner.ExperimentRunner`,
which simulates each benchmark once with every analyzer attached (the
paper evaluates up to 15 configurations out-of-band from a single FireSim
run for exactly this reason) and caches results per (workload, config).

Each module exposes a ``run(...)`` returning a structured result and
``format_*`` renderers of it (``format_result`` in most modules).
:mod:`repro.experiments.artefacts` declares each paper artefact once:
its subcommand, report heading, renderers and the runs it reads.
"""

from repro.experiments.runner import (
    DEFAULT_PERIOD,
    DEFAULT_SCALE,
    TECHNIQUES,
    BenchmarkRun,
    ExperimentRunner,
)

__all__ = [
    "DEFAULT_PERIOD",
    "DEFAULT_SCALE",
    "TECHNIQUES",
    "BenchmarkRun",
    "ExperimentRunner",
]
