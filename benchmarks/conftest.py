"""Shared fixtures for the benchmark harness.

One :class:`Engine` (and thus one run store and one run log) is shared
across every bench script, so each benchmark program is simulated
exactly once per *store lifetime*, not once per session: re-running the
bench suite -- or a ``tea-repro all`` pointed at the same store -- gets
cross-process cache hits instead of re-simulating identical (workload,
period, config) runs. Scale, period, store location, and parallelism
can be overridden through the ``TEA_BENCH_SCALE`` / ``TEA_BENCH_PERIOD``
/ ``TEA_BENCH_STORE`` / ``TEA_BENCH_JOBS`` environment variables.

Each bench prints the regenerated table/figure and also writes it to
``results/<name>.txt``.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.engine import DEFAULT_RUN_LOG_NAME, Engine, RunLog, RunStore
from repro.experiments.frequency import sweep_runner
from repro.experiments.runner import DEFAULT_PERIOD, ExperimentRunner

SCALE = float(os.environ.get("TEA_BENCH_SCALE", "1.0"))
PERIOD = int(os.environ.get("TEA_BENCH_PERIOD", str(DEFAULT_PERIOD)))
JOBS = int(os.environ.get("TEA_BENCH_JOBS", "1"))

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"
STORE_DIR = Path(
    os.environ.get("TEA_BENCH_STORE", RESULTS_DIR / ".tea-store")
)


@pytest.fixture(scope="session")
def engine():
    """The engine every bench shares: one store, one run log."""
    store = RunStore(STORE_DIR)
    return Engine(
        store=store,
        run_log=RunLog(store.root / DEFAULT_RUN_LOG_NAME),
        jobs=JOBS,
    )


@pytest.fixture(scope="session")
def runner(engine):
    """The shared experiment runner: Fig 8's plan, so one simulation
    serves every experiment that runs on the default techniques (the
    dispatch ablation and TIP derive their own plans from it)."""
    return sweep_runner(
        ExperimentRunner(scale=SCALE, period=PERIOD, engine=engine)
    )


@pytest.fixture(scope="session")
def emit():
    """Print a regenerated artefact and persist it under results/."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def _emit(name: str, text: str) -> None:
        print()
        print(text)
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")

    return _emit
