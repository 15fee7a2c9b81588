"""Shared fixtures for the benchmark harness.

One :class:`Engine` (and thus one run store and one run log) is shared
across every bench, so each benchmark program is simulated exactly
once per *store lifetime*, not once per session: re-running the bench
suite -- or a ``tea-repro all`` pointed at the same store -- gets
cross-process cache hits instead of re-simulating identical (workload,
period, config) runs. Scale, period, store location, and parallelism
can be overridden through the ``TEA_BENCH_SCALE`` / ``TEA_BENCH_PERIOD``
/ ``TEA_BENCH_STORE`` / ``TEA_BENCH_JOBS`` environment variables.

The reproduction targets hold from scale 0.25 at the default period
(293 cycles) up. At scale 0.1 the sampled targets of fig6,
ablation-dispatch, tip and noise fail: TEA's error here is mostly
sampling noise, about 1.3/sqrt(n) for n samples per kernel, and a
smaller scale (or a longer period) takes fewer samples. topdown fails
there too, because a short run spends more of its cycles on cold
caches (perlbench is stalled 62% of the time at scale 0.1, 28% at
1.0).

Each bench prints the regenerated table/figure and also writes it to
``results/<name>.txt``.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.engine import DEFAULT_RUN_LOG_NAME, Engine, RunLog, RunStore
from repro.experiments.artefacts import Artefact, declared_specs
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
def runner(request, engine):
    """The shared experiment runner.

    Before the first artefact renders, the engine runs every spec the
    session's artefacts declare as one suite, on ``TEA_BENCH_JOBS``
    workers and once per machine run, as ``tea-repro report`` does;
    the experiments then read memo hits. The session's artefacts are
    the ``ARTEFACTS`` entries its collected tests take as parameters:
    all of them for ``pytest benchmarks/``, only fig5 for ``-k fig5``.
    """
    runner = ExperimentRunner(scale=SCALE, period=PERIOD, engine=engine)
    artefacts = [
        value
        for item in request.session.items
        if hasattr(item, "callspec")
        for value in item.callspec.params.values()
        if isinstance(value, Artefact)
    ]
    specs = declared_specs(runner, artefacts)
    if specs:
        engine.run_suite(specs)
    return runner


@pytest.fixture(scope="session")
def emit():
    """Print a regenerated artefact and persist it under results/."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def _emit(name: str, text: str) -> None:
        print()
        print(text)
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")

    return _emit
