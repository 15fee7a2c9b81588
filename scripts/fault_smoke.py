#!/usr/bin/env python
"""CI fault-injection smoke: resilient suite execution end to end.

Runs a small three-workload suite with injected faults (one transient
failure that must succeed on retry, one permanent failure) under
keep-going mode, and asserts the invariants the executor guarantees:

* healthy and recovered labels complete and checkpoint to the store,
* the permanently failing label is reported, not fatal,
* a resumed engine over the same store re-simulates *only* the label
  that never checkpointed.

The plan runs twice, each time with a fresh store and fault state:
in process (``jobs=1``, the CLI default) and over a two-worker pool.
Both go through the executor's one attempt loop.

Exits non-zero on any violated invariant.
"""

import sys
import tempfile
from pathlib import Path

from repro.engine import (
    Engine,
    FaultyWorker,
    RunSpec,
    RunStore,
    simulate_to_payload,
)

#: Small, fast spec parameters (mirrors the engine test suite).
SMALL = dict(scale=0.05, period=67)


def run_plan(jobs: int) -> None:
    """Run the fault plan with *jobs* workers and check its invariants."""
    tmp = Path(tempfile.mkdtemp(prefix=f"tea-fault-smoke-j{jobs}-"))
    store = RunStore(tmp / "store")
    specs = {
        name: RunSpec.make(name, **SMALL)
        for name in ("lbm", "xz", "exchange2")
    }
    # xz fails once (transient; must succeed on retry with backoff),
    # exchange2 fails on every attempt (permanent).
    worker = FaultyWorker(
        tmp / "faults",
        {"xz": ("raise",), "exchange2": ("raise", "raise")},
        fn=simulate_to_payload,
    )
    engine = Engine(
        store=store,
        jobs=jobs,
        retries=1,
        backoff=0.05,
        timeout=300.0,
        keep_going=True,
        worker_fn=worker,
    )
    runs = engine.run_suite(specs)
    report = engine.last_suite_report
    print(report.summary())

    assert set(runs) == {"lbm", "xz"}, sorted(runs)
    assert store.contains(specs["lbm"]), "healthy run not stored"
    assert store.contains(specs["xz"]), "recovered run not stored"
    assert not store.contains(specs["exchange2"])
    assert report.outcomes["xz"].attempts == 2
    assert report.outcomes["exchange2"].status == "failed"
    assert report.retries >= 2

    # Resume: a fresh engine over the same store re-simulates only the
    # label that never checkpointed.
    resumed = Engine(store=store, jobs=1)
    resumed_runs = resumed.run_suite(specs)
    assert set(resumed_runs) == set(specs), sorted(resumed_runs)
    assert resumed.simulations == 1, resumed.simulations
    print(f"fault smoke OK (jobs={jobs})")


def main() -> int:
    for jobs in (1, 2):
        run_plan(jobs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
