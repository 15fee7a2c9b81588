"""Regenerate the committed trace-analytics golden fixtures.

Run after an *intentional* simulator or attribution change:

    PYTHONPATH=src python tests/trace/make_golden.py

Writes, under ``tests/trace/data/``:

* ``x264_x0.05.teacol.gz`` -- a gzip-compressed TEACOL sidecar of one
  deterministic ``x264`` run (scale 0.05, full sampler plan);
* ``query_golden.json`` -- the canned query answers the fixture must
  keep producing (summary, top-k, flush histogram, sample weight).

``tests/trace/test_query.py::TestGoldenFixture`` loads both and fails
on any drift, so attribution/query regressions are caught even when
the live simulator and the query engine drift together.
"""

import gzip
import json
from pathlib import Path

from repro.core.states import CommitState
from repro.engine.runs import build_workload
from repro.engine.spec import RunSpec
from repro.trace.capture import capture_run
from repro.trace.query import TraceQuery

DATA = Path(__file__).parent / "data"

FIXTURE_WORKLOAD = "x264"
FIXTURE_SCALE = 0.05


def main() -> None:
    spec = RunSpec.make(FIXTURE_WORKLOAD, scale=FIXTURE_SCALE)
    run, store = capture_run(spec)
    store.meta["spec_key"] = spec.key
    program = build_workload(spec).program
    query = TraceQuery(store, program)

    golden = {
        "workload": FIXTURE_WORKLOAD,
        "scale": FIXTURE_SCALE,
        "spec_key": spec.key,
        "total_cycles": query.total_cycles(),
        "state_cycles": {
            state.name.lower(): cycles
            for state, cycles in query.state_cycles().items()
        },
        "row_counts": store.row_counts(),
        "sampler_names": store.sampler_names(),
        "top_total_instruction": [
            [key, round(value, 6)]
            for key, value in query.top(k=5, by="instruction")
        ],
        "top_stalled_function": [
            [key, round(value, 6)]
            for key, value in query.top(
                k=3, states=(CommitState.STALLED,), by="function"
            )
        ],
        "flush_hist_bb": sorted(
            [group, cause, count]
            for (group, cause), count in query.flush_histogram(
                per="bb"
            ).items()
        ),
        "tea_sample_weight": round(
            sum(store.raw_profile("TEA").values()), 6
        ),
    }

    DATA.mkdir(exist_ok=True)
    trace_path = DATA / f"{FIXTURE_WORKLOAD}_x{FIXTURE_SCALE}.teacol.gz"
    trace_path.write_bytes(
        gzip.compress(store.to_bytes(), compresslevel=9)
    )
    golden_path = DATA / "query_golden.json"
    golden_path.write_text(
        json.dumps(golden, indent=2, sort_keys=True) + "\n"
    )
    print(f"wrote {trace_path} ({trace_path.stat().st_size} bytes)")
    print(f"wrote {golden_path}")


if __name__ == "__main__":
    main()
