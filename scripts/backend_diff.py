"""CI backend-diff smoke: the tiered backends' differential gates.

Two checks, on a small-but-real slice of the suite:

1. **Functional vs detailed** — final architectural state (registers,
   memory) and per-instruction execution counts bit-identical on four
   workloads, gcc among them (its static program dwarfs what it runs).
2. **Sampled window identity** — a sampled run and a full detailed run
   sliced at the same boundaries (``reference_ff=True``) produce
   bit-identical per-window profiles on one workload.

The full gates (all 15 workloads, more plans) live in
``tests/backends/``; this script is the fast standalone CI job.
Exit code 0 on success, 1 with a diagnostic on any divergence.
"""

from __future__ import annotations

import sys
import time

from repro.backends.functional import simulate_functional
from repro.backends.sampled import SampledBackend, WindowPlan
from repro.isa.semantics import InstStream, arch_digest
from repro.uarch.core import Core
from repro.workloads import build

FUNCTIONAL_WORKLOADS = ("lbm", "mcf", "x264", "gcc")
SAMPLED_WORKLOAD = "x264"
SCALE = 0.1
PLAN = WindowPlan(window=256, stride=768, warmup=256)


def check_functional(name: str) -> list[str]:
    workload = build(name, scale=SCALE)
    stream = InstStream(workload.program, workload.fresh_state())
    detailed = Core(workload.program, stream=stream).run()
    functional = simulate_functional(
        workload.program, arch_state=workload.fresh_state()
    )
    problems = []
    if functional.committed != detailed.committed:
        problems.append(
            f"{name}: committed diverges -- functional "
            f"{functional.committed} vs detailed {detailed.committed}"
        )
    if functional.exec_counts != detailed.exec_counts:
        problems.append(f"{name}: per-instruction execution counts diverge")
    fd, dd = arch_digest(functional.arch_state), arch_digest(stream.state)
    if fd != dd:
        problems.append(
            f"{name}: architectural state diverges -- {fd[:16]} vs {dd[:16]}"
        )
    return problems


def check_sampled(name: str) -> list[str]:
    def run(reference_ff: bool):
        workload = build(name, scale=SCALE)
        backend = SampledBackend(plan=PLAN, reference_ff=reference_ff)
        return backend.simulate(
            workload.program, arch_state=workload.fresh_state()
        )

    sampled, reference = run(False), run(True)
    problems = []
    if len(sampled.windows) != len(reference.windows):
        return [
            f"{name}: window count diverges -- {len(sampled.windows)} "
            f"vs {len(reference.windows)}"
        ]
    for i, (s, r) in enumerate(zip(sampled.windows, reference.windows)):
        for field in (
            "start", "committed", "cycles", "golden_raw", "state_cycles",
            "event_counts", "exec_counts", "stall_histogram",
        ):
            if getattr(s, field) != getattr(r, field):
                problems.append(
                    f"{name}: window {i} field {field} diverges "
                    f"(sampled vs detailed reference)"
                )
    return problems


def main() -> int:
    problems: list[str] = []
    for name in FUNCTIONAL_WORKLOADS:
        t0 = time.perf_counter()
        found = check_functional(name)
        problems += found
        status = "FAIL" if found else "ok"
        print(
            f"functional-vs-detailed {name}: {status} "
            f"({time.perf_counter() - t0:.1f}s)"
        )
    t0 = time.perf_counter()
    found = check_sampled(SAMPLED_WORKLOAD)
    problems += found
    status = "FAIL" if found else "ok"
    print(
        f"sampled window identity {SAMPLED_WORKLOAD}: {status} "
        f"({time.perf_counter() - t0:.1f}s)"
    )
    for problem in problems:
        print(f"BACKEND DIVERGENCE: {problem}", file=sys.stderr)
    if not problems:
        print("backend-diff OK")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
