"""CI backend-diff smoke: the tiered backends' differential gates.

Three checks, on a small-but-real slice of the suite:

1. **Functional vs detailed** — final architectural state (registers,
   memory) and per-instruction execution counts bit-identical on four
   workloads, gcc among them (its static program dwarfs what it runs).
2. **Sampled window identity** — a sampled run and a full detailed run
   sliced at the same boundaries (``reference_ff=True``) produce
   bit-identical per-window profiles on one workload.
3. **Tier speed-up** — the same run of lbm, mcf and x264 timed on each
   tier, best of :data:`TIER_RUNS`. Speed-up is detailed wall time over
   the tier's wall time, for the same work. Every kernel's is printed;
   only the geomean must reach :data:`TIER_FLOORS`, because a single
   kernel's ratio swings widely from run to run.

The full gates (all 15 workloads, more plans) live in
``tests/backends/``; this script is the fast standalone CI job.
Exit code 0 on success, 1 with a diagnostic on any divergence or a
tier below its floor.
"""

from __future__ import annotations

import statistics
import sys
import time

from repro.backends import simulate_backend
from repro.backends.functional import simulate_functional
from repro.backends.sampled import SampledBackend, WindowPlan
from repro.core.samplers import make_sampler
from repro.engine.spec import DEFAULT_PERIOD, TECHNIQUES
from repro.isa.semantics import InstStream, arch_digest
from repro.uarch.core import Core
from repro.workloads import build

FUNCTIONAL_WORKLOADS = ("lbm", "mcf", "x264", "gcc")
SAMPLED_WORKLOAD = "x264"
SCALE = 0.1
PLAN = WindowPlan(window=256, stride=768, warmup=256)

TIER_WORKLOADS = ("lbm", "mcf", "x264")
TIER_SCALE = 0.2
#: 1/8 of the instructions measured, as the default plan, at a window
#: size that leaves these short runs several windows.
TIER_PLAN = WindowPlan(window=256, stride=1792, warmup=512)
#: Timed runs per tier and kernel; the fastest counts.
TIER_RUNS = 3
#: Least geomean wall-time speed-up over the detailed tier.
TIER_FLOORS = {"sampled": 2.5, "functional": 60.0}


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


def _tier_wall(workload, backend: str) -> float:
    """Wall seconds of one fresh run of *workload* on *backend*."""
    samplers = []
    if backend != "functional":
        samplers = [
            make_sampler(t, DEFAULT_PERIOD, seed=12345 + i)
            for i, t in enumerate(TECHNIQUES)
        ]
    state = workload.fresh_state()
    start = time.perf_counter()
    simulate_backend(
        backend, workload.program, samplers=samplers, arch_state=state,
        plan=TIER_PLAN,
    )
    return time.perf_counter() - start


def check_tier_speed() -> list[str]:
    ratios: dict[str, list[float]] = {tier: [] for tier in TIER_FLOORS}
    for name in TIER_WORKLOADS:
        workload = build(name, scale=TIER_SCALE)
        best = dict.fromkeys(("detailed", *TIER_FLOORS), float("inf"))
        for _ in range(TIER_RUNS):
            # Round-robin, so the host's speed drift hits every tier.
            for tier in best:
                best[tier] = min(best[tier], _tier_wall(workload, tier))
        for tier in TIER_FLOORS:
            ratios[tier].append(best["detailed"] / best[tier])
            print(
                f"tier speed-up {name} {tier}: {ratios[tier][-1]:.2f}x "
                f"(detailed {best['detailed']:.3f}s, "
                f"{tier} {best[tier]:.3f}s)"
            )
    problems = []
    for tier, floor in TIER_FLOORS.items():
        geomean = statistics.geometric_mean(ratios[tier])
        print(f"tier speed-up {tier} geomean: {geomean:.2f}x "
              f"(floor {floor:g}x)")
        if geomean < floor:
            problems.append(
                f"{tier} tier geomean speed-up {geomean:.2f}x is below "
                f"its floor {floor:g}x"
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
    slow = check_tier_speed()
    for problem in slow:
        print(f"TIER SPEED-UP FAILURE: {problem}", file=sys.stderr)
    if not problems and not slow:
        print("backend-diff OK")
    return 1 if problems or slow else 0


if __name__ == "__main__":
    raise SystemExit(main())
