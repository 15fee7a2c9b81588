"""Figs 10-11: the lbm software-prefetching case study.

Fig 10: TEA's PICS identify the performance-critical first load of the
inner loop and explain it (always misses the LLC, latency not hidden);
IBS misattributes the time to instructions that happen to dispatch while
that load stalls commit.

Fig 11: sweeping the software-prefetch distance moves the bottleneck
from load latency (ST-LLC on the critical load shrinking, saturating
around distance 3-4) to store bandwidth (DR-SQ categories on the store
growing), with end-to-end speedup peaking where they balance (paper:
distance 3, 1.28x).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.events import Event
from repro.core.pics import PicsProfile
from repro.core.psv import psv_has
from repro.core.report import render_comparison
from repro.engine import RunSpec
from repro.experiments.runner import ExperimentRunner, format_table
from repro.isa.opcodes import MEMORY_READ_OPS, MEMORY_WRITE_OPS

#: Prefetch distances swept in Fig 11.
DISTANCES = (0, 1, 2, 3, 4, 5, 6)


def _top_index_by_kind(
    profile: PicsProfile, program, kinds
) -> int:
    """The tallest-stack instruction of a given opcode kind."""
    best, best_height = -1, -1.0
    for unit in profile.units():
        if program[unit].op not in kinds:
            continue
        height = profile.height(unit)
        if height > best_height:
            best, best_height = int(unit), height
    return best


@dataclass
class LbmPics:
    """Fig 10: profiles and the critical load for one lbm binary."""

    golden: PicsProfile
    tea: PicsProfile
    ibs: PicsProfile
    critical_load: int
    program: object


@dataclass
class PrefetchPoint:
    """One Fig 11 sweep point."""

    distance: int
    cycles: int
    speedup: float
    load_stack: dict[str, float]  # critical load: signature -> cycles
    store_stack: dict[str, float]  # critical store: signature -> cycles
    load_share: float  # critical load height / total cycles
    store_share: float
    dr_sq_cycles: float  # total cycles in DR-SQ-containing categories


@dataclass
class LbmResult:
    """Both halves of the lbm case study."""

    pics: LbmPics
    sweep: list[PrefetchPoint]

    @property
    def best_distance(self) -> int:
        """Distance with the highest speedup."""
        return max(self.sweep, key=lambda p: p.speedup).distance

    @property
    def best_speedup(self) -> float:
        """Best speedup over the non-prefetching binary."""
        return max(p.speedup for p in self.sweep)


def sweep_specs(
    runner: ExperimentRunner, distances: tuple[int, ...] = DISTANCES
) -> dict[int, RunSpec]:
    """The lbm binary each prefetch distance runs; distance 0 is the
    plain binary Fig 10 reads."""
    return {
        distance: (
            runner.spec("lbm", prefetch_distance=distance)
            if distance
            else runner.spec("lbm")
        )
        for distance in distances
    }


def run(
    runner: ExperimentRunner | None = None,
    distances: tuple[int, ...] = DISTANCES,
) -> LbmResult:
    """Run the lbm case study (Figs 10 and 11)."""
    runner = runner or ExperimentRunner()
    base = runner.run("lbm")
    golden = base.golden
    program = base.workload.program
    critical_load = _top_index_by_kind(golden, program, MEMORY_READ_OPS)
    pics = LbmPics(
        golden=golden,
        tea=base.profile("TEA"),
        ibs=base.profile("IBS"),
        critical_load=critical_load,
        program=program,
    )

    base_cycles = base.result.cycles
    sweep: list[PrefetchPoint] = []
    for distance, spec in sweep_specs(runner, distances).items():
        bench = runner.engine.run(spec)
        bench_golden = bench.golden
        bench_program = bench.workload.program
        load = _top_index_by_kind(
            bench_golden, bench_program, MEMORY_READ_OPS
        )
        store = _top_index_by_kind(
            bench_golden, bench_program, MEMORY_WRITE_OPS
        )
        total = bench_golden.total()
        dr_sq = sum(
            cycles
            for stack in bench_golden.stacks.values()
            for psv, cycles in stack.items()
            if psv_has(psv, Event.DR_SQ)
        )
        sweep.append(
            PrefetchPoint(
                distance=distance,
                cycles=bench.result.cycles,
                speedup=base_cycles / bench.result.cycles,
                load_stack=bench_golden.named_stack(load),
                store_stack=bench_golden.named_stack(store),
                load_share=bench_golden.height(load) / total,
                store_share=bench_golden.height(store) / total,
                dr_sq_cycles=dr_sq,
            )
        )
    return LbmResult(pics=pics, sweep=sweep)


def format_fig10(result: LbmResult) -> str:
    """Render Fig 10: critical-load PICS, golden vs TEA vs IBS."""
    pics = result.pics
    header = (
        "Fig 10: lbm critical load "
        f"(instruction {pics.critical_load}: "
        f"{pics.program[pics.critical_load].disasm()})"
    )
    return header + "\n" + render_comparison(
        [pics.golden, pics.tea, pics.ibs],
        pics.critical_load,
        program=pics.program,
    )


def format_fig11(result: LbmResult) -> str:
    """Render Fig 11: the prefetch-distance sweep."""
    headers = [
        "distance",
        "cycles",
        "speedup",
        "load share",
        "store share",
        "DR-SQ cycles",
    ]
    rows = [
        [
            str(p.distance),
            str(p.cycles),
            f"{p.speedup:5.2f}x",
            f"{p.load_share:6.1%}",
            f"{p.store_share:6.1%}",
            f"{p.dr_sq_cycles:,.0f}",
        ]
        for p in result.sweep
    ]
    table = format_table(
        headers,
        rows,
        title="Fig 11: lbm software-prefetch distance sweep",
    )
    return (
        table
        + f"\nbest distance: {result.best_distance} "
        f"(speedup {result.best_speedup:.2f}x; paper: distance 3, 1.28x)"
    )
