"""Microarchitectural sensitivity studies around the TEA results.

Two studies that probe the *mechanisms* behind the paper's case-study
narratives rather than the sampling techniques themselves:

1. **ROB size** -- the lbm analysis hinges on the claim that "the body
   of the inner loop contains sufficient compute instructions to fill
   the ROB and hence blocks the processor from issuing the loads of the
   next iteration". Growing the ROB should therefore recover memory-
   level parallelism and shrink the critical load's exposed latency,
   while shrinking it makes things worse.

2. **Store-queue size** -- Fig 11's post-prefetch bottleneck is the
   store queue (DR-SQ); growing it should delay the DR-SQ wall.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.events import Event
from repro.core.psv import psv_has
from repro.experiments.runner import ExperimentRunner, format_table
from repro.uarch.config import CoreConfig


@dataclass
class SensitivityPoint:
    """One configuration point of a sweep."""

    value: int
    cycles: int
    ipc: float
    critical_share: float  # tallest instruction's share of time
    dr_sq_share: float  # share of cycles in DR-SQ categories


@dataclass
class SensitivityResult:
    """A one-parameter sweep on one workload."""

    parameter: str
    workload: str
    points: list[SensitivityPoint]


def _measure(
    runner: ExperimentRunner,
    config: CoreConfig,
    value: int,
    name: str,
    **workload_kwargs,
) -> SensitivityPoint:
    """One sweep point: *name* under *config*, no samplers attached,
    run on (and stored by) the runner's engine."""
    run = runner.derive(config=config, techniques=()).run(
        name, **workload_kwargs
    )
    result, golden = run.result, run.golden
    total = golden.total()
    top = golden.top_units(1)[0]
    dr_sq = sum(
        cycles
        for stack in golden.stacks.values()
        for psv, cycles in stack.items()
        if psv_has(psv, Event.DR_SQ)
    )
    return SensitivityPoint(
        value=value,
        cycles=result.cycles,
        ipc=result.ipc,
        critical_share=golden.height(top) / total,
        dr_sq_share=dr_sq / total,
    )


def rob_size_sweep(
    runner: ExperimentRunner,
    sizes: tuple[int, ...] = (48, 96, 192, 384, 768),
    workload_name: str = "lbm",
) -> SensitivityResult:
    """Sweep the out-of-order *window* on the lbm kernel, at the
    runner's scale.

    The issue queues and load/store queues scale with the ROB (as they
    do across real core generations) so the sweep measures the paper's
    mechanism -- how much of the next iterations the window can hold --
    rather than whichever single queue happens to clip first.
    """
    baseline = CoreConfig()
    points = []
    for size in sizes:
        factor = size / baseline.rob_entries
        config = CoreConfig()
        config.rob_entries = size
        config.int_queue_entries = max(
            8, int(baseline.int_queue_entries * factor)
        )
        config.mem_queue_entries = max(
            8, int(baseline.mem_queue_entries * factor)
        )
        config.fp_queue_entries = max(
            8, int(baseline.fp_queue_entries * factor)
        )
        config.load_queue_entries = max(
            8, int(baseline.load_queue_entries * factor)
        )
        config.store_queue_entries = max(
            8, int(baseline.store_queue_entries * factor)
        )
        points.append(_measure(runner, config, size, workload_name))
    return SensitivityResult(
        parameter="rob_entries", workload=workload_name, points=points
    )


def store_queue_sweep(
    runner: ExperimentRunner,
    sizes: tuple[int, ...] = (8, 16, 32, 64, 128),
    workload_name: str = "lbm",
    prefetch_distance: int = 3,
) -> SensitivityResult:
    """Sweep the store-queue size on prefetched lbm (mechanism 2), at
    the runner's scale."""
    points = []
    for size in sizes:
        config = CoreConfig()
        config.store_queue_entries = size
        points.append(
            _measure(
                runner, config, size, workload_name,
                prefetch_distance=prefetch_distance,
            )
        )
    return SensitivityResult(
        parameter="store_queue_entries",
        workload=runner.engine.workload(
            runner.spec(workload_name, prefetch_distance=prefetch_distance)
        ).name,
        points=points,
    )


def format_result(result: SensitivityResult) -> str:
    """Render a sensitivity sweep as a table."""
    headers = [
        result.parameter, "cycles", "IPC", "critical share",
        "DR-SQ share",
    ]
    rows = [
        [
            str(p.value),
            f"{p.cycles:,}",
            f"{p.ipc:.2f}",
            f"{p.critical_share:6.1%}",
            f"{p.dr_sq_share:6.1%}",
        ]
        for p in result.points
    ]
    return format_table(
        headers,
        rows,
        title=f"Sensitivity: {result.workload} vs {result.parameter}",
    )
