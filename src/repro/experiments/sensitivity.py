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
from repro.engine import RunSpec
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


#: ROB sizes of the out-of-order window sweep.
ROB_SIZES = (48, 96, 192, 384, 768)

#: Store-queue sizes of the store-queue sweep.
STORE_QUEUE_SIZES = (8, 16, 32, 64, 128)

#: The queues that scale with the ROB in the window sweep.
_WINDOW_QUEUES = (
    "int_queue_entries", "mem_queue_entries", "fp_queue_entries",
    "load_queue_entries", "store_queue_entries",
)


def _point_spec(
    runner: ExperimentRunner, config: CoreConfig, name: str, **kwargs
) -> RunSpec:
    """A sweep point's run: *name* under *config*, no samplers."""
    return runner.derive(config=config, techniques=()).spec(name, **kwargs)


def _sweep(
    runner: ExperimentRunner,
    parameter: str,
    workload: str,
    specs: dict[int, RunSpec],
) -> SensitivityResult:
    """Measure each point's run from its golden profile."""
    points = []
    for value, spec in specs.items():
        run = runner.engine.run(spec)
        golden = run.golden
        total = golden.total()
        top = golden.top_units(1)[0]
        dr_sq = sum(
            cycles
            for stack in golden.stacks.values()
            for psv, cycles in stack.items()
            if psv_has(psv, Event.DR_SQ)
        )
        points.append(
            SensitivityPoint(
                value=value,
                cycles=run.result.cycles,
                ipc=run.result.ipc,
                critical_share=golden.height(top) / total,
                dr_sq_share=dr_sq / total,
            )
        )
    return SensitivityResult(
        parameter=parameter, workload=workload, points=points
    )


def rob_size_specs(
    runner: ExperimentRunner,
    sizes: tuple[int, ...] = ROB_SIZES,
    workload_name: str = "lbm",
) -> dict[int, RunSpec]:
    """The run each ROB size of :func:`rob_size_sweep` reads.

    The issue queues and load/store queues scale with the ROB (as they
    do across real core generations) so the sweep measures the paper's
    mechanism -- how much of the next iterations the window can hold --
    rather than whichever single queue happens to clip first.
    """
    baseline = CoreConfig()
    specs = {}
    for size in sizes:
        factor = size / baseline.rob_entries
        config = CoreConfig()
        config.rob_entries = size
        for queue in _WINDOW_QUEUES:
            setattr(
                config, queue,
                max(8, int(getattr(baseline, queue) * factor)),
            )
        specs[size] = _point_spec(runner, config, workload_name)
    return specs


def rob_size_sweep(
    runner: ExperimentRunner,
    sizes: tuple[int, ...] = ROB_SIZES,
    workload_name: str = "lbm",
) -> SensitivityResult:
    """Sweep the out-of-order *window* on the lbm kernel, at the
    runner's scale (see :func:`rob_size_specs`)."""
    return _sweep(
        runner, "rob_entries", workload_name,
        rob_size_specs(runner, sizes, workload_name),
    )


def store_queue_specs(
    runner: ExperimentRunner,
    sizes: tuple[int, ...] = STORE_QUEUE_SIZES,
    workload_name: str = "lbm",
    prefetch_distance: int = 3,
) -> dict[int, RunSpec]:
    """The run each store-queue size of :func:`store_queue_sweep`
    reads."""
    specs = {}
    for size in sizes:
        config = CoreConfig()
        config.store_queue_entries = size
        specs[size] = _point_spec(
            runner, config, workload_name,
            prefetch_distance=prefetch_distance,
        )
    return specs


def store_queue_sweep(
    runner: ExperimentRunner,
    sizes: tuple[int, ...] = STORE_QUEUE_SIZES,
    workload_name: str = "lbm",
    prefetch_distance: int = 3,
) -> SensitivityResult:
    """Sweep the store-queue size on prefetched lbm (mechanism 2), at
    the runner's scale."""
    return _sweep(
        runner,
        "store_queue_entries",
        runner.engine.workload(
            runner.spec(workload_name, prefetch_distance=prefetch_distance)
        ).name,
        store_queue_specs(runner, sizes, workload_name, prefetch_distance),
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
