"""Turn experiment results into the paper's figures (SVG files).

``tea-repro figures --out results/figures`` renders everything; each
function also works standalone on its experiment's result object.
"""

from __future__ import annotations

from pathlib import Path

from repro.core.events import Event
from repro.core.pics import PicsProfile
from repro.core.psv import signature_name
from repro.experiments.ablation import EventSetResult
from repro.experiments.accuracy import AccuracyResult
from repro.experiments.case_lbm import LbmResult
from repro.experiments.case_nab import NabResult
from repro.experiments.correlation_exp import CorrelationResult
from repro.experiments.frequency import FrequencyResult
from repro.experiments.granularity import GranularityResult
from repro.viz.charts import (
    bar_chart,
    box_plot,
    line_chart,
    stacked_bar_chart,
)


def fig5_svg(result: AccuracyResult) -> str:
    """Fig 5: grouped bars of PICS error per benchmark."""
    labels = sorted(result.errors)
    series = {
        technique: [result.errors[b][technique] for b in labels]
        for technique in result.techniques
    }
    return bar_chart(
        labels,
        series,
        title="Fig 5: PICS error vs golden reference",
        ylabel="error",
        percent=True,
    )


def fig6_svg(
    benchmark: str,
    golden: PicsProfile,
    tea: PicsProfile,
    ibs: PicsProfile,
    top_indices: list[int],
) -> str:
    """Fig 6 (one benchmark): top-3 instruction PICS, three techniques."""
    bar_labels = []
    stacks = []
    for index in top_indices:
        for profile, tag in ((golden, "GR"), (tea, "TEA"), (ibs, "IBS")):
            total = profile.total() or 1.0
            bar_labels.append(f"I{index} {tag}")
            stacks.append(
                {
                    signature_name(psv): cycles / total
                    for psv, cycles in profile.stacks.get(
                        index, {}
                    ).items()
                }
            )
    return stacked_bar_chart(
        bar_labels,
        stacks,
        title=f"Fig 6: top-3 instruction PICS — {benchmark}",
        ylabel="share of execution time",
        normalise_to=1.0,
    )


def fig7_svg(result: CorrelationResult) -> str:
    """Fig 7: box plots of event-count/impact correlation."""
    labels = [event.display_name for event in Event]
    boxes = [result.boxes.get(event) for event in Event]
    return box_plot(
        labels,
        boxes,
        title="Fig 7: correlation between event count and impact",
    )


def fig8_svg(result: FrequencyResult) -> str:
    """Fig 8: error vs sampling period."""
    return line_chart(
        [float(p) for p in result.periods],
        {
            technique: [by_period[p] for p in result.periods]
            for technique, by_period in result.mean_errors.items()
        },
        title="Fig 8: error vs sampling period",
        xlabel="sampling period (cycles)",
        ylabel="mean error",
        percent=True,
    )


def fig9_svg(result: GranularityResult) -> str:
    """Fig 9: error by analysis granularity."""
    techniques = list(result.mean_errors)
    granularities = list(next(iter(result.mean_errors.values())))
    return bar_chart(
        [g.value for g in granularities],
        {
            technique: [
                result.mean_errors[technique][g] for g in granularities
            ]
            for technique in techniques
        },
        title="Fig 9: error by analysis granularity",
        ylabel="mean error",
        percent=True,
    )


def fig10_svg(result: LbmResult) -> str:
    """Fig 10: lbm critical-load PICS across techniques."""
    pics = result.pics
    return fig6_svg(
        "lbm (critical load)",
        pics.golden,
        pics.tea,
        pics.ibs,
        [pics.critical_load],
    )


def fig11_svg(result: LbmResult) -> str:
    """Fig 11: prefetch sweep — speedup and load/store shares."""
    distances = [float(p.distance) for p in result.sweep]
    return line_chart(
        distances,
        {
            "speedup": [p.speedup for p in result.sweep],
            "load share x10": [p.load_share * 10 for p in result.sweep],
            "store share x10": [
                p.store_share * 10 for p in result.sweep
            ],
        },
        title="Fig 11: lbm software-prefetch distance sweep",
        xlabel="prefetch distance (iterations)",
        ylabel="speedup / scaled share",
    )


def fig12_svg(result: NabResult) -> str:
    """Fig 12: nab fsqrt + serializing-op PICS."""
    indices = [result.fsqrt_index] + list(result.serial_indices)
    return fig6_svg(
        "nab", result.golden, result.tea, result.ibs, indices
    )


def ablation_event_sets_svg(result: EventSetResult) -> str:
    """Fig 3 ablation: explained fraction vs PSV width."""
    return line_chart(
        [float(p.bits) for p in result.points],
        {
            "explained evented cycles": [
                p.explained_fraction for p in result.points
            ],
            "error vs 9-bit PSV": [
                p.error_vs_full for p in result.points
            ],
        },
        title="Event-set width vs interpretability (Fig 3 trade-off)",
        xlabel="PSV width (bits)",
        ylabel="fraction",
        percent=True,
    )


def topdown_svg(breakdowns: dict) -> str:
    """Top-Down level-1 classification as stacked bars per benchmark."""
    labels = sorted(breakdowns)
    stacks = []
    for name in labels:
        td = breakdowns[name]
        stacks.append(
            {
                "retiring": td.retiring,
                "bad speculation": td.bad_speculation,
                "frontend bound": td.frontend_bound,
                "backend bound": td.backend_bound,
            }
        )
    return stacked_bar_chart(
        labels,
        stacks,
        title="Top-Down (level 1) classification",
        ylabel="share of commit slots",
        normalise_to=1.0,
    )


def sensitivity_svg(result) -> str:
    """A sensitivity sweep (cycles + DR-SQ share) as a line chart."""
    xs = [float(p.value) for p in result.points]
    base = result.points[0].cycles
    return line_chart(
        xs,
        {
            "cycles (normalised)": [
                p.cycles / base for p in result.points
            ],
            "DR-SQ share": [p.dr_sq_share for p in result.points],
            "IPC": [p.ipc for p in result.points],
        },
        title=f"Sensitivity: {result.workload} vs {result.parameter}",
        xlabel=result.parameter,
        ylabel="value",
    )


def phases_svg(sampler) -> str:
    """Phase timeline as stacked bars: one bar per window, segments by
    signature share (see :mod:`repro.core.phases`)."""
    windows = sorted(sampler.window_raw)
    labels = []
    stacks = []
    for window_id in windows:
        raw = sampler.window_raw[window_id]
        total = sum(raw.values()) or 1.0
        stack: dict[str, float] = {}
        for (_, psv), cycles in raw.items():
            name = signature_name(psv)
            stack[name] = stack.get(name, 0.0) + cycles / total
        labels.append(f"{window_id * sampler.window // 1000}k")
        stacks.append(stack)
    return stacked_bar_chart(
        labels,
        stacks,
        title="Phase-resolved PICS (signature share per window)",
        ylabel="share of window cycles",
        normalise_to=1.0,
    )


def render_all(runner, out_dir: str | Path) -> list[Path]:
    """Run every experiment through *runner* and write all figures.

    Returns the list of written files.
    """
    from repro.experiments import (
        ablation,
        accuracy,
        case_lbm,
        case_nab,
        correlation_exp,
        frequency,
        granularity,
        per_instruction,
    )

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    def save(name: str, svg: str) -> None:
        path = out / f"{name}.svg"
        path.write_text(svg)
        written.append(path)

    save("fig5", fig5_svg(accuracy.run(runner)))
    for name, r in per_instruction.run(runner).items():
        save(
            f"fig6_{name}",
            fig6_svg(name, r.golden, r.tea, r.ibs, r.top_indices),
        )
    save("fig7", fig7_svg(correlation_exp.run(runner)))
    sweep_runner = runner.derive(
        extra_periods=frequency.SWEEP_PERIODS
    )
    save("fig8", fig8_svg(frequency.run(sweep_runner)))
    save("fig9", fig9_svg(granularity.run(runner)))
    lbm = case_lbm.run(runner)
    save("fig10", fig10_svg(lbm))
    save("fig11", fig11_svg(lbm))
    save("fig12", fig12_svg(case_nab.run(runner)))
    save(
        "ablation_event_sets",
        ablation_event_sets_svg(ablation.run_event_sets(runner)),
    )
    from repro.core.topdown import top_down
    from repro.workloads import WORKLOAD_NAMES

    save(
        "topdown",
        topdown_svg(
            {
                name: top_down(runner.run(name).result)
                for name in WORKLOAD_NAMES
            }
        ),
    )
    from repro.experiments import sensitivity

    save(
        "sensitivity_rob",
        sensitivity_svg(sensitivity.rob_size_sweep(runner)),
    )
    return written
