"""One-shot reproduction report: every table/figure into one Markdown
file.

``tea-repro report`` (or :func:`write_report`) runs the complete
evaluation -- Fig 5 through Fig 12, both tables, overheads, ablations,
sensitivity sweeps, the TIP and Top-Down baselines -- and writes a
self-contained ``REPORT.md`` with each artefact as a fenced block, plus
per-experiment wall-clock times. This is the artefact-evaluation entry
point: one command, one document.
"""

from __future__ import annotations

import time
from pathlib import Path

from repro.experiments import (
    ablation,
    accuracy,
    case_lbm,
    case_nab,
    correlation_exp,
    frequency,
    granularity,
    noise,
    overheads_exp,
    per_instruction,
    sensitivity,
    tables,
    tip_exp,
)
from repro.experiments.runner import ExperimentRunner
from repro.core.topdown import format_top_down, top_down
from repro.workloads import WORKLOAD_NAMES


def _sections(runner: ExperimentRunner):
    """Yield (title, thunk) pairs in report order."""
    yield "Table 1: event sets", lambda: tables.format_table1()
    yield "Table 2: configuration", lambda: tables.format_table2(
        runner.config
    )
    yield "Fig 5: accuracy", lambda: accuracy.format_result(
        accuracy.run(runner)
    )
    yield (
        "Fig 6: top-3 instruction PICS",
        lambda: per_instruction.format_result(
            per_instruction.run(runner)
        ),
    )
    yield (
        "Fig 7: event-count correlation",
        lambda: correlation_exp.format_result(
            correlation_exp.run(runner)
        ),
    )

    def fig8():
        sweep_runner = runner.derive(
            extra_periods=frequency.SWEEP_PERIODS
        )
        return frequency.format_result(frequency.run(sweep_runner))

    yield "Fig 8: sampling frequency", fig8
    yield "Fig 9: granularity", lambda: granularity.format_result(
        granularity.run(runner)
    )

    def lbm_section():
        result = case_lbm.run(runner)
        return (
            case_lbm.format_fig10(result)
            + "\n\n"
            + case_lbm.format_fig11(result)
        )

    yield "Figs 10-11: lbm case study", lbm_section
    yield "Fig 12: nab case study", lambda: case_nab.format_result(
        case_nab.run(runner)
    )
    yield "Overheads (Sections 3-4)", lambda: overheads_exp.format_result(
        overheads_exp.run(runner)
    )

    def dispatch_ablation():
        dispatch_runner = runner.derive(
            techniques=("TEA", "TEA-dispatch", "IBS")
        )
        return ablation.format_dispatch_tea(
            ablation.run_dispatch_tea(dispatch_runner)
        )

    yield "Ablation: TEA at dispatch", dispatch_ablation
    yield (
        "Ablation: event-set width",
        lambda: ablation.format_event_sets(
            ablation.run_event_sets(runner)
        ),
    )

    def tip_section():
        tip_runner = runner.derive(techniques=("TEA", "TIP"))
        return tip_exp.format_result(tip_exp.run(tip_runner))

    yield "Baseline: TIP vs TEA", tip_section

    def topdown_section():
        return format_top_down(
            {
                name: top_down(runner.run(name).result)
                for name in WORKLOAD_NAMES
            }
        )

    yield "Baseline: Top-Down classification", topdown_section
    yield (
        "Sensitivity: out-of-order window",
        lambda: sensitivity.format_result(
            sensitivity.rob_size_sweep(runner)
        ),
    )
    yield (
        "Sensitivity: store queue",
        lambda: sensitivity.format_result(
            sensitivity.store_queue_sweep(runner)
        ),
    )
    yield (
        "Sampling noise",
        lambda: noise.format_result(
            noise.run(scale=runner.scale, period=runner.period)
        ),
    )


def write_report(
    runner: ExperimentRunner | None = None,
    path: str | Path = "results/REPORT.md",
) -> Path:
    """Run the full evaluation and write the consolidated report."""
    runner = runner or ExperimentRunner()
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    parts = [
        "# TEA reproduction report",
        "",
        f"Workload scale: {runner.scale}; sampling period: "
        f"{runner.period} cycles; suite: {', '.join(WORKLOAD_NAMES)}.",
        "",
        "Generated by `tea-repro report`. Paper-vs-measured analysis "
        "lives in EXPERIMENTS.md.",
        "",
    ]
    for title, thunk in _sections(runner):
        start = time.time()
        body = thunk()
        elapsed = time.time() - start
        parts.append(f"## {title}")
        parts.append("")
        parts.append("```")
        parts.append(body)
        parts.append("```")
        parts.append("")
        parts.append(f"_({elapsed:.1f}s)_")
        parts.append("")
    path.write_text("\n".join(parts))
    return path
