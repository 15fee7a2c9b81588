"""The paper's artefacts, each declared once.

:data:`ARTEFACTS` lists every table and figure in report order. An
entry names its subcommand, gives its report heading, runs its
experiment, renders the result as text (and, for figures, as SVG
files) and declares the run specs its experiment reads.
``tea-repro <name>``, ``all``, ``report``, ``figures`` and the
``--jobs``/``--resume`` prewarm all iterate this one table, so which
runs an artefact needs is decided here and nowhere else.
:func:`write_report` is the artefact-evaluation entry point: one
command, one Markdown document.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Mapping

from repro.core.events import render_all_hierarchies
from repro.core.topdown import format_top_down, top_down
from repro.engine import RunSpec
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
from repro.viz import figures
from repro.workloads import WORKLOAD_NAMES


def _no_runs(runner: ExperimentRunner) -> dict[str, RunSpec]:
    return {}


@dataclass(frozen=True)
class Artefact:
    """One paper table or figure.

    Attributes:
        name: Its subcommand, ``tea-repro <name>``.
        title: Its report heading and subcommand help.
        run: Runs the experiment on a runner and returns its result.
        text: Renders the result as text.
        svgs: Renders the result as SVG files (file stem -> SVG text);
            ``None`` for an artefact that is not a figure.
        reads: The run specs :attr:`run` reads, keyed by a label
            unique within the artefact.
    """

    name: str
    title: str
    run: Callable[[ExperimentRunner], Any]
    text: Callable[[Any], str]
    svgs: Callable[[Any], dict[str, str]] | None = None
    reads: Callable[[ExperimentRunner], Mapping[Any, RunSpec]] = _no_runs

    def specs(self, runner: ExperimentRunner) -> dict[str, RunSpec]:
        """The labelled specs this artefact reads on *runner*."""
        return {
            f"{self.name}:{label}": spec
            for label, spec in self.reads(runner).items()
        }

    def render(self, runner: ExperimentRunner) -> str:
        """Run the experiment and render it as text."""
        return self.text(self.run(runner))


def _suite(
    runner: ExperimentRunner, names: tuple[str, ...] = WORKLOAD_NAMES
) -> dict[str, RunSpec]:
    """The runner's spec of each benchmark in *names*."""
    return {name: runner.spec(name) for name in names}


def _svg(stem: str, render: Callable[[Any], str]):
    """The ``svgs`` of a figure drawn as one file."""
    return lambda result: {stem: render(result)}


def _fig6_svgs(results) -> dict[str, str]:
    return {
        f"fig6_{name}": figures.fig6_svg(
            name, r.golden, r.tea, r.ibs, r.top_indices
        )
        for name, r in results.items()
    }


def _top_down(runner: ExperimentRunner) -> dict:
    return {
        name: top_down(runner.run(name).result)
        for name in WORKLOAD_NAMES
    }


ARTEFACTS: dict[str, Artefact] = {
    artefact.name: artefact
    for artefact in (
        Artefact(
            "table1", "Table 1: event sets",
            lambda runner: None, lambda _: tables.format_table1(),
        ),
        Artefact(
            "table2", "Table 2: configuration",
            lambda runner: runner.config, tables.format_table2,
        ),
        Artefact(
            "fig3", "Fig 3: event hierarchies",
            lambda runner: None,
            lambda _: "Fig 3: commit-state performance-event "
            "hierarchies\n\n" + render_all_hierarchies(),
        ),
        Artefact(
            "fig5", "Fig 5: accuracy",
            accuracy.run, accuracy.format_result,
            _svg("fig5", figures.fig5_svg), _suite,
        ),
        Artefact(
            "fig6", "Fig 6: top-3 instruction PICS",
            per_instruction.run, per_instruction.format_result,
            _fig6_svgs,
            lambda runner: _suite(
                runner, per_instruction.FIG6_BENCHMARKS
            ),
        ),
        Artefact(
            "fig7", "Fig 7: event-count correlation",
            correlation_exp.run, correlation_exp.format_result,
            _svg("fig7", figures.fig7_svg), _suite,
        ),
        Artefact(
            "fig8", "Fig 8: sampling frequency",
            frequency.run, frequency.format_result,
            _svg("fig8", figures.fig8_svg),
            lambda runner: _suite(frequency.sweep_runner(runner)),
        ),
        Artefact(
            "fig9", "Fig 9: granularity",
            granularity.run, granularity.format_result,
            _svg("fig9", figures.fig9_svg), _suite,
        ),
        Artefact(
            "fig10", "Fig 10: lbm critical load",
            case_lbm.run, case_lbm.format_fig10,
            _svg("fig10", figures.fig10_svg), case_lbm.sweep_specs,
        ),
        Artefact(
            "fig11", "Fig 11: lbm prefetch-distance sweep",
            case_lbm.run, case_lbm.format_fig11,
            _svg("fig11", figures.fig11_svg), case_lbm.sweep_specs,
        ),
        Artefact(
            "fig12", "Fig 12: nab case study",
            case_nab.run, case_nab.format_result,
            _svg("fig12", figures.fig12_svg),
            lambda runner: {
                "nab": runner.spec("nab"),
                "nab:fast_math": runner.spec("nab", fast_math=True),
            },
        ),
        Artefact(
            "overheads", "Overheads (Sections 3-4)",
            overheads_exp.run, overheads_exp.format_result,
            reads=_suite,
        ),
        Artefact(
            "ablation-dispatch", "Ablation: TEA at dispatch",
            ablation.run_dispatch_tea, ablation.format_dispatch_tea,
            reads=lambda runner: _suite(ablation.dispatch_runner(runner)),
        ),
        Artefact(
            "ablation-events", "Ablation: event-set width",
            ablation.run_event_sets, ablation.format_event_sets,
            _svg("ablation_event_sets", figures.ablation_event_sets_svg),
            _suite,
        ),
        Artefact(
            "tip", "Baseline: TIP vs TEA",
            tip_exp.run, tip_exp.format_result,
            reads=lambda runner: _suite(tip_exp.tip_runner(runner)),
        ),
        Artefact(
            "topdown", "Baseline: Top-Down classification",
            _top_down, format_top_down,
            _svg("topdown", figures.topdown_svg), _suite,
        ),
        Artefact(
            "sensitivity-rob", "Sensitivity: out-of-order window",
            sensitivity.rob_size_sweep, sensitivity.format_result,
            _svg("sensitivity_rob", figures.sensitivity_svg),
            sensitivity.rob_size_specs,
        ),
        Artefact(
            "sensitivity-sq", "Sensitivity: store queue",
            sensitivity.store_queue_sweep, sensitivity.format_result,
            reads=sensitivity.store_queue_specs,
        ),
        # Simulates outside the engine: a RunSpec holds one seed per
        # technique, and this experiment attaches five.
        Artefact(
            "noise", "Sampling noise",
            lambda runner: noise.run(
                scale=runner.scale, period=runner.period
            ),
            noise.format_result,
        ),
    )
}


def figure_artefacts() -> list[Artefact]:
    """The artefacts that render SVG files, in table order."""
    return [a for a in ARTEFACTS.values() if a.svgs is not None]


def write_report(
    runner: ExperimentRunner | None = None,
    path: str | Path = "results/REPORT.md",
) -> Path:
    """Run every artefact and write one Markdown report: each
    artefact's text as a fenced block with its wall-clock time."""
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
    for artefact in ARTEFACTS.values():
        start = time.time()
        body = artefact.render(runner)
        elapsed = time.time() - start
        parts += [
            f"## {artefact.title}", "", "```", body, "```", "",
            f"_({elapsed:.1f}s)_", "",
        ]
    path.write_text("\n".join(parts))
    return path


def write_figures(
    runner: ExperimentRunner, out_dir: str | Path
) -> list[Path]:
    """Run every figure's experiment and write its SVG files.

    Returns the list of written files.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    for artefact in figure_artefacts():
        for stem, svg in artefact.svgs(artefact.run(runner)).items():
            path = out / f"{stem}.svg"
            path.write_text(svg)
            written.append(path)
    return written
