"""Tests for the per-figure SVG builders (on real experiment results)."""

import xml.etree.ElementTree as ET

import pytest

from repro.experiments import (
    ablation,
    case_lbm,
    correlation_exp,
    frequency,
    granularity,
    per_instruction,
)
from repro.experiments.runner import ExperimentRunner
from repro.viz import figures


def valid_svg(text: str) -> None:
    assert text.startswith("<svg")
    ET.fromstring(text)


NAMES = ("lbm", "exchange2")


def test_fig7_svg(small_runner):
    result = correlation_exp.run(small_runner, names=NAMES)
    valid_svg(figures.fig7_svg(result))


def test_fig8_svg():
    runner = ExperimentRunner(
        scale=0.1, period=101, extra_periods=(73, 151)
    )
    result = frequency.run(
        runner, names=("exchange2",), periods=(73, 151)
    )
    valid_svg(figures.fig8_svg(result))


def test_fig9_svg(small_runner):
    result = granularity.run(small_runner, names=NAMES)
    valid_svg(figures.fig9_svg(result))


def test_fig6_svg(small_runner):
    results = per_instruction.run(small_runner, names=("exchange2",))
    r = results["exchange2"]
    valid_svg(
        figures.fig6_svg("exchange2", r.golden, r.tea, r.ibs,
                         r.top_indices)
    )


def test_fig10_and_fig11_svg(small_runner):
    result = case_lbm.run(small_runner, distances=(0, 2))
    valid_svg(figures.fig10_svg(result))
    valid_svg(figures.fig11_svg(result))


def test_ablation_svg(small_runner):
    result = ablation.run_event_sets(
        small_runner, names=NAMES, budgets=(0, 3, 9)
    )
    valid_svg(figures.ablation_event_sets_svg(result))


def test_topdown_svg(small_runner):
    from repro.core.topdown import top_down

    breakdowns = {
        name: top_down(small_runner.run(name).result) for name in NAMES
    }
    svg = figures.topdown_svg(breakdowns)
    valid_svg(svg)
    assert "backend bound" in svg


def test_sensitivity_svg():
    from repro.experiments import sensitivity

    result = sensitivity.rob_size_sweep(
        ExperimentRunner(scale=0.05), sizes=(48, 192)
    )
    valid_svg(figures.sensitivity_svg(result))
