"""Unit tests for the sensitivity and TIP-vs-TEA experiment modules."""

import pytest

from repro.experiments import sensitivity, tip_exp
from repro.experiments.runner import ExperimentRunner


def test_rob_sweep_structure():
    result = sensitivity.rob_size_sweep(
        ExperimentRunner(scale=0.05), sizes=(48, 192)
    )
    assert result.parameter == "rob_entries"
    assert [p.value for p in result.points] == [48, 192]
    for point in result.points:
        assert point.cycles > 0
        assert 0 < point.ipc <= 4
        assert 0 <= point.critical_share <= 1
        assert 0 <= point.dr_sq_share <= 1


def test_sq_sweep_structure():
    result = sensitivity.store_queue_sweep(
        ExperimentRunner(scale=0.05), sizes=(8, 64)
    )
    assert result.parameter == "store_queue_entries"
    by_size = {p.value: p for p in result.points}
    # A tiny SQ cannot be faster than a big one.
    assert by_size[8].cycles >= by_size[64].cycles


def test_sensitivity_format():
    result = sensitivity.rob_size_sweep(
        ExperimentRunner(scale=0.05), sizes=(48,)
    )
    text = sensitivity.format_result(result)
    assert "rob_entries" in text
    assert "DR-SQ share" in text


def test_tip_exp_q1_parity():
    runner = ExperimentRunner(
        scale=0.1, period=101, techniques=("TEA", "TIP")
    )
    result = tip_exp.run(runner, names=("fotonik3d", "exchange2"))
    # Same policy: Q1 errors close; Q2 gap large for TIP.
    assert abs(
        result.mean("q1", "TIP") - result.mean("q1", "TEA")
    ) < 0.05
    assert result.mean("full", "TIP") > result.mean("full", "TEA")
    text = tip_exp.format_result(result)
    assert "TIP Q1+Q2" in text
    assert "average" in text
