"""End-to-end tests of the experiment harness (small scale).

These use the session-scoped ``small_runner`` so each benchmark is
simulated at most once across the whole test session.
"""

import pytest

from repro.core.events import Event
from repro.core.pics import Granularity
from repro.experiments import ExperimentRunner
from repro.experiments import (
    ablation,
    accuracy,
    case_lbm,
    case_nab,
    correlation_exp,
    frequency,
    granularity,
    overheads_exp,
    per_instruction,
    tables,
)

#: A representative subset keeps the suite fast.
NAMES = ("lbm", "nab", "exchange2", "fotonik3d")


def test_runner_caches_runs(small_runner):
    first = small_runner.run("exchange2")
    second = small_runner.run("exchange2")
    assert first is second


def test_runner_distinguishes_kwargs(small_runner):
    base = small_runner.run("lbm")
    pf = small_runner.run("lbm", prefetch_distance=2)
    assert base is not pf
    assert pf.workload.params["prefetch_distance"] == 2


def test_fig5_ordering(small_runner):
    result = accuracy.run(small_runner, names=NAMES)
    assert result.average("TEA") < result.average("IBS")
    assert result.average("TEA") < result.average("RIS")
    assert result.average("NCI-TEA") < result.average("IBS")
    for technique in result.techniques:
        assert 0.0 <= result.maximum(technique) <= 1.0
    text = accuracy.format_result(result)
    assert "average" in text and "TEA" in text


def test_fig6_top3(small_runner):
    results = per_instruction.run(
        small_runner, names=("fotonik3d",), top_n=3
    )
    r = results["fotonik3d"]
    assert len(r.top_indices) == 3
    golden_heights = r.stack_heights("golden")
    tea_heights = r.stack_heights("TEA")
    # TEA tracks the golden heights closely on the top instruction.
    assert tea_heights[0] == pytest.approx(golden_heights[0], abs=0.1)
    text = per_instruction.format_result(results)
    assert "fotonik3d" in text


def test_fig7_correlation(small_runner):
    result = correlation_exp.run(small_runner, names=NAMES)
    assert result.boxes  # at least some events occurred
    for box in result.boxes.values():
        assert -1.0 <= box.minimum <= box.maximum <= 1.0
    # Flush events correlate strongly when present (paper Sec 5.3).
    if Event.FL_EX in result.boxes:
        assert result.boxes[Event.FL_EX].median > 0.5
    assert 0.0 <= result.combined_fraction <= 1.0
    assert "FL-MB" in correlation_exp.format_result(result)


def test_fig8_frequency_sweep():
    runner = ExperimentRunner(scale=0.12, period=101)
    result = frequency.run(
        runner, names=("exchange2", "fotonik3d"), periods=(73, 151)
    )
    assert set(result.periods) == {73, 151}
    for technique, by_period in result.mean_errors.items():
        for err in by_period.values():
            assert 0.0 <= err <= 1.0
    assert "period" in frequency.format_result(result)


def test_fig9_granularity(small_runner):
    result = granularity.run(small_runner, names=NAMES)
    tea = result.mean_errors["TEA"]
    # Coarser granularity cannot be harder than application level being
    # near zero for TEA.
    assert tea[Granularity.APPLICATION] <= tea[Granularity.INSTRUCTION]
    assert "instruction" in granularity.format_result(result)


def test_fig10_fig11_lbm(small_runner):
    result = case_lbm.run(small_runner, distances=(0, 2, 4))
    pics = result.pics
    # The critical instruction is a load dominated by LLC misses.
    critical_stack = pics.golden.stacks[pics.critical_load]
    llc_bit = 1 << Event.ST_LLC
    llc_cycles = sum(
        c for psv, c in critical_stack.items() if psv & llc_bit
    )
    assert llc_cycles / sum(critical_stack.values()) > 0.8
    # Prefetching helps; DR-SQ pressure grows with distance.
    assert result.best_speedup > 1.05
    assert result.sweep[-1].dr_sq_cycles >= result.sweep[0].dr_sq_cycles
    assert "speedup" in case_lbm.format_fig11(result)
    assert "lbm critical load" in case_lbm.format_fig10(result)


def test_fig12_nab(small_runner):
    result = case_nab.run(small_runner)
    assert result.speedup > 1.5
    assert result.flush_cycles() > 0
    # TEA agrees with golden on the fsqrt's share of time.
    # Sampling noise at this tiny test scale: generous tolerance.
    assert result.fsqrt_share("TEA") == pytest.approx(
        result.fsqrt_share("golden"), abs=0.2
    )
    assert "fast-math speedup" in case_nab.format_result(result)


def test_overheads(small_runner):
    result = overheads_exp.run(small_runner, names=NAMES)
    assert result.storage.total_bytes > 200
    assert result.stall_coverage.p99 < 50
    text = overheads_exp.format_result(result)
    assert "249 B" in text  # the paper reference appears


def test_ablation_dispatch_tea():
    runner = ExperimentRunner(scale=0.12, period=101)
    result = ablation.run_dispatch_tea(runner, names=("lbm", "omnetpp"))
    # Dispatch-tagging forfeits TEA's accuracy (paper Sec 5).
    assert result.mean_errors["TEA"] < result.mean_errors["TEA-dispatch"]
    assert "TEA-dispatch" in ablation.format_dispatch_tea(result)


def test_ablation_event_sets(small_runner):
    result = ablation.run_event_sets(
        small_runner, names=NAMES, budgets=(0, 3, 9)
    )
    explained = [p.explained_fraction for p in result.points]
    assert explained[0] == 0.0
    assert explained == sorted(explained)  # monotone in budget
    assert result.points[-1].explained_fraction == pytest.approx(1.0)
    errors = [p.error_vs_full for p in result.points]
    assert errors == sorted(errors, reverse=True)
    assert "bits" in ablation.format_event_sets(result)


def test_tables_render():
    t1 = tables.format_table1()
    assert "ST-LLC" in t1 and "yes" in t1
    t2 = tables.format_table2()
    assert "192-entry ROB" in t2
    assert "32 KB" in t2


def test_cli_smoke(capsys):
    from repro.cli import main

    assert main(["table1"]) == 0
    out = capsys.readouterr().out
    assert "Table 1" in out


def test_accuracy_empty_result_fails_fast():
    """An empty workload tuple must raise a clear ValueError, not a
    bare ZeroDivisionError/ValueError from the aggregation math."""
    empty = accuracy.AccuracyResult(errors={}, techniques=("TEA",))
    with pytest.raises(ValueError, match="no benchmarks"):
        empty.average("TEA")
    with pytest.raises(ValueError, match="no benchmarks"):
        empty.maximum("TEA")


def test_accuracy_run_rejects_empty_names(small_runner):
    with pytest.raises(ValueError, match="at least one workload"):
        accuracy.run(small_runner, names=())
