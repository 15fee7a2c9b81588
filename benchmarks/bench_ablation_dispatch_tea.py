"""Ablation (Sec 5): TEA's event set with dispatch tagging.

Reproduction target: the paper's note that a dispatch-tagging TEA
"yields similar accuracy to IBS, SPE, and RIS" -- time-proportional
sampling, not the event set, is what makes TEA accurate.
"""

from repro.experiments import ablation


def test_ablation_dispatch_tea(benchmark, runner, emit):
    result = benchmark.pedantic(
        lambda: ablation.run_dispatch_tea(runner),
        rounds=1,
        iterations=1,
    )
    emit("ablation_dispatch_tea", ablation.format_dispatch_tea(result))
    tea = result.mean_errors["TEA"]
    dispatch = result.mean_errors["TEA-dispatch"]
    ibs = result.mean_errors["IBS"]
    assert tea < dispatch / 3  # dispatch tagging forfeits the accuracy
    assert abs(dispatch - ibs) < 0.25  # ... down to IBS-like error
