"""TIP vs TEA (paper Sections 1-2 motivation).

Reproduction targets: TIP matches TEA when only instruction-level time
attribution (Q1) is scored -- both use the TIP attribution policy -- but
loses all event information (Q2): its full-comparison error equals the
evented share of execution time.
"""

from repro.experiments import tip_exp


def test_tip_vs_tea(benchmark, emit, runner):
    result = benchmark.pedantic(
        lambda: tip_exp.run(runner), rounds=1, iterations=1
    )
    emit("tip_vs_tea", tip_exp.format_result(result))
    # Q1: same attribution policy, statistically identical accuracy.
    assert abs(
        result.mean("q1", "TIP") - result.mean("q1", "TEA")
    ) < 0.03
    # Q2: TIP's Base-only stacks miss every event component.
    assert result.mean("full", "TIP") > result.mean("full", "TEA") + 0.2
