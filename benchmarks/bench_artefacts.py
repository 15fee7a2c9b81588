"""The paper's artefacts and their reproduction targets.

One test per entry of :data:`repro.experiments.artefacts.ARTEFACTS`
(``test_artefact[fig5]``) runs the entry's experiment on the shared
runner, writes its text to ``results/<name>.txt`` and checks the
entry's reproduction targets in :data:`TARGETS`, the claims
EXPERIMENTS.md reports. The simulations an artefact reads run in the
``runner`` fixture's prewarm, so each test's benchmark time is its
analysis alone.
"""

import pytest

from repro.core.events import (
    IBS_EVENTS, RIS_EVENTS, SPE_EVENTS, TEA_EVENTS, Event,
)
from repro.core.pics import Granularity
from repro.core.psv import is_combined
from repro.experiments.artefacts import ARTEFACTS
from repro.uarch.config import CoreConfig


def table1(_):
    # Section 3's storage-bit counts pin the set sizes.
    assert len(TEA_EVENTS) == 9
    assert len(IBS_EVENTS) == 6
    assert len(SPE_EVENTS) == 5
    assert len(RIS_EVENTS) == 7


def table2(_):
    cfg = CoreConfig()
    assert cfg.rob_entries == 192
    assert cfg.fetch_width == 8
    assert cfg.fetch_buffer_entries == 48
    assert cfg.decode_width == 4
    assert cfg.load_queue_entries + cfg.store_queue_entries == 64
    assert cfg.memory.l1d_size == 32 * 1024
    assert cfg.memory.llc_size == 2 * 1024 * 1024
    assert cfg.memory.l2_tlb_entries == 1024


def fig5(result):
    # Paper averages: TEA 2.1%, NCI-TEA 11.3%, IBS 55.6%, SPE 55.5% and
    # RIS 56.0%.
    assert result.average("TEA") < result.average("NCI-TEA") * 1.5
    assert result.average("TEA") < result.average("IBS") / 3
    assert result.average("TEA") < result.average("SPE") / 3
    assert result.average("TEA") < result.average("RIS") / 3


def fig6(results):
    for name, result in results.items():
        golden = result.stack_heights("golden")
        tea = result.stack_heights("TEA")
        # TEA tracks golden's top-instruction share within a few points.
        assert abs(golden[0] - tea[0]) < 0.12, name

    def has_combined(profile, indices):
        return any(
            is_combined(psv)
            for i in indices
            for psv in profile.stacks.get(i, {})
        )

    bwaves = results["bwaves"]
    assert has_combined(bwaves.golden, bwaves.top_indices)
    omnetpp = results["omnetpp"]
    assert has_combined(omnetpp.golden, omnetpp.top_indices)


def fig7(result):
    boxes = result.boxes
    # Flushes are rarely hidden: strong correlation.
    assert boxes[Event.FL_MB].median > 0.6
    assert boxes[Event.FL_EX].median > 0.6
    # Cache misses are partially hidden: weaker than flushes on average.
    assert boxes[Event.ST_L1].median <= boxes[Event.FL_MB].median + 0.05
    # Combined events exist but are not universal (paper: 30.0% of
    # evented executions; this suite is deliberately memory-stressed, so
    # ST-L1+ST-LLC pairs push the share higher -- see EXPERIMENTS.md).
    assert 0.02 < result.combined_fraction < 0.85


def fig8(result):
    tea = result.mean_errors["TEA"]
    ibs = result.mean_errors["IBS"]
    for period in result.periods:
        assert tea[period] < ibs[period]
    # Insensitivity: halving the baseline period changes TEA's error
    # far less than the front-end-tagging gap.
    fast, base = result.periods[0], result.periods[2]
    assert abs(tea[fast] - tea[base]) < 0.15


def fig9(result):
    for level in (Granularity.INSTRUCTION, Granularity.FUNCTION):
        tea = result.mean_errors["TEA"][level]
        for technique in ("IBS", "SPE", "RIS"):
            assert tea < result.mean_errors[technique][level]
    # The paper's key point: even at application granularity the
    # taggers keep substantial event-misattribution error.
    ibs_app = result.mean_errors["IBS"][Granularity.APPLICATION]
    assert ibs_app > 0.10


def fig10(result):
    pics = result.pics
    load = pics.critical_load
    golden_share = pics.golden.height(load) / pics.golden.total()
    tea_share = pics.tea.height(load) / pics.tea.total()
    ibs_share = pics.ibs.height(load) / max(pics.ibs.total(), 1e-9)
    assert golden_share > 0.3  # the load dominates execution time
    assert abs(tea_share - golden_share) < 0.1  # TEA matches golden
    assert ibs_share < golden_share / 3  # IBS misses the story


def fig11(result):
    sweep = {p.distance: p for p in result.sweep}
    assert result.best_speedup > 1.1  # paper: 1.28x at distance 3
    assert result.best_distance >= 1
    # Load-latency share collapses once the prefetch covers the miss.
    assert sweep[4].load_share < sweep[0].load_share / 3
    # Store-bandwidth pressure (DR-SQ) grows with prefetch distance.
    assert sweep[4].dr_sq_cycles > sweep[0].dr_sq_cycles


def fig12(result):
    assert 1.5 < result.speedup < 3.5  # paper: 1.96x / 2.45x
    # The fsqrt is performance-critical and TEA reports it faithfully.
    assert result.fsqrt_share("golden") > 0.1
    assert abs(
        result.fsqrt_share("TEA") - result.fsqrt_share("golden")
    ) < 0.1
    # The flush cycles sit on the serializing ops.
    assert result.flush_cycles() > 0


def overheads(result):
    storage = result.storage
    assert storage.fetch_buffer_bytes == 12
    assert storage.rob_bytes == 216
    assert 240 <= storage.total_bytes <= 250  # paper: 249 B
    assert storage.rob_and_fetch_buffer_fraction > 0.9  # paper: 91.7%
    assert result.power.milliwatts == pytest.approx(3.2, rel=0.05)
    assert result.power.core_fraction < 0.002  # paper: ~0.1%
    assert result.runtime_overhead_4khz == pytest.approx(0.011)
    # 99% of event-free commit stalls are short (paper: < 5.8 cycles).
    assert result.stall_coverage.p99 <= 30
    assert result.golden_volume.bytes_per_second > 1e9


def ablation_dispatch(result):
    # Paper: a dispatch-tagging TEA "yields similar accuracy to IBS,
    # SPE, and RIS" -- time-proportional sampling makes TEA accurate.
    tea = result.mean_errors["TEA"]
    dispatch = result.mean_errors["TEA-dispatch"]
    ibs = result.mean_errors["IBS"]
    assert tea < dispatch / 3  # dispatch tagging forfeits the accuracy
    assert abs(dispatch - ibs) < 0.25  # ... down to IBS-like error


def ablation_events(result):
    points = {p.bits: p for p in result.points}
    assert points[0].explained_fraction == 0.0
    assert points[9].explained_fraction == 1.0
    assert points[9].error_vs_full < 1e-9
    # Interpretability grows monotonically with the bit budget.
    explained = [p.explained_fraction for p in result.points]
    assert explained == sorted(explained)
    # A 3-bit PSV (one root event per commit state) already explains
    # the majority of evented cycles on this suite.
    assert points[3].explained_fraction > 0.5


def tip(result):
    # Q1: same attribution policy, statistically identical accuracy.
    assert abs(
        result.mean("q1", "TIP") - result.mean("q1", "TEA")
    ) < 0.03
    # Q2: TIP's Base-only stacks miss every event component.
    assert result.mean("full", "TIP") > result.mean("full", "TEA") + 0.2


def topdown(breakdowns):
    # The coarse labels match the kernels' designed characters...
    assert breakdowns["gcc"].dominant == "frontend_bound"
    assert breakdowns["lbm"].dominant == "backend_bound"
    assert breakdowns["omnetpp"].dominant == "backend_bound"
    assert breakdowns["exchange2"].retiring > 0.25
    assert breakdowns["perlbench"].bad_speculation > 0.1
    # ...but the same label covers very different problems: lbm (LLC
    # misses) and nab (exposed fsqrt latency) are both "backend bound",
    # and only PICS distinguish them (see fig10/fig12).
    assert breakdowns["nab"].dominant == "backend_bound"


def sensitivity_rob(result):
    by_size = {p.value: p for p in result.points}
    # A bigger window exposes more MLP: a small window makes lbm
    # clearly slower, and the largest window is the fastest overall.
    assert by_size[48].cycles > by_size[192].cycles
    assert by_size[768].cycles <= by_size[192].cycles
    # With a cramped window the machine drowns in DR-SQ back-pressure;
    # a big window all but eliminates it.
    assert by_size[48].dr_sq_share > by_size[768].dr_sq_share


def sensitivity_sq(result):
    by_size = {p.value: p for p in result.points}
    # A tiny store queue throttles prefetched lbm hard...
    assert by_size[8].cycles > by_size[32].cycles
    # ...and its DR-SQ share is correspondingly higher.
    assert by_size[8].dr_sq_share > by_size[128].dr_sq_share


def noise(result):
    for name, by_technique in result.stats.items():
        tea = by_technique["TEA"]
        ibs = by_technique["IBS"]
        # The gap is systematic: even at mean + 3 sigma TEA stays far
        # below IBS at mean - 3 sigma.
        assert tea.mean + 3 * tea.std < ibs.mean - 3 * ibs.std, name


#: Each artefact's reproduction targets, by ``ARTEFACTS`` name.
TARGETS = {
    "table1": table1,
    "table2": table2,
    "fig5": fig5,
    "fig6": fig6,
    "fig7": fig7,
    "fig8": fig8,
    "fig9": fig9,
    "fig10": fig10,
    "fig11": fig11,
    "fig12": fig12,
    "overheads": overheads,
    "ablation-dispatch": ablation_dispatch,
    "ablation-events": ablation_events,
    "tip": tip,
    "topdown": topdown,
    "sensitivity-rob": sensitivity_rob,
    "sensitivity-sq": sensitivity_sq,
    "noise": noise,
}
# Checked at import, not in a test: --benchmark-only skips every test
# that takes no benchmark fixture.
assert TARGETS.keys() <= ARTEFACTS.keys(), TARGETS.keys() - ARTEFACTS.keys()


@pytest.mark.parametrize(
    "artefact", list(ARTEFACTS.values()), ids=list(ARTEFACTS)
)
def test_artefact(artefact, benchmark, runner, emit):
    result = benchmark.pedantic(
        artefact.run, args=(runner,), rounds=1, iterations=1
    )
    emit(artefact.name, artefact.text(result))
    if artefact.name in TARGETS:
        TARGETS[artefact.name](result)
