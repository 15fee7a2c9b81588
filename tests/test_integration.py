"""End-to-end integration: the full public API on one workload.

One simulation exercises every major subsystem together -- all six
sampling techniques, phase binning, the columnar trace store as both
sample sink and cycle trace, golden attribution -- and the analysis
stack consumes the outputs (errors, granularities, advisor, diff, JSON
round trip, validation).
"""

import pytest

from repro import (
    Granularity,
    PicsProfile,
    error_at_granularity,
    event_mask,
    make_sampler,
    pics_error,
    render_comparison,
    render_top,
)
from repro.core.advisor import advise
from repro.core.diff import diff_profiles
from repro.core.io import load_profile, save_profile
from repro.core.phases import PhasedTeaSampler
from repro.trace.cycletrace import replay_golden
from repro.trace.store import TraceStore
from repro.uarch.core import Core
from repro.uarch.validation import validate_result
from repro.workloads import build

TECHNIQUES = ("TEA", "NCI-TEA", "IBS", "SPE", "RIS", "TIP")


@pytest.fixture(scope="module")
def full_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("integration")
    workload = build("lbm", scale=0.3)
    samplers = {
        # TIP shares TEA's seed so the two sample identical cycles and
        # their Q1 heights can be compared exactly.
        technique: make_sampler(
            technique,
            151,
            seed=100 if technique in ("TEA", "TIP") else 100 + i,
        )
        for i, technique in enumerate(TECHNIQUES)
    }
    phased = PhasedTeaSampler(period=151, window=20_000, seed=321)
    store = TraceStore()
    samplers["TEA"].sink = store.sampler_sink("TEA")
    core = Core(
        workload.program,
        samplers=list(samplers.values()) + [phased],
        arch_state=workload.fresh_state(),
        cycle_trace=store,
    )
    result = core.run()
    samplers["TEA"].sink = None
    trace_path = store.save(tmp / "lbm.teacol")
    return workload, result, samplers, phased, trace_path


def test_every_invariant_holds(full_run):
    _, result, *_ = full_run
    validate_result(result)


def test_accuracy_ordering(full_run):
    _, result, samplers, *_ = full_run
    golden = result.golden_profile()
    errors = {
        t: pics_error(s.profile(), golden, event_mask(s.events))
        for t, s in samplers.items()
        if t != "TIP"
    }
    assert errors["TEA"] < errors["IBS"] / 3
    assert errors["TEA"] < errors["SPE"] / 3
    assert errors["TEA"] < errors["RIS"] / 3
    assert errors["NCI-TEA"] < errors["IBS"]


def test_granularity_ladder(full_run):
    workload, result, samplers, *_ = full_run
    golden = result.golden_profile()
    tea = samplers["TEA"].profile()
    inst = pics_error(tea, golden)
    app = error_at_granularity(
        tea, golden, workload.program, Granularity.APPLICATION
    )
    assert app <= inst + 1e-9


def test_offline_sample_log_matches(full_run):
    _, _, samplers, _, trace_path = full_run
    with TraceStore.load(trace_path) as store:
        offline = PicsProfile.from_raw("TEA", store.raw_profile("TEA"))
    assert offline.stacks == samplers["TEA"].profile().stacks


def test_trace_replay_matches_golden(full_run):
    _, result, _, _, trace_path = full_run
    with TraceStore.load(trace_path) as store:
        replayed = replay_golden(store.cycle_records())
    assert set(replayed) == set(result.golden_raw)
    for key, cycles in result.golden_raw.items():
        assert replayed[key] == pytest.approx(cycles)


def test_phase_windows_cover_run(full_run):
    _, result, _, phased, *_ = full_run
    covered = sum(
        sum(raw.values()) for raw in phased.window_raw.values()
    )
    assert covered == pytest.approx(sum(phased.raw.values()))
    assert len(phased.window_raw) >= 2


def test_advisor_on_sampled_profile(full_run):
    workload, _, samplers, *_ = full_run
    findings = advise(samplers["TEA"].profile(), workload.program)
    assert findings
    assert findings[0].rule == "llc-missing-loads"


def test_json_roundtrip_and_diff(full_run, tmp_path):
    workload, result, samplers, *_ = full_run
    golden = result.golden_profile()
    path = save_profile(golden, tmp_path / "golden.json")
    restored = load_profile(path)
    diff = diff_profiles(golden, restored)
    assert diff.speedup == pytest.approx(1.0)
    assert all(abs(d.delta) < 1e-9 for d in diff.deltas)


def test_reports_render(full_run):
    workload, result, samplers, *_ = full_run
    golden = result.golden_profile()
    text = render_top(golden, n=3, program=workload.program)
    assert "ST-L1+ST-LLC" in text
    top = golden.top_units(1)[0]
    comparison = render_comparison(
        [golden, samplers["TEA"].profile(), samplers["IBS"].profile()],
        top,
        program=workload.program,
    )
    assert "--- golden ---" in comparison


def test_tip_heights_match_tea(full_run):
    _, _, samplers, *_ = full_run
    tea = samplers["TEA"].profile()
    tip = samplers["TIP"].profile()
    for unit in tea.units():
        assert tip.height(unit) == pytest.approx(tea.height(unit))
