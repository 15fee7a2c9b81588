"""Every workload must run to completion and exhibit its designed
microarchitectural signature."""

import pytest

from repro.core.events import Event
from repro.isa.instructions import StaticInst
from repro.isa.interpreter import Interpreter
from repro.uarch.core import simulate
from repro.workloads import BUILDERS, WORKLOAD_NAMES, build, suite

SCALE = 0.1


@pytest.fixture(scope="module")
def results():
    """Simulate the whole suite once at a small scale."""
    out = {}
    for name in WORKLOAD_NAMES:
        wl = build(name, scale=SCALE)
        out[name] = (wl, simulate(wl.program, arch_state=wl.fresh_state()))
    return out


def golden_share(result, event):
    bit = 1 << event
    total = sum(result.golden_raw.values())
    return (
        sum(c for (_, psv), c in result.golden_raw.items() if psv & bit)
        / total
    )


def test_registry_is_complete():
    assert len(WORKLOAD_NAMES) == 15
    # The builder registry adds exactly one non-suite entry: the
    # recipe-driven scenario generator (see repro.workloads.synth).
    assert set(BUILDERS) == set(WORKLOAD_NAMES) | {"synth"}
    assert "synth" not in WORKLOAD_NAMES


def test_unknown_workload_rejected():
    with pytest.raises(KeyError, match="unknown workload"):
        build("specjbb")


def test_suite_builds_everything():
    workloads = suite(scale=SCALE)
    assert [w.name for w in workloads] == list(WORKLOAD_NAMES)


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_workload_terminates(results, name):
    _, result = results[name]
    assert result.committed > 500
    assert result.cycles > 0


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_golden_invariant(results, name):
    _, result = results[name]
    assert sum(result.golden_raw.values()) == pytest.approx(result.cycles)


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_functional_commit_match(results, name):
    wl, result = results[name]
    functional = sum(1 for _ in Interpreter(wl.program,
                                            wl.fresh_state()).run())
    assert result.committed == functional


def test_bwaves_has_combined_cache_tlb(results):
    _, result = results["bwaves"]
    assert golden_share(result, Event.ST_LLC) > 0.2
    assert golden_share(result, Event.ST_TLB) > 0.2
    assert result.combined_execs > 0


def test_omnetpp_chases_pointers(results):
    _, result = results["omnetpp"]
    assert golden_share(result, Event.ST_L1) > 0.5
    assert result.ipc < 0.3  # serialised chase


def test_fotonik3d_is_cache_only(results):
    _, result = results["fotonik3d"]
    assert golden_share(result, Event.ST_L1) > 0.05
    assert golden_share(result, Event.ST_TLB) < 0.1  # page locality


def test_exchange2_is_core_bound(results):
    _, result = results["exchange2"]
    base = sum(
        c for (_, psv), c in result.golden_raw.items() if psv == 0
    ) / result.cycles
    assert base > 0.5
    assert result.flushes.mispredicts > 10


def test_gcc_is_frontend_bound(results):
    _, result = results["gcc"]
    assert golden_share(result, Event.DR_L1) > 0.3
    assert golden_share(result, Event.DR_TLB) > 0.2


def test_gcc_build_cost_is_proportional_to_its_code(monkeypatch):
    """gcc spans 73,744 slots, but only its 581 emitted instructions
    become StaticInst objects: the padding is left as holes. CI's
    wall-time gate is too loose to notice a return to building every
    slot, so this counts constructor calls."""
    calls = 0
    real = StaticInst.__init__

    def counting(self, *args, **kwargs):
        nonlocal calls
        calls += 1
        real(self, *args, **kwargs)

    monkeypatch.setattr(StaticInst, "__init__", counting)
    program = build("gcc").program
    assert calls <= 581
    assert len(program) == 73_744


def test_lbm_misses_llc_and_pressures_stores(results):
    _, result = results["lbm"]
    assert golden_share(result, Event.ST_LLC) > 0.3
    # Store streams allocate lines (DRAM reads) and dirty the L1D.
    assert result.hierarchy.l1d.stats.writebacks > 10


def test_lbm_prefetch_variants():
    base = build("lbm", scale=SCALE)
    pf = build("lbm", scale=SCALE, prefetch_distance=3)
    assert pf.name == "lbm-pf3"
    base_cycles = simulate(
        base.program, arch_state=base.fresh_state()
    ).cycles
    pf_cycles = simulate(pf.program, arch_state=pf.fresh_state()).cycles
    assert pf_cycles < base_cycles


def test_lbm_rejects_negative_distance():
    with pytest.raises(ValueError):
        build("lbm", prefetch_distance=-1)


def test_nab_flushes_and_fast_math_speedup(results):
    _, result = results["nab"]
    assert result.flushes.serial > 0
    assert golden_share(result, Event.FL_EX) > 0.1
    fast = build("nab", scale=SCALE, fast_math=True)
    fast_cycles = simulate(
        fast.program, arch_state=fast.fresh_state()
    ).cycles
    assert result.cycles / fast_cycles > 1.5


def test_mcf_has_tlb_walks(results):
    _, result = results["mcf"]
    assert golden_share(result, Event.ST_TLB) > 0.2
    assert result.hierarchy.dtlb.stats.walks > 50


def test_deepsjeng_mispredicts(results):
    _, result = results["deepsjeng"]
    assert result.flushes.mispredicts > 20


def test_leela_hits_llc(results):
    _, result = results["leela"]
    st_l1 = golden_share(result, Event.ST_L1)
    assert st_l1 > 0.2


def test_roms_writes_memory(results):
    _, result = results["roms"]
    # Streaming read + write-allocate: DRAM fetches both src and dst
    # lines (roughly one of each per 8 iterations).
    iters = results["roms"][0].params["iters"]
    assert result.hierarchy.dram.stats.reads >= 2 * (iters // 8) * 0.8


def test_xz_mixed_profile(results):
    _, result = results["xz"]
    assert result.flushes.mispredicts > 10
    assert golden_share(result, Event.ST_L1) > 0.2


def test_perlbench_dispatch_mispredicts(results):
    _, result = results["perlbench"]
    # The opcode-dispatch cascade is unpredictable.
    assert result.flushes.mispredicts > 50
    assert golden_share(result, Event.FL_MB) > 0.1


def test_x264_is_compute_dense(results):
    _, result = results["x264"]
    base = sum(
        c for (_, psv), c in result.golden_raw.items() if psv == 0
    ) / result.cycles
    # At the tiny test scale the cold first window-lap dominates; the
    # kernel is still clearly compute-dense relative to the suite.
    assert base > 0.3
    assert result.ipc > 1.0


def test_cactubssn_mixes_base_and_cache(results):
    _, result = results["cactuBSSN"]
    assert golden_share(result, Event.ST_L1) > 0.1
    base = sum(
        c for (_, psv), c in result.golden_raw.items() if psv == 0
    ) / result.cycles
    assert base > 0.4


def test_xz_triggers_ordering_violations():
    wl = build("xz", scale=1.0)
    result = simulate(wl.program, arch_state=wl.fresh_state())
    assert result.flushes.ordering > 10
    assert golden_share(result, Event.FL_MO) > 0


def test_workload_states_are_independent():
    wl = build("omnetpp", scale=SCALE)
    first = wl.fresh_state()
    second = wl.fresh_state()
    assert first is not second
    assert first.memory == second.memory
