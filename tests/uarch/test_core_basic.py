"""Basic pipeline tests: completion, invariants, statistics."""

from collections import Counter

import pytest

from repro.isa.builder import ProgramBuilder
from repro.isa.instructions import StaticInst
from repro.uarch.config import CoreConfig
from repro.uarch.core import Core, SimulationError, simulate
from repro.workloads import build


def test_straight_line_completes():
    b = ProgramBuilder("t")
    b.li("x1", 1)
    b.addi("x2", "x1", 2)
    b.halt()
    result = simulate(b.build())
    assert result.committed == 3
    assert result.cycles > 0


def test_committed_matches_functional_execution(countdown_program):
    from repro.isa.interpreter import Interpreter

    functional = len(list(Interpreter(countdown_program).run()))
    result = simulate(countdown_program)
    assert result.committed == functional


def test_golden_cycles_invariant(mixed_program):
    """Every simulated cycle is attributed exactly once (the core
    time-proportionality invariant)."""
    result = simulate(mixed_program)
    assert sum(result.golden_raw.values()) == pytest.approx(result.cycles)


def test_exec_counts_sum_to_committed(mixed_program):
    result = simulate(mixed_program)
    assert sum(result.exec_counts.values()) == result.committed


def test_ipc_bounded_by_commit_width(mixed_program):
    result = simulate(mixed_program)
    assert 0 < result.ipc <= CoreConfig().commit_width


def test_max_cycles_guard(countdown_program):
    core = Core(countdown_program)
    with pytest.raises(SimulationError, match="exceeded"):
        core.run(max_cycles=3)


def test_deterministic_repeat(mixed_program):
    first = simulate(mixed_program)
    second = simulate(mixed_program)
    assert first.cycles == second.cycles
    assert first.golden_raw == second.golden_raw


def test_dependent_chain_slower_than_independent():
    def looped(dependent: bool):
        b = ProgramBuilder("dep" if dependent else "indep")
        b.li("x9", 200)
        b.li("x1", 1)
        b.label("loop")
        for n in range(10):
            if dependent:
                b.mul("x1", "x1", "x1")
            else:
                b.mul(f"x{2 + (n % 6)}", "x1", "x1")
        b.addi("x9", "x9", -1)
        b.bne("x9", "x0", "loop")
        b.halt()
        return b.build()

    dep_cycles = simulate(looped(True)).cycles
    indep_cycles = simulate(looped(False)).cycles
    assert dep_cycles > indep_cycles * 1.5


def test_unpipelined_sqrt_serialises():
    chain = ProgramBuilder("sq")
    chain.li("x1", 2)
    chain.fcvt("f1", "x1")
    for n in range(20):
        chain.fsqrt(f"f{2 + (n % 10)}", "f1")  # independent sqrts
    chain.halt()
    result = simulate(chain.build())
    # 20 independent sqrts on one unpipelined unit: >= 20 * latency (24).
    assert result.cycles >= 20 * 24


def test_rob_capacity_limits_window():
    """A long-latency load at the head keeps the window bounded."""
    config = CoreConfig()
    config.rob_entries = 8
    b = ProgramBuilder("t")
    b.li("x1", 1 << 26)
    b.load("x2", "x1", 0)  # cold: hundreds of cycles
    for _ in range(50):
        b.addi("x3", "x3", 1)
    b.halt()
    small = simulate(b.build(), config=config)
    big = simulate(b.build())
    # The small ROB cannot hide the load under the independent adds.
    assert small.cycles >= big.cycles


def test_store_results_visible_via_forwarding():
    b = ProgramBuilder("t")
    b.li("x1", 4096)
    b.li("x2", 7)
    b.store("x2", "x1", 0)
    b.load("x3", "x1", 0)
    b.addi("x4", "x3", 1)
    b.halt()
    result = simulate(b.build())
    assert result.committed == 6


def test_result_profile_helpers(mixed_program):
    from repro.core.samplers import make_sampler

    tea = make_sampler("TEA", 101)
    result = simulate(mixed_program, samplers=[tea])
    assert result.sampler_profile("TEA").total() > 0
    with pytest.raises(KeyError):
        result.sampler_profile("nope")
    golden = result.golden_profile()
    assert golden.total() == pytest.approx(result.cycles)


def test_core_decodes_only_the_indices_it_fetches(monkeypatch):
    """gcc's static program dwarfs what it runs: the core decodes each
    fetched index once and never touches the never-executed padding."""
    calls: Counter = Counter()
    real = StaticInst.sources

    def counting(inst):
        calls[inst.index] += 1
        return real(inst)

    monkeypatch.setattr(StaticInst, "sources", counting)
    workload = build("gcc", scale=0.05)
    result = Core(workload.program, arch_state=workload.fresh_state()).run()
    assert set(calls) == set(result.exec_counts)
    assert set(calls.values()) == {1}
    assert 10 * len(calls) < len(workload.program)
