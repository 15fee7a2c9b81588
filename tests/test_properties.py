"""Property-based tests (hypothesis) for core data structures and
invariants."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.correlation import BoxStats, pearson
from repro.core.error import pics_error
from repro.core.events import FULL_MASK, Event, event_mask, select_event_set
from repro.core.pics import PicsProfile
from repro.core.psv import (
    decode_psv,
    parse_signature,
    popcount,
    project_psv,
    signature_name,
)
from repro.isa.builder import ProgramBuilder
from repro.isa.interpreter import Interpreter
from repro.memory.cache import SetAssocCache
from repro.trace.store import TraceStore
from repro.uarch.core import simulate

# ----------------------------------------------------------------------
# PSV properties.
# ----------------------------------------------------------------------
psv_values = st.integers(min_value=0, max_value=FULL_MASK)


@given(psv_values)
def test_signature_roundtrip(psv):
    assert parse_signature(signature_name(psv)) == psv


@given(psv_values, psv_values)
def test_projection_is_intersection(psv, mask):
    projected = project_psv(psv, mask)
    assert projected & ~mask == 0
    assert projected & ~psv == 0
    assert popcount(projected) <= popcount(psv)


@given(psv_values)
def test_decode_matches_popcount(psv):
    assert len(decode_psv(psv)) == popcount(psv)


@given(st.integers(min_value=0, max_value=9))
def test_select_event_set_within_budget(bits):
    assert len(select_event_set(bits)) <= bits


# ----------------------------------------------------------------------
# Error-metric properties.
# ----------------------------------------------------------------------
def profiles(draw):
    units = draw(
        st.dictionaries(
            st.integers(min_value=0, max_value=20),
            st.dictionaries(
                psv_values,
                st.floats(min_value=0.01, max_value=1000),
                min_size=1,
                max_size=4,
            ),
            min_size=1,
            max_size=8,
        )
    )
    return PicsProfile("p", units)


profile_strategy = st.composite(lambda draw: profiles(draw))()


@given(profile_strategy)
def test_error_of_profile_with_itself_is_zero(profile):
    assert pics_error(profile, profile) == pytest.approx(0.0, abs=1e-9)


@given(profile_strategy, profile_strategy)
def test_error_is_bounded(measured, golden):
    error = pics_error(measured, golden)
    assert -1e-9 <= error <= 1.0 + 1e-9


@given(profile_strategy, st.floats(min_value=0.1, max_value=1e6))
def test_scaling_preserves_error(profile, factor):
    scaled = profile.scaled(profile.total() * factor)
    assert pics_error(scaled, profile) == pytest.approx(0.0, abs=1e-6)


@given(profile_strategy, psv_values)
def test_projection_preserves_total(profile, mask):
    assert profile.project(mask).total() == pytest.approx(
        profile.total()
    )


@given(profile_strategy, psv_values)
def test_projection_never_increases_error(profile, mask):
    """Comparing at coarser event resolution cannot create error."""
    assert pics_error(
        profile.project(mask), profile, event_mask(frozenset(Event)) & mask
    ) == pytest.approx(0.0, abs=1e-9)


# ----------------------------------------------------------------------
# Statistics properties.
# ----------------------------------------------------------------------
@given(
    st.lists(
        st.floats(min_value=-1e6, max_value=1e6), min_size=2, max_size=50
    )
)
def test_pearson_bounded(xs):
    ys = [x * 0.5 + 3 for x in xs]
    r = pearson(xs, ys)
    assert -1.0 - 1e-9 <= r <= 1.0 + 1e-9


@given(
    st.lists(
        st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=50
    )
)
def test_box_stats_ordered(values):
    box = BoxStats.from_values(values)
    assert (
        box.minimum <= box.q1 <= box.median <= box.q3 <= box.maximum
    )


# ----------------------------------------------------------------------
# Cache properties.
# ----------------------------------------------------------------------
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=1 << 16),
            st.booleans(),
        ),
        min_size=1,
        max_size=200,
    )
)
@settings(max_examples=50)
def test_cache_immediate_rehit(accesses):
    """After any access, an immediate same-line access never misses."""
    cache = SetAssocCache("P", 2048, 4, 64)
    now = 0
    for addr, is_write in accesses:
        now += 1
        cache.access(addr, now, fill_latency=0, is_write=is_write)
        again = cache.access(addr, now, fill_latency=0)
        assert again.hit


@given(
    st.lists(
        st.integers(min_value=0, max_value=1 << 14),
        min_size=1,
        max_size=200,
    )
)
@settings(max_examples=50)
def test_cache_occupancy_bounded(addresses):
    """No set ever holds more lines than the associativity."""
    cache = SetAssocCache("P", 1024, 2, 64)
    for now, addr in enumerate(addresses):
        cache.access(addr, now, fill_latency=0)
    for cache_set in cache._sets.values():
        assert len(cache_set) <= cache.assoc


# ----------------------------------------------------------------------
# Sample-log properties (the trace store's samples table).
# ----------------------------------------------------------------------
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=1 << 31),
            psv_values,
            st.floats(min_value=0, max_value=1e9),
        ),
        max_size=100,
    )
)
@settings(max_examples=50)
def test_sample_log_roundtrip(records):
    store = TraceStore()
    sink = store.sampler_sink("prop")
    for index, psv, weight in records:
        sink.write(index, psv, weight)
    loaded = TraceStore.from_bytes(store.to_bytes())
    read_back = [
        (index, psv, weight)
        for _sampler, index, psv, weight in loaded.samples.rows()
    ]
    assert read_back == records
    assert loaded.raw_profile("prop") == store.raw_profile("prop")


# ----------------------------------------------------------------------
# Pipeline properties on generated programs.
# ----------------------------------------------------------------------
@st.composite
def small_programs(draw):
    """Random terminating programs: a countdown loop over a random body."""
    b = ProgramBuilder("prop")
    iters = draw(st.integers(min_value=1, max_value=12))
    body_len = draw(st.integers(min_value=1, max_value=12))
    b.li("x1", iters)
    b.label("loop")
    for n in range(body_len):
        kind = draw(
            st.sampled_from(
                ["alu", "mul", "load", "store", "fp", "nop"]
            )
        )
        reg = f"x{2 + n % 6}"
        if kind == "alu":
            b.addi(reg, f"x{2 + (n + 1) % 6}", n + 1)
        elif kind == "mul":
            b.mul(reg, "x1", "x1")
        elif kind == "load":
            b.load(reg, "x1", 4096 + 8 * n)
        elif kind == "store":
            b.store("x1", "x1", 8192 + 8 * n)
        elif kind == "fp":
            b.fadd(f"f{1 + n % 4}", f"f{1 + (n + 1) % 4}", "f0")
        else:
            b.nop()
    b.addi("x1", "x1", -1)
    b.bne("x1", "x0", "loop")
    b.halt()
    return b.build()


@given(small_programs())
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_pipeline_matches_functional_semantics(program):
    """The timing model commits exactly the functional instruction
    stream and attributes every cycle exactly once."""
    functional = sum(1 for _ in Interpreter(program).run())
    result = simulate(program)
    assert result.committed == functional
    assert sum(result.golden_raw.values()) == pytest.approx(result.cycles)
    assert sum(result.exec_counts.values()) == result.committed


@given(small_programs())
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_asm_text_roundtrip(program):
    """format_asm/parse_asm preserve every instruction of any program."""
    from repro.isa.asmtext import format_asm, parse_asm

    reparsed = parse_asm(format_asm(program), program.name)
    assert len(reparsed) == len(program)
    for a, b in zip(program, reparsed):
        assert (a.op, a.rd, a.rs1, a.rs2, int(a.imm), a.target) == (
            b.op, b.rd, b.rs1, b.rs2, int(b.imm), b.target
        )


@given(small_programs())
@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_fast_forward_is_exact(program):
    """Bulk cycle-skipping must be invisible: identical cycle counts,
    golden attribution, and sampled profiles with it on or off."""
    from repro.core.samplers import make_sampler

    fast_sampler = make_sampler("TEA", 37, seed=3)
    slow_sampler = make_sampler("TEA", 37, seed=3)
    fast = simulate(program, samplers=[fast_sampler], fast_forward=True)
    slow = simulate(
        program, samplers=[slow_sampler], fast_forward=False
    )
    assert fast.cycles == slow.cycles
    assert fast.golden_raw == slow.golden_raw
    assert fast.state_cycles == slow.state_cycles
    assert fast_sampler.raw == slow_sampler.raw
