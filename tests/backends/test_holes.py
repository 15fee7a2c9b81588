"""Execution through a hole is bit-identical to execution through nops.

A :class:`~repro.isa.program.Hole` makes each filler ``nop`` the first
time a slot is read, so the first execution of a hole slot is where the
holed program and its dense twin could part. Each program here runs
hole slots, and each tier must give the same cycles, golden profile,
execution counts and final architectural state for both twins.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.backends.functional import simulate_functional
from repro.backends.sampled import SampledBackend, WindowPlan
from repro.core.samplers import make_sampler
from repro.isa.builder import ProgramBuilder
from repro.isa.interpreter import Interpreter
from repro.isa.program import Hole
from repro.isa.semantics import InstStream, arch_digest
from repro.uarch.core import Core


def _nops(builder, index):
    while builder.here() < index:
        builder.nop()
    return builder


def _falls_into_hole(pad):
    """A loop whose body falls through a hole and then reaches a halt."""
    b = ProgramBuilder("fall")
    b.li("x1", 6)  # 0
    b.label("top")
    b.addi("x1", "x1", -1)  # 1
    b.store("x1", "x0", 64)  # 2
    pad(b.function("padding"), 600)  # 3..599
    b.function("tail")
    b.bne("x1", "x0", "top")  # 600
    b.halt()  # 601
    return b.build()


def _branches_into_hole(pad):
    """A loop that jumps past the start of its padding, into it."""
    b = ProgramBuilder("into")
    b.li("x1", 6)  # 0
    b.label("top")
    b.addi("x1", "x1", -1)  # 1
    b.load("x2", "x0", 64)  # 2
    b.jump("mid")  # 3
    pad(b.function("padding"), 300)  # 4..299, never run
    b.label("mid")
    pad(b, 900)  # 300..899
    b.function("tail")
    b.bne("x1", "x0", "top")  # 900
    b.halt()  # 901
    return b.build()


def _functional(program):
    result = simulate_functional(program)
    return (
        result.cycles, result.golden_raw, result.exec_counts,
        arch_digest(result.arch_state),
    )


def _interpreted(program):
    interp = Interpreter(program, compiled=False)
    counts = Counter(dyn.static.index for dyn in interp.run())
    exec_counts = dict(sorted(counts.items()))
    return (
        sum(counts.values()),
        {(i, 0): float(c) for i, c in exec_counts.items()},
        exec_counts,
        arch_digest(interp.state),
    )


def _detailed(program, reference_loop):
    stream = InstStream(program)
    tea = make_sampler("TEA", 97, seed=5)
    result = Core(
        program, samplers=[tea], stream=stream,
        reference_loop=reference_loop,
    ).run()
    return (
        result.cycles, result.golden_raw, result.exec_counts,
        arch_digest(stream.state), dict(tea.raw),
    )


def _sampled(program):
    plan = WindowPlan(window=256, stride=768, warmup=256)
    result = SampledBackend(plan).simulate(program)
    assert len(result.windows) > 1
    return (
        result.cycles, result.golden_raw, result.exec_counts,
        arch_digest(result.arch_state),
    )


TIERS = {
    "functional": _functional,
    "interpreted": _interpreted,
    "detailed": lambda p: _detailed(p, reference_loop=False),
    "reference-loop": lambda p: _detailed(p, reference_loop=True),
    "sampled": _sampled,
}


@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("make", [_falls_into_hole, _branches_into_hole])
def test_hole_runs_like_its_padding(make, tier):
    holed = make(ProgramBuilder.pad_to)
    dense = make(_nops)
    assert any(type(s) is Hole for s in holed.segments)
    assert not any(type(s) is Hole for s in dense.segments)
    got = TIERS[tier](holed)
    assert got == TIERS[tier](dense)
    assert 350 in got[2]  # a hole slot ran
