"""µop lifetime: only the in-flight window outlives the pipeline.

A committed µop is never squashed, so the core keeps no link to it
beyond the last committed writer of each register; a squashed µop is
unlinked from its rename predecessor and its consumers. Reference
counting then frees every other µop as the pipeline drops it. These
tests run with the cyclic collector off, so a chain or a cycle that
only the collector could free shows up as live µops after the run.
"""

from __future__ import annotations

import gc

import pytest

from repro.backends.sampled import SampledBackend
from repro.core.samplers import make_sampler
from repro.uarch.config import CoreConfig
from repro.uarch.core import Core
from repro.uarch.uop import Uop
from repro.workloads import build

TECHNIQUES = ("TEA", "NCI-TEA", "IBS", "SPE", "RIS")

#: One last committed writer per architectural register.
_REGISTER_WRITERS = 64


def _live_uops() -> int:
    return sum(1 for obj in gc.get_objects() if type(obj) is Uop)


def _in_flight_bound() -> int:
    config = CoreConfig()
    return (
        config.rob_entries
        + config.fetch_buffer_entries
        + _REGISTER_WRITERS
    )


def _samplers():
    return [
        make_sampler(t, 293, seed=12345 + i)
        for i, t in enumerate(TECHNIQUES)
    ]


def _growth(run) -> int:
    """Live µops calling *run* leaves behind, with the cyclic
    collector off."""
    gc.collect()
    before = _live_uops()
    gc.disable()
    try:
        run()
        after = _live_uops()
    finally:
        gc.enable()
    return after - before


@pytest.mark.parametrize("name", ["nab", "gcc", "x264"])
def test_detailed_run_keeps_only_in_flight_uops(name):
    workload = build(name, scale=0.05)
    # Held across the count, so its rename map keeps its last writers.
    core = Core(
        workload.program,
        samplers=_samplers(),
        arch_state=workload.fresh_state(),
    )
    assert _growth(core.run) <= _in_flight_bound()


def test_sampled_run_keeps_only_in_flight_uops():
    workload = build("nab", scale=0.1)
    samplers = _samplers()
    state = workload.fresh_state()
    assert _growth(
        lambda: SampledBackend().simulate(
            workload.program, samplers=samplers, arch_state=state
        )
    ) <= _in_flight_bound()
