"""A/B equality: the optimised hot loop vs the frozen reference loop.

``Core(reference_loop=True)`` runs the pre-optimisation commit loop,
kept verbatim as the behavioural oracle for the optimised path. The
optimisation contract is bit-identity -- same cycles, golden
attribution, commit-state histogram, and per-sampler raw profiles for
a fixed seed -- which these tests enforce on real workloads. The
benchmark (``bench/run.py``) checks the optimised loop's digests on
every operation it times.
"""

from __future__ import annotations

import pytest

from repro.core.samplers import make_sampler
from repro.uarch.core import Core
from repro.workloads import build

TECHNIQUES = ("TEA", "NCI-TEA", "IBS", "SPE", "RIS")


def _profiles(workload, reference_loop: bool):
    samplers = [
        make_sampler(t, 293, seed=12345 + i)
        for i, t in enumerate(TECHNIQUES)
    ]
    core = Core(
        workload.program,
        samplers=samplers,
        arch_state=workload.fresh_state(),
        reference_loop=reference_loop,
    )
    result = core.run()
    return {
        "cycles": result.cycles,
        "committed": result.committed,
        "golden": dict(result.golden_raw),
        "event_counts": dict(result.event_counts),
        "exec_counts": dict(result.exec_counts),
        "state_cycles": dict(core.state_cycles),
        "samplers": [
            {
                "raw": dict(s.raw),
                "taken": s.samples_taken,
                "dropped": s.samples_dropped,
            }
            for s in samplers
        ],
    }


# nab's serializing ops flush at commit, which no other hand-built
# kernel does: it drives the squash path both loops share.
@pytest.mark.parametrize("name", ["lbm", "mcf", "x264", "gcc", "nab"])
def test_reference_loop_bit_identical(name):
    workload = build(name, scale=0.1)
    assert _profiles(workload, False) == _profiles(workload, True)

