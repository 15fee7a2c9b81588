"""The fast tiers make no :class:`DynInst` records they do not need.

The functional tier only counts instructions, and the sampled tier's
fast-forward only needs the last ``warmup`` of each stride as records
(the next window's warm-up replays them). CI's wall-time gate is too
loose to notice a return to one record per instruction, so these count
constructor calls.
"""

from __future__ import annotations

import pytest

from repro.backends.functional import simulate_functional
from repro.backends.sampled import SampledBackend
from repro.isa.instructions import DynInst
from repro.isa.semantics import InstStream, arch_digest
from repro.uarch.config import CoreConfig
from repro.uarch.core import Core
from repro.workloads import build


@pytest.fixture
def records(monkeypatch):
    """A one-element list holding the DynInst constructions so far."""
    made = [0]
    real = DynInst.__init__

    def counting(self, *args, **kwargs):
        made[0] += 1
        real(self, *args, **kwargs)

    monkeypatch.setattr(DynInst, "__init__", counting)
    return made


def test_functional_tier_makes_no_records(records):
    workload = build("gcc", scale=0.1)
    result = simulate_functional(
        workload.program, arch_state=workload.fresh_state()
    )
    assert result.committed > 10_000
    assert records[0] == 0


def test_sampled_tier_records_only_windows_and_warmup(records):
    """Records are the measured instructions, each window's in-flight
    µops at detach (at most ROB + fetch buffer), and the ``warmup``
    tail of each fast-forward."""
    workload = build("gcc", scale=0.75)
    backend = SampledBackend()
    result = backend.simulate(
        workload.program, arch_state=workload.fresh_state()
    )
    config = CoreConfig()
    per_window = (
        backend.plan.warmup + config.rob_entries
        + config.fetch_buffer_entries
    )
    assert result.ff_committed > result.measured_committed
    assert records[0] <= (
        result.measured_committed + len(result.windows) * per_window
    )


def test_core_built_before_a_skip_fetches_after_it():
    """``skip`` restarts the stream's record generator, so a core reads
    ``stream.source`` afresh and never resumes a stale copy."""
    workload = build("mcf", scale=0.25)
    ref_stream = InstStream(workload.program, workload.fresh_state())
    for _ in range(1_000):
        ref_stream.take()
    ref = Core(workload.program, stream=ref_stream).run()

    stream = InstStream(workload.program, workload.fresh_state())
    stream.take()  # the first generator is now suspended mid-stream
    core = Core(workload.program, stream=stream)
    assert stream.skip(999) == 999
    result = core.run()
    assert result.committed == ref.committed
    assert result.exec_counts == ref.exec_counts
    assert arch_digest(stream.state) == arch_digest(ref_stream.state)
