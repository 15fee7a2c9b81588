"""Sampler captures through the store's ``samples`` table."""

from repro.core.pics import PicsProfile
from repro.core.samplers import make_sampler
from repro.trace.store import TraceStore
from repro.uarch.core import simulate


def test_sampler_sink_integration(mixed_program, tmp_path):
    """The offline path reproduces the in-memory profile exactly."""
    sampler = make_sampler("TEA", 151)
    store = TraceStore()
    sampler.sink = store.sampler_sink("TEA")
    simulate(mixed_program, samplers=[sampler])
    sampler.sink = None
    path = store.save(tmp_path / "tea.teacol")
    with TraceStore.load(path) as loaded:
        offline = PicsProfile.from_raw("TEA", loaded.raw_profile("TEA"))
    online = sampler.profile()
    assert offline.stacks == online.stacks
