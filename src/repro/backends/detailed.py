"""The detailed backend: the cycle-level OoO core as a tier.

A thin adapter -- :mod:`repro.uarch.core` *is* the detailed backend;
this wrapper just gives it the common :class:`ExecutionBackend` shape
so backend selection is uniform.
"""

from __future__ import annotations

from repro.backends.base import ExecutionBackend
from repro.core.result import CoreResult
from repro.uarch.core import simulate


class DetailedBackend(ExecutionBackend):
    """The cycle-level out-of-order core (the default tier)."""

    name = "detailed"

    def simulate(
        self,
        program,
        config=None,
        samplers=(),
        arch_state=None,
        max_cycles: int = 500_000_000,
    ) -> CoreResult:
        """Run the full cycle-level model."""
        return simulate(
            program, config, samplers, arch_state, max_cycles=max_cycles,
        )
