"""Tiered execution backends behind one ISA semantics layer.

The gem5 anatomy: one functional ISA implementation, several execution
backends trading accuracy for speed:

==============  ====================================================
``detailed``    The cycle-level out-of-order core
                (:mod:`repro.uarch.core`) -- full PICS attribution,
                samplers, golden reference. The O3CPU analogue.
``functional``  Atomic execution, architectural state only -- no
                pipeline, no event heap, one cycle per instruction.
                The AtomicSimpleCPU analogue.
``sampled``     SMARTS-style sampling: functional fast-forward
                between detailed measurement windows, warm-state
                transfer at each boundary, extrapolated cycle
                stacks (:mod:`repro.backends.sampled`).
==============  ====================================================

All three consume the same :class:`repro.isa.semantics.InstStream`, so
they can only disagree about time, never about what executed -- the
differential gates in ``tests/backends`` and CI's ``backend-diff`` job
pin that down.
"""

from __future__ import annotations

from repro.backends.base import BACKEND_NAMES
from repro.backends.functional import simulate_functional
from repro.backends.sampled import (
    SampledBackend,
    SampledResult,
    WindowPlan,
    WindowResult,
)

__all__ = [
    "BACKEND_NAMES",
    "SampledBackend",
    "SampledResult",
    "WindowPlan",
    "WindowResult",
    "simulate_backend",
    "simulate_functional",
]


def simulate_backend(
    backend: str,
    program,
    config=None,
    samplers=(),
    arch_state=None,
    max_cycles: int = 500_000_000,
    plan: WindowPlan | None = None,
):
    """Simulate *program* on the named backend and return its result.

    Every tier returns a :class:`~repro.core.result.CoreResult` (the
    sampled tier's :class:`SampledResult` subclasses it).

    Args:
        backend: One of :data:`BACKEND_NAMES`.
        plan: Window geometry for the sampled backend (ignored by the
            other tiers; ``None`` selects :class:`WindowPlan` defaults).

    Raises:
        ValueError: Unknown backend name, or samplers attached to the
            functional tier (it has no cycles to sample).
    """
    if backend == "detailed":
        from repro.uarch.core import simulate

        return simulate(
            program, config, samplers, arch_state, max_cycles=max_cycles,
        )
    if backend == "functional":
        if list(samplers):
            raise ValueError(
                "the functional backend executes atomically and has no "
                "cycle-level behaviour to sample; attach samplers to the "
                "detailed or sampled backends instead"
            )
        return simulate_functional(program, config, arch_state=arch_state)
    if backend == "sampled":
        return SampledBackend(plan).simulate(
            program, config, samplers, arch_state, max_cycles=max_cycles,
        )
    raise ValueError(
        f"unknown backend {backend!r}; expected one of {BACKEND_NAMES}"
    )
