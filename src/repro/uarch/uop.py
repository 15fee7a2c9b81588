"""The in-flight micro-operation record of the timing model."""

from __future__ import annotations

from itertools import count
from typing import TYPE_CHECKING

from repro.isa.instructions import DynInst
from repro.isa.opcodes import OpClass, op_class

#: Process-wide µop id source; uniqueness is all that matters, so one
#: shared counter is fine across cores.
_uid_source = count()

# Bound to module level: reading a member through its enum class is a
# slow attribute lookup on Python 3.11.
_LOAD = OpClass.LOAD
_STORE = OpClass.STORE

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.samplers import Sampler


class Uop:
    """One in-flight µop: a dynamic instruction plus pipeline state.

    Carries the Performance Signature Vector (``psv``) that TEA attaches
    to every in-flight instruction, the golden-reference attribution
    accumulators, and deferred sampler captures that resolve when the µop
    commits.
    """

    __slots__ = (
        "dyn",
        "static",
        "eff_addr",
        "uid",
        "seq",
        "index",
        "op_class",
        "queue",
        "psv",
        "fetch_cycle",
        "complete_time",
        "dispatched",
        "complete",
        "committed",
        "squashed",
        "in_iq",
        "is_load",
        "is_store",
        "mispredicted",
        "causes_flush",
        "deps_remaining",
        "dependents",
        "prev_writer",
        "exposed_stall",
        "pending_samples",
    )

    def __init__(
        self,
        dyn: DynInst,
        fetch_cycle: int,
        queue: str,
        op_cls: OpClass | None = None,
    ) -> None:
        self.dyn = dyn
        # Unique, monotonically increasing id: a refetched instance of
        # the same dynamic instruction (same seq) gets a fresh uid, which
        # keeps heap entries totally ordered.
        self.uid = next(_uid_source)
        self.seq = dyn.seq
        self.static = dyn.static
        self.eff_addr = dyn.eff_addr
        self.index = dyn.static.index
        # The core passes its precomputed per-opcode class to keep the
        # enum lookup off the fetch hot path.
        self.op_class: OpClass = (
            op_class(dyn.static.op) if op_cls is None else op_cls
        )
        self.queue = queue
        self.psv = 0
        self.fetch_cycle = fetch_cycle
        self.complete_time = -1
        self.dispatched = False
        self.complete = False
        self.committed = False
        self.squashed = False
        self.in_iq = False
        self.is_load = self.op_class is _LOAD
        self.is_store = self.op_class is _STORE
        self.mispredicted = False
        self.causes_flush = False
        self.deps_remaining = 0
        # Lazily allocated (None == empty): most µops never grow either
        # list, and the two allocations dominate construction cost.
        self.dependents: list["Uop"] | None = None
        self.prev_writer: "Uop | None" = None
        # Golden attribution: commit-stall cycles exposed by this µop,
        # added to the profile with the final PSV when it commits.
        self.exposed_stall = 0
        # Deferred sampler captures: (sampler, weight).
        self.pending_samples: list[tuple["Sampler", float]] | None = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Uop(seq={self.seq}, {self.dyn.static.disasm()!r}, "
            f"psv={self.psv:#05x})"
        )
