"""Shared infrastructure for the synthetic workloads."""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.isa.interpreter import ArchState
from repro.isa.program import Program

#: Bytes between array elements (one 8-byte word).
WORD = 8
#: Cache-line size used when laying out data.
LINE = 64
#: Page size used when laying out data.
PAGE = 4096


@dataclass
class Workload:
    """A ready-to-simulate workload.

    Attributes:
        name: Benchmark name ("lbm", "bwaves", ...).
        program: The assembled program. Immutable, so runs of one
            workload may share it.
        state_builder: Zero-argument callable returning the
            pre-initialised architectural state (arrays etc.). Call it
            through :meth:`fresh_state` once per simulation, since the
            interpreter mutates the state it runs on.
        description: What SPEC behaviour the kernel mimics.
        traits: Informal expected event signature (used by tests).
        params: The sizes and options the builder used (iteration
            counts, chain lengths, flags).
    """

    name: str
    program: Program
    state_builder: "callable"
    description: str = ""
    traits: tuple[str, ...] = ()
    params: dict = field(default_factory=dict)

    def fresh_state(self) -> ArchState:
        """Build a fresh architectural state for one simulation run."""
        return self.state_builder()


def iterations(base: int, scale: float, minimum: int = 8) -> int:
    """Scale an iteration count, clamping to a sane minimum."""
    return max(minimum, int(round(base * scale)))


def init_pointer_chain(
    state: ArchState,
    base: int,
    n_elems: int,
    stride: int = WORD,
    *,
    seed: int,
) -> None:
    """Write a random single-cycle pointer chain into memory.

    Element *i* lives at ``base + i*stride`` and holds the byte address of
    the next element in a random Hamiltonian cycle over all elements --
    the classic pointer-chase structure that defeats prefetching and
    exposes full memory latency (omnetpp/mcf analogues).

    ``seed`` is required so every caller states which chain it wants:
    generated workloads thread their scenario seed through, hand-built
    kernels pin their historical constants.

    A single-element chain is the (valid) degenerate self-loop
    ``base -> base``; a chase over it stays put but never faults.

    Raises:
        ValueError: If ``n_elems`` is not positive or ``stride`` is not
            positive (a zero stride would alias every element onto one
            address and silently break the cycle).
    """
    if n_elems <= 0:
        raise ValueError(
            f"pointer chain needs at least one element, got {n_elems}"
        )
    if stride <= 0:
        raise ValueError(f"stride must be positive, got {stride}")
    if n_elems == 1:
        state.write_mem(base, base)
        return
    rng = random.Random(seed)
    order = list(range(1, n_elems))
    rng.shuffle(order)
    sequence = [0] + order
    for pos, elem in enumerate(sequence):
        nxt = sequence[(pos + 1) % n_elems]
        state.write_mem(base + elem * stride, base + nxt * stride)


def init_array(
    state: ArchState,
    base: int,
    n_elems: int,
    stride: int = WORD,
    value_fn=lambda i: float(i % 97) + 1.0,
) -> None:
    """Initialise a dense array with deterministic nonzero values."""
    for i in range(n_elems):
        state.write_mem(base + i * stride, value_fn(i))


def init_random_values(
    state: ArchState,
    base: int,
    n_elems: int,
    stride: int = WORD,
    *,
    seed: int,
    lo: int = 0,
    hi: int = 1 << 30,
) -> None:
    """Initialise an array with deterministic pseudo-random integers.

    ``seed`` is required for the same reason as in
    :func:`init_pointer_chain`: two scenarios with different seeds must
    not silently share value arrays.
    """
    rng = random.Random(seed)
    for i in range(n_elems):
        state.write_mem(base + i * stride, rng.randint(lo, hi))
