"""The paper's cycle-stack error metric (Section 4).

With stack components ``c_{i,u}`` (measured) and ``ĉ_{i,u}`` (golden
reference) for component *i* of unit *u*, the correctly attributed cycles
are ``sum_u sum_i min(c_{i,u}, ĉ_{i,u})`` and the error is::

    E = (C_total - C_correct) / C_total

where ``C_total`` is the golden profile's total cycle count. Techniques
with restricted event sets are compared against a golden reference
projected onto the same components; sampled profiles are normalised to
the golden total first.
"""

from __future__ import annotations

from repro.core.events import FULL_MASK
from repro.core.pics import Granularity, PicsProfile
from repro.isa.program import Program


def correctly_attributed(
    measured: PicsProfile, golden: PicsProfile
) -> float:
    """Cycles attributed to the right (unit, signature) component."""
    correct = 0.0
    for unit, golden_stack in golden.stacks.items():
        measured_stack = measured.stacks.get(unit)
        if not measured_stack:
            continue
        for psv, golden_cycles in golden_stack.items():
            measured_cycles = measured_stack.get(psv, 0.0)
            correct += min(measured_cycles, golden_cycles)
    return correct


def pics_error(
    measured: PicsProfile,
    golden: PicsProfile,
    event_mask: int = FULL_MASK,
    normalize: bool = True,
) -> float:
    """Error of *measured* relative to *golden* (0 = perfect, 1 = worst).

    Args:
        measured: The technique's profile (same granularity as *golden*).
        golden: The golden-reference profile.
        event_mask: Event set of the technique; both profiles are
            projected onto it before comparison (paper Section 4).
        normalize: Scale *measured* to the golden total first (appropriate
            for sampled profiles).

    Raises:
        ValueError: If the two profiles have different granularities or
            the golden profile is empty.
    """
    if measured.granularity != golden.granularity:
        raise ValueError(
            f"granularity mismatch: {measured.granularity} vs "
            f"{golden.granularity}"
        )
    if event_mask == FULL_MASK:
        # Projecting onto every event is the identity.
        golden_projected, measured_projected = golden, measured
    else:
        golden_projected = golden.project(event_mask)
        measured_projected = measured.project(event_mask)
    total = golden_projected.total()
    if total <= 0:
        raise ValueError("golden profile is empty")
    if normalize:
        measured_projected = measured_projected.scaled(total)
    correct = correctly_attributed(measured_projected, golden_projected)
    return (total - correct) / total


def error_at_granularity(
    measured: PicsProfile,
    golden: PicsProfile,
    program: Program,
    granularity: Granularity,
    event_mask: int = FULL_MASK,
) -> float:
    """Error after aggregating both profiles at *granularity* (Fig 9)."""
    return pics_error(
        measured.aggregate(program, granularity),
        golden.aggregate(program, granularity),
        event_mask=event_mask,
    )
