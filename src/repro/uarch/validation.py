"""Invariant validation for configurations and simulation results.

Two audiences: the test suite (every invariant here is also asserted in
anger there) and downstream users extending the model -- after changing
the core, run :func:`validate_result` over a few workloads and it will
catch broken attribution long before a benchmark looks subtly wrong.
"""

from __future__ import annotations

from repro.core.result import CoreResult
from repro.core.states import CommitState
from repro.uarch.config import CoreConfig


class ValidationError(AssertionError):
    """Raised when an invariant does not hold."""


def validate_config(config: CoreConfig) -> None:
    """Check structural sanity of a core configuration.

    Raises:
        ValidationError: Describing the first violated constraint.
    """
    positive_fields = (
        "fetch_width",
        "fetch_buffer_entries",
        "decode_width",
        "frontend_depth",
        "rob_entries",
        "commit_width",
        "int_queue_entries",
        "int_issue_width",
        "mem_queue_entries",
        "mem_issue_width",
        "fp_queue_entries",
        "fp_issue_width",
        "load_queue_entries",
        "store_queue_entries",
    )
    for field in positive_fields:
        value = getattr(config, field)
        if value <= 0:
            raise ValidationError(f"{field} must be positive, got {value}")
    if config.commit_width > config.rob_entries:
        raise ValidationError(
            "commit_width cannot exceed rob_entries "
            f"({config.commit_width} > {config.rob_entries})"
        )
    if config.decode_width > config.fetch_buffer_entries:
        raise ValidationError(
            "decode_width cannot exceed fetch_buffer_entries"
        )
    mem = config.memory
    for field in ("l1i_size", "l1d_size", "llc_size", "line_bytes",
                  "page_bytes"):
        if getattr(mem, field) <= 0:
            raise ValidationError(f"memory.{field} must be positive")
    if mem.line_bytes & (mem.line_bytes - 1):
        raise ValidationError("memory.line_bytes must be a power of two")
    for missing_class, latency in config.latencies.items():
        if latency <= 0:
            raise ValidationError(
                f"latency for {missing_class.name} must be positive"
            )


def validate_result(result: CoreResult, tolerance: float = 1e-6) -> None:
    """Check the time-proportionality invariants of a finished run.

    * every simulated cycle is attributed exactly once in the golden
      profile;
    * per-state cycle counts partition the cycle count;
    * per-instruction execution counts sum to the committed total;
    * event counts never exceed execution counts;
    * every attached sampler's captured weight is non-negative and the
      capture keys lie within the program.

    Raises:
        ValidationError: Describing the first violated invariant.
    """
    golden_total = sum(result.golden_raw.values())
    if abs(golden_total - result.cycles) > tolerance * max(
        result.cycles, 1
    ):
        raise ValidationError(
            f"golden profile covers {golden_total} of "
            f"{result.cycles} cycles"
        )
    state_total = sum(result.state_cycles.values())
    if state_total != result.cycles:
        raise ValidationError(
            f"state cycles sum to {state_total}, expected "
            f"{result.cycles}"
        )
    for state in CommitState:
        if result.state_cycles.get(state, 0) < 0:
            raise ValidationError(f"negative cycles for {state.name}")
    exec_total = sum(result.exec_counts.values())
    if exec_total != result.committed:
        raise ValidationError(
            f"exec counts sum to {exec_total}, expected "
            f"{result.committed}"
        )
    n_insts = len(result.program)
    for (index, event), count in result.event_counts.items():
        if not 0 <= index < n_insts:
            raise ValidationError(f"event count for bad index {index}")
        if count > result.exec_counts.get(index, 0):
            raise ValidationError(
                f"instruction {index}: event {event} count {count} "
                f"exceeds {result.exec_counts.get(index, 0)} executions"
            )
    for (index, _), cycles in result.golden_raw.items():
        if not 0 <= index < n_insts:
            raise ValidationError(f"golden entry for bad index {index}")
        if cycles < 0:
            raise ValidationError(f"negative golden cycles at {index}")
    for sampler in result.samplers:
        for (index, _), weight in sampler.raw.items():
            if not 0 <= index < n_insts:
                raise ValidationError(
                    f"{sampler.name}: capture for bad index {index}"
                )
            if weight < 0:
                raise ValidationError(
                    f"{sampler.name}: negative capture weight"
                )
