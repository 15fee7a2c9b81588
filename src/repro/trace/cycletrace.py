"""TraceDoctor-style cycle records and the offline attribution replay.

The paper captures cycle-by-cycle commit-stage traces with TraceDoctor
and models every analysis approach out-of-band on the host. The
columnar :class:`~repro.trace.store.TraceStore` records that stream
from a core (its ``on_cycles``/``on_commit`` hooks) and hands it back
as a list of

* :class:`CyclesRecord` -- one per (run of identical) commit-state
  cycle(s), carrying the ROB-head sequence number for Stalled cycles,
  and
* :class:`CommitRecord` -- one per commit group, carrying each µop's
  sequence number, static index, and *final* PSV,

which is sufficient to re-derive the complete golden-reference PICS
*offline* with :func:`replay_golden` -- an implementation of the
attribution policy that shares no code with the core's built-in
accounting. The test suite replays stored traces and checks bit-exact
agreement, cross-validating both implementations.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.states import CommitState


@dataclass
class CyclesRecord:
    """A run of *count* consecutive cycles in one commit state."""

    state: CommitState
    count: int
    head_seq: int  # ROB-head dynamic seq for STALLED cycles, else -1


@dataclass
class CommitRecord:
    """One commit group: (seq, static index, final PSV) per µop."""

    uops: list[tuple[int, int, int]]


def replay_golden(
    records: list[CyclesRecord | CommitRecord],
) -> dict[tuple[int, int], float]:
    """Re-derive the golden-reference raw profile from a cycle trace.

    Implements the paper's attribution policy from scratch:

    * Compute cycles: 1/n to each µop of the commit group;
    * Stalled cycles: accumulated against the head µop's sequence
      number, attributed with its final PSV when it commits;
    * Drained cycles: accumulated and attributed to the next-committing
      µop;
    * Flushed cycles: attributed to the last-committed µop.
    """
    raw: dict[tuple[int, int], float] = {}
    stall_by_seq: dict[int, int] = {}
    pending_drain = 0
    last_committed: tuple[int, int] | None = None

    def add(index: int, psv: int, weight: float) -> None:
        key = (index, psv)
        raw[key] = raw.get(key, 0.0) + weight

    for record in records:
        if isinstance(record, CyclesRecord):
            if record.state == CommitState.STALLED:
                stall_by_seq[record.head_seq] = (
                    stall_by_seq.get(record.head_seq, 0) + record.count
                )
            elif record.state == CommitState.DRAINED:
                pending_drain += record.count
            elif record.state == CommitState.FLUSHED:
                if last_committed is None:
                    pending_drain += record.count
                else:
                    add(*last_committed, record.count)
            # Compute cycles are carried by the commit records.
        else:
            share = 1.0 / len(record.uops)
            first_seq, first_index, first_psv = record.uops[0]
            if pending_drain:
                add(first_index, first_psv, pending_drain)
                pending_drain = 0
            for seq, index, psv in record.uops:
                add(index, psv, share)
                stalled = stall_by_seq.pop(seq, 0)
                if stalled:
                    add(index, psv, stalled)
            last_committed = (
                record.uops[-1][1],
                record.uops[-1][2],
            )
    return raw
