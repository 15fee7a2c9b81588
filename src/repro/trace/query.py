"""Query engine over the columnar trace store.

Treats a :class:`~repro.trace.store.TraceStore` as a database and
answers the ROADMAP's canned questions -- "top-5 instructions by DRAIN
time in window X", "flush-cause histogram per basic block", "what
regressed vs this baseline run" -- plus generic building blocks:

* :meth:`TraceQuery.attribute` -- the golden attribution policy run
  batch-style over the columns, optionally restricted to a commit-state
  subset and a cycle window. With no filters it is **bit-identical** to
  :func:`repro.trace.cycletrace.replay_golden` (same visit order, same
  float accumulation order), which the test suite pins.
* :func:`group_attribution` -- fold a raw (instruction, PSV) profile to
  instruction / basic-block / function granularity.
* :meth:`TraceQuery.top` -- top-k groups by attributed cycles.
* :meth:`TraceQuery.flush_histogram` -- FLUSHED cycles bucketed by
  (group, flush cause), causes decoded from the blamed µop's PSV bits.
* :func:`diff_attribution` -- cross-run regression diff on time shares
  (robust to runs of different lengths); rows above the threshold are
  flagged as regressions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.events import Event
from repro.core.states import CommitState
from repro.isa.program import Program
from repro.trace.store import KIND_CYCLES, TraceStore

#: Grouping granularities :func:`group_attribution` understands.
GROUP_BY = ("instruction", "bb", "function")

#: Commit-state names accepted by the CLI (plus "total").
STATE_NAMES = tuple(s.name.lower() for s in CommitState)

#: PSV bits that explain a flush, in blame-priority order.
_FLUSH_EVENTS = (Event.FL_MB, Event.FL_EX, Event.FL_MO)


def flush_cause(psv: int) -> str:
    """The flush cause encoded in a blamed µop's PSV.

    A PSV can carry several FL bits (e.g. a mispredicted branch that
    also serialised); the first match in paper order (FL-MB, FL-EX,
    FL-MO) wins so every flushed cycle lands in exactly one bucket.
    """
    for event in _FLUSH_EVENTS:
        if psv & (1 << event):
            return event.display_name
    return "other"


def parse_states(name: str) -> tuple[CommitState, ...] | None:
    """CLI state name -> state filter (``"total"`` -> no filter).

    Raises:
        ValueError: For an unknown state name.
    """
    if name == "total":
        return None
    try:
        return (CommitState[name.upper()],)
    except KeyError:
        raise ValueError(
            f"unknown state {name!r}; choose from "
            f"{', '.join(STATE_NAMES + ('total',))}"
        ) from None


def group_attribution(
    raw: dict[tuple[int, int], float],
    by: str = "instruction",
    program: Program | None = None,
) -> dict[Any, float]:
    """Fold a raw (instruction, PSV) profile to *by* granularity.

    Keys: instruction index for ``"instruction"``, basic-block leader
    index for ``"bb"``, function name for ``"function"``. Accumulation
    follows the raw dict's insertion order, so grouped totals are
    deterministic.

    Raises:
        ValueError: For an unknown granularity, or ``bb``/``function``
            grouping without a program.
    """
    if by not in GROUP_BY:
        raise ValueError(
            f"unknown group-by {by!r}; choose from {', '.join(GROUP_BY)}"
        )
    if by != "instruction" and program is None:
        raise ValueError(f"group-by {by!r} needs the program")
    out: dict[Any, float] = {}
    for (index, _psv), cycles in raw.items():
        if by == "instruction":
            key: Any = index
        elif by == "bb":
            key = program.bb_of(index)
        else:
            key = program[index].func
        out[key] = out.get(key, 0.0) + cycles
    return out


def top_k(
    grouped: dict[Any, float], k: int
) -> list[tuple[Any, float]]:
    """The *k* largest groups, ties broken by key for determinism."""
    return sorted(grouped.items(), key=lambda kv: (-kv[1], kv[0]))[:k]


class TraceQuery:
    """Queries over one run's columnar trace.

    Args:
        store: The trace store (live, loaded, or mmap-backed).
        program: The run's program; required for basic-block/function
            grouping and for human-readable labels.
    """

    def __init__(
        self, store: TraceStore, program: Program | None = None
    ) -> None:
        self.store = store
        self.program = program

    # -- basic shape ---------------------------------------------------
    def total_cycles(self) -> int:
        """Cycles the trace covers."""
        ctrace = self.store.ctrace
        n = len(ctrace)
        if not n:
            return 0
        return ctrace.column("cycle")[n - 1] + ctrace.column("count")[n - 1]

    def state_cycles(self) -> dict[CommitState, int]:
        """Cycles per commit state (the coarse CPI stack)."""
        out = {state: 0 for state in CommitState}
        states = self.store.ctrace.column("state")
        counts = self.store.ctrace.column("count")
        for i in range(len(self.store.ctrace)):
            out[CommitState(states[i])] += counts[i]
        return out

    def window_range(
        self, window: int | None, window_cycles: int | None
    ) -> tuple[int, int] | None:
        """The cycle range of window index *window*.

        Raises:
            ValueError: For a window index without a window length.
        """
        if window is None:
            return None
        if not window_cycles or window_cycles <= 0:
            raise ValueError(
                "--window needs --window-cycles (a positive window "
                "length in cycles)"
            )
        return (window * window_cycles, (window + 1) * window_cycles)

    # -- attribution ---------------------------------------------------
    def attribute(
        self,
        states: tuple[CommitState, ...] | None = None,
        cycle_range: tuple[int, int] | None = None,
    ) -> dict[tuple[int, int], float]:
        """Golden-policy attribution over the columns.

        Args:
            states: Only attribute cycles spent in these commit states
                (``None`` = all four).
            cycle_range: Only attribute cycles in ``[lo, hi)``; runs
                straddling a boundary contribute their overlap.

        Returns:
            Raw (instruction index, PSV) -> attributed cycles. With no
            filters this is bit-identical to :func:`replay_golden` on
            the reconstructed record list: same record visit order,
            same per-key float accumulation order.
        """
        sel = (
            None
            if states is None
            else {int(state) for state in states}
        )
        lo, hi = cycle_range if cycle_range is not None else (0, None)
        compute_on = sel is None or int(CommitState.COMPUTE) in sel
        stalled_on = sel is None or int(CommitState.STALLED) in sel
        drained_on = sel is None or int(CommitState.DRAINED) in sel
        flushed_on = sel is None or int(CommitState.FLUSHED) in sel

        raw: dict[tuple[int, int], float] = {}
        stall_by_seq: dict[int, int] = {}
        pending_drain = 0
        last_committed: tuple[int, int] | None = None

        ctrace = self.store.ctrace
        kinds = ctrace.column("kind")
        state_col = ctrace.column("state")
        counts = ctrace.column("count")
        head_seqs = ctrace.column("head_seq")
        cycles_col = ctrace.column("cycle")
        group_starts = ctrace.column("group_start")
        group_sizes = ctrace.column("group_size")
        uops = self.store.commit_uops
        seq_col = uops.column("seq")
        index_col = uops.column("index")
        psv_col = uops.column("psv")

        get = raw.get
        stalled_state = int(CommitState.STALLED)
        drained_state = int(CommitState.DRAINED)

        for i in range(len(ctrace)):
            start = cycles_col[i]
            count = counts[i]
            if hi is not None:
                count = min(start + count, hi) - max(start, lo)
                # A fully out-of-range record still advances the
                # replay machinery below (commits pop stalls/drains).
                count = count if count > 0 else 0
            if kinds[i] == KIND_CYCLES:
                if not count:
                    continue
                state = state_col[i]
                if state == stalled_state:
                    if stalled_on:
                        seq = head_seqs[i]
                        stall_by_seq[seq] = (
                            stall_by_seq.get(seq, 0) + count
                        )
                elif state == drained_state:
                    if drained_on:
                        pending_drain += count
                else:  # FLUSHED
                    if flushed_on:
                        if last_committed is None:
                            pending_drain += count
                        else:
                            key = last_committed
                            raw[key] = get(key, 0.0) + count
                continue
            # Commit group: one COMPUTE cycle, plus it resolves any
            # pending drain and the head-stall accumulations.
            size = group_sizes[i]
            gstart = group_starts[i]
            first_index = index_col[gstart]
            first_psv = psv_col[gstart]
            if pending_drain:
                key = (first_index, first_psv)
                raw[key] = get(key, 0.0) + pending_drain
                pending_drain = 0
            share = 1.0 / size if compute_on and count else 0.0
            for j in range(gstart, gstart + size):
                key = (index_col[j], psv_col[j])
                if share:
                    raw[key] = get(key, 0.0) + share
                stalled = stall_by_seq.pop(seq_col[j], 0)
                if stalled:
                    raw[key] = get(key, 0.0) + stalled
            last_committed = (
                index_col[gstart + size - 1],
                psv_col[gstart + size - 1],
            )
        return raw

    # -- canned queries ------------------------------------------------
    def top(
        self,
        k: int = 5,
        states: tuple[CommitState, ...] | None = None,
        by: str = "instruction",
        window: int | None = None,
        window_cycles: int | None = None,
    ) -> list[tuple[Any, float]]:
        """Top-*k* groups by attributed cycles (optionally windowed)."""
        raw = self.attribute(
            states, self.window_range(window, window_cycles)
        )
        return top_k(group_attribution(raw, by, self.program), k)

    def flush_histogram(
        self, per: str = "bb"
    ) -> dict[tuple[Any, str], int]:
        """FLUSHED cycles bucketed by (group, flush cause).

        The blamed µop is the last-committed one (the golden policy);
        its PSV's FL bits name the cause. Flushed cycles before the
        first commit -- no blame exists -- land under group ``None``
        with cause ``"startup"``. The histogram partitions the FLUSHED
        cycle total exactly.
        """
        if per not in GROUP_BY:
            raise ValueError(
                f"unknown group-by {per!r}; choose from "
                f"{', '.join(GROUP_BY)}"
            )
        if per != "instruction" and self.program is None:
            raise ValueError(f"group-by {per!r} needs the program")
        out: dict[tuple[Any, str], int] = {}
        last_committed: tuple[int, int] | None = None
        ctrace = self.store.ctrace
        kinds = ctrace.column("kind")
        state_col = ctrace.column("state")
        counts = ctrace.column("count")
        group_starts = ctrace.column("group_start")
        group_sizes = ctrace.column("group_size")
        index_col = self.store.commit_uops.column("index")
        psv_col = self.store.commit_uops.column("psv")
        flushed_state = int(CommitState.FLUSHED)
        program = self.program
        for i in range(len(ctrace)):
            if kinds[i] == KIND_CYCLES:
                if state_col[i] != flushed_state:
                    continue
                if last_committed is None:
                    key: tuple[Any, str] = (None, "startup")
                else:
                    index, psv = last_committed
                    if per == "instruction":
                        group: Any = index
                    elif per == "bb":
                        group = program.bb_of(index)
                    else:
                        group = program[index].func
                    key = (group, flush_cause(psv))
                out[key] = out.get(key, 0) + counts[i]
            else:
                last = group_starts[i] + group_sizes[i] - 1
                last_committed = (index_col[last], psv_col[last])
        return out

    # -- labels --------------------------------------------------------
    def label(self, key: Any, by: str) -> str:
        """Human-readable label for a group key."""
        program = self.program
        if key is None:
            return "(startup)"
        if by == "function":
            return str(key)
        if program is None or not (0 <= key < len(program)):
            return f"#{key}"
        inst = program[key]
        if by == "bb":
            tag = inst.label or inst.func
            return f"bb@{key} ({tag})"
        return f"#{key} {inst.disasm()}"


@dataclass
class DiffRow:
    """One group's before/after comparison."""

    key: Any
    label: str
    before: float
    after: float
    before_share: float
    after_share: float
    delta_share: float
    regression: bool

    def to_json(self) -> dict[str, Any]:
        return {
            "key": self.key,
            "label": self.label,
            "before_cycles": round(self.before, 3),
            "after_cycles": round(self.after, 3),
            "before_share": round(self.before_share, 6),
            "after_share": round(self.after_share, 6),
            "delta_share": round(self.delta_share, 6),
            "regression": self.regression,
        }


@dataclass
class DiffReport:
    """Cross-run diff: per-group time shares, regressions flagged."""

    by: str
    before_total: float
    after_total: float
    threshold: float
    rows: list[DiffRow] = field(default_factory=list)

    @property
    def regressions(self) -> list[DiffRow]:
        return [row for row in self.rows if row.regression]

    @property
    def flagged(self) -> bool:
        return bool(self.regressions)

    def to_json(self) -> dict[str, Any]:
        return {
            "by": self.by,
            "before_total_cycles": round(self.before_total, 3),
            "after_total_cycles": round(self.after_total, 3),
            "threshold": self.threshold,
            "flagged": self.flagged,
            "rows": [row.to_json() for row in self.rows],
        }


def diff_attribution(
    before: TraceQuery,
    after: TraceQuery,
    by: str | None = None,
    states: tuple[CommitState, ...] | None = None,
    threshold: float = 0.02,
    k: int = 10,
) -> DiffReport:
    """Compare two runs' attributed time, flagging regressions.

    Comparison is on *shares of total attributed time* (so runs of
    different lengths -- a changed scale, an extra workload kwarg --
    compare meaningfully); a group whose share grew by more than
    *threshold* (absolute) is flagged as a regression.

    Args:
        by: Granularity; default instruction when both programs have
            equal length (indices align), else function.
        states: Restrict to a commit-state subset first.
        threshold: Absolute share growth that flags a regression.
        k: Rows kept (largest absolute share change first).
    """
    if by is None:
        same_shape = (
            before.program is not None
            and after.program is not None
            and len(before.program) == len(after.program)
        )
        by = "instruction" if same_shape else "function"
    before_groups = group_attribution(
        before.attribute(states), by, before.program
    )
    after_groups = group_attribution(
        after.attribute(states), by, after.program
    )
    before_total = sum(before_groups.values())
    after_total = sum(after_groups.values())
    keys = set(before_groups) | set(after_groups)
    rows: list[DiffRow] = []
    for key in keys:
        b = before_groups.get(key, 0.0)
        a = after_groups.get(key, 0.0)
        b_share = b / before_total if before_total else 0.0
        a_share = a / after_total if after_total else 0.0
        delta = a_share - b_share
        rows.append(
            DiffRow(
                key=key,
                label=after.label(key, by)
                if key in after_groups
                else before.label(key, by),
                before=b,
                after=a,
                before_share=b_share,
                after_share=a_share,
                delta_share=delta,
                regression=delta > threshold,
            )
        )
    rows.sort(key=lambda r: (-abs(r.delta_share), str(r.key)))
    return DiffReport(
        by=by,
        before_total=before_total,
        after_total=after_total,
        threshold=threshold,
        rows=rows[:k],
    )
