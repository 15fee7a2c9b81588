"""Parent-side live suite monitoring: status table + stall detection.

:class:`SuiteMonitor` is the single consumer for every live signal a
suite execution produces -- dispatch/retry notifications from the
:class:`~repro.engine.executor.SuiteExecutor`, ``"kind": "heartbeat"``
records shipped back from worker processes, and ``"kind": "resources"``
accounting settled with each attempt. It maintains one
:class:`LabelState` per suite label (``pending`` / ``running`` /
``retrying`` / ``stalled`` / ``done`` / ``failed`` / ``timeout``) and
implements the liveness rule the wall-clock timeout cannot: a label
whose worker has shown no activity (neither dispatch nor heartbeat)
for ``stall_after`` seconds is flagged **stalled** while the timeout
is still counting down.

The same class powers ``tea-repro monitor``: it folds the records the
run-log parser (:func:`~repro.engine.telemetry.tail_run_log`) returns
(heartbeats, resources, suite outcomes) into the identical table, and
:func:`render_monitor` draws the refreshing text view -- per-label
activity bars, beat counts, and aggregate throughput. Feeding is
incremental (:meth:`SuiteMonitor.feed_file` hands back the parser's
file offset), so an in-flight suite renders without waiting for
completion.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable

from repro.engine.telemetry import tail_run_log

#: Live statuses a label moves through (terminal: done/failed/timeout).
STATUS_PENDING = "pending"
STATUS_RUNNING = "running"
STATUS_RETRYING = "retrying"
STATUS_STALLED = "stalled"
STATUS_DONE = "done"
STATUS_FAILED = "failed"
STATUS_TIMEOUT = "timeout"

_TERMINAL = (STATUS_DONE, STATUS_FAILED, STATUS_TIMEOUT)

#: Default stall threshold as a multiple of the heartbeat interval.
STALL_AFTER_BEATS = 4.0


@dataclass(slots=True)
class LabelState:
    """Everything the monitor knows about one suite label."""

    label: str
    status: str = STATUS_PENDING
    workload: str = ""
    backend: str = ""
    attempt: int = 0
    pid: int = 0
    cycles: int = 0
    committed: int = 0
    instrs_per_s: float = 0.0
    wall_s: float = 0.0
    beats: int = 0
    stall_events: int = 0
    dispatch_ts: float = 0.0
    last_beat_ts: float = 0.0
    max_rss_kb: float = 0.0
    cpu_user_s: float = 0.0
    cpu_sys_s: float = 0.0

    @property
    def last_activity_ts(self) -> float:
        """Newest proof of life (dispatch or heartbeat)."""
        return max(self.dispatch_ts, self.last_beat_ts)

    def to_json(self) -> dict[str, Any]:
        """JSON-ready row of the status table."""
        return {
            "label": self.label,
            "status": self.status,
            "workload": self.workload,
            "backend": self.backend,
            "attempt": self.attempt,
            "pid": self.pid,
            "cycles": self.cycles,
            "committed": self.committed,
            "instrs_per_s": round(self.instrs_per_s, 1),
            "wall_s": round(self.wall_s, 3),
            "beats": self.beats,
            "stall_events": self.stall_events,
            "max_rss_kb": self.max_rss_kb,
        }


class SuiteMonitor:
    """Fold live suite signals into a per-label status table.

    Args:
        labels: Known suite labels (rows appear up front as
            ``pending``); labels discovered from records are added on
            the fly, so the run-log tailing path needs no pre-set.
        stall_after: Seconds without activity before a running label
            is flagged stalled (``None`` disables stall detection).
        clock: Epoch-seconds source, overridable for tests.
    """

    def __init__(
        self,
        labels: tuple[str, ...] | list[str] = (),
        stall_after: float | None = None,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.stall_after = (
            None if stall_after is None else float(stall_after)
        )
        self.clock = clock
        self.suite_done = False
        self._states: dict[str, LabelState] = {
            label: LabelState(label) for label in labels
        }

    # ------------------------------------------------------------------
    # Executor-facing notifications.
    # ------------------------------------------------------------------
    def _state(self, label: str) -> LabelState:
        state = self._states.get(label)
        if state is None:
            state = LabelState(label)
            self._states[label] = state
        return state

    def note_dispatch(
        self, label: str, attempt: int, ts: float | None = None
    ) -> None:
        """An attempt of *label* was handed to a worker."""
        state = self._state(label)
        state.status = STATUS_RUNNING
        state.attempt = max(state.attempt, int(attempt))
        state.dispatch_ts = self.clock() if ts is None else ts

    def note_retry(self, label: str, attempt: int) -> None:
        """An attempt failed and a retry is scheduled."""
        state = self._state(label)
        state.status = STATUS_RETRYING
        state.attempt = max(state.attempt, int(attempt))

    def note_done(self, label: str, status: str) -> None:
        """The executor settled *label* terminally."""
        self._state(label).status = status

    # ------------------------------------------------------------------
    # Record folding (heartbeat / resources / suite), shared with the
    # run-log tailing path.
    # ------------------------------------------------------------------
    def observe(self, record: dict[str, Any]) -> None:
        """Fold one live record into the table (unknown kinds: no-op)."""
        kind = record.get("kind")
        if kind == "heartbeat":
            self._observe_heartbeat(record)
        elif kind == "resources":
            self._observe_resources(record)
        elif kind == "suite":
            self._observe_suite(record)

    def _observe_heartbeat(self, record: dict[str, Any]) -> None:
        label = record.get("label") or record.get("workload") or "?"
        state = self._state(label)
        state.beats += 1
        state.workload = record.get("workload", state.workload)
        state.backend = record.get("backend", state.backend)
        state.attempt = max(
            state.attempt, int(record.get("attempt", 1))
        )
        state.pid = int(record.get("pid", state.pid))
        state.cycles = int(record.get("cycles", state.cycles))
        state.committed = int(record.get("committed", state.committed))
        state.instrs_per_s = float(
            record.get("instrs_per_s", state.instrs_per_s)
        )
        state.wall_s = float(record.get("wall_s", state.wall_s))
        state.last_beat_ts = float(
            record.get("ts", state.last_beat_ts)
        )
        phase = record.get("phase")
        if phase == "stalled":
            if state.status not in _TERMINAL:
                state.status = STATUS_STALLED
            state.stall_events += 1
        elif phase == "done":
            if record.get("ok", True):
                state.status = STATUS_DONE
            elif state.status not in _TERMINAL:
                state.status = STATUS_RETRYING
        elif state.status not in _TERMINAL:
            # A beat from a stalled worker is proof of life again.
            state.status = STATUS_RUNNING

    def _observe_resources(self, record: dict[str, Any]) -> None:
        label = record.get("label") or "?"
        state = self._state(label)
        state.max_rss_kb = max(
            state.max_rss_kb, float(record.get("max_rss_kb", 0.0))
        )
        state.cpu_user_s += float(record.get("cpu_user_s", 0.0))
        state.cpu_sys_s += float(record.get("cpu_sys_s", 0.0))

    def _observe_suite(self, record: dict[str, Any]) -> None:
        self.suite_done = True
        for label, outcome in (record.get("outcomes") or {}).items():
            state = self._state(label)
            status = outcome.get("status")
            state.status = {
                "ok": STATUS_DONE,
                "failed": STATUS_FAILED,
                "timeout": STATUS_TIMEOUT,
            }.get(status, state.status)
            state.attempt = max(
                state.attempt, int(outcome.get("attempts", 1))
            )

    def feed_file(self, path: str, offset: int = 0) -> int:
        """Fold the run-log records of *path* past *offset*.

        Returns the new offset (hand it back on the next call). The
        run-log parser reads complete lines only, so a record the
        writer is mid-append on is picked up next round, never torn; a
        missing file leaves the offset unchanged.
        """
        records, offset = tail_run_log(path, offset)
        for record in records:
            self.observe(record)
        return offset

    # ------------------------------------------------------------------
    # Stall detection.
    # ------------------------------------------------------------------
    def check_stalls(
        self, now: float | None = None
    ) -> list[dict[str, Any]]:
        """Flag silently stalled labels; returns their beat records.

        A label is stalled when it is (still) running but has produced
        no activity for :attr:`stall_after` seconds. The returned
        ``"kind": "heartbeat"`` / ``"phase": "stalled"`` records are
        ready for the run log; each label is flagged once per silence
        (a fresh beat rearms the detector).
        """
        if self.stall_after is None:
            return []
        now = self.clock() if now is None else now
        flagged: list[dict[str, Any]] = []
        for state in self._states.values():
            if state.status != STATUS_RUNNING:
                continue
            last = state.last_activity_ts
            if last <= 0.0 or now - last < self.stall_after:
                continue
            state.status = STATUS_STALLED
            state.stall_events += 1
            flagged.append(
                {
                    "kind": "heartbeat",
                    "phase": "stalled",
                    "label": state.label,
                    "workload": state.workload,
                    "backend": state.backend,
                    "pid": state.pid,
                    "attempt": max(state.attempt, 1),
                    "cycles": state.cycles,
                    "committed": state.committed,
                    "stalled_for_s": round(now - last, 3),
                    "ts": now,
                }
            )
        return flagged

    # ------------------------------------------------------------------
    # Views.
    # ------------------------------------------------------------------
    def states(self) -> dict[str, LabelState]:
        """The live per-label table (insertion-ordered)."""
        return dict(self._states)

    def counts(self) -> dict[str, int]:
        """How many labels sit in each status."""
        counts: dict[str, int] = {}
        for state in self._states.values():
            counts[state.status] = counts.get(state.status, 0) + 1
        return counts

    def aggregate(self) -> dict[str, Any]:
        """Suite-wide throughput and progress totals."""
        live = [
            s for s in self._states.values()
            if s.status in (STATUS_RUNNING, STATUS_STALLED)
        ]
        return {
            "labels": len(self._states),
            "counts": self.counts(),
            "committed": sum(
                s.committed for s in self._states.values()
            ),
            "cycles": sum(s.cycles for s in self._states.values()),
            "instrs_per_s": sum(s.instrs_per_s for s in live),
            "beats": sum(s.beats for s in self._states.values()),
            "stalls": sum(
                s.stall_events for s in self._states.values()
            ),
            "max_rss_kb": max(
                (s.max_rss_kb for s in self._states.values()),
                default=0.0,
            ),
            "done": self.suite_done,
        }

    def snapshot(self) -> dict[str, Any]:
        """JSON-ready dump: every row plus the aggregate."""
        return {
            "labels": {
                label: state.to_json()
                for label, state in self._states.items()
            },
            "aggregate": self.aggregate(),
        }


_BAR_WIDTH = 20

_STATUS_MARK = {
    STATUS_PENDING: " ",
    STATUS_RUNNING: ">",
    STATUS_RETRYING: "~",
    STATUS_STALLED: "!",
    STATUS_DONE: "=",
    STATUS_FAILED: "x",
    STATUS_TIMEOUT: "t",
}


def _fmt_count(value: float) -> str:
    """Humanise an instruction/cycle count (12.3M style)."""
    for factor, suffix in ((1e9, "G"), (1e6, "M"), (1e3, "k")):
        if abs(value) >= factor:
            return f"{value / factor:.1f}{suffix}"
    return f"{value:.0f}"


def _bar(state: LabelState) -> str:
    """A text activity bar for one label.

    Terminal labels render full/empty; an in-flight label shows a
    moving activity marker driven by the beat count.
    """
    if state.status == STATUS_DONE:
        return "[" + "#" * _BAR_WIDTH + "]"
    if state.status in (STATUS_FAILED, STATUS_TIMEOUT):
        return "[" + "-" * _BAR_WIDTH + "]"
    if state.beats == 0:
        return "[" + " " * _BAR_WIDTH + "]"
    pos = state.beats % _BAR_WIDTH
    cells = ["."] * _BAR_WIDTH
    cells[pos] = "#"
    return "[" + "".join(cells) + "]"


def render_monitor(
    monitor: SuiteMonitor, now: float | None = None
) -> str:
    """Draw the live status table as plain text.

    One row per label -- status, attempt, beats, committed
    instructions, live throughput, activity bar -- plus the aggregate
    footer ``tea-repro monitor`` refreshes on.
    """
    states = monitor.states()
    width = max((len(label) for label in states), default=5)
    width = max(width, len("label"))
    lines = [
        f"{'label':<{width}}  {'status':<8} {'att':>3} {'beats':>5} "
        f"{'committed':>10} {'instrs/s':>9}  progress"
    ]
    for label, state in states.items():
        mark = _STATUS_MARK.get(state.status, "?")
        lines.append(
            f"{label:<{width}}  {state.status:<8} "
            f"{max(state.attempt, 0):>3} {state.beats:>5} "
            f"{_fmt_count(state.committed):>10} "
            f"{_fmt_count(state.instrs_per_s):>8}/s "
            f"{_bar(state)} {mark}"
        )
    agg = monitor.aggregate()
    counts = ", ".join(
        f"{status}: {count}"
        for status, count in sorted(agg["counts"].items())
    )
    lines.append(
        f"total: {_fmt_count(agg['committed'])} instrs, "
        f"{_fmt_count(agg['instrs_per_s'])}/s live, "
        f"{agg['beats']} beat(s), {agg['stalls']} stall(s)"
        + (f", peak RSS {agg['max_rss_kb']:.0f} KB"
           if agg["max_rss_kb"] else "")
    )
    lines.append(f"labels: {counts or 'none yet'}")
    if agg["done"]:
        lines.append("suite: finished")
    return "\n".join(lines)
