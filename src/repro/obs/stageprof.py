"""Simulator self-profiling: wall time per pipeline stage per window.

TEA explains where *simulated* time goes; this module explains where
the *simulator's* time goes, the same way: by time-proportional
sampling instead of instrumenting every cycle (the gem5 call-stack
profiling approach). While :meth:`repro.uarch.core.Core.run` runs with
observability enabled, a :class:`StageSampler` arms ``ITIMER_PROF``;
each ``SIGPROF`` tick walks the interrupted Python stack to the
innermost ``Core`` stage entry point (:data:`STAGE_OF`) and records
that stage. The step loop itself carries no timing code, so an
observed run executes exactly the code an unobserved run does.

Every :data:`WINDOW_CYCLES` simulated cycles the sampler flushes into
the span collector:

* one ``"X"`` span per stage that got ticks, on a dedicated, named
  thread track (``stage:commit``, ``stage:fetch``, ...), lasting the
  window's wall time times the stage's share of the window's ticks;
* ``"C"`` counter samples for window throughput (committed
  instructions per wall second, the unit every tier counts alike) and
  per-stage wall milliseconds.

End-of-run totals land in the counter registry (``core.stage_s.<stage>``
plus ``core.stage_ticks``, the sample size behind them), so the
registry snapshot answers "which stage dominates" without opening the
trace.
"""

from __future__ import annotations

import signal
import threading
from collections import Counter

from repro.obs.counters import COUNTERS
from repro.obs.spans import COLLECTOR, now_us

#: Flush window in simulated cycles.
WINDOW_CYCLES = 250_000

#: Seconds of process CPU time between ticks (the kernel may round it
#: up to its timer resolution; stage times are shares, so any rate
#: works).
TICK_S = 0.001

#: Pipeline stages, in step-loop order.
STAGES = (
    "events",    # completion/writeback event processing
    "commit",    # commit + classify + golden attribution
    "sample",    # sampler polling (the samplers' overhead)
    "issue",     # issue/execute
    "dispatch",  # rename + dispatch
    "fetch",     # fetch + branch prediction
    "drain",     # post-commit store drain
    "idle",      # exact fast-forward bookkeeping
)

#: ``Core`` methods that enter a stage. A tick charges the innermost
#: one on the stack; ``step``'s own lines (classify and attribute) are
#: commit work. Ticks with none of these on the stack are outside the
#: step loop and are not counted.
STAGE_OF = {
    "_process_events": "events",
    "step": "commit",
    "_commit": "commit",
    "_account_commit": "commit",
    "_poll_samplers": "sample",
    "add_drain_waiter": "sample",
    "add_dispatch_tag": "sample",
    "add_fetch_tag": "sample",
    "_issue": "issue",
    "_try_execute": "issue",
    "_execute_load": "issue",
    "_execute_store": "issue",
    "_dispatch": "dispatch",
    "_rename": "dispatch",
    "_fetch": "fetch",
    "_handle_control": "fetch",
    "_start_drain": "drain",
    "_fast_forward": "idle",
    "_attribute_skip": "idle",
}

#: Synthetic tid base for the per-stage trace tracks.
_STAGE_TID_BASE = 9000


class StageSampler:
    """``SIGPROF`` stack sampler over one core run; a context manager.

    Inside the ``with`` block the sampler owns ``SIGPROF`` and
    ``ITIMER_PROF`` (on the main thread only: elsewhere it records no
    ticks); the previous handler and timer are restored on exit. The
    run loop calls :meth:`maybe_flush` as simulated cycles advance and
    :meth:`finish` once at the end, each with the cycle and the
    committed-instruction count reached so far.

    Args:
        name: Label of the sampled run (usually the program name).
        core_cls: The class whose :data:`STAGE_OF` methods the ticks
            resolve against (code objects, which carry no qualified
            name before Python 3.11).
    """

    def __init__(self, name: str, core_cls: type) -> None:
        self.name = name
        self._stage_of = {
            getattr(core_cls, method).__code__: STAGES.index(stage)
            for method, stage in STAGE_OF.items()
        }
        #: Stage indices of this window's ticks (appended by the handler).
        self.ticks: list[int] = []
        self._totals = [0.0] * len(STAGES)
        self._total_ticks = 0
        self._window_start_cycle = 0
        self._window_start_committed = 0
        self._window_start_us = now_us()
        self._saved = None
        for index, stage in enumerate(STAGES):
            COLLECTOR.add_thread_name(
                _STAGE_TID_BASE + index, f"stage:{stage}"
            )

    # -- ticking ---------------------------------------------------------
    def _on_tick(self, signum, frame) -> None:
        # May run while the interrupted code holds a COLLECTOR or
        # COUNTERS lock, so it only appends to a plain list.
        stage_of = self._stage_of
        while frame is not None:
            stage = stage_of.get(frame.f_code)
            if stage is not None:
                self.ticks.append(stage)
                return
            frame = frame.f_back

    def __enter__(self) -> StageSampler:
        if threading.current_thread() is threading.main_thread():
            handler = signal.signal(signal.SIGPROF, self._on_tick)
            timer = signal.setitimer(signal.ITIMER_PROF, TICK_S, TICK_S)
            self._saved = (handler, timer)
        return self

    def __exit__(self, *exc) -> None:
        if self._saved is None:
            return
        handler, timer = self._saved
        self._saved = None
        # Timer first: a tick between the two calls must still find a
        # Python handler (SIGPROF's default action kills the process).
        signal.setitimer(signal.ITIMER_PROF, *timer)
        signal.signal(
            signal.SIGPROF,
            signal.SIG_DFL if handler is None else handler,
        )

    # -- window flushing -----------------------------------------------
    def maybe_flush(self, cycle: int, committed: int) -> None:
        """Flush the window if *cycle* crossed its boundary."""
        if cycle - self._window_start_cycle >= WINDOW_CYCLES:
            self.flush(cycle, committed)

    def flush(self, cycle: int, committed: int) -> None:
        """Emit this window's spans and counter samples; reset."""
        # A tick landing mid-swap appends to the list taken here.
        ticks, self.ticks = self.ticks, []
        now = now_us()
        start = self._window_start_us
        cycles = cycle - self._window_start_cycle
        insts = committed - self._window_start_committed
        wall_s = max((now - start) / 1e6, 1e-9)
        counts = Counter(ticks)
        stage_ms: dict[str, float] = {}
        for index, stage in enumerate(STAGES):
            count = counts[index]
            if not count:
                continue
            seconds = wall_s * count / len(ticks)
            self._totals[index] += seconds
            stage_ms[stage] = round(seconds * 1e3, 6)
            COLLECTOR.add_complete(
                f"stage:{stage}",
                start,
                int(seconds * 1e6),
                {"cycles": cycles, "window_end_cycle": cycle,
                 "ticks": count},
                cat="core-stage",
                tid=_STAGE_TID_BASE + index,
            )
        COUNTERS.sample(
            f"core.{self.name}.throughput",
            {"insts_per_sec": round(insts / wall_s, 1)},
            ts_us=start,
        )
        if stage_ms:
            COUNTERS.sample(
                f"core.{self.name}.stage_ms", stage_ms, ts_us=start
            )
        self._total_ticks += len(ticks)
        self._window_start_cycle = cycle
        self._window_start_committed = committed
        self._window_start_us = now

    def finish(self, cycle: int, committed: int) -> None:
        """Flush the trailing partial window and report run totals."""
        self.flush(cycle, committed)
        for index, stage in enumerate(STAGES):
            COUNTERS.inc(f"core.stage_s.{stage}", self._totals[index])
        COUNTERS.inc("core.stage_ticks", self._total_ticks)
