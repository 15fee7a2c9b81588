"""The cycle-level out-of-order core timing model.

Trace-driven: the functional interpreter supplies the committed dynamic
instruction stream; this model adds speculation and timing on top. Each
simulated cycle proceeds commit -> classify/attribute -> sample -> issue ->
dispatch -> fetch -> store drain; when a cycle makes no progress the model
jumps directly to the next scheduled event, attributing the skipped cycles
to the (necessarily unchanged) commit state. This fast-forwarding is exact
with respect to golden attribution and sampling because the commit-stage
state cannot change without one of the scheduled events firing.

Golden-reference attribution (every cycle, every instruction -- the
paper's unimplementable baseline) is built into the core; statistical
samplers from :mod:`repro.core.samplers` attach on top and observe the
same cycles, mirroring the paper's out-of-band TraceDoctor methodology.

Hot-loop organisation (PR 2)
----------------------------
The per-cycle loop is the throughput bottleneck of every experiment, so
it is written for speed under CPython:

* Sampler polling is event-scheduled: sampler ``next_due`` cycles live
  on a small min-heap (:attr:`Core._sampler_heap`), so :meth:`step` does
  one integer compare per cycle instead of iterating every sampler, and
  :meth:`_fast_forward` drains the heap up to the skip horizon instead
  of replay-looping each sampler.
* Golden attribution accumulates into a flat per-instruction array for
  event-free (``psv == 0``) cycles plus a dict for evented signatures,
  folded into :attr:`Core.golden_raw` at :meth:`_finish`. Per-key float
  addition order is unchanged, so folded profiles are bit-identical to
  the dict-of-tuples path.
* Config scalars (which include per-call dict-building properties like
  ``issue_width``) and instance attributes used per cycle are hoisted
  into locals or precomputed in ``__init__``.
* µop lifetime: nothing outside the in-flight window holds a µop. The
  rename map keeps each register's last writer, but a µop drops its
  ``prev_writer`` link when it commits, and a squashed µop drops that
  link and its ``dependents`` once the rename map is restored.
  Reference counting then frees each µop as the pipeline lets go of
  it, and the cyclic collector never has to walk a run's history.
* No per-µop toll that models nothing: enum members are read through
  module constants (``_SERIAL``, ``_COMPUTE``, ...), never through
  their class; rename lives in :meth:`_dispatch` and execution in
  :meth:`_issue`, not in one-caller helpers; and an event-heap entry is
  ``(time, uid, uop)``, a committed µop's event being its store's
  SQ-entry free. ``tests/uarch/test_hot_path.py`` pins the first rule.

``reference_loop=True`` selects the frozen pre-optimisation loop
(linear sampler polling, direct dict accumulation). It exists for the
equivalence tests that pin the optimised loop to bit-identical golden
and sampler profiles.
"""

from __future__ import annotations

from collections import Counter, deque
from heapq import heapify, heappop, heappush, heapreplace
from itertools import compress
from collections.abc import Iterable

from repro import obs
from repro.branch.predictor import BranchPredictor
from repro.core.events import Event
from repro.core.result import CoreResult, FlushStats
from repro.core.states import CommitState
from repro.isa.instructions import INST_BYTES, NO_REG, DynInst, StaticInst
from repro.isa.interpreter import ArchState
from repro.isa.opcodes import Opcode, OpClass, op_class
from repro.isa.program import Program
from repro.isa.semantics import InstStream
from repro.memory.hierarchy import MemoryHierarchy
from repro.uarch.config import CoreConfig
from repro.uarch.uop import Uop

# PSV bit masks used inline for speed.
_BIT_DR_L1 = 1 << Event.DR_L1
_BIT_DR_TLB = 1 << Event.DR_TLB
_BIT_DR_SQ = 1 << Event.DR_SQ
_BIT_FL_MB = 1 << Event.FL_MB
_BIT_FL_EX = 1 << Event.FL_EX
_BIT_FL_MO = 1 << Event.FL_MO
_BIT_ST_L1 = 1 << Event.ST_L1
_BIT_ST_TLB = 1 << Event.ST_TLB
_BIT_ST_LLC = 1 << Event.ST_LLC

# Enum members the per-cycle and per-µop paths read, bound to module
# level: Python 3.11's EnumType defines __getattr__, which keeps CPython
# from specialising a ``CommitState.COMPUTE``-style load (~110 ns, where
# a module global costs ~10 ns).
_COMPUTE = CommitState.COMPUTE
_STALLED = CommitState.STALLED
_DRAINED = CommitState.DRAINED
_FLUSHED = CommitState.FLUSHED
_SERIAL = OpClass.SERIAL
_PREFETCH = OpClass.PREFETCH
_BRANCH = OpClass.BRANCH
_STORE = OpClass.STORE
_JUMP = Opcode.JUMP
_CALL = Opcode.CALL
_RET = Opcode.RET

#: Shared empty commit group for no-commit cycles (never mutated).
_NO_UOPS: list = []


class SimulationError(RuntimeError):
    """Raised when the timing model deadlocks or diverges."""


class Core:
    """One simulated core executing one program.

    Args:
        program: The program to run.
        config: Core configuration (Table 2 defaults).
        samplers: Statistical samplers to attach (observe the run).
        arch_state: Pre-initialised architectural state for the functional
            interpreter (workloads use this for array setup).
        max_insts: Functional-execution divergence bound.
        fast_forward: Jump over no-progress cycles in bulk (default).
            Disabling it steps every cycle individually -- much slower
            but byte-identical in results; the property tests verify
            that equivalence.
        reference_loop: Run the frozen pre-optimisation per-cycle loop
            (linear sampler polling, dict-of-tuples golden accumulation).
            Slower; used by the equivalence tests
            (``tests/uarch/test_hotloop_ab.py``) to pin the optimised
            hot loop to bit-identical results.
        stream: An existing :class:`InstStream` to consume (sampled
            windows share one stream across cores so architectural
            state and stream position transfer exactly). When given,
            ``arch_state``/``max_insts`` are ignored -- the stream
            already owns them.
        predictor: An injected branch predictor (pre-warmed at sampled
            window boundaries); a fresh one is built otherwise.
        commit_limit: Stop committing after exactly this many
            instructions (sampled measurement windows). The driving
            loop must stop stepping once ``committed_total`` reaches
            the limit and then call :meth:`detach_window`; ``run()``
            itself must not be used with a limit set.
    """

    def __init__(
        self,
        program: Program,
        config: CoreConfig | None = None,
        samplers: Iterable = (),
        arch_state: ArchState | None = None,
        max_insts: int = 50_000_000,
        fast_forward: bool = True,
        cycle_trace=None,
        hierarchy: MemoryHierarchy | None = None,
        reference_loop: bool = False,
        stream: InstStream | None = None,
        predictor: BranchPredictor | None = None,
        commit_limit: int | None = None,
    ) -> None:
        self.program = program
        self.fast_forward = fast_forward
        self.reference_loop = reference_loop
        #: Optional TraceDoctor-style sink (repro.trace.TraceStore).
        self.cycle_trace = cycle_trace
        self.config = config or CoreConfig()
        self.samplers = list(samplers)
        # An injected hierarchy lets multicore systems share the LLC
        # and DRAM channel between per-core hierarchies; an injected
        # predictor carries warm state into sampled windows.
        self.hierarchy = hierarchy or MemoryHierarchy(self.config.memory)
        self.predictor = (
            predictor if predictor is not None
            else BranchPredictor(self.config.branch)
        )
        self._queue_by_op = {
            op: self.config.queue_of(op_class(op)) for op in Opcode
        }
        self._class_by_op = {op: op_class(op) for op in Opcode}
        # Per-program-index decode tables, filled by _decode() the first
        # time _fetch() meets an index, so a large program whose code
        # mostly never runs costs only what runs: register operands
        # (StaticInst.sources() builds a fresh tuple per call -- far too
        # hot for the rename stage), issue queue, op class, and whether
        # _handle_control has anything to do for the µop.
        n_insts = len(program)
        self._sources_by_index: list[tuple[int, ...] | None] = [None] * n_insts
        self._queue_by_index: list[str | None] = [None] * n_insts
        self._class_by_index: list[OpClass | None] = [None] * n_insts
        self._control_by_index: list[bool | None] = [None] * n_insts
        # The dynamic-instruction stream may be shared with other
        # backends (sampled windows): architectural state and stream
        # position live on the stream, not the core. ``replay`` never
        # rebinds, so the hot-path alias stays valid; ``source`` rebinds
        # after every InstStream.skip(), so _fetch reads it per call.
        self._stream = (
            stream if stream is not None
            else InstStream(program, arch_state, max_insts)
        )
        self._replay: deque[DynInst] = self._stream.replay
        self._commit_limit = commit_limit

        # Pipeline structures.
        self.cycle = 0
        self.rob: deque[Uop] = deque()
        self.fetch_buffer: deque[Uop] = deque()
        #: (time, uid, µop): a completion, or for a committed store its
        #: SQ-entry free (the only event a µop has after commit).
        self._events: list[tuple[int, int, Uop]] = []
        self._ready: dict[str, list[tuple[int, int, Uop]]] = {
            "int": [],
            "mem": [],
            "fp": [],
        }
        self._iq_occ = {"int": 0, "mem": 0, "fp": 0}
        self._lq_occ = 0
        self._sq_occ = 0
        self._last_writer: dict[int, Uop] = {}
        self._store_addr_map: dict[int, list[Uop]] = {}
        self._executed_loads: dict[int, list[Uop]] = {}
        self._drain_queue: deque[Uop] = deque()
        self._drain_port_free = 0
        self._unit_free = {
            OpClass.INT_DIV: 0,
            OpClass.FP_DIV: 0,
            OpClass.FP_SQRT: 0,
        }

        # Hoisted configuration. ``issue_width``/``queue_capacity`` are
        # dict-building properties -- never touch them per cycle.
        cfg = self.config
        self._commit_width = cfg.commit_width
        self._decode_width = cfg.decode_width
        self._rob_entries = cfg.rob_entries
        self._frontend_depth = cfg.frontend_depth
        self._fetch_width = cfg.fetch_width
        self._fetch_buffer_entries = cfg.fetch_buffer_entries
        self._lq_entries = cfg.load_queue_entries
        self._sq_entries = cfg.store_queue_entries
        self._redirect_penalty = cfg.redirect_penalty
        self._btb_miss_penalty = cfg.btb_miss_penalty
        self._latencies = cfg.latencies
        self._unpipelined = cfg.unpipelined
        self._line_bytes = cfg.memory.line_bytes
        self._iq_cap = cfg.queue_capacity
        #: (queue name, ready heap, issue width), in config order.
        self._issue_plan = [
            (name, self._ready[name], width)
            for name, width in cfg.issue_width.items()
        ]
        #: Just the heaps, for the per-cycle issue guard in step().
        self._issue_queues = tuple(q for _, q, _ in self._issue_plan)

        # Fetch state.
        self._fetch_stall_until = 0
        self._current_fetch_line = -1
        self._waiting_branch: Uop | None = None
        self._pending_fetch_psv = 0
        self._mo_seqs: set[int] = set()

        # Commit-state plumbing (visible to samplers).
        self.commit_state: CommitState = CommitState.DRAINED
        self.committing_now: list[Uop] = []
        self.rob_head: Uop | None = None
        self.flush_blame: tuple[int, int] = (-1, 0)
        self._empty_is_flush = False
        self._last_committed: tuple[int, int] | None = None
        self._last_committed_seq = -1

        # Golden attribution and statistics. The optimised loop splits
        # accumulation: event-free cycles go to the flat per-instruction
        # array, evented signatures to the dict; _finish() folds both
        # into golden_raw. The reference loop writes golden_raw directly.
        self.golden_raw: dict[tuple[int, int], float] = {}
        self._golden_base: list[float] = [0.0] * len(program)
        self._golden_ev: dict[tuple[int, int], float] = {}
        self._pending_drain = 0.0
        self._drain_waiters: list[tuple] = []
        self._dispatch_tag_waiters: list[tuple] = []
        self._fetch_tag_waiters: list[tuple] = []
        self.event_counts: dict[tuple[int, int], int] = {}
        self.exec_counts: dict[int, int] = {}
        # Application-level cycle stack: cycles per commit state (the
        # coarse CPI-stack view of Eyerman et al. that the paper's
        # related work discusses).
        self.state_cycles: dict[CommitState, int] = {
            state: 0 for state in CommitState
        }
        self.stall_histogram: Counter = Counter()
        # PSV value -> tuple of set event-bit numbers (see _commit).
        self._psv_bits_cache: dict[int, tuple[int, ...]] = {}
        self.evented_execs = 0
        self.combined_execs = 0
        self.flushes = FlushStats()
        self.committed_total = 0

        # Sampler due-cycle heap (rebuilt by start(); built here too so
        # manually-stepped cores sample without an explicit start()).
        self._sampler_heap: list[tuple[int, int, object]] = []
        self._build_sampler_heap()

    # ==================================================================
    # Dynamic-instruction stream with replay (for flush re-fetch).
    # The stream itself lives in repro.isa.semantics -- these wrappers
    # exist for the manual-stepping API; the fetch hot loop works on
    # the stream's replay/source/done directly.
    # ==================================================================
    def _peek_dyn(self) -> DynInst | None:
        return self._stream.peek()

    def _consume_dyn(self) -> DynInst:
        return self._stream.consume()

    def _stream_empty(self) -> bool:
        return self._stream.empty()

    # ==================================================================
    # Sampler plumbing.
    # ==================================================================
    def add_drain_waiter(self, sampler, weight: float) -> None:
        """Defer a sample to the next-committing instruction."""
        self._drain_waiters.append((sampler, weight))

    def add_dispatch_tag(self, sampler, weight: float) -> None:
        """Tag the next µop to dispatch (IBS/SPE-style)."""
        self._dispatch_tag_waiters.append((sampler, weight))

    def add_fetch_tag(self, sampler, weight: float) -> None:
        """Tag the next µop to be fetched (RIS-style)."""
        self._fetch_tag_waiters.append((sampler, weight))

    def _build_sampler_heap(self) -> None:
        """(Re)build the due-cycle heap from the attached samplers.

        The heap index breaks due-cycle ties by sampler attach order.
        Cross-sampler interleaving within one polled window does not
        change any per-sampler result: each sampler owns its RNG and raw
        accumulator, and the core state they observe is read-only to
        them -- the A/B equivalence tests pin this down.
        """
        heap = [
            (sampler.next_due, index, sampler)
            for index, sampler in enumerate(self.samplers)
        ]
        heapify(heap)
        self._sampler_heap = heap

    def _poll_samplers(self, horizon: int) -> None:
        """Fire every sampler whose due cycle is at or before *horizon*."""
        sheap = self._sampler_heap
        while sheap and sheap[0][0] <= horizon:
            _due, index, sampler = sheap[0]
            sampler.sample(self)
            sampler.advance()
            heapreplace(sheap, (sampler.next_due, index, sampler))

    # ==================================================================
    # Main loop.
    # ==================================================================
    def start(self, reset_samplers: bool = True) -> None:
        """Initialise attached samplers (once, before stepping).

        Args:
            reset_samplers: Reset sampler state (RNG, due cycle, raw
                accumulators). Sampled simulation passes False for
                every window after the first: the samplers continue
                the concatenated measured-cycle timeline, so only the
                due-cycle heap is rebuilt.
        """
        if reset_samplers:
            for sampler in self.samplers:
                sampler.start(self)
        self._build_sampler_heap()

    def active(self) -> bool:
        """True while the program has not finished executing."""
        return bool(
            self.rob or self.fetch_buffer or not self._stream_empty()
        )

    def step(self, horizon: int | None = None) -> None:
        """Simulate one cycle (plus any exact fast-forward).

        Args:
            horizon: Optional cap on fast-forwarding (absolute cycle) --
                multicore systems use it to bound clock skew between
                lock-stepped cores sharing an LLC.
        """
        if self.reference_loop:
            self._step_reference(horizon)
            return
        cycle = self.cycle + 1
        self.cycle = cycle

        events = self._events
        if events and events[0][0] <= cycle:
            progressed = self._process_events()
        else:
            progressed = False

        rob = self.rob
        committed = _NO_UOPS
        if rob:
            head = rob[0]
            if head.complete and head.complete_time <= cycle:
                committed = self._commit()

        # Classify (inlined _classify) and attribute (inlined
        # _attribute for n=1); exactly mirrors the reference loop.
        if committed:
            state = _COMPUTE
            progressed = True
        elif rob:
            self.rob_head = rob[0]
            state = _STALLED
        else:
            self.rob_head = None
            state = _FLUSHED if self._empty_is_flush else _DRAINED
        self.commit_state = state
        self.committing_now = committed

        self.state_cycles[state] += 1
        if state is _COMPUTE:
            share = 1.0 / len(committed)
            base = self._golden_base
            ev = self._golden_ev
            for uop in committed:
                psv = uop.psv
                if psv:
                    key = (uop.index, psv)
                    ev[key] = ev.get(key, 0.0) + share
                else:
                    base[uop.index] += share
        else:
            if self.cycle_trace is not None:
                self.cycle_trace.on_cycles(
                    state, 1, rob[0].seq if state is _STALLED else -1
                )
            if state is _STALLED:
                rob[0].exposed_stall += 1
            elif state is _DRAINED:
                self._pending_drain += 1
            else:  # FLUSHED
                index, psv = self.flush_blame
                if psv:
                    ev = self._golden_ev
                    key = (index, psv)
                    ev[key] = ev.get(key, 0.0) + 1
                else:
                    self._golden_base[index] += 1

        sheap = self._sampler_heap
        if sheap and sheap[0][0] <= cycle:
            self._poll_samplers(cycle)

        # Stage guards: each call is skipped when its first internal
        # check would bail anyway (the bodies re-check, so the guards
        # are pure call-avoidance).
        for queue in self._issue_queues:
            if queue and queue[0][0] <= cycle:
                progressed |= self._issue()
                break
        fb = self.fetch_buffer
        if fb and cycle >= fb[0].fetch_cycle + self._frontend_depth:
            progressed |= self._dispatch()
        if (
            self._waiting_branch is None
            and cycle >= self._fetch_stall_until
            and len(self.fetch_buffer) < self._fetch_buffer_entries
        ):
            progressed |= self._fetch()
        if self._drain_queue and cycle >= self._drain_port_free:
            progressed |= self._start_drain()

        if not progressed and self.fast_forward:
            self._fast_forward(state, horizon)

    def run(self, max_cycles: int = 500_000_000) -> CoreResult:
        """Simulate to completion and return the results.

        Raises:
            SimulationError: On deadlock or when *max_cycles* is exceeded.
        """
        self.start()
        step = self.step
        active = self.active
        if obs.enabled():
            # Observability opt-in: the same step() calls, timed per
            # stage by a SIGPROF stack sampler instead of code in the
            # loop, plus heartbeats and end-of-run counters.
            workload = self.program.name
            beat_every = obs.PROGRESS_EVERY_CYCLES
            next_beat = beat_every
            stageprof = obs.StageSampler(workload, type(self))
            with obs.span(f"core.run:{workload}"), stageprof:
                while active():
                    if self.cycle >= max_cycles:
                        raise SimulationError(
                            f"{workload}: exceeded {max_cycles} cycles"
                        )
                    step()
                    if self.cycle >= next_beat:
                        # Observe-only heartbeat: reads the two public
                        # counts, mutates nothing (bit-identity pinned).
                        next_beat = self.cycle + beat_every
                        obs.report_progress(
                            workload, "detailed",
                            self.cycle, self.committed_total,
                        )
                    stageprof.maybe_flush(self.cycle, self.committed_total)
                self._finish()
            stageprof.finish(self.cycle, self.committed_total)
            self._report_obs()
            return self.result()
        while active():
            if self.cycle >= max_cycles:
                raise SimulationError(
                    f"{self.program.name}: exceeded {max_cycles} cycles"
                )
            step()
        self._finish()
        return self.result()

    def finish(self) -> None:
        """Public wrapper for end-of-run sampler resolution."""
        self._finish()

    def detach_window(self) -> None:
        """End a measurement window at the last committed instruction.

        Squashes every in-flight µop back onto the shared instruction
        stream -- restoring the stream position to the commit boundary
        exactly, since the trace-driven core commits in stream order --
        then resolves deferred samples the same way end-of-run does
        (drain waiters land on the last committed instruction, pending
        tags drop) and folds golden attribution. The core is finished
        afterwards; the stream lives on for the next executor.
        """
        self._squash_younger_than(self._last_committed_seq)
        self._finish()

    @property
    def stream(self) -> InstStream:
        """The (possibly shared) dynamic-instruction stream."""
        return self._stream

    def result(self) -> CoreResult:
        """Package the current statistics into a :class:`CoreResult`."""
        self._fold_golden()
        return CoreResult(
            program=self.program,
            cycles=self.cycle,
            committed=self.committed_total,
            golden_raw=self.golden_raw,
            event_counts=self.event_counts,
            exec_counts=self.exec_counts,
            stall_histogram=self.stall_histogram,
            evented_execs=self.evented_execs,
            combined_execs=self.combined_execs,
            flushes=self.flushes,
            hierarchy=self.hierarchy,
            predictor=self.predictor,
            samplers=self.samplers,
            state_cycles=dict(self.state_cycles),
        )

    def _fold_golden(self) -> None:
        """Fold the flat accumulators into :attr:`golden_raw`.

        A pure snapshot (assignments, not additions), so it is
        idempotent and safe to call at any point; per-key values carry
        the exact float-addition order of the accumulation sites. The
        reference loop accumulates into golden_raw directly, leaving
        both flat structures empty.
        """
        raw = self.golden_raw
        for key, value in self._golden_ev.items():
            raw[key] = value
        base = self._golden_base
        # compress() skips the zero entries in C; indices stay ascending,
        # which fixes golden_raw's insertion order.
        for index in compress(range(len(base)), base):
            raw[(index, 0)] = base[index]

    def _finish(self) -> None:
        """Resolve leftover deferred samples; fold the golden profile."""
        if self._drain_waiters and self._last_committed is not None:
            index, psv = self._last_committed
            for sampler, weight in self._drain_waiters:
                sampler.capture(index, psv, weight, cycle=self.cycle)
        self._drain_waiters.clear()
        for sampler, _weight in self._dispatch_tag_waiters:
            sampler.drop()
        for sampler, _weight in self._fetch_tag_waiters:
            sampler.drop()
        self._dispatch_tag_waiters.clear()
        self._fetch_tag_waiters.clear()
        self._fold_golden()

    def _fast_forward(
        self, state: CommitState, cap: int | None = None
    ) -> None:
        """Jump to the next event, attributing skipped idle cycles."""
        cycle = self.cycle
        # Track the minimum future candidate directly (no list builds).
        target = -1
        events = self._events
        if events:
            c = events[0][0]
            if c > cycle:
                target = c
        fb = self.fetch_buffer
        if fb:
            c = fb[0].fetch_cycle + self._frontend_depth
            if c > cycle and (target < 0 or c < target):
                target = c
        if (
            self._waiting_branch is None
            and len(fb) < self._fetch_buffer_entries
            and not self._stream_empty()
        ):
            c = self._fetch_stall_until
            if c > cycle and (target < 0 or c < target):
                target = c
        if self._drain_queue:
            c = self._drain_port_free
            if c > cycle and (target < 0 or c < target):
                target = c
        for _name, queue, _width in self._issue_plan:
            if queue:
                c = queue[0][0]
                if c > cycle and (target < 0 or c < target):
                    target = c
        for c in self._unit_free.values():
            if c > cycle and (target < 0 or c < target):
                target = c
        if target < 0:
            raise SimulationError(
                f"{self.program.name}: deadlock at cycle {cycle} "
                f"(rob={len(self.rob)}, fb={len(self.fetch_buffer)}, "
                f"state={state.name})"
            )
        if cap is not None:
            target = min(target, max(cap, cycle + 1))
        skip = target - cycle - 1
        if skip <= 0:
            return
        self._attribute_skip(state, skip)
        horizon = cycle + skip
        sheap = self._sampler_heap
        if sheap and sheap[0][0] <= horizon:
            self._poll_samplers(horizon)
        self.cycle = horizon

    def _attribute_skip(self, state: CommitState, n: int) -> None:
        """Attribute *n* fast-forwarded cycles (state never COMPUTE)."""
        self.state_cycles[state] += n
        if self.cycle_trace is not None:
            self.cycle_trace.on_cycles(
                state, n, self.rob[0].seq if state is _STALLED else -1
            )
        if state is _STALLED:
            self.rob[0].exposed_stall += n
        elif state is _DRAINED:
            self._pending_drain += n
        elif state is _FLUSHED:
            index, psv = self.flush_blame
            if psv:
                ev = self._golden_ev
                key = (index, psv)
                ev[key] = ev.get(key, 0.0) + n
            else:
                self._golden_base[index] += n

    # tealint: disable=TL002 -- called only from run()'s
    # obs.enabled() branch.
    def _report_obs(self) -> None:
        """Report end-of-run counters into the obs registry.

        Called once per observed run -- aggregate statistics the
        core already tracks (commit-state stall causes, flush causes,
        cache/TLB hit rates, sampler overhead) become counters/gauges,
        and one final counter sample lands in the trace.
        """
        counters = obs.COUNTERS
        counters.inc("core.runs")
        counters.inc("core.cycles", self.cycle)
        counters.inc("core.committed", self.committed_total)
        for state, count in self.state_cycles.items():
            counters.inc(f"core.state.{state.name.lower()}", count)
        flushes = self.flushes
        counters.inc("core.flush.mispredict", flushes.mispredicts)
        counters.inc("core.flush.serial", flushes.serial)
        counters.inc("core.flush.ordering", flushes.ordering)
        hierarchy = self.hierarchy
        rates: dict[str, float] = {}
        for label, unit in (
            ("l1i", hierarchy.l1i),
            ("l1d", hierarchy.l1d),
            ("llc", hierarchy.llc),
            ("itlb", hierarchy.itlb),
            ("dtlb", hierarchy.dtlb),
        ):
            stats = unit.stats
            hit_rate = 1.0 - stats.miss_rate
            counters.gauge(f"mem.{label}.hit_rate", hit_rate)
            counters.inc(f"mem.{label}.accesses", stats.accesses)
            rates[f"{label}_hit_rate"] = round(hit_rate, 6)
        counters.sample(f"core.{self.program.name}.mem", rates)
        for sampler in self.samplers:
            counters.inc(
                f"sampler.{sampler.name}.samples",
                sampler.samples_taken,
            )

    # ==================================================================
    # Commit stage.
    # ==================================================================
    def _commit(self) -> list[Uop]:
        rob = self.rob
        cycle = self.cycle
        committed: list[Uop] | None = None
        budget = self._commit_width
        limit = self._commit_limit
        if limit is not None:
            # Sampled measurement window: never overshoot the boundary
            # even within one commit group.
            remaining = limit - self.committed_total
            if remaining <= 0:
                return _NO_UOPS
            if remaining < budget:
                budget = remaining
        flushed = False
        while budget and rob:
            head = rob[0]
            if not head.complete or head.complete_time > cycle:
                break
            rob.popleft()
            head.committed = True
            # Never squashed now, so nothing reads this link again;
            # dropping it ends the chain back to the run's first writer.
            head.prev_writer = None
            if committed is None:
                committed = [head]
            else:
                committed.append(head)
            budget -= 1
            if head.is_load:
                self._lq_occ -= 1
                self._unregister_load(head)
            elif head.is_store:
                self._drain_queue.append(head)
            if head.causes_flush:
                # Serializing op: flush everything younger at commit.
                if head.op_class is _SERIAL:
                    self.flushes.serial += 1
                    self._squash_younger_than(head.seq)
                    self._fetch_stall_until = max(
                        self._fetch_stall_until,
                        cycle + self._redirect_penalty,
                    )
                flushed = True
                break
        if committed is None:
            return _NO_UOPS
        base = self._golden_base
        ev = self._golden_ev
        # Drained cycles go to the next-committing instruction.
        first = committed[0]
        if self._pending_drain:
            psv = first.psv
            if psv:
                key = (first.index, psv)
                ev[key] = ev.get(key, 0.0) + self._pending_drain
            else:
                base[first.index] += self._pending_drain
            self._pending_drain = 0.0
        if self._drain_waiters:
            for sampler, weight in self._drain_waiters:
                sampler.capture(
                    first.index, first.psv, weight, cycle=cycle
                )
            self._drain_waiters.clear()
        exec_counts = self.exec_counts
        event_counts = self.event_counts
        stall_histogram = self.stall_histogram
        psv_bits_cache = self._psv_bits_cache
        for uop in committed:
            index = uop.index
            psv = uop.psv
            stall = uop.exposed_stall
            if stall:
                if psv:
                    key = (index, psv)
                    ev[key] = ev.get(key, 0.0) + stall
                else:
                    base[index] += stall
            if uop.pending_samples:
                for sampler, weight in uop.pending_samples:
                    sampler.capture(index, psv, weight, cycle=cycle)
                uop.pending_samples.clear()
            # Per-commit statistics (_account_commit, inlined; the PSV
            # bit decomposition is cached -- few distinct PSVs recur).
            exec_counts[index] = exec_counts.get(index, 0) + 1
            if psv:
                self.evented_execs += 1
                bit_nums = psv_bits_cache.get(psv)
                if bit_nums is None:
                    bits = psv
                    decomposed = []
                    while bits:
                        low = bits & -bits
                        decomposed.append(low.bit_length() - 1)
                        bits ^= low
                    bit_nums = tuple(decomposed)
                    psv_bits_cache[psv] = bit_nums
                for bit_num in bit_nums:
                    ekey = (index, bit_num)
                    event_counts[ekey] = event_counts.get(ekey, 0) + 1
                if len(bit_nums) >= 2:
                    self.combined_execs += 1
            elif stall:
                stall_histogram[stall] += 1
        self.committed_total += len(committed)
        if self.cycle_trace is not None:
            self.cycle_trace.on_commit(
                [(u.seq, u.index, u.psv) for u in committed]
            )
        last = committed[-1]
        self._last_committed = (last.index, last.psv)
        self._last_committed_seq = last.seq
        self._empty_is_flush = flushed or last.causes_flush
        if self._empty_is_flush:
            self.flush_blame = (last.index, last.psv)
        return committed

    def _account_commit(self, uop: Uop) -> None:
        """Per-commit statistics (reference loop; inlined in _commit)."""
        index = uop.index
        self.exec_counts[index] = self.exec_counts.get(index, 0) + 1
        psv = uop.psv
        if psv:
            self.evented_execs += 1
            bits = psv
            n_bits = 0
            while bits:
                low = bits & -bits
                event_num = low.bit_length() - 1
                key = (index, event_num)
                self.event_counts[key] = self.event_counts.get(key, 0) + 1
                bits ^= low
                n_bits += 1
            if n_bits >= 2:
                self.combined_execs += 1
        elif uop.exposed_stall:
            self.stall_histogram[uop.exposed_stall] += 1

    # ==================================================================
    # Event processing (completions, SQ frees).
    # ==================================================================
    def _process_events(self) -> bool:
        events = self._events
        cycle = self.cycle
        ready = self._ready
        progressed = False
        while events and events[0][0] <= cycle:
            time, _uid, uop = heappop(events)
            progressed = True
            if uop.committed:  # a store's SQ-entry free
                self._sq_occ -= 1
                self._unregister_store(uop)
                continue
            if uop.squashed:
                continue
            uop.complete = True
            uop.complete_time = time
            dependents = uop.dependents
            if dependents:
                for dep in dependents:
                    if dep.squashed or not dep.dispatched:
                        continue
                    dep.deps_remaining -= 1
                    if dep.deps_remaining == 0:
                        heappush(
                            ready[dep.queue], (time, dep.uid, dep)
                        )
                dependents.clear()
            if uop.mispredicted and self._waiting_branch is uop:
                self._waiting_branch = None
                self._fetch_stall_until = max(
                    self._fetch_stall_until,
                    time + self._redirect_penalty,
                )
                self._current_fetch_line = -1
        return progressed

    # ==================================================================
    # Issue / execute.
    # ==================================================================
    def _issue(self) -> bool:
        cycle = self.cycle
        rob = self.rob
        events = self._events
        iq_occ = self._iq_occ
        unit_free = self._unit_free
        unpipelined_classes = self._unpipelined
        latencies = self._latencies
        issued_any = False
        for _name, queue, width in self._issue_plan:
            if not queue or queue[0][0] > cycle:
                continue
            budget = width
            deferred: list[tuple[int, int, Uop]] = []
            while budget and queue and queue[0][0] <= cycle:
                _rt, uid, uop = heappop(queue)
                if uop.squashed:
                    continue
                # Execute now, or defer to the cycle it can issue in.
                op_cls = uop.op_class
                if op_cls is _SERIAL and (not rob or rob[0] is not uop):
                    # Serializing ops execute non-speculatively at the
                    # ROB head.
                    deferred.append((cycle + 1, uid, uop))
                    continue
                unpipelined = op_cls in unpipelined_classes
                if unpipelined:
                    free = unit_free[op_cls]
                    if free > cycle:
                        deferred.append((free, uid, uop))
                        continue
                uop.in_iq = False
                iq_occ[uop.queue] -= 1
                if uop.is_load:
                    completion = self._execute_load(uop)
                elif uop.is_store:
                    completion = self._execute_store(uop)
                elif op_cls is _PREFETCH:
                    self.hierarchy.prefetch(uop.eff_addr, cycle)
                    completion = cycle + latencies[_PREFETCH]
                else:
                    completion = cycle + latencies[op_cls]
                    if unpipelined:
                        unit_free[op_cls] = completion
                heappush(events, (completion, uid, uop))
                budget -= 1
                issued_any = True
            for entry in deferred:
                heappush(queue, entry)
        return issued_any

    def _execute_load(self, uop: Uop) -> int:
        cycle = self.cycle
        addr = uop.eff_addr
        word = addr >> 3
        # Store-to-load forwarding from the youngest older executed store.
        best: Uop | None = None
        for store in self._store_addr_map.get(word, ()):
            if store.seq < uop.seq and (
                best is None or store.seq > best.seq
            ):
                best = store
        self._executed_loads.setdefault(word, []).append(uop)
        if best is not None:
            return cycle + 1
        ready = self.hierarchy.load_fast(addr, cycle)
        if ready is not None:
            return ready if ready > cycle else cycle + 1
        access = self.hierarchy.access_load(addr, cycle)
        if access.l1_miss:
            uop.psv |= _BIT_ST_L1
        if access.llc_miss:
            uop.psv |= _BIT_ST_LLC
        if access.tlb_miss:
            uop.psv |= _BIT_ST_TLB
        ready = access.ready_time
        return ready if ready > cycle else cycle + 1

    def _execute_store(self, uop: Uop) -> int:
        cycle = self.cycle
        addr = uop.eff_addr
        word = addr >> 3
        # Address generation includes translation (the STA µop).
        tlb = self.hierarchy.dtlb.lookup(addr)
        if not tlb.hit:
            uop.psv |= _BIT_ST_TLB
        self._store_addr_map.setdefault(word, []).append(uop)
        # Memory-ordering violation: a younger load already executed.
        violator: Uop | None = None
        for load in self._executed_loads.get(word, ()):
            if load.seq > uop.seq and not load.squashed:
                if violator is None or load.seq < violator.seq:
                    violator = load
        if violator is not None:
            self.flushes.ordering += 1
            self._mo_seqs.add(violator.seq)
            self._squash_younger_than(violator.seq - 1)
            self._fetch_stall_until = max(
                self._fetch_stall_until,
                cycle + self._redirect_penalty,
            )
        return cycle + tlb.latency + self._latencies[_STORE]

    # ==================================================================
    # Dispatch.
    # ==================================================================
    def _dispatch(self) -> bool:
        cycle = self.cycle
        fb = self.fetch_buffer
        rob = self.rob
        iq_occ = self._iq_occ
        iq_cap = self._iq_cap
        rob_entries = self._rob_entries
        frontend_depth = self._frontend_depth
        last_writer = self._last_writer
        sources_by_index = self._sources_by_index
        ready = self._ready
        budget = self._decode_width
        progressed = False
        tag_waiters = self._dispatch_tag_waiters
        dispatched: list[Uop] | None = [] if tag_waiters else None
        while budget and fb:
            uop = fb[0]
            if cycle < uop.fetch_cycle + frontend_depth:
                break
            if len(rob) >= rob_entries:
                break
            if iq_occ[uop.queue] >= iq_cap[uop.queue]:
                break
            if uop.is_load and self._lq_occ >= self._lq_entries:
                break
            if uop.is_store:
                if self._sq_occ >= self._sq_entries:
                    # DR-SQ: the store stalls at dispatch because the LSQ
                    # is full of completed but not yet retired stores.
                    uop.psv |= _BIT_DR_SQ
                    break
                self._sq_occ += 1
            if uop.is_load:
                self._lq_occ += 1
            fb.popleft()
            uop.dispatched = True
            rob.append(uop)
            iq_occ[uop.queue] += 1
            uop.in_iq = True
            # Rename: wait on in-flight producers, become rd's writer.
            deps = 0
            for reg in sources_by_index[uop.index]:
                if reg == 0:
                    continue  # x0 is hard-wired to zero
                producer = last_writer.get(reg)
                if (
                    producer is not None
                    and not producer.complete
                    and not producer.squashed
                ):
                    deps_list = producer.dependents
                    if deps_list is None:
                        producer.dependents = [uop]
                    else:
                        deps_list.append(uop)
                    deps += 1
            rd = uop.static.rd
            if rd != NO_REG and rd != 0:
                uop.prev_writer = last_writer.get(rd)
                last_writer[rd] = uop
            uop.deps_remaining = deps
            if deps == 0:
                heappush(ready[uop.queue], (cycle + 1, uop.uid, uop))
            if dispatched is not None:
                dispatched.append(uop)
            budget -= 1
            progressed = True
        if dispatched:
            # Hardware taggers mark one dispatch slot of the tag cycle;
            # model the slot choice as uniform over this cycle's group.
            for sampler, weight in tag_waiters:
                target = sampler.rng.choice(dispatched)
                pend = target.pending_samples
                if pend is None:
                    target.pending_samples = [(sampler, weight)]
                else:
                    pend.append((sampler, weight))
            tag_waiters.clear()
        return progressed

    # ==================================================================
    # Fetch.
    # ==================================================================
    def _fetch(self) -> bool:
        cycle = self.cycle
        if self._waiting_branch is not None:
            return False
        if cycle < self._fetch_stall_until:
            return False
        fb = self.fetch_buffer
        fb_entries = self._fetch_buffer_entries
        line_bytes = self._line_bytes
        hierarchy = self.hierarchy
        replay = self._replay
        budget = self._fetch_width
        progressed = False
        tag_waiters = self._fetch_tag_waiters
        fetched: list[Uop] | None = [] if tag_waiters else None
        stream = self._stream
        source = stream.source
        queue_by_index = self._queue_by_index
        class_by_index = self._class_by_index
        control_by_index = self._control_by_index
        mo_seqs = self._mo_seqs
        while budget and len(fb) < fb_entries:
            # Consume the stream directly (peek + popleft churns the
            # replay deque once per instruction); an icache stall pushes
            # the instruction back instead.
            if replay:
                dyn = replay.popleft()
            elif stream.done:
                break
            else:
                try:
                    dyn = next(source)
                except StopIteration:
                    stream.done = True
                    break
            index = dyn.static.index
            addr = index * INST_BYTES
            line = addr // line_bytes
            if line != self._current_fetch_line:
                ready = hierarchy.inst_fast(addr, cycle)
                if ready is None:
                    access = hierarchy.access_inst(addr, cycle)
                    ready = access.ready_time
                    icache_miss = access.icache_miss
                    itlb_miss = access.itlb_miss
                else:
                    icache_miss = itlb_miss = False
                self._current_fetch_line = line
                if ready > cycle:
                    self._fetch_stall_until = ready
                    psv_bits = 0
                    if icache_miss:
                        psv_bits |= _BIT_DR_L1
                    if itlb_miss:
                        psv_bits |= _BIT_DR_TLB
                    self._pending_fetch_psv |= psv_bits
                    replay.appendleft(dyn)
                    break
            # _make_uop, inlined (rare-condition checks guarded).
            op_cls = class_by_index[index]
            if op_cls is None:
                op_cls = self._decode(dyn.static)
            uop = Uop(dyn, cycle, queue_by_index[index], op_cls)
            if self._pending_fetch_psv:
                uop.psv |= self._pending_fetch_psv
                self._pending_fetch_psv = 0
            if mo_seqs and dyn.seq in mo_seqs:
                mo_seqs.discard(dyn.seq)
                uop.psv |= _BIT_FL_MO
            if op_cls is _SERIAL:
                # fsflags/frflags-style ops always flush; statically known.
                uop.psv |= _BIT_FL_EX
                uop.causes_flush = True
            fb.append(uop)
            if fetched is not None:
                fetched.append(uop)
            progressed = True
            budget -= 1
            if control_by_index[index] and not self._handle_control(uop):
                break  # fetch redirect or mispredict stall
        if fetched:
            for sampler, weight in tag_waiters:
                target = sampler.rng.choice(fetched)
                pend = target.pending_samples
                if pend is None:
                    target.pending_samples = [(sampler, weight)]
                else:
                    pend.append((sampler, weight))
            tag_waiters.clear()
        return progressed

    def _decode(self, inst: StaticInst) -> OpClass:
        """Fill the per-index decode tables for *inst*; return its class."""
        index = inst.index
        op = inst.op
        op_cls = self._class_by_op[op]
        self._sources_by_index[index] = inst.sources()
        self._queue_by_index[index] = self._queue_by_op[op]
        self._class_by_index[index] = op_cls
        self._control_by_index[index] = (
            op_cls is _BRANCH or op in (_JUMP, _CALL, _RET)
        )
        return op_cls

    def _handle_control(self, uop: Uop) -> bool:
        """Predict a fetched control µop; False ends this fetch packet."""
        op = uop.static.op
        op_cls = uop.op_class
        cycle = self.cycle
        predictor = self.predictor
        if op_cls is _BRANCH:
            pc = uop.index
            predicted = predictor.predict_direction(pc)
            actual = uop.dyn.taken
            target_known = predictor.predict_target(pc) is not None
            predictor.update(pc, actual, uop.dyn.next_index)
            if predicted != actual:
                uop.mispredicted = True
                uop.causes_flush = True
                uop.psv |= _BIT_FL_MB
                self.flushes.mispredicts += 1
                self._waiting_branch = uop
                return False
            if actual:
                self._current_fetch_line = -1
                if not target_known:
                    self._fetch_stall_until = (
                        cycle + self._btb_miss_penalty
                    )
                return False
            return True
        if op is _JUMP or op is _CALL:
            pc = uop.index
            target_known = predictor.predict_target(pc) is not None
            predictor.update(pc, True, uop.dyn.next_index)
            if op is _CALL:
                predictor.push_return(uop.index + 1)
            self._current_fetch_line = -1
            if not target_known:
                self._fetch_stall_until = (
                    cycle + self._btb_miss_penalty
                )
            return False
        if op is _RET:
            predicted = predictor.predict_return()
            actual = uop.dyn.next_index
            if predicted != actual:
                uop.mispredicted = True
                uop.causes_flush = True
                uop.psv |= _BIT_FL_MB
                self.flushes.mispredicts += 1
                self._waiting_branch = uop
                return False
            self._current_fetch_line = -1
            return False
        return True

    # ==================================================================
    # Squash (flush) machinery.
    # ==================================================================
    def _squash_younger_than(self, boundary_seq: int) -> None:
        """Squash every µop with seq > boundary_seq and replay its trace."""
        squashed: list[Uop] = []
        rob = self.rob
        while rob and rob[-1].seq > boundary_seq:
            squashed.append(rob.pop())
        while self.fetch_buffer:
            # The fetch buffer only ever holds µops younger than the ROB.
            squashed.append(self.fetch_buffer.pop())
        squashed.sort(key=lambda u: -u.seq)
        for uop in squashed:
            uop.squashed = True
            if uop.in_iq:
                self._iq_occ[uop.queue] -= 1
                uop.in_iq = False
            if uop.dispatched:
                if uop.is_load:
                    self._lq_occ -= 1
                    self._unregister_load(uop)
                elif uop.is_store:
                    self._sq_occ -= 1
                    self._unregister_store(uop)
                rd = uop.static.rd
                if rd != NO_REG and rd != 0:
                    if self._last_writer.get(rd) is uop:
                        if uop.prev_writer is not None:
                            self._last_writer[rd] = uop.prev_writer
                        else:
                            del self._last_writer[rd]
            # Unlink only after the rename map is restored. Dependents
            # are all younger and squashed by this call, so the two
            # links form no cycle the collector would have to break.
            uop.prev_writer = None
            uop.dependents = None
            pend = uop.pending_samples
            if pend:
                for sampler, _weight in pend:
                    sampler.drop()
                pend.clear()
        # Replay the dynamic trace of the squashed µops, oldest first at
        # the front of the replay queue (squashed is youngest-first).
        self._replay.extendleft(uop.dyn for uop in squashed)
        if self._waiting_branch is not None and self._waiting_branch.squashed:
            self._waiting_branch = None
        self._current_fetch_line = -1
        self._pending_fetch_psv = 0

    def _unregister_load(self, uop: Uop) -> None:
        word = uop.eff_addr >> 3
        loads = self._executed_loads.get(word)
        if loads is not None:
            try:
                loads.remove(uop)
            except ValueError:
                pass
            if not loads:
                del self._executed_loads[word]

    def _unregister_store(self, uop: Uop) -> None:
        word = uop.eff_addr >> 3
        stores = self._store_addr_map.get(word)
        if stores is not None:
            try:
                stores.remove(uop)
            except ValueError:
                pass
            if not stores:
                del self._store_addr_map[word]

    # ==================================================================
    # Post-commit store draining.
    # ==================================================================
    def _start_drain(self) -> bool:
        cycle = self.cycle
        if not self._drain_queue or cycle < self._drain_port_free:
            return False
        store = self._drain_queue.popleft()
        ready = self.hierarchy.store_fast(store.eff_addr, cycle)
        if ready is None:
            ready = self.hierarchy.access_store(
                store.eff_addr, cycle, translate=False
            ).ready_time
        self._drain_port_free = cycle + 1
        heappush(
            self._events,
            (ready if ready > cycle else cycle + 1, store.uid, store),
        )
        return True

    # ==================================================================
    # Frozen pre-optimisation loop (the equivalence oracle).
    #
    # These methods preserve the seed per-cycle loop verbatim: linear
    # sampler polling over self.samplers and direct dict-of-tuples
    # golden accumulation. They are dispatched when reference_loop=True
    # and exist so tests/uarch/test_hotloop_ab.py can verify the
    # optimised loop above produces bit-identical golden and sampler
    # profiles. Do not optimise them. The stages _process_events,
    # _issue, _dispatch, _fetch and _start_drain are shared with the
    # optimised loop, so that test does not pin them; the benchmark's
    # bench/reference.json digests do.
    # ==================================================================
    def _step_reference(self, horizon: int | None = None) -> None:
        """One cycle of the pre-optimisation loop (see class docstring)."""
        self.cycle += 1
        cycle = self.cycle

        progressed = self._process_events()
        committed = self._commit_reference()
        state = self._classify(committed)
        self.commit_state = state
        self.committing_now = committed
        self._attribute_reference(state, 1, committed)
        for sampler in self.samplers:
            while sampler.next_due <= cycle:
                sampler.sample(self)
                sampler.advance()

        progressed |= bool(committed)
        progressed |= self._issue()
        progressed |= self._dispatch()
        progressed |= self._fetch()
        progressed |= self._start_drain()

        if not progressed and self.fast_forward:
            self._fast_forward_reference(state, horizon)

    def _fast_forward_reference(
        self, state: CommitState, cap: int | None = None
    ) -> None:
        """Pre-optimisation fast-forward (per-sampler replay loops)."""
        cycle = self.cycle
        candidates: list[int] = []
        if self._events:
            candidates.append(self._events[0][0])
        if self.fetch_buffer:
            candidates.append(
                self.fetch_buffer[0].fetch_cycle + self.config.frontend_depth
            )
        if (
            self._waiting_branch is None
            and not self._stream_empty()
            and len(self.fetch_buffer) < self.config.fetch_buffer_entries
        ):
            candidates.append(self._fetch_stall_until)
        if self._drain_queue:
            candidates.append(self._drain_port_free)
        for queue in self._ready.values():
            if queue:
                candidates.append(queue[0][0])
        for free_time in self._unit_free.values():
            if free_time > cycle:
                candidates.append(free_time)
        future = [c for c in candidates if c > cycle]
        if not future:
            raise SimulationError(
                f"{self.program.name}: deadlock at cycle {cycle} "
                f"(rob={len(self.rob)}, fb={len(self.fetch_buffer)}, "
                f"state={state.name})"
            )
        target = min(future)
        if cap is not None:
            target = min(target, max(cap, cycle + 1))
        skip = target - cycle - 1
        if skip <= 0:
            return
        self._attribute_reference(state, skip, [])
        horizon = cycle + skip
        for sampler in self.samplers:
            while sampler.next_due <= horizon:
                sampler.sample(self)
                sampler.advance()
        self.cycle = horizon

    def _classify(self, committed: list[Uop]) -> CommitState:
        if committed:
            return CommitState.COMPUTE
        if self.rob:
            self.rob_head = self.rob[0]
            return CommitState.STALLED
        self.rob_head = None
        if self._empty_is_flush:
            return CommitState.FLUSHED
        return CommitState.DRAINED

    def _attribute_reference(
        self, state: CommitState, n: int, committed: list[Uop]
    ) -> None:
        self.state_cycles[state] += n
        if (
            self.cycle_trace is not None
            and state != CommitState.COMPUTE
        ):
            head_seq = (
                self.rob[0].seq if state == CommitState.STALLED else -1
            )
            self.cycle_trace.on_cycles(state, n, head_seq)
        if state == CommitState.COMPUTE:
            share = 1.0 / len(committed)
            raw = self.golden_raw
            for uop in committed:
                key = (uop.index, uop.psv)
                raw[key] = raw.get(key, 0.0) + share
        elif state == CommitState.STALLED:
            self.rob[0].exposed_stall += n
        elif state == CommitState.DRAINED:
            self._pending_drain += n
        else:  # FLUSHED
            key = self.flush_blame
            self.golden_raw[key] = self.golden_raw.get(key, 0.0) + n

    def _commit_reference(self) -> list[Uop]:
        """Pre-optimisation commit (direct golden_raw accumulation)."""
        rob = self.rob
        cycle = self.cycle
        committed: list[Uop] = []
        budget = self.config.commit_width
        limit = self._commit_limit
        if limit is not None:
            remaining = limit - self.committed_total
            if remaining <= 0:
                return []
            if remaining < budget:
                budget = remaining
        flushed = False
        while budget and rob:
            head = rob[0]
            if not head.complete or head.complete_time > cycle:
                break
            rob.popleft()
            head.committed = True
            committed.append(head)
            budget -= 1
            if head.is_load:
                self._lq_occ -= 1
                self._unregister_load(head)
            elif head.is_store:
                self._drain_queue.append(head)
            if head.causes_flush:
                if head.op_class == OpClass.SERIAL:
                    self.flushes.serial += 1
                    self._squash_younger_than(head.seq)
                    self._fetch_stall_until = max(
                        self._fetch_stall_until,
                        cycle + self.config.redirect_penalty,
                    )
                flushed = True
                break
        if committed:
            raw = self.golden_raw
            last = committed[-1]
            first = committed[0]
            if self._pending_drain:
                key = (first.index, first.psv)
                raw[key] = raw.get(key, 0.0) + self._pending_drain
                self._pending_drain = 0.0
            if self._drain_waiters:
                for sampler, weight in self._drain_waiters:
                    sampler.capture(
                        first.index, first.psv, weight, cycle=cycle
                    )
                self._drain_waiters.clear()
            for uop in committed:
                key = (uop.index, uop.psv)
                if uop.exposed_stall:
                    raw[key] = raw.get(key, 0.0) + uop.exposed_stall
                if uop.pending_samples:
                    for sampler, weight in uop.pending_samples:
                        sampler.capture(
                            uop.index, uop.psv, weight, cycle=cycle
                        )
                    uop.pending_samples.clear()
                self._account_commit(uop)
            self.committed_total += len(committed)
            if self.cycle_trace is not None:
                self.cycle_trace.on_commit(
                    [(u.seq, u.index, u.psv) for u in committed]
                )
            self._last_committed = (last.index, last.psv)
            self._last_committed_seq = last.seq
            self._empty_is_flush = flushed or last.causes_flush
            if self._empty_is_flush:
                self.flush_blame = (last.index, last.psv)
        return committed


def simulate(
    program: Program,
    config: CoreConfig | None = None,
    samplers: Iterable = (),
    arch_state: ArchState | None = None,
    max_cycles: int = 500_000_000,
    fast_forward: bool = True,
    cycle_trace=None,
) -> CoreResult:
    """Convenience wrapper: build a :class:`Core` and run it."""
    core = Core(
        program, config, samplers, arch_state,
        fast_forward=fast_forward, cycle_trace=cycle_trace,
    )
    return core.run(max_cycles)
