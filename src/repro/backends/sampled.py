"""SMARTS-style sampled simulation: functional fast-forward between
detailed measurement windows.

The run is tiled into regions of ``window + stride`` committed
instructions. Each region opens with a *measurement window*: a fresh
detailed core, primed with warm microarchitectural state, consumes the
shared instruction stream until exactly ``window`` instructions commit
(samplers active, golden attribution on). The region's remaining
``stride`` instructions then *fast-forward* on the functional backend
-- architectural state advances, no cycles are simulated. Region
results extrapolate by ``(window + stride) / window``.

State transfer at a window boundary is exact by construction on the
architectural side and canonical on the microarchitectural side:

* **Architectural state** (registers, memory, stream position) is
  never copied at all -- every tier drives the single shared
  :class:`~repro.isa.semantics.InstStream`, whose interpreter is the
  sole owner of architectural state. When the window ends, the core's
  in-flight µops are squashed back onto the stream
  (:meth:`Core.detach_window`), restoring its position to the commit
  boundary exactly.
* **Warm state** (caches, TLBs, branch predictor) is rebuilt per
  window by the canonical replay of the last ``warmup`` committed
  instructions (:mod:`repro.backends.warmup`).

Because the warm-up replay is a pure function of the committed history
and the committed history is backend-invariant, a sampled run and a
full detailed run (``reference_ff=True``, which executes the
fast-forward regions on the detailed core instead) produce
*bit-identical* per-window profiles -- the tentpole's second
differential gate, pinned by ``tests/backends/test_sampled.py`` and
CI's ``backend-diff`` job.

Samplers operate on the concatenated measured-cycle timeline: due
cycles carry across windows (shifted into each window's local clock),
and only the first window resets sampler state.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro import obs
from repro.backends.warmup import warm_window_state
from repro.branch.predictor import BranchPredictor
from repro.core.result import CoreResult, FlushStats
from repro.core.states import CommitState
from repro.isa.interpreter import ArchState
from repro.isa.program import Program
from repro.isa.semantics import InstStream
from repro.memory.hierarchy import MemoryHierarchy
from repro.uarch.config import CoreConfig
from repro.uarch.core import Core, SimulationError

#: Extra history beyond ``warmup`` so squash-replayed (produced but
#: uncommitted) instructions never evict warm-up candidates; bounded by
#: ROB + fetch buffer + one fetch packet, with generous slack.
_HISTORY_MARGIN = 1024


@dataclass(frozen=True)
class WindowPlan:
    """Sampled-simulation window geometry, in committed instructions.

    Attributes:
        window: Instructions measured in detail per region.
        stride: Instructions fast-forwarded functionally per region
            (0 = contiguous windows, i.e. full detail in slices).
        warmup: Committed-history depth replayed into fresh caches /
            TLBs / predictor at each window boundary (0 = cold).
    """

    window: int = 2_048
    stride: int = 14_336
    warmup: int = 2_048

    def __post_init__(self) -> None:
        if self.window <= 0:
            raise ValueError(f"window must be positive, got {self.window}")
        if self.stride < 0:
            raise ValueError(f"stride must be >= 0, got {self.stride}")
        if self.warmup < 0:
            raise ValueError(f"warmup must be >= 0, got {self.warmup}")


@dataclass
class WindowResult:
    """One measurement window plus its fast-forwarded tail."""

    start: int  # committed-instruction position of the first window inst
    committed: int  # instructions committed inside the window
    cycles: int  # detailed cycles the window took
    ff_insts: int  # functionally fast-forwarded instructions after it
    golden_raw: dict[tuple[int, int], float]
    state_cycles: dict[CommitState, int]
    event_counts: dict[tuple[int, int], int]
    exec_counts: dict[int, int]
    stall_histogram: Counter
    evented_execs: int
    combined_execs: int
    flushes: FlushStats

    @property
    def region_insts(self) -> int:
        """Instructions the window represents (itself + its tail)."""
        return self.committed + self.ff_insts

    @property
    def scale(self) -> float:
        """Extrapolation factor for this region.

        Raises:
            ValueError: If the window committed nothing. An empty
                measurement window has no measured cycles to scale, so
                returning any factor (0.0 included) would silently
                erase its region's contribution from the extrapolated
                totals -- biasing short/tail regions low. The backend
                never emits such a window (:meth:`SampledBackend
                .simulate` raises first); a hand-built one must fail
                loudly here.
        """
        if not self.committed:
            raise ValueError(
                f"window at {self.start} committed no instructions; "
                f"its region ({self.ff_insts} fast-forwarded "
                "instruction(s)) cannot be extrapolated -- fold the "
                "region into a neighbouring window instead"
            )
        return self.region_insts / self.committed


@dataclass
class SampledResult(CoreResult):
    """Extrapolated whole-run estimate plus the raw per-window slices.

    ``cycles`` and every profile/count are region-extrapolated
    estimates; ``committed`` is exact (every instruction executed,
    either in detail or functionally). Sampler ``raw`` profiles cover
    measured cycles only -- shares are unbiased, absolute weights are
    not extrapolated.
    """

    windows: list[WindowResult] = field(default_factory=list)
    plan: WindowPlan | None = None
    measured_cycles: int = 0  # detailed cycles actually simulated
    measured_committed: int = 0  # instructions committed in windows
    ff_committed: int = 0  # instructions fast-forwarded functionally


class SampledBackend:
    """Functional fast-forward between detailed measurement windows.

    Args:
        plan: Window geometry (defaults: :class:`WindowPlan`).
        reference_ff: Execute fast-forward regions on the detailed core
            instead of the functional backend. The run is then a *full
            detailed execution* sliced at the same boundaries with the
            same state-transfer protocol -- the oracle the window
            bit-identity gate compares against.
    """

    def __init__(
        self,
        plan: WindowPlan | None = None,
        reference_ff: bool = False,
    ) -> None:
        self.plan = plan or WindowPlan()
        self.reference_ff = reference_ff

    # ------------------------------------------------------------------
    def simulate(
        self,
        program: Program,
        config: CoreConfig | None = None,
        samplers=(),
        arch_state: ArchState | None = None,
        max_cycles: int = 500_000_000,
        max_insts: int = 50_000_000,
    ) -> SampledResult:
        """Run the sampled tier to completion."""
        plan = self.plan
        config = config or CoreConfig()
        samplers = list(samplers)
        history = plan.warmup + _HISTORY_MARGIN if plan.warmup else 0
        stream = InstStream(program, arch_state, max_insts, history=history)
        pos = 0
        ff_total = 0
        cycles_measured = 0
        windows: list[WindowResult] = []
        first = True
        while not stream.empty():
            core = self._run_window(
                program, config, samplers, stream, pos, first, max_cycles,
            )
            first = False
            committed = core.committed_total
            if committed == 0:
                # A window over a non-empty stream must make progress;
                # silently dropping the tail would bias the estimate
                # low (the region's instructions would vanish from the
                # extrapolation while still having executed).
                raise SimulationError(
                    f"{program.name}: measurement window at {pos} "
                    "committed no instructions over a non-empty stream"
                )
            pos += committed
            ff_insts = self._fast_forward(
                program, config, stream, plan.stride, max_cycles,
            )
            pos += ff_insts
            ff_total += ff_insts
            windows.append(_snapshot_window(core, pos, committed, ff_insts))
            if obs.enabled():
                # Window-boundary heartbeat: counts only (measured
                # cycles so far, stream position); observe-only.
                cycles_measured += core.cycle
                obs.report_progress(
                    program.name, "sampled", cycles_measured, pos
                )
        result = self._aggregate(program, samplers, windows, ff_total)
        result.arch_state = stream.state
        return result

    # ------------------------------------------------------------------
    # One measurement window.
    # ------------------------------------------------------------------
    def _run_window(
        self,
        program: Program,
        config: CoreConfig,
        samplers: list,
        stream: InstStream,
        pos: int,
        first: bool,
        max_cycles: int,
    ) -> Core:
        plan = self.plan
        hierarchy = MemoryHierarchy(config.memory)
        predictor = BranchPredictor(config.branch)
        if plan.warmup:
            warm_window_state(
                stream.recent_before(pos, plan.warmup),
                hierarchy, predictor, config.memory.line_bytes,
            )
        core = Core(
            program,
            config,
            samplers=samplers,
            stream=stream,
            hierarchy=hierarchy,
            predictor=predictor,
            commit_limit=plan.window,
        )
        # Only the first window resets sampler state (RNG, due cycle,
        # accumulators); later windows continue the measured timeline.
        core.start(reset_samplers=first)
        limit = plan.window
        step = core.step
        active = core.active
        while active() and core.committed_total < limit:
            if core.cycle >= max_cycles:
                raise SimulationError(
                    f"{program.name}: window at {pos} exceeded "
                    f"{max_cycles} cycles"
                )
            step()
        window_cycles = core.cycle
        core.detach_window()
        # Shift due cycles into the next window's local clock. Every
        # due cycle is > window_cycles here (the window's final step
        # polled at horizon == window_cycles), so shifted values stay
        # >= 1: a due cycle landing exactly on the window edge fires
        # inside this window; edge + 1 fires at cycle 1 of the next.
        for sampler in samplers:
            sampler.next_due -= window_cycles
        return core

    # ------------------------------------------------------------------
    # Fast-forward between windows.
    # ------------------------------------------------------------------
    def _fast_forward(
        self,
        program: Program,
        config: CoreConfig,
        stream: InstStream,
        n: int,
        max_cycles: int,
    ) -> int:
        """Advance the stream by *n* committed instructions.

        Only the last ``warmup`` become records: the next window's
        warm-up replays exactly those, and a fast-forward leaves no
        squashed µops behind for the history margin to cover.
        """
        if not self.reference_ff:
            return stream.skip(n, keep=self.plan.warmup)
        if n <= 0 or stream.empty():
            return 0
        return self._fast_forward_detailed(
            program, config, stream, n, max_cycles,
        )

    def _fast_forward_detailed(
        self,
        program: Program,
        config: CoreConfig,
        stream: InstStream,
        n: int,
        max_cycles: int,
    ) -> int:
        """Reference oracle: fast-forward on the detailed core.

        Every instruction of the gap goes through the full OoO
        pipeline (fresh, unwarmed structures; timing discarded), and
        the core detaches at the same commit boundary the functional
        path would reach -- so the run as a whole is a genuine
        detailed execution of every instruction.
        """
        core = Core(
            program,
            config,
            stream=stream,
            commit_limit=n,
        )
        step = core.step
        active = core.active
        while active() and core.committed_total < n:
            if core.cycle >= max_cycles:
                raise SimulationError(
                    f"{program.name}: reference fast-forward exceeded "
                    f"{max_cycles} cycles"
                )
            step()
        core.detach_window()
        return core.committed_total

    # ------------------------------------------------------------------
    # Extrapolation.
    # ------------------------------------------------------------------
    def _aggregate(
        self,
        program: Program,
        samplers: list,
        windows: list[WindowResult],
        ff_total: int,
    ) -> SampledResult:
        cycles_est = 0.0
        golden: dict[tuple[int, int], float] = {}
        state_est: dict[CommitState, float] = {s: 0.0 for s in CommitState}
        event_est: dict[tuple[int, int], float] = {}
        exec_est: dict[int, float] = {}
        stall_est: dict[int, float] = {}
        evented = combined = 0.0
        fl_mis = fl_serial = fl_order = 0.0
        measured_cycles = 0
        measured_committed = 0
        for w in windows:
            scale = w.scale
            measured_cycles += w.cycles
            measured_committed += w.committed
            cycles_est += w.cycles * scale
            for key, val in w.golden_raw.items():
                golden[key] = golden.get(key, 0.0) + val * scale
            for state, count in w.state_cycles.items():
                state_est[state] += count * scale
            for key, count in w.event_counts.items():
                event_est[key] = event_est.get(key, 0.0) + count * scale
            for index, count in w.exec_counts.items():
                exec_est[index] = exec_est.get(index, 0.0) + count * scale
            for stall, count in w.stall_histogram.items():
                stall_est[stall] = stall_est.get(stall, 0.0) + count * scale
            evented += w.evented_execs * scale
            combined += w.combined_execs * scale
            fl_mis += w.flushes.mispredicts * scale
            fl_serial += w.flushes.serial * scale
            fl_order += w.flushes.ordering * scale
        stall_histogram = Counter(
            {k: int(round(v)) for k, v in stall_est.items() if round(v)}
        )
        return SampledResult(
            program=program,
            cycles=int(round(cycles_est)),
            committed=measured_committed + ff_total,
            golden_raw=golden,
            event_counts={
                k: int(round(v)) for k, v in event_est.items() if round(v)
            },
            exec_counts={
                k: int(round(v)) for k, v in exec_est.items() if round(v)
            },
            stall_histogram=stall_histogram,
            evented_execs=int(round(evented)),
            combined_execs=int(round(combined)),
            flushes=FlushStats(
                mispredicts=int(round(fl_mis)),
                serial=int(round(fl_serial)),
                ordering=int(round(fl_order)),
            ),
            samplers=samplers,
            state_cycles={
                s: int(round(v)) for s, v in state_est.items()
            },
            windows=windows,
            plan=self.plan,
            measured_cycles=measured_cycles,
            measured_committed=measured_committed,
            ff_committed=ff_total,
        )


def _snapshot_window(
    core: Core, pos: int, committed: int, ff_insts: int
) -> WindowResult:
    """Freeze a detached window core into a :class:`WindowResult`."""
    return WindowResult(
        start=pos - ff_insts - committed,
        committed=committed,
        cycles=core.cycle,
        ff_insts=ff_insts,
        golden_raw=dict(core.golden_raw),
        state_cycles=dict(core.state_cycles),
        event_counts=dict(core.event_counts),
        exec_counts=dict(core.exec_counts),
        stall_histogram=Counter(core.stall_histogram),
        evented_execs=core.evented_execs,
        combined_execs=core.combined_execs,
        flushes=core.flushes,
    )
