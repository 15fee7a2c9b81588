"""Statistical samplers: TEA, NCI-TEA, IBS, SPE, RIS, and the golden
reference.

Samplers attach to a running :class:`repro.uarch.core.Core` and observe
the commit stage at their sampling period. Each sample carries a weight of
one sampling period (in cycles) and is eventually *captured* as an
(instruction, PSV signature) pair — possibly deferred until the sampled
µop commits, which is how the hardware guarantees final PSVs (Section 3).

Policies
--------
* :class:`TeaSampler` — time-proportional: follows the golden attribution
  policy for the sampled cycle (committing µops / ROB head / next-
  committing / last-committed, by commit state).
* :class:`NciTeaSampler` — the Intel-PEBS-style Next-Committing-
  Instruction policy: like TEA, but flushes are attributed to the next-
  committing instruction (the paper's explanation of its residual error).
* :class:`DispatchTagSampler` — AMD IBS / Arm SPE: tags the µop that
  dispatches in the sample cycle (or the next one to dispatch) and records
  the events of its restricted event set; samples of squashed µops abort.
* :class:`FetchTagSampler` — IBM RIS: as above, but tags at fetch.
* :class:`GoldenReference` — wraps the core's built-in every-cycle
  attribution (unimplementable in real hardware; paper Section 4).
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING

from repro.core.events import (
    FULL_MASK,
    IBS_EVENTS,
    RIS_EVENTS,
    SPE_EVENTS,
    Event,
    event_mask,
)
from repro.core.pics import PicsProfile, RawProfile
from repro.core.states import CommitState

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.uarch.core import Core

# Commit states bound to module level: reading a member through its
# enum class is a slow attribute lookup on Python 3.11.
_COMPUTE = CommitState.COMPUTE
_STALLED = CommitState.STALLED
_DRAINED = CommitState.DRAINED


class Sampler:
    """Base class: periodic sampling with event-set projection.

    Args:
        name: Technique name (used in reports and profiles).
        period: Sampling period in cycles. The paper samples at 4 kHz on a
            3.2 GHz core (period 800,000); run lengths here are scaled
            down ~10^3x, and so are the default periods used by the
            experiment harness.
        events: Supported event set; captured PSVs are projected onto it.
        phase: Cycle of the first sample.
        jitter: Randomise each inter-sample gap uniformly within
            ``period/4`` (deterministic per sampler). Real PMUs
            effectively dither relative to program phase; the synthetic
            kernels here are regular enough to phase-lock against an
            exactly fixed period.
        seed: Seed for the jitter/tag-slot RNG.
    """

    def __init__(
        self,
        name: str,
        period: int,
        events: frozenset[Event] = frozenset(Event),
        phase: int | None = None,
        jitter: bool = True,
        seed: int = 12345,
    ) -> None:
        if period <= 0:
            raise ValueError("period must be positive")
        self.name = name
        self.period = period
        self.events = frozenset(events)
        self.mask = event_mask(self.events)
        self.phase = phase if phase is not None else period
        self.jitter = jitter
        self.seed = seed
        self.rng = random.Random(seed)
        self.next_due = self.phase
        self.raw: RawProfile = {}
        self.samples_taken = 0
        self.samples_dropped = 0
        #: Optional capture sink: anything with ``write(index, psv,
        #: weight)``, e.g. :meth:`repro.trace.TraceStore.sampler_sink`.
        self.sink = None

    # ------------------------------------------------------------------
    # Lifecycle (driven by the core).
    # ------------------------------------------------------------------
    def start(self, core: "Core") -> None:
        """Reset state at the beginning of a run."""
        self.rng = random.Random(self.seed)
        self.next_due = self.phase
        self.raw = {}
        self.samples_taken = 0
        self.samples_dropped = 0

    def advance(self) -> None:
        """Schedule the next sample (applies jitter when enabled)."""
        gap = self.period
        if self.jitter:
            spread = max(1, self.period // 4)
            gap += self.rng.randint(-spread, spread)
        self.next_due += max(1, gap)

    def sample(self, core: "Core") -> None:
        """Take one sample of the current commit-stage state."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Capture.
    # ------------------------------------------------------------------
    def capture(
        self, index: int, psv: int, weight: float,
        cycle: int | None = None,
        tally: bool = True,
    ) -> None:
        """Record *weight* cycles for (instruction, projected signature).

        Args:
            index: Static instruction index.
            psv: Raw PSV (projected onto the event set here).
            weight: Cycles this capture represents.
            cycle: Cycle at which the capture resolved (commit time for
                deferred samples); used by phase-resolved subclasses.
            tally: Count this capture in ``samples_taken``. A sample whose
                weight is split over several committing µops is still one
                sample -- the splitting caller passes ``tally=False`` for
                all shares but the first.
        """
        key = (index, psv & self.mask)
        self.raw[key] = self.raw.get(key, 0.0) + weight
        if tally:
            self.samples_taken += 1
        if self.sink is not None:
            self.sink.write(key[0], key[1], weight)

    def drop(self) -> None:
        """Record an aborted sample (tagged µop was squashed)."""
        self.samples_dropped += 1

    def profile(self) -> PicsProfile:
        """The sampled PICS profile (instruction granularity)."""
        return PicsProfile.from_raw(self.name, self.raw)


class TeaSampler(Sampler):
    """TEA: time-proportional PSV sampling (the paper's proposal)."""

    def __init__(self, period: int, phase: int | None = None,
                 name: str = "TEA", jitter: bool = True,
                 seed: int = 12345,
                 events: frozenset[Event] = frozenset(Event)) -> None:
        super().__init__(name, period, events, phase,
                         jitter=jitter, seed=seed)

    def sample(self, core: "Core") -> None:
        state = core.commit_state
        weight = float(self.period)
        if state is _COMPUTE:
            committing = core.committing_now
            share = weight / len(committing)
            for i, uop in enumerate(committing):
                self.capture(uop.index, uop.psv, share,
                             cycle=core.cycle, tally=i == 0)
        elif state is _STALLED:
            # PSV is read when the µop commits (the hardware delays the
            # sample until then so the PSV is final).
            head = core.rob_head
            if head.pending_samples is None:
                head.pending_samples = [(self, weight)]
            else:
                head.pending_samples.append((self, weight))
        elif state is _DRAINED:
            core.add_drain_waiter(self, weight)
        else:  # FLUSHED: blame the last-committed (flushing) instruction.
            index, psv = core.flush_blame
            self.capture(index, psv, weight, cycle=core.cycle)


class TipSampler(TeaSampler):
    """TIP: time-proportional instruction profiling *without* events.

    The paper's baseline profiler (Gottschall et al., MICRO 2021): the
    same commit-state attribution policy as TEA, but no PSVs -- it
    answers Q1 (which instructions take time) and cannot answer Q2 (why).
    Modelled as TEA with an empty event set: every capture degrades to
    the Base signature.
    """

    def __init__(self, period: int, phase: int | None = None,
                 jitter: bool = True, seed: int = 12345) -> None:
        super().__init__(period, phase, name="TIP", jitter=jitter,
                         seed=seed, events=frozenset())


class NciTeaSampler(Sampler):
    """NCI-TEA: TEA events + next-committing-instruction policy."""

    def __init__(self, period: int, phase: int | None = None,
                 name: str = "NCI-TEA", jitter: bool = True,
                 seed: int = 12345) -> None:
        super().__init__(name, period, frozenset(Event), phase,
                         jitter=jitter, seed=seed)

    def sample(self, core: "Core") -> None:
        state = core.commit_state
        weight = float(self.period)
        if state is _COMPUTE:
            committing = core.committing_now
            share = weight / len(committing)
            for i, uop in enumerate(committing):
                self.capture(uop.index, uop.psv, share,
                             cycle=core.cycle, tally=i == 0)
        elif state is _STALLED:
            head = core.rob_head
            if head.pending_samples is None:
                head.pending_samples = [(self, weight)]
            else:
                head.pending_samples.append((self, weight))
        else:
            # DRAINED and FLUSHED both attribute to the next-committing
            # instruction -- wrong for flushes, which is NCI's error source.
            core.add_drain_waiter(self, weight)


class DispatchTagSampler(Sampler):
    """Front-end tagging at dispatch (models AMD IBS and Arm SPE)."""

    def sample(self, core: "Core") -> None:
        core.add_dispatch_tag(self, float(self.period))


class FetchTagSampler(Sampler):
    """Front-end tagging at fetch (models IBM RIS)."""

    def sample(self, core: "Core") -> None:
        core.add_fetch_tag(self, float(self.period))


class GoldenReference:
    """Accessor for the core's built-in every-cycle attribution.

    Not a :class:`Sampler`: the golden reference observes every dynamic
    instruction in every cycle (the paper estimates 2.7 PB of data for
    SPEC CPU2017, hence "unimplementable"), so the core accumulates it
    natively while simulating.
    """

    name = "golden"
    events = frozenset(Event)
    mask = FULL_MASK

    def profile(self, core: "Core") -> PicsProfile:
        """The golden PICS profile of a completed run."""
        return PicsProfile.from_raw(self.name, core.golden_raw)


#: Technique names :func:`make_sampler` accepts. Error messages used to
#: print ``sorted(EVENT_SETS)``, which omitted "TIP" and misreported
#: "TEA-dispatch" -- this tuple is the actual contract.
TECHNIQUE_NAMES = (
    "IBS", "NCI-TEA", "RIS", "SPE", "TEA", "TEA-dispatch", "TIP",
)


def make_sampler(
    technique: str,
    period: int,
    phase: int | None = None,
    jitter: bool = True,
    seed: int = 12345,
    events: frozenset[Event] | None = None,
) -> Sampler:
    """Factory: build the sampler for a paper technique by name.

    Args:
        technique: "TEA", "TIP", "NCI-TEA", "IBS", "SPE", "RIS", or
            "TEA-dispatch" (the paper's dispatch-tagging TEA ablation).
        period: Sampling period in cycles.
        phase: Optional first-sample cycle.
        jitter: Randomise inter-sample gaps (see :class:`Sampler`).
        seed: RNG seed for jitter and tag-slot selection.
        events: Restricted event set for event-set ablations; only
            meaningful for "TEA" and "TEA-dispatch" (the other
            techniques' event sets define them). ``None`` keeps each
            technique's full set.

    Raises:
        ValueError: For an unknown technique name, or an ``events``
            override on a fixed-event-set technique.
    """
    if events is not None and technique not in (
        "TEA", "TEA-dispatch",
    ):
        raise ValueError(
            f"technique {technique!r} has a fixed event set; events= "
            f"is only supported for 'TEA' and 'TEA-dispatch'"
        )
    if technique == "TEA":
        return TeaSampler(
            period,
            phase,
            jitter=jitter,
            seed=seed,
            events=frozenset(Event) if events is None else events,
        )
    if technique == "TIP":
        return TipSampler(period, phase, jitter=jitter, seed=seed)
    if technique == "NCI-TEA":
        return NciTeaSampler(period, phase, jitter=jitter, seed=seed)
    if technique == "IBS":
        return DispatchTagSampler(
            "IBS", period, IBS_EVENTS, phase, jitter=jitter, seed=seed
        )
    if technique == "SPE":
        return DispatchTagSampler(
            "SPE", period, SPE_EVENTS, phase, jitter=jitter, seed=seed
        )
    if technique == "RIS":
        return FetchTagSampler(
            "RIS", period, RIS_EVENTS, phase, jitter=jitter, seed=seed
        )
    if technique == "TEA-dispatch":
        return DispatchTagSampler(
            "TEA-dispatch",
            period,
            frozenset(Event) if events is None else events,
            phase,
            jitter=jitter,
            seed=seed,
        )
    raise ValueError(
        f"unknown technique {technique!r}; expected one of "
        f"{list(TECHNIQUE_NAMES)}"
    )
