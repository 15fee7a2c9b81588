"""Backend-neutral execution semantics shared by every backend.

The architectural semantics of the ISA live in one place -- the
functional :class:`~repro.isa.interpreter.Interpreter` -- and every
execution backend (functional, sampled, cycle-level detailed) consumes
the same committed dynamic-instruction stream through the
:class:`InstStream` wrapper defined here. That sharing is what makes
the backends differential-testable: the committed instruction sequence,
every effective address, every branch outcome, and the final
architectural state are produced by exactly one implementation, so two
backends can only disagree about *time*, never about *what executed*.

``InstStream`` also owns the replay deque the detailed core uses for
flush re-fetch: a squashed µop's dynamic record is pushed back onto the
front of the stream and re-fetched later. Because the deque lives on
the stream rather than the core, a core can be detached at a
commit-boundary (sampled-simulation window edges) and the stream hands
the un-committed tail to whatever executes next -- the stream position
is restored to the boundary exactly.

Consumers that only need the stream to move on -- the functional tier
and the sampled tier's fast-forward -- call :meth:`InstStream.skip`. It
runs the interpreter without making a record per instruction, except
for a tail the caller asks to keep.

This module must stay free of ``repro.uarch`` imports (tea-lint TL007):
it is the layer *below* the timing model.
"""

from __future__ import annotations

import hashlib
from collections import deque
from collections.abc import Iterator

from repro.isa.instructions import DynInst
from repro.isa.interpreter import ArchState, Interpreter
from repro.isa.program import Program


class InstStream:
    """Replayable committed dynamic-instruction stream.

    One functional interpreter, wrapped with:

    * a ``replay`` deque -- instructions peeked (or squashed) but not
      yet consumed sit at the front of the stream;
    * an optional bounded ``history`` of the most recently *produced*
      instructions, used by the sampled backend to build warm
      microarchitectural state at window boundaries. Production order
      is program (commit) order and every instruction is produced
      exactly once, so the history is identical no matter which backend
      drives the stream.

    The detailed core's fetch hot loop bypasses :meth:`peek`/:meth:`take`
    and works on ``replay``/``source``/``done`` directly; those three
    attributes are public API for exactly that reason. ``replay`` never
    rebinds. ``source`` does, after every :meth:`skip` that advances
    without records, so read it afresh rather than keep a copy.
    """

    __slots__ = ("program", "interp", "source", "replay", "history", "done")

    def __init__(
        self,
        program: Program,
        arch_state: ArchState | None = None,
        max_insts: int = 50_000_000,
        history: int = 0,
    ) -> None:
        self.program = program
        self.interp = Interpreter(program, arch_state, max_insts)
        self.replay: deque[DynInst] = deque()
        self.done = False
        self.history: deque[DynInst] | None = (
            deque(maxlen=history) if history > 0 else None
        )
        self.source: Iterator[DynInst] = self._records()

    def _records(self) -> Iterator[DynInst]:
        """A record generator from the interpreter's resume position."""
        if self.history is None:
            return self.interp.run()
        return self._tee(self.interp.run())

    def _tee(self, gen: Iterator[DynInst]) -> Iterator[DynInst]:
        append = self.history.append
        for dyn in gen:
            append(dyn)
            yield dyn

    @property
    def state(self) -> ArchState:
        """The (single, shared) architectural state."""
        return self.interp.state

    # ------------------------------------------------------------------
    # Stream protocol.
    # ------------------------------------------------------------------
    def peek(self) -> DynInst | None:
        """Next instruction without consuming it (None at end)."""
        if self.replay:
            return self.replay[0]
        if self.done:
            return None
        try:
            dyn = next(self.source)
        except StopIteration:
            self.done = True
            return None
        self.replay.append(dyn)
        return dyn

    def consume(self) -> DynInst:
        """Consume the previously peeked instruction."""
        return self.replay.popleft()

    def take(self) -> DynInst | None:
        """Consume and return the next instruction (None at end).

        Unlike ``peek()`` + ``consume()`` this never routes fresh
        instructions through the replay deque -- it is the functional
        backend's hot path.
        """
        if self.replay:
            return self.replay.popleft()
        if self.done:
            return None
        try:
            return next(self.source)
        except StopIteration:
            self.done = True
            return None

    def skip(
        self, n: int, counts: list[int] | None = None, keep: int = 0
    ) -> int:
        """Consume up to *n* instructions; return how many were consumed.

        The same as *n* calls to :meth:`take` that stop at the end of the
        stream, but only the last *keep* instructions become
        :class:`DynInst` records (and so enter the history); the rest run
        through :meth:`Interpreter.advance`. Instructions waiting in the
        replay deque are consumed first. When the compiled drive is not
        running, every instruction goes through :meth:`take`.

        Args:
            counts: When given, ``counts[index]`` is incremented once per
                consumed instruction.
            keep: How many of the last consumed instructions
                :meth:`recent_before` must be able to return. When the
                stream ends before *n*, nothing can follow, and fewer
                may be kept.
        """
        consumed = self._take_n(min(n, len(self.replay)), counts)
        interp = self.interp
        if n - consumed > keep and not self.done and interp.compiled:
            try:
                consumed += interp.advance(n - consumed - keep, counts)
            finally:
                # The old generator's position is stale: never resume it.
                self.source = self._records()
        return consumed + self._take_n(n - consumed, counts)

    def _take_n(self, n: int, counts: list[int] | None) -> int:
        """Up to *n* calls to :meth:`take`, counting as :meth:`skip`."""
        take = self.take
        got = 0
        while got < n:
            dyn = take()
            if dyn is None:
                break
            if counts is not None:
                counts[dyn.static.index] += 1
            got += 1
        return got

    def empty(self) -> bool:
        """True when no instructions remain."""
        return not self.replay and (self.done or self.peek() is None)

    def push_front(self, dyns) -> None:
        """Return instructions to the front (youngest-first iterable)."""
        self.replay.extendleft(dyns)

    def recent_before(self, bound_seq: int, k: int) -> list[DynInst]:
        """The last *k* produced instructions with ``seq < bound_seq``.

        Used at sampled-window boundaries: ``bound_seq`` is the global
        committed-instruction position, and the result is the warm-up
        trace for the window's microarchitectural state. Requires the
        stream to have been built with ``history > 0``.
        """
        if k <= 0 or self.history is None:
            return []
        return [d for d in self.history if d.seq < bound_seq][-k:]


# ----------------------------------------------------------------------
# Architectural-state comparison (the functional-vs-detailed gate).
# ----------------------------------------------------------------------
def snapshot_arch(state: ArchState) -> dict:
    """A comparable snapshot of the full architectural state."""
    return {
        "int_regs": list(state.int_regs),
        "fp_regs": list(state.fp_regs),
        "memory": dict(state.memory),
    }


def arch_digest(state: ArchState) -> str:
    """A stable hex digest of the architectural state.

    ``repr`` round-trips ints and floats exactly (including the
    int-vs-float distinction and the full float mantissa), so two
    states share a digest iff they are bit-identical.
    """
    h = hashlib.sha256()
    for reg in state.int_regs:
        h.update(repr(reg).encode())
        h.update(b",")
    for reg in state.fp_regs:
        h.update(repr(reg).encode())
        h.update(b",")
    for addr in sorted(state.memory):
        h.update(repr(addr).encode())
        h.update(b":")
        h.update(repr(state.memory[addr]).encode())
        h.update(b";")
    return h.hexdigest()
