"""How fast the host runs right now, measured with a fixed loop.

The benchmark's machine shares its cores and its last-level cache with
other tenants. The same pass over the same work takes up to 1.5 times
as long in one minute as in the next, and that drift, not the program,
decides most of the spread between runs. So the benchmark runs a fixed
calibration loop :data:`TICK_EVERY_S` seconds after the last one ended,
interrupting the work wherever it is, and scales each time it reports
by :data:`REFERENCE_S` over the loop's mean time during that work. The
times are then those of a host on which one loop takes
:data:`REFERENCE_S`.

The loop uses nothing from ``repro``, so no change to the program can
move it; a program that gets 20% faster reports 20% less time. It mixes
the two kinds of work the simulator's time goes to, because a busy
neighbour slows them by different amounts: interpreter-bound work
(integer arithmetic, dict and list updates, attribute access, calls
through closures) and memory-bound work (a pointer chase over a ring
larger than the core's own caches).
"""

from __future__ import annotations

import contextlib
import functools
import signal
import statistics
import time

#: Seconds one calibration loop takes on the reference host: a round
#: figure inside the 6-11 ms it took on the baseline machine.
REFERENCE_S = 0.0075
#: Seconds from the end of one calibration loop to the start of the next
#: while work is timed. The host's speed changes within a second.
TICK_EVERY_S = 0.1
#: Nodes in the ring the loop chases. With their int objects they take
#: about 10 MB, five times the baseline machine's per-core L2 cache.
RING_NODES = 1 << 18


class _Line:
    __slots__ = ("tag", "age", "dirty")

    def __init__(self, tag: int, age: int) -> None:
        self.tag = tag
        self.age = age
        self.dirty = False


@functools.cache
def _ring_next() -> tuple[int, ...]:
    """``next[i]``, a ring visiting each of :data:`RING_NODES` indices
    once in a scattered order; built on the first call in the process.

    ``i -> (a * i + c) mod n`` is one cycle through all ``n`` indices
    when ``n`` is a power of two, ``a % 4 == 1`` and ``c`` is odd. The
    garbage collector stops tracking a tuple of ints the first time it
    meets one, so the ring does not slow the program's collections.
    """
    mask = RING_NODES - 1
    return tuple((2654435761 * i + 1013904223) & mask
                 for i in range(RING_NODES))


def _interpret() -> int:
    regs = [0] * 8
    sets: list[dict[int, _Line]] = [{} for _ in range(64)]
    clock = hits = 0

    def access(addr: int, write: bool) -> None:
        nonlocal clock, hits
        clock += 1
        block = addr >> 6
        ways = sets[block & 63]
        line = ways.get(block >> 6)
        if line is None:
            if len(ways) >= 4:
                del ways[min(ways.values(), key=lambda ln: ln.age).tag]
            line = ways[block >> 6] = _Line(block >> 6, clock)
        else:
            hits += 1
            line.age = clock
        line.dirty |= write

    def add(a, b, c):
        regs[a] = (regs[b] + regs[c]) & 0xFFFFFFFF

    def mul(a, b, c):
        regs[a] = (regs[b] * 2654435761 + c) & 0xFFFFFFFF

    def load(a, b, c):
        access(regs[b] & 0xFFFFF, False)
        regs[a] = regs[b] ^ c

    def store(a, b, c):
        access((regs[b] + c) & 0xFFFFF, True)

    program = [(mul, 1, 1, 7), (add, 2, 1, 2), (load, 3, 2, 5),
               (add, 4, 3, 4), (store, 0, 4, 64), (load, 5, 1, 9),
               (add, 1, 5, 1), (mul, 2, 2, 3)]
    window: list[tuple] = []
    total = 0
    for i in range(600):
        for op, a, b, c in program:
            op(a, b, c)
            window.append((op, a))
            if len(window) > 32:
                window.pop(0)
        total += i * i % 7
    return hits + total + sum(regs)


def _chase() -> int:
    ring = _ring_next()
    i = total = 0
    for _ in range(10_000):
        i = ring[i]
        total += i
    return total


def calibration_loop() -> int:
    """One fixed unit of work; returns a checksum of it."""
    return _interpret() + _chase()


class HostClock:
    """Calibration loops timed around one stretch of work."""

    def __init__(self) -> None:
        self.ticks: list[float] = []
        #: Seconds the loops took from the work being timed.
        self.spent_s = 0.0

    def tick(self) -> None:
        """Time one calibration loop."""
        _ring_next()
        start = time.perf_counter()
        calibration_loop()
        self.record([time.perf_counter() - start])

    def record(self, ticks: list[float], share: float = 1.0) -> None:
        """Add the times of loops, run here or elsewhere; *share* of
        their sum delayed the work (``1 / jobs`` for loops that ran in
        ``jobs`` parallel workers)."""
        self.ticks.extend(ticks)
        self.spent_s += share * sum(ticks)

    @contextlib.contextmanager
    def ticking(self):
        """Time a loop :data:`TICK_EVERY_S` after the last one ended, from
        a ``SIGALRM`` handler, for as long as the block runs."""

        def handler(signum, frame) -> None:
            self.tick()
            signal.setitimer(signal.ITIMER_REAL, TICK_EVERY_S)

        previous = signal.signal(signal.SIGALRM, handler)
        signal.setitimer(signal.ITIMER_REAL, TICK_EVERY_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def scale(self) -> float:
        """The factor that turns host seconds into reference seconds."""
        return REFERENCE_S / statistics.fmean(self.ticks)


def host_scale(ticks: int) -> float:
    """:meth:`HostClock.scale` over *ticks* loops run now."""
    clock = HostClock()
    for _ in range(ticks):
        clock.tick()
    return clock.scale()
