"""``InstStream.skip``: the record-free drive is the record path, minus
the records.

``skip(n)`` must leave a stream exactly where ``n`` calls to ``take()``
would: the same later records, architectural state, resume position and
execution counts, and the same warm-up history for the last ``keep``
instructions. Each test drives one stream through ``take()`` alone and
a second through ``skip()``, and compares them.
"""

from __future__ import annotations

import random

import pytest

from repro.isa.builder import ProgramBuilder
from repro.isa.interpreter import ArchState, InterpreterError
from repro.isa.semantics import InstStream, arch_digest
from repro.workloads import WORKLOAD_NAMES, build
from repro.workloads.synth import build_synth

_KEEP = 32


def _key(dyn):
    return (
        dyn.seq, dyn.static.index, dyn.eff_addr, dyn.taken, dyn.next_index,
    )


def _take(stream, n, counts):
    """*n* calls to ``take()``, counting; how many returned a record."""
    got = 0
    for _ in range(n):
        dyn = stream.take()
        if dyn is None:
            break
        counts[dyn.static.index] += 1
        got += 1
    return got


class _Pair:
    """A reference stream driven by ``take()`` and a stream under test."""

    def __init__(self, program, make_state, keep=_KEEP, **kwargs):
        history = 4 * keep
        self.keep = keep
        self.ref = InstStream(program, make_state(), history=history,
                              **kwargs)
        self.fast = InstStream(program, make_state(), history=history,
                               **kwargs)
        self.ref_counts = [0] * len(program)
        self.fast_counts = [0] * len(program)
        self.pos = 0

    def skip(self, n):
        got = self.fast.skip(n, self.fast_counts, self.keep)
        assert got == _take(self.ref, n, self.ref_counts)
        self.pos += got
        if got == n:  # at the end of the stream no window follows
            for k in range(self.keep + 1):
                assert list(map(_key, self.fast.recent_before(self.pos, k))) \
                    == list(map(_key, self.ref.recent_before(self.pos, k)))
        return got

    def take(self, n):
        got = 0
        for _ in range(n):
            a, b = self.ref.take(), self.fast.take()
            assert (a is None) == (b is None)
            if a is None:
                break
            assert _key(a) == _key(b)
            self.ref_counts[a.static.index] += 1
            self.fast_counts[b.static.index] += 1
            got += 1
        self.pos += got
        return got

    def check_end(self):
        ref, fast = self.ref, self.fast
        assert ref.take() is None and fast.take() is None
        assert ref.done and fast.done
        assert arch_digest(fast.state) == arch_digest(ref.state)
        assert fast.interp.inst_count == ref.interp.inst_count == self.pos
        assert fast.interp.halted and ref.interp.halted
        assert self.fast_counts == self.ref_counts


def _interleave(pair, seed):
    """Random skip/take interleaving to the end of the stream, with
    ``n`` below, at and above ``keep``, ``n = 0``, and records left in
    the replay deque on entry."""
    rng = random.Random(seed)
    keep = pair.keep
    while True:
        n = rng.choice(
            [0, rng.randrange(1, keep), keep, rng.randrange(keep, 12 * keep)]
        )
        roll = rng.random()
        if roll < 0.2:
            # A squash: records go back to the front of both streams.
            m = rng.randrange(1, 8)
            for stream in (pair.ref, pair.fast):
                back = [stream.take() for _ in range(m)]
                stream.push_front(d for d in reversed(back) if d is not None)
        if roll < 0.6:
            if pair.skip(n) < n:
                break
        elif pair.take(n) < n:
            break
    pair.check_end()


@pytest.mark.parametrize("name", sorted(WORKLOAD_NAMES))
def test_skip_equals_take_on_every_kernel(name):
    workload = build(name, scale=0.05)
    pair = _Pair(workload.program, workload.fresh_state)
    _interleave(pair, seed=name)


@pytest.mark.parametrize("seed", [0, 3, 7])
def test_skip_equals_take_on_synth(seed):
    workload = build_synth(scale=0.5, seed=seed)
    pair = _Pair(workload.program, workload.fresh_state)
    _interleave(pair, seed=seed)


def _loop(iters: int, tail=()):
    """A counted loop of four instructions per iteration, then *tail*."""
    b = ProgramBuilder("loop")
    b.li("x1", iters)
    b.label("top")
    b.addi("x2", "x2", 3)
    b.store("x2", "x0", 64)
    b.addi("x1", "x1", -1)
    b.bne("x1", "x0", "top")
    for emit in tail:
        emit(b)
    b.halt()
    return b.build()


def test_n_below_at_and_above_keep():
    program = _loop(400)
    pair = _Pair(program, ArchState, keep=16)
    for n in (0, 15, 16, 17, 100, 0, 1, 16, 300):
        assert pair.skip(n) == n
        pair.take(3)
    pair.skip(10_000)
    pair.check_end()


def test_halt_inside_the_record_free_part():
    program = _loop(200)
    pair = _Pair(program, ArchState, keep=16)
    pair.take(10)
    assert pair.skip(10_000) == pair.pos - 10 < 10_000
    assert pair.fast.interp.halted
    assert pair.fast.take() is None
    assert pair.fast.done
    assert pair.fast.skip(5, pair.fast_counts, 16) == 0
    pair.check_end()


def test_replay_larger_than_n_is_consumed_in_order():
    program = _loop(50)
    pair = _Pair(program, ArchState, keep=4)
    for stream in (pair.ref, pair.fast):
        dyns = [stream.take() for _ in range(12)]
        stream.push_front(reversed(dyns))
    pair.skip(5)
    pair.take(7)
    pair.skip(100)
    pair.take(1_000)
    pair.check_end()


@pytest.mark.parametrize(
    "make", [
        lambda: InstStream(_loop(100_000), max_insts=1_000),
        lambda: InstStream(
            _loop(300, [lambda b: b.li("x31", 10**6), lambda b: b.ret()])
        ),
    ],
    ids=["max-insts", "pc-out-of-range"],
)
def test_errors_inside_the_record_free_part_match_take(make):
    ref, fast = make(), make()
    with pytest.raises(InterpreterError) as want:
        while ref.take() is not None:
            pass
    fast.take()
    with pytest.raises(InterpreterError) as got:
        fast.skip(10**7, keep=3)
    assert str(got.value) == str(want.value)
    assert fast.interp.inst_count == ref.interp.inst_count
    assert fast.interp.pc == ref.interp.pc
    assert arch_digest(fast.state) == arch_digest(ref.state)


def test_interpreted_fallback_skips_through_take():
    """A float seeded into an integer register stops the compiled drive;
    ``skip`` then takes records and still matches."""
    program = _loop(300)

    def seeded():
        state = ArchState()
        state.int_regs[5] = 1.5
        return state

    pair = _Pair(program, seeded, keep=8)
    assert not pair.fast.interp.compiled
    _interleave(pair, seed=1)


def test_a_stale_generator_never_moves_the_resume_position():
    """``skip`` restarts the record generator; the one it replaced may
    be closed or collected later and must write nothing."""
    program = _loop(500)
    pair = _Pair(program, ArchState, keep=4)
    pair.take(7)
    stale = pair.fast.source
    pair.skip(300)
    pc, count = pair.fast.interp.pc, pair.fast.interp.inst_count
    assert pair.fast.source is not stale
    stale.close()
    del stale
    assert (pair.fast.interp.pc, pair.fast.interp.inst_count) == (pc, count)
    pair.take(25)
    pair.skip(10_000)
    pair.check_end()


def test_skip_zero_is_a_no_op():
    program = _loop(20)
    stream = InstStream(program)
    source = stream.source
    assert stream.skip(0) == 0
    assert stream.source is source
    assert stream.interp.inst_count == 0
