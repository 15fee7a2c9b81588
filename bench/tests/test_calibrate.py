"""The host-speed scaling: what the calibration loop measures, and that
its own time is kept out of the pass it is timed in."""

import signal
import time

import pytest

import calibrate
import suites
from calibrate import REFERENCE_S, HostClock, calibration_loop


def test_calibration_loop_is_fixed_work():
    # Changing the loop rescales every reported time.
    assert calibration_loop() == 8187234783


def test_scale_is_reference_over_mean_loop_time():
    clock = HostClock()
    clock.ticks = [0.02, 0.03]
    assert clock.scale() == pytest.approx(REFERENCE_S / 0.025)


def test_loops_in_parallel_workers_delay_the_work_by_their_share():
    clock = HostClock()
    clock.record([0.02, 0.04], share=0.5)
    assert clock.ticks == [0.02, 0.04]
    assert clock.spent_s == pytest.approx(0.03)


def test_ticking_interrupts_the_work_and_then_stops(monkeypatch):
    monkeypatch.setattr(calibrate, "TICK_EVERY_S", 0.02)
    clock = HostClock()
    with clock.ticking():
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    assert len(clock.ticks) >= 3
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL


class _Busy(suites.Suite):
    """Three operations of fixed work."""

    def run_pass(self, tracer, clock=None):
        start = time.perf_counter()
        for _ in range(3):
            sum(i * i for i in range(300_000))
        return suites.Pass(time.perf_counter() - start, [])


def test_timed_pass_excludes_its_calibration_loops(monkeypatch, tmp_path):
    # A sleep stands in for the loop, so its time does not depend on
    # the host and the work's does not grow while it runs.
    monkeypatch.setattr(calibrate, "calibration_loop",
                        lambda: time.sleep(0.1))
    monkeypatch.setattr(calibrate, "TICK_EVERY_S", 0.02)
    suite = _Busy(1, tmp_path)
    work_s = min(suite.run_pass(None).wall_s for _ in range(3))
    clock = HostClock()
    p, scale = suites.timed_pass(suite, clock)
    inside = len(clock.ticks) - 2 * suites.BRACKET_TICKS
    assert inside >= 2
    assert p.wall_s == pytest.approx(work_s, abs=0.1)
    assert scale == pytest.approx(REFERENCE_S / 0.1, rel=0.3)


def test_store_cold_times_its_loops_in_the_pool_workers(tmp_path):
    suite = suites.StoreColdSuite(1, tmp_path, scale=0.05)
    suite.setup(suites.NullTracer())
    clock = HostClock()
    p, _scale = suites.timed_pass(suite, clock)
    assert all(o.error is None for o in p.outcomes)
    # At least one loop per spec, each in the worker that simulated it.
    assert len(clock.ticks) >= 2 * suites.BRACKET_TICKS + len(p.outcomes)
    n = suites.BRACKET_TICKS
    # Counted since the pass began: its workers' loops, then the last n.
    assert clock.spent_s == pytest.approx(
        sum(clock.ticks[n:-n]) / suites.JOBS + sum(clock.ticks[-n:]))
