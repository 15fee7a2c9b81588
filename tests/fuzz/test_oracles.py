"""The cross-backend oracle set (repro.fuzz.oracles)."""

import pytest

import repro.fuzz.oracles as oracles
from repro.fuzz import OracleFailure, ScenarioVerdict, run_scenario
from repro.isa.interpreter import Interpreter
from repro.workloads.synth import Recipe

#: Seeds every oracle must agree on (the smoke slice of CI's batch).
AGREE_SEEDS = tuple(range(10))


@pytest.mark.parametrize("seed", AGREE_SEEDS)
def test_oracles_agree_on_sampled_scenarios(seed):
    verdict = run_scenario(Recipe.sample(seed))
    assert verdict.ok, verdict.summary()
    assert verdict.committed > 0
    assert verdict.cycles > 0


def test_verdict_summary_mentions_failures():
    verdict = ScenarioVerdict(recipe=Recipe.sample(1))
    verdict.failures.append(OracleFailure("arch-state", "boom"))
    assert "FAIL" in verdict.summary()
    assert "arch-state" in verdict.summary()
    assert not verdict.ok


def test_ok_summary_reports_size():
    verdict = run_scenario(Recipe.sample(0))
    assert "ok" in verdict.summary()
    assert str(verdict.committed) in verdict.summary()


def test_build_crash_is_a_finding():
    # An invalid recipe reaches run_scenario as a build-crash verdict,
    # never as an exception: the shrinker must be able to evaluate any
    # candidate without blowing up.
    bad = Recipe(seed=0, iters=0)
    verdict = run_scenario(bad)
    assert verdict.oracles_failed == ["build-crash"]


def test_backend_crash_is_wrapped(monkeypatch):
    def explode(program, config=None, arch_state=None, **kw):
        raise RuntimeError("injected")

    monkeypatch.setattr(oracles, "simulate_functional", explode)
    verdict = run_scenario(Recipe.sample(0))
    assert verdict.oracles_failed == ["functional-crash"]
    assert "injected" in verdict.failures[0].detail


def test_corrupted_counts_fail_differentially(monkeypatch):
    # A mutation in the functional backend must be caught by the
    # oracles that compare against it -- the acceptance criterion for
    # the whole differential harness.
    real = oracles.simulate_functional

    def sabotaged(program, config=None, arch_state=None, **kw):
        result = real(program, config, arch_state=arch_state, **kw)
        index = next(iter(result.exec_counts))
        result.exec_counts[index] += 1
        return result

    monkeypatch.setattr(oracles, "simulate_functional", sabotaged)
    verdict = run_scenario(Recipe.sample(0))
    assert "interp-equivalence" in verdict.oracles_failed
    assert "arch-state" in verdict.oracles_failed


def test_chunked_skip_is_checked_against_the_interpreter(monkeypatch):
    # A drive that runs one instruction past a short request and
    # reports the count asked for -- as a block path that ignored the
    # stop would -- leaves the one-chunk functional run intact; only
    # the chunked drive can catch it.
    real = Interpreter.advance

    def overrun(self, n, counts=None):
        if n > oracles._MAX_CHUNK:
            return real(self, n, counts)
        return min(n, real(self, n + 1, counts))

    monkeypatch.setattr(Interpreter, "advance", overrun)
    verdict = run_scenario(Recipe.sample(0))
    assert verdict.oracles_failed == ["interp-equivalence"]
    assert "chunked skip" in verdict.failures[0].detail
