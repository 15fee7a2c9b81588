"""The artefact table: each entry declares exactly the runs it reads."""

import pytest

from repro.engine import Engine, RunLog, read_run_log
from repro.experiments.artefacts import ARTEFACTS, declared_specs
from repro.experiments.runner import ExperimentRunner
from repro.workloads import WORKLOAD_NAMES


@pytest.fixture(scope="module")
def logged_runner(tmp_path_factory):
    """One store-less engine with a run log, shared by every entry."""
    log = tmp_path_factory.mktemp("artefacts") / "runs.jsonl"
    engine = Engine(run_log=RunLog(log))
    return ExperimentRunner(scale=0.05, period=67, engine=engine), log


@pytest.mark.parametrize("name", list(ARTEFACTS))
def test_renderers_read_exactly_the_declared_specs(logged_runner, name):
    """Once an entry's specs are run, rendering it simulates nothing
    and reads every declared run and no other: an undeclared run would
    be simulated outside the prewarm (or served from another entry's),
    and a declared one that is never read is simulated for nothing."""
    runner, log = logged_runner
    artefact = ARTEFACTS[name]
    specs = artefact.specs(runner)
    runner.engine.run_suite(specs)
    simulations = runner.engine.simulations
    seen = len(read_run_log(log))

    result = artefact.run(runner)
    assert artefact.text(result)
    if artefact.svgs is not None:
        assert all(
            svg.startswith("<svg")
            for svg in artefact.svgs(result).values()
        )

    assert runner.engine.simulations == simulations
    read = [
        rec for rec in read_run_log(log)[seen:] if rec["kind"] == "run"
    ]
    assert {rec["source"] for rec in read} <= {"memo"}
    assert {rec["spec_key"] for rec in read} == {
        spec.key for spec in specs.values()
    }


def test_declared_specs_keep_the_first_label_of_each_run():
    """Fig 7 reads the same runs as Fig 5, so it adds none."""
    runner = ExperimentRunner(scale=0.05, period=67)
    specs = declared_specs(runner, [ARTEFACTS["fig5"], ARTEFACTS["fig7"]])
    assert list(specs) == [f"fig5:{name}" for name in WORKLOAD_NAMES]


def test_declared_specs_of_every_artefact():
    """The runs ``report`` prewarms (CI's fault-smoke counts them)."""
    runner = ExperimentRunner(scale=0.05, period=67)
    assert len(declared_specs(runner, ARTEFACTS.values())) == 107
