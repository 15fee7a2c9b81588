"""All four workloads end to end at a tiny scale, and the correctness
check: a sabotaged or stale reference shows up as failed operations."""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import suites
from metrics import ROOT, benchmark_spec
from tracing import LAYERS, STAGES

TINY = 0.05


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    work = tmp_path_factory.mktemp("bench")
    return work, suites.build_reference(work, scale=TINY)


def test_all_workloads_trace_and_verify(tiny, monkeypatch):
    work, reference = tiny
    monkeypatch.setattr(suites, "MIN_PASSES", 1)
    spec = benchmark_spec()
    names = {m["name"] for m in spec["per_layer"]}
    for name in suites.SUITES:
        # Seed 2: two synth scenarios are in the reference, one is
        # checked against the functional tier instead.
        doc = suites.run_workload(name, 2, 0, True, work, reference,
                                  scale=TINY)
        assert doc["failed"] == 0, doc["failures"]
        assert doc["attempted"] > 0 and doc["fail_rate"] == 0
        for metric in spec["end_to_end"]:
            assert doc[metric["name"]] > 0, (name, metric["name"])
        serves = name == "store-warm"
        assert (doc["serve_p50_ms"] is not None) == serves
        if serves:
            assert doc["ops"] >= 200
            assert 0 < doc["serve_p50_ms"] <= doc["serve_p95_ms"]
        assert (doc["sampled_cyc_err_pct"] is not None) == (
            name == "fastforward-suite")
        layers = doc["per_layer"]
        assert set(layers) == names, (name, names ^ set(layers))
        total = sum(layers[f"{layer}.share"] for layer in LAYERS)
        assert total == pytest.approx(100, abs=1)
        stages = sum(layers[f"uarch.stage.{s}.share"] for s in STAGES)
        assert stages == pytest.approx(100 if stages else 0, abs=1)


def test_store_cold_hands_the_pool_its_longest_specs_first(tmp_path):
    suite = suites.StoreColdSuite(3, tmp_path, scale=TINY)
    suite.setup(suites.NullTracer())
    seed_order = list(suite.labels)
    times = {o.label: o.latency_s
             for o in suite.run_pass(suites.NullTracer()).outcomes}
    assert suite.labels == sorted(seed_order, key=times.get, reverse=True)


def test_sabotaged_digest_fails_operations(tiny):
    work, reference = tiny
    sabotaged = copy.deepcopy(reference)
    key = next(k for k, op in sabotaged["ops"].items()
               if op["label"] == "detailed-suite/lbm")
    sabotaged["ops"][key]["golden"] = "0" * 64
    doc = suites.run_workload("detailed-suite", 1, 0, False, work,
                              sabotaged, scale=TINY)
    assert doc["failed"] == 1 + doc["passes"]  # warm-up + timed passes
    assert doc["failures"][0] == "lbm: golden digest mismatch"


def test_stale_reference_fails_every_operation(tiny, monkeypatch):
    work, reference = tiny
    monkeypatch.setattr(suites, "MIN_PASSES", 1)
    stale = dict(reference, model_version=reference["model_version"] - 1)
    doc = suites.run_workload("store-warm", 1, 0, False, work, stale,
                              scale=TINY)
    assert doc["failed"] == doc["attempted"] > 0


def test_a_metric_the_run_did_not_measure_is_an_error(monkeypatch):
    import run

    measured = {"setup_s": 0.5, "wall_s": 1.0}
    monkeypatch.setattr(run, "_spawn", lambda argv, deadline: dict(measured))
    with pytest.raises(RuntimeError, match="did not measure"):
        run.run_one("store-warm", 1, 1.0, False, benchmark_spec())


def test_exits_nonzero_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "store-warm",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)
    assert not Path(tmp_path / ".bench_work").exists()
