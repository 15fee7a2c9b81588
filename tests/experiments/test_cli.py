"""Tests for the CLI tool commands (profile / diff / figures)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main, parse_workload_spec
from repro.engine import DEFAULT_RUN_LOG_NAME, read_run_log
from repro.engine.store import PAYLOAD_SUFFIX

SRC = str(Path(__file__).resolve().parents[2] / "src")


def test_parse_workload_spec_plain():
    wl = parse_workload_spec("lbm", scale=0.1)
    assert wl.name == "lbm"


def test_parse_workload_spec_with_args():
    wl = parse_workload_spec("lbm:prefetch_distance=3", scale=0.1)
    assert wl.params["prefetch_distance"] == 3
    wl = parse_workload_spec("nab:fast_math=true", scale=0.1)
    assert wl.params["fast_math"] is True


def test_parse_workload_spec_unknown_name():
    with pytest.raises(SystemExit, match="unknown workload"):
        parse_workload_spec("doom", scale=1.0)


def test_parse_workload_spec_malformed_arg():
    with pytest.raises(SystemExit, match="bad workload argument"):
        parse_workload_spec("lbm:oops", scale=1.0)


def test_cli_profile(capsys):
    assert main(
        ["--scale", "0.1", "--period", "101", "profile", "exchange2",
         "--top", "3"]
    ) == 0
    out = capsys.readouterr().out
    assert "TEA PICS" in out
    assert "commit-state cycle stack" in out


def test_cli_profile_function_granularity(capsys):
    assert main(
        ["--scale", "0.1", "--period", "101", "profile", "nab",
         "--granularity", "function", "--technique", "TIP"]
    ) == 0
    out = capsys.readouterr().out
    assert "TIP PICS" in out
    assert "function granularity" in out


def test_cli_diff(capsys):
    assert main(
        ["--scale", "0.1", "--period", "101", "diff", "nab",
         "nab:fast_math=true", "--top", "4"]
    ) == 0
    out = capsys.readouterr().out
    assert "speedup" in out
    assert "PICS diff" in out


def test_cli_figures(tmp_path, capsys):
    assert main(
        ["--scale", "0.08", "--period", "67", "figures", "--out",
         str(tmp_path)]
    ) == 0
    written = list(tmp_path.glob("*.svg"))
    assert len(written) >= 10
    for path in written:
        assert path.read_text().startswith("<svg")


@pytest.mark.parametrize(
    "command, simulated_runs",
    [
        pytest.param(["fig12"], 2, id="fig12"),  # the two nab binaries
        pytest.param(["fig6"], 4, id="fig6"),  # its four benchmarks
        # Every figure's runs, none of the dispatch ablation's.
        pytest.param(["figures", "--out", "svg"], 42, id="figures"),
    ],
)
def test_parallel_prewarm_simulates_what_the_command_reads(
    tmp_path, monkeypatch, capsys, command, simulated_runs
):
    """``--jobs 2`` simulates exactly the runs a command reads, all of
    them in the worker pool."""
    monkeypatch.chdir(tmp_path)
    assert main(
        ["--scale", "0.05", "--period", "67", "--store", "store",
         "--jobs", "2"] + command
    ) == 0
    capsys.readouterr()
    simulated = [
        rec for rec in read_run_log(tmp_path / "store" / DEFAULT_RUN_LOG_NAME)
        if rec.get("kind") == "run" and rec.get("source") == "simulated"
    ]
    assert len(simulated) == simulated_runs
    assert {rec["jobs"] for rec in simulated} == {2}


def test_closed_stdout_exits_quietly():
    """A reader that leaves early (``tea-repro table1 | head -1``) gets
    exit status 1 and no traceback on stderr."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC, env.get("PYTHONPATH")])
    )
    # A pipe whose read end is closed before the command starts: every
    # write to it fails, whatever the timing.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "table1"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr.decode() == ""


def test_cli_experiment_command(capsys):
    assert main(["table2"]) == 0
    assert "Table 2" in capsys.readouterr().out


def test_cli_profile_asm_file(tmp_path, capsys):
    """A ``.asm`` file has no spec key: it simulates and stores nothing."""
    asm = tmp_path / "kernel.asm"
    asm.write_text(
        ".func main\n"
        "    li x1, 50\n"
        "loop:\n"
        "    addi x1, x1, -1\n"
        "    bne x1, x0, loop\n"
        "    halt\n"
    )
    store = tmp_path / "store"
    assert main(
        ["--period", "31", "--store", str(store), "profile", str(asm),
         "--top", "2"]
    ) == 0
    out = capsys.readouterr().out
    assert "kernel" in out
    assert "TEA PICS" in out
    assert not list(store.rglob(f"*{PAYLOAD_SUFFIX}"))


def test_cli_profile_missing_asm_file():
    with pytest.raises(SystemExit, match="no such assembly file"):
        main(["profile", "/nonexistent/kernel.asm"])


def test_cli_advise(capsys):
    assert main(
        ["--scale", "0.15", "--period", "101", "advise", "lbm"]
    ) == 0
    out = capsys.readouterr().out
    assert "llc-missing-loads" in out
    assert "try:" in out


# ----------------------------------------------------------------------
# The tool commands run on the command's engine: one run store, one run
# log, the same as the experiment commands.
# ----------------------------------------------------------------------
def test_repeated_query_is_one_logged_capture(tmp_path, capsys):
    store = tmp_path / "store"
    for _ in range(2):
        assert main(
            ["--scale", "0.05", "--store", str(store), "query", "x264",
             "--what", "summary"]
        ) == 0
    capsys.readouterr()
    assert main(["--store", str(store), "stats", "--json"]) == 0
    summary = json.loads(capsys.readouterr().out)["summary"]
    assert summary["runs"]["by_source"]["simulated"] == 1
    assert summary["traces"]["captures"] == 1
    assert summary["traces"]["loads"] == 1


def test_advise_after_profile_is_a_store_hit(tmp_path, capsys):
    store = tmp_path / "store"
    flags = ["--scale", "0.05", "--period", "67", "--store", str(store)]
    assert main(flags + ["profile", "lbm"]) == 0
    assert main(flags + ["advise", "lbm"]) == 0
    assert "finding(s)" in capsys.readouterr().out
    assert [
        rec["source"]
        for rec in read_run_log(store / DEFAULT_RUN_LOG_NAME)
        if rec.get("kind") == "run"
    ] == ["simulated", "store"]


def test_sampled_profile_prints_the_same_from_the_store(tmp_path, capsys):
    """A stored sampled run keeps no windows, so the profile line
    names none: the store hit prints what the simulation printed."""
    command = [
        "--scale", "0.05", "--store", str(tmp_path / "store"), "profile",
        "lbm", "--backend", "sampled",
    ]
    outputs = []
    for _ in range(2):
        assert main(command) == 0
        outputs.append(capsys.readouterr().out)
    assert "samples, cycles extrapolated" in outputs[0]
    assert outputs[0] == outputs[1]


def test_functional_profiles_of_two_techniques_are_one_simulation(
    tmp_path, capsys
):
    store = tmp_path / "store"
    for technique in ("TEA", "IBS"):
        assert main(
            ["--scale", "0.05", "--store", str(store), "profile", "lbm",
             "--backend", "functional", "--technique", technique]
        ) == 0
    capsys.readouterr()
    assert main(["--store", str(store), "stats", "--json"]) == 0
    summary = json.loads(capsys.readouterr().out)["summary"]
    assert summary["runs"]["by_source"] == {
        "simulated": 1, "store": 1, "memo": 0,
    }


def test_query_diff_without_baseline_fails_before_simulating(tmp_path):
    store = tmp_path / "store"
    with pytest.raises(SystemExit, match="needs --baseline"):
        main(
            ["--scale", "0.05", "--store", str(store), "query", "mcf",
             "--what", "diff"]
        )
    assert not list(store.rglob(f"*{PAYLOAD_SUFFIX}"))
    assert not list(store.rglob("*.teacol"))
