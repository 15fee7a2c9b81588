"""Tests for the machine-statistics summary renderer."""

from repro.uarch.summary import render_summary
from repro.workloads import build
from repro.uarch.core import simulate


def test_summary_contains_key_sections(mixed_result):
    text = render_summary(mixed_result)
    for needle in (
        "IPC:",
        "commit states:",
        "flushes:",
        "L1D:",
        "LLC:",
        "D-TLB:",
        "DRAM:",
        "evented executions:",
    ):
        assert needle in text


def test_summary_reflects_workload_character():
    wl = build("gcc", scale=0.05)
    result = simulate(wl.program, arch_state=wl.fresh_state())
    text = render_summary(result)
    assert "drained" in text
    assert "gcc" in text


def test_cli_profile_stats_flag(tmp_path, capsys):
    """``--stats`` prints live machine state, which a stored run does
    not keep, so it simulates even when the store holds the run."""
    from repro.cli import main

    flags = ["--scale", "0.1", "--period", "101", "--store",
             str(tmp_path), "profile", "exchange2", "--top", "2"]
    assert main(flags) == 0
    capsys.readouterr()
    assert main(flags + ["--stats"]) == 0
    out = capsys.readouterr().out
    assert "branch mispredict rate" in out
