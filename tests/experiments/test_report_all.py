"""Tests for the consolidated reproduction report."""

from repro.experiments.artefacts import write_report
from repro.experiments.runner import ExperimentRunner


def test_write_report(tmp_path):
    runner = ExperimentRunner(scale=0.06, period=67)
    path = write_report(runner, tmp_path / "REPORT.md")
    text = path.read_text()
    # Every section present.
    for title in (
        "Table 1", "Table 2", "Fig 3", "Fig 5", "Fig 6", "Fig 7",
        "Fig 8", "Fig 9", "Fig 10", "Fig 11", "Fig 12", "Overheads",
        "TEA at dispatch", "event-set width", "TIP vs TEA",
        "Top-Down", "out-of-order window", "store queue",
        "Sampling noise",
    ):
        assert title in text, title
    # And the headline numbers are in there.
    assert "average" in text
    assert "speedup" in text


def test_cli_report(tmp_path, capsys):
    from repro.cli import main

    out = tmp_path / "R.md"
    assert main(
        ["--scale", "0.06", "--period", "67", "report", "--out",
         str(out)]
    ) == 0
    assert out.exists()
    assert "wrote" in capsys.readouterr().out
