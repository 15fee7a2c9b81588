"""tea-lint framework: directives, baseline, reporters, runner, CLI."""

import json

import pytest

from repro.analysis import (
    Baseline,
    Finding,
    ModuleSource,
    collect_files,
    lint_paths,
    lint_source,
    render_json,
    render_text,
    rule_catalogue,
)
from repro.analysis.runner import parse_module
from repro.cli import main as cli_main

from tests.analysis.conftest import DATA, REPO_ROOT, fixture_text

HOT = "src/repro/uarch/fake.py"


def make_finding(**overrides):
    base = dict(
        rule="TL003",
        severity="error",
        path="src/repro/uarch/fake.py",
        line=3,
        col=1,
        message="wall-clock read",
        hint="",
        symbol="gen",
    )
    base.update(overrides)
    return Finding(**base)


class TestDirectives:
    def test_line_disable(self):
        source = "import time\nt = time.time()  # tealint: disable=TL003\n"
        result = lint_source(source, path=HOT, rules=["TL003"])
        assert result.findings == []
        assert [f.rule for f in result.suppressed] == ["TL003"]

    def test_line_disable_with_reason(self):
        source = (
            "import time\n"
            "t = time.time()  # tealint: disable=TL003 -- calibration\n"
        )
        result = lint_source(source, path=HOT, rules=["TL003"])
        assert result.findings == []

    def test_disable_only_silences_named_rules(self):
        source = "import time\nt = time.time()  # tealint: disable=TL002\n"
        result = lint_source(source, path=HOT, rules=["TL003"])
        assert [f.rule for f in result.findings] == ["TL003"]

    def test_file_disable(self):
        source = (
            "# tealint: disable-file=TL003\n"
            "import time\n"
            "t = time.time()\n"
            "u = time.time()\n"
        )
        result = lint_source(source, path=HOT, rules=["TL003"])
        assert result.findings == []
        assert len(result.suppressed) == 2

    def test_def_header_disable_covers_body(self):
        source = (
            "import time\n"
            "def gen():  # tealint: disable=TL003\n"
            "    return time.time()\n"
        )
        result = lint_source(source, path=HOT, rules=["TL003"])
        assert result.findings == []

    def test_comment_block_above_def_attaches(self):
        source = (
            "import time\n"
            "# tealint: disable=TL003 -- measured, not modelled; the\n"
            "# value feeds a log line only.\n"
            "def gen():\n"
            "    return time.time()\n"
        )
        result = lint_source(source, path=HOT, rules=["TL003"])
        assert result.findings == []

    def test_blank_line_breaks_attachment(self):
        source = (
            "import time\n"
            "# tealint: disable=TL003\n"
            "\n"
            "def gen():\n"
            "    return time.time()\n"
        )
        result = lint_source(source, path=HOT, rules=["TL003"])
        assert [f.rule for f in result.findings] == ["TL003"]

    def test_directive_in_string_is_inert(self):
        source = (
            "import time\n"
            's = "# tealint: disable-file=TL003"\n'
            "t = time.time()\n"
        )
        result = lint_source(source, path=HOT, rules=["TL003"])
        assert [f.rule for f in result.findings] == ["TL003"]


class TestBaseline:
    def test_roundtrip_and_split(self, tmp_path):
        finding = make_finding()
        baseline = Baseline.from_findings(
            [finding], reasons={finding.key: "grandfathered"}
        )
        path = tmp_path / "baseline.json"
        baseline.save(path)
        loaded = Baseline.load(path)
        assert loaded.entries[finding.key] == "grandfathered"
        active, baselined, unused = loaded.split([finding])
        assert active == [] and baselined == [finding] and unused == []

    def test_key_ignores_line_numbers(self):
        baseline = Baseline.from_findings([make_finding(line=3)])
        moved = make_finding(line=99)
        assert baseline.matches(moved)

    def test_stale_entries_are_reported(self):
        baseline = Baseline.from_findings([make_finding()])
        active, baselined, unused = baseline.split([])
        assert unused == [make_finding().key]

    def test_entry_of_an_unregistered_rule_is_stale(self):
        gone = make_finding(rule="TL001")
        baseline = Baseline.from_findings([gone])
        result = lint_source("x = 1\n", path=HOT, baseline=baseline)
        assert result.unused_baseline == [gone.key]

    def test_missing_file_is_empty(self, tmp_path):
        assert len(Baseline.load(tmp_path / "absent.json")) == 0

    def test_malformed_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"entries": [{"rule": "TL002"}]}))
        with pytest.raises(ValueError, match="needs rule/path"):
            Baseline.load(path)

    def test_lint_applies_baseline(self):
        source = "import time\nt = time.time()\n"
        probe = lint_source(source, path=HOT, rules=["TL003"])
        baseline = Baseline.from_findings(probe.findings)
        result = lint_source(
            source, path=HOT, rules=["TL003"], baseline=baseline
        )
        assert result.findings == [] and len(result.baselined) == 1
        assert result.exit_code == 0


class TestReporters:
    def _result(self):
        return lint_source(
            "import time\nt = time.time()\n", path=HOT, rules=["TL003"]
        )

    def test_text_report(self):
        text = render_text(self._result())
        assert f"{HOT}:2:5: TL003 error:" in text
        assert "1 finding(s)" in text

    def test_text_report_notes_stale_baseline(self):
        result = self._result()
        result.unused_baseline.append(("TL002", "gone.py", "sym"))
        assert "stale baseline entry TL002" in render_text(result)

    def test_json_report(self):
        doc = json.loads(render_json(self._result()))
        assert doc["exit_code"] == 1
        assert doc["counts"]["active"] == 1
        assert doc["findings"][0]["rule"] == "TL003"
        assert {r["id"] for r in doc["rules"]} == {
            "TL002", "TL003", "TL004", "TL005", "TL007", "TL008",
        }

    def test_rule_catalogue_is_complete(self):
        ids = {r["id"] for r in rule_catalogue()}
        assert ids == {
            "TL002", "TL003", "TL004", "TL005", "TL007", "TL008",
        }


class TestRunner:
    def test_fixture_corpus_is_excluded_from_walks(self):
        files = collect_files([DATA.parent])
        assert all("data" not in f.parts for f in files)

    def test_explicit_file_bypasses_excludes(self):
        target = DATA / "det_bad.py"
        assert collect_files([target]) == [target]

    def test_syntax_error_becomes_tl000(self):
        parsed = parse_module(DATA / "broken_syntax.py", REPO_ROOT)
        assert isinstance(parsed, Finding)
        assert parsed.rule == "TL000"
        assert parsed.path == "tests/analysis/data/broken_syntax.py"
        assert parsed.line == 3

    def test_unknown_rule_raises(self):
        with pytest.raises(KeyError, match="TL999"):
            lint_source("x = 1\n", rules=["TL999"])

    def test_ignore_filters_rules(self):
        source = "import time\nt = time.time()\n"
        result = lint_source(source, path=HOT, ignore=["TL003"])
        assert all(f.rule != "TL003" for f in result.findings)

    def test_missing_path_raises(self):
        with pytest.raises(FileNotFoundError):
            collect_files(["definitely/not/here"])

    def test_findings_sorted_by_location(self):
        result = lint_source(
            fixture_text("det_bad.py"), path=HOT, rules=["TL003"]
        )
        locs = [(f.path, f.line, f.col) for f in result.findings]
        assert locs == sorted(locs)


@pytest.fixture
def hot_copy(tmp_path):
    """det_bad.py copied under a path that activates TL003."""
    target = tmp_path / "src" / "repro" / "uarch" / "det_bad.py"
    target.parent.mkdir(parents=True)
    target.write_text(fixture_text("det_bad.py"))
    return target


class TestCli:
    def test_list_rules(self, capsys):
        assert cli_main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "TL002 obs-overhead [error]: " in out
        assert "TL007 backend-purity [error]: " in out

    def test_clean_paths_exit_zero(self, capsys):
        rc = cli_main(["lint", str(REPO_ROOT / "src" / "repro" / "obs")])
        assert rc == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_findings_exit_nonzero_with_location(self, hot_copy, capsys):
        rc = cli_main(["lint", str(hot_copy), "--rule", "TL003"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "TL003" in out and "det_bad.py" in out

    def test_json_output(self, hot_copy, capsys):
        rc = cli_main(
            ["lint", str(hot_copy), "--rule", "TL003", "--json"]
        )
        assert rc == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["counts"]["active"] == 4

    def test_unknown_rule_exits_two(self, capsys):
        assert cli_main(["lint", "--rule", "TL999"]) == 2

    def test_default_paths_match_the_shipped_baseline(
        self, monkeypatch, capsys
    ):
        """No paths lints what CI lints, so no live entry reads stale."""
        monkeypatch.chdir(REPO_ROOT)
        assert cli_main(["lint"]) == 0
        out = capsys.readouterr().out
        assert "stale baseline entry" not in out
        assert "0 finding(s)" in out

    def test_update_baseline_then_clean(self, hot_copy, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        target = str(hot_copy)
        rc = cli_main(
            ["lint", target, "--rule", "TL003",
             "--baseline", str(baseline), "--update-baseline"]
        )
        assert rc == 0 and baseline.is_file()
        capsys.readouterr()
        rc = cli_main(
            ["lint", target, "--rule", "TL003",
             "--baseline", str(baseline)]
        )
        assert rc == 0
        assert "4 baselined" in capsys.readouterr().out


def test_module_name_derivation():
    module = ModuleSource("src/repro/uarch/core.py", "x = 1\n")
    assert module.module_name == "repro.uarch.core"
    assert module.in_package("repro.uarch")
    assert not module.in_package("repro.isa")


def test_symbol_index():
    module = ModuleSource(
        "m.py",
        "class A:\n"
        "    def f(self):\n"
        "        pass\n"
        "x = 1\n",
    )
    assert module.symbol_at(3) == "A.f"
    assert module.symbol_at(4) == "<module>"
