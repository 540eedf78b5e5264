"""Framework mechanics: module naming, reporter, CLI, self-lint."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.lint.cli import main
from repro.lint.framework import (
    ModuleInfo,
    registered_passes,
    render_text,
    run_lint,
)

from ._fixtures import make_module

#: A two-module layering violation: repro.core (layer 5) importing
#: repro.streaming (layer 7).
LOW_SRC = "from repro.streaming.fixture_hi import thing\n"
HIGH_SRC = "thing = 1\n"
RULE = ("import-hygiene",)


def _layering_modules():
    return [
        make_module(LOW_SRC, name="repro.core.fixture_lo"),
        make_module(HIGH_SRC, name="repro.streaming.fixture_hi"),
    ]


class TestModuleInfo:
    def test_name_derivation_under_src(self, tmp_path):
        path = tmp_path / "src" / "repro" / "codec" / "motion.py"
        path.parent.mkdir(parents=True)
        path.write_text("x = 1\n")
        assert ModuleInfo.from_path(path).name == "repro.codec.motion"

    def test_package_init_name(self, tmp_path):
        path = tmp_path / "src" / "repro" / "codec" / "__init__.py"
        path.parent.mkdir(parents=True)
        path.write_text("")
        assert ModuleInfo.from_path(path).name == "repro.codec"

    def test_scripts_have_no_name(self, tmp_path):
        path = tmp_path / "scripts" / "tool.py"
        path.parent.mkdir(parents=True)
        path.write_text("x = 1\n")
        assert ModuleInfo.from_path(path).name is None

    def test_syntax_error_becomes_finding(self, tmp_path):
        bad = tmp_path / "src" / "repro" / "broken.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("def f(:\n")
        result = run_lint([str(bad)], rule_names=list(RULE))
        assert [f.rule for f in result.findings] == ["syntax-error"]

    def test_pycache_skipped_even_as_direct_path(self, tmp_path):
        # Directory walks already skip __pycache__; a stale .py handed to
        # the CLI as an explicit path must be skipped too. Unskipped, it
        # would be a syntax-error finding.
        stale = tmp_path / "src" / "repro" / "__pycache__" / "fixture.py"
        stale.parent.mkdir(parents=True)
        stale.write_text("def f(:\n")
        result = run_lint([str(stale)])
        assert result.ok and result.modules == 0


class TestReporters:
    def test_text_reporter(self, lint):
        text = render_text(lint(_layering_modules(), RULE))
        assert "repro/core/fixture_lo.py:1:1:" in text
        assert "[import-hygiene]" in text
        assert text.endswith("1 finding(s) across 2 file(s)")
        assert text.splitlines()[-1].startswith("FAIL")

    def test_text_reporter_clean(self, lint):
        text = render_text(lint(make_module(HIGH_SRC), RULE))
        assert text == "ok: 0 finding(s) across 1 file(s)"


class TestCli:
    def _write(self, tmp_path: Path, low_src: str) -> None:
        for name, src in (
            ("core/fixture_lo.py", low_src),
            ("streaming/fixture_hi.py", HIGH_SRC),
        ):
            path = tmp_path / "src" / "repro" / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(src)

    def test_exit_zero_on_clean_tree(self, tmp_path, capsys):
        # streaming (layer 7) may import core (layer 5); not the reverse.
        self._write(tmp_path, "thing = 2\n")
        hi = tmp_path / "src" / "repro" / "streaming" / "fixture_hi.py"
        hi.write_text("from repro.core.fixture_lo import thing\n")
        assert main([str(tmp_path)]) == 0
        assert capsys.readouterr().out.startswith("ok:")

    def test_exit_one_on_findings(self, tmp_path, capsys):
        self._write(tmp_path, LOW_SRC)
        assert main([str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "layering violation" in out and "FAIL" in out

    def test_exit_two_on_unknown_rule(self, tmp_path, capsys):
        assert main([str(tmp_path), "--rules", "no-such-rule"]) == 2

    def test_rules_subset_isolates_other_rules(self, tmp_path, capsys):
        self._write(tmp_path, LOW_SRC)
        assert main([str(tmp_path), "--rules", "fork-safety"]) == 0
        assert main([str(tmp_path), "--rules", "import-hygiene"]) == 1
        capsys.readouterr()

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert [line.split(":")[0] for line in out.splitlines()] == [
            "fork-safety",
            "import-hygiene",
        ]

    @pytest.mark.parametrize(
        "flag",
        [
            "--format=json",
            "--baseline=b.json",
            "--no-baseline",
            "--write-baseline",
            "--fail-stale-baseline",
        ],
    )
    def test_removed_flags_are_usage_errors(self, flag, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main([str(tmp_path), flag])
        assert exc.value.code == 2


class TestShippedTree:
    """The acceptance criterion: the shipped tree lints clean."""

    REPO = Path(__file__).resolve().parents[2]

    def test_exactly_two_passes_registered(self):
        assert set(registered_passes()) == {"fork-safety", "import-hygiene"}

    def test_whole_program_passes_registered(self):
        assert set(registered_passes()) >= {"fork-safety"}

    def test_src_and_tests_lint_clean_without_baseline(self):
        # Absolute paths: module names must derive the same way as from
        # the repo root.
        result = run_lint([str(self.REPO / "src"), str(self.REPO / "tests")])
        assert result.ok, render_text(result)

    def test_full_tree_lint_clean(self, monkeypatch):
        # Lint from the repo root exactly as scripts/check.sh does.
        monkeypatch.chdir(self.REPO)
        result = run_lint(["src", "tests", "scripts", "benchmarks"])
        assert result.ok, render_text(result)
