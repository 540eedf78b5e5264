"""Framework mechanics: suppressions, baseline, reporters, CLI, self-lint."""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

import pytest

from repro.lint.cli import main
from repro.lint.framework import (
    ModuleInfo,
    registered_passes,
    render_json,
    render_text,
    run_lint,
)

from ._fixtures import make_module

HOT_SNIPPET = "import numpy as np\nx = np.zeros(4)\n"
RULE = ("dtype-discipline",)


class TestSuppression:
    def test_disable_all_wildcard(self, lint):
        src = "import numpy as np\nx = np.zeros(4)  # reprolint: disable=all\n"
        result = lint(make_module(src, name="repro.codec.fixture"), RULE)
        assert result.ok and len(result.suppressed) == 1

    def test_disable_file(self, lint):
        src = (
            "# reprolint: disable-file=dtype-discipline -- fixture\n"
            "import numpy as np\n"
            "x = np.zeros(4)\n"
            "y = np.ones(2)\n"
        )
        result = lint(make_module(src, name="repro.codec.fixture"), RULE)
        assert result.ok and len(result.suppressed) == 2

    def test_wrong_rule_does_not_suppress(self, lint):
        src = (
            "import numpy as np\n"
            "x = np.zeros(4)  # reprolint: disable=epsilon-comparison\n"
        )
        result = lint(make_module(src, name="repro.codec.fixture"), RULE)
        assert not result.ok

    def test_other_line_does_not_suppress(self, lint):
        src = (
            "import numpy as np  # reprolint: disable=dtype-discipline\n"
            "x = np.zeros(4)\n"
        )
        result = lint(make_module(src, name="repro.codec.fixture"), RULE)
        assert not result.ok

    def test_def_line_comment_covers_decorator_findings(self, lint):
        # A finding inside a decorator argument anchors on the decorator
        # line; the conventional place for the suppression is the def.
        src = (
            "import numpy as np\n\n\n"
            "@register(np.zeros(4))\n"
            "def f(frame):  # reprolint: disable=dtype-discipline -- fixture\n"
            "    return frame\n"
        )
        result = lint(make_module(src, name="repro.codec.decorated"), RULE)
        assert result.ok and len(result.suppressed) == 1

    def test_decorator_line_comment_still_works(self, lint):
        src = (
            "import numpy as np\n\n\n"
            "@register(np.zeros(4))  # reprolint: disable=dtype-discipline -- fixture\n"
            "def f(frame):\n"
            "    return frame\n"
        )
        result = lint(make_module(src, name="repro.codec.decorated"), RULE)
        assert result.ok and len(result.suppressed) == 1

    def test_neighbouring_def_comment_does_not_leak(self, lint):
        src = (
            "import numpy as np\n\n\n"
            "def g():  # reprolint: disable=dtype-discipline -- elsewhere\n"
            "    return 0\n\n\n"
            "@register(np.zeros(4))\n"
            "def f(frame):\n"
            "    return frame\n"
        )
        result = lint(make_module(src, name="repro.codec.decorated"), RULE)
        assert not result.ok


class TestBaseline:
    def test_matching_entry_filters_finding(self, lint):
        mod = make_module(HOT_SNIPPET, name="repro.codec.fixture")
        baseline = Counter(
            {("dtype-discipline", "repro/codec/fixture.py", "x = np.zeros(4)"): 1}
        )
        result = lint(mod, RULE, baseline=baseline)
        assert result.ok and len(result.baselined) == 1

    def test_baseline_is_text_keyed_not_line_keyed(self, lint):
        # Shift the finding down two lines: the (rule, path, text) key
        # still matches, so line drift never invalidates the baseline.
        src = "import numpy as np\n\n\nx = np.zeros(4)\n"
        baseline = Counter(
            {("dtype-discipline", "repro/codec/fixture.py", "x = np.zeros(4)"): 1}
        )
        result = lint(
            make_module(src, name="repro.codec.fixture"), RULE, baseline=baseline
        )
        assert result.ok and len(result.baselined) == 1

    def test_stale_entry_reported_not_failing(self, lint):
        mod = make_module("import numpy as np\n", name="repro.codec.fixture")
        baseline = Counter(
            {("dtype-discipline", "repro/codec/fixture.py", "gone = np.zeros(4)"): 1}
        )
        result = lint(mod, RULE, baseline=baseline)
        assert result.ok
        assert result.stale_baseline == [
            ("dtype-discipline", "repro/codec/fixture.py", "gone = np.zeros(4)")
        ]

    def test_multiset_semantics(self, lint):
        # Two identical lines, one baseline entry: one baselined, one new.
        src = "import numpy as np\nx = np.zeros(4)\nx = np.zeros(4)\n"
        baseline = Counter(
            {("dtype-discipline", "repro/codec/fixture.py", "x = np.zeros(4)"): 1}
        )
        result = lint(
            make_module(src, name="repro.codec.fixture"), RULE, baseline=baseline
        )
        assert len(result.baselined) == 1 and len(result.new) == 1


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
        result = run_lint([str(bad)])
        assert [f.rule for f in result.new] == ["syntax-error"]

    def test_pycache_skipped_even_as_direct_path(self, tmp_path):
        # Directory walks already skip __pycache__; a stale .py handed to
        # the CLI as an explicit path must be skipped too.
        stale = tmp_path / "src" / "repro" / "__pycache__" / "fixture.py"
        stale.parent.mkdir(parents=True)
        stale.write_text(HOT_SNIPPET)
        result = run_lint([str(stale)])
        assert result.ok and not result.new


class TestReporters:
    def _result(self, lint):
        return lint(make_module(HOT_SNIPPET, name="repro.codec.fixture"), RULE)

    def test_text_reporter(self, lint):
        text = render_text(self._result(lint))
        assert "repro/codec/fixture.py:2:" in text
        assert "[dtype-discipline]" in text
        assert text.endswith("across 1 file(s)")
        assert text.splitlines()[-1].startswith("FAIL")

    def test_json_reporter_round_trips(self, lint):
        payload = json.loads(render_json(self._result(lint)))
        assert payload["ok"] is False
        assert payload["findings"][0]["rule"] == "dtype-discipline"
        assert payload["findings"][0]["line"] == 2


class TestCli:
    def _write_bad(self, tmp_path: Path) -> Path:
        bad = tmp_path / "src" / "repro" / "codec" / "fixture.py"
        bad.parent.mkdir(parents=True)
        bad.write_text('__all__ = ["x"]\n' + HOT_SNIPPET)
        return bad

    def test_exit_zero_on_clean_tree(self, tmp_path, capsys):
        good = tmp_path / "src" / "repro" / "codec" / "fixture.py"
        good.parent.mkdir(parents=True)
        good.write_text(
            '__all__ = ["x"]\nimport numpy as np\n'
            "x = np.zeros(4, dtype=np.float64)\n"
        )
        assert main([str(tmp_path), "--no-baseline"]) == 0
        assert capsys.readouterr().out.startswith("ok:")

    def test_exit_one_on_findings(self, tmp_path, capsys):
        self._write_bad(tmp_path)
        assert main([str(tmp_path), "--no-baseline"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_exit_two_on_unknown_rule(self, tmp_path, capsys):
        assert main([str(tmp_path), "--rules", "no-such-rule"]) == 2

    def test_write_then_read_baseline(self, tmp_path, capsys, monkeypatch):
        self._write_bad(tmp_path)
        baseline = tmp_path / "baseline.json"
        assert main([str(tmp_path), "--baseline", str(baseline),
                     "--write-baseline"]) == 0
        assert main([str(tmp_path), "--baseline", str(baseline)]) == 0
        capsys.readouterr()

    def test_editing_grandfathered_line_resurfaces_finding(self, tmp_path, capsys):
        # Baselines key on (rule, path, line text): touching the line
        # invalidates the grandfather and the finding comes back.
        bad = self._write_bad(tmp_path)
        baseline = tmp_path / "baseline.json"
        assert main([str(tmp_path), "--baseline", str(baseline),
                     "--write-baseline"]) == 0
        bad.write_text(bad.read_text().replace("np.zeros(4)", "np.zeros(8)"))
        assert main([str(tmp_path), "--baseline", str(baseline)]) == 1
        capsys.readouterr()

    def test_fail_stale_baseline_flag(self, tmp_path, capsys):
        # Fixing the grandfathered line leaves a dangling baseline entry:
        # tolerated by default, exit 1 under --fail-stale-baseline.
        bad = self._write_bad(tmp_path)
        baseline = tmp_path / "baseline.json"
        assert main([str(tmp_path), "--baseline", str(baseline),
                     "--write-baseline"]) == 0
        bad.write_text(
            '__all__ = ["x"]\nimport numpy as np\n'
            "x = np.zeros(4, dtype=np.float64)\n"
        )
        assert main([str(tmp_path), "--baseline", str(baseline)]) == 0
        assert main([str(tmp_path), "--baseline", str(baseline),
                     "--fail-stale-baseline"]) == 1
        assert "stale baseline" in capsys.readouterr().err

    def test_rules_subset_isolates_other_rules(self, tmp_path, capsys):
        self._write_bad(tmp_path)
        assert main([str(tmp_path), "--no-baseline",
                     "--rules", "epsilon-comparison"]) == 0
        assert main([str(tmp_path), "--no-baseline",
                     "--rules", "dtype-discipline"]) == 1
        capsys.readouterr()

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in (
            "dtype-discipline",
            "epsilon-comparison",
            "nondeterminism",
            "import-hygiene",
            "public-api",
            "fork-safety",
        ):
            assert rule in out

    def test_json_format(self, tmp_path, capsys):
        self._write_bad(tmp_path)
        assert main([str(tmp_path), "--no-baseline", "--format", "json"]) == 1
        assert json.loads(capsys.readouterr().out)["ok"] is False


class TestShippedTree:
    """The acceptance criterion: the shipped tree lints clean."""

    REPO = Path(__file__).resolve().parents[2]

    def test_all_five_rules_registered(self):
        assert set(registered_passes()) >= {
            "dtype-discipline",
            "epsilon-comparison",
            "nondeterminism",
            "import-hygiene",
            "public-api",
        }

    def test_whole_program_passes_registered(self):
        assert set(registered_passes()) >= {"fork-safety"}

    def test_src_and_tests_lint_clean_without_baseline(self):
        result = run_lint([str(self.REPO / "src"), str(self.REPO / "tests")])
        assert result.ok, render_text(result)

    def test_full_tree_lint_clean_with_baseline(self, monkeypatch):
        from repro.lint.framework import load_baseline

        # Baseline entries key on repo-relative paths, so lint from the
        # repo root exactly as scripts/check.sh does.
        monkeypatch.chdir(self.REPO)
        result = run_lint(
            ["src", "tests", "scripts", "benchmarks"],
            baseline=load_baseline(Path("reprolint-baseline.json")),
        )
        assert result.ok, render_text(result)
        assert not result.stale_baseline
