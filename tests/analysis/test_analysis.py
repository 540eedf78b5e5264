"""Tables and light experiment drivers."""

from __future__ import annotations

import pytest

from repro.analysis.experiments import (
    input_resolution_sweep,
    roi_sizing_table,
    sota_timeline,
)
from repro.analysis.tables import fmt, format_paper_vs_measured, format_table


class TestTables:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [(1, 2.5), ("x", "long-cell")])
        lines = text.splitlines()
        assert all(len(line) == len(lines[0]) for line in lines)
        assert "long-cell" in text

    def test_title_included(self):
        assert format_table(["a"], [(1,)], title="Fig. 99").startswith("Fig. 99")

    def test_row_width_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [(1,)])

    def test_paper_vs_measured(self):
        text = format_paper_vs_measured([("speedup", "13x", 13.3)])
        assert "paper" in text and "measured" in text and "13x" in text

    def test_fmt(self):
        assert fmt(True) == "yes"
        assert fmt(1234.0) == "1,234"
        assert fmt(0.1234) == "0.12"
        assert fmt(float("nan")) == "-"
        assert fmt("word") == "word"


class TestLightExperiments:
    def test_roi_sizing_table(self):
        rows = roi_sizing_table()
        assert {r["device"] for r in rows} == {"samsung_tab_s8", "pixel_7_pro"}
        for row in rows:
            assert row["min_side"] <= row["chosen_side"] <= row["max_side"]
            assert row["roi_latency_ms"] <= 16.66 + 1e-9

    def test_input_resolution_sweep_shape(self):
        rows = input_resolution_sweep()
        labels = [r["label"] for r in rows]
        assert labels == ["240p", "360p", "480p", "720p", "1080p"]
        # Fig. 3b shape: only the smallest input is real-time; latency grows.
        assert rows[0]["meets_deadline"] and not rows[-1]["meets_deadline"]
        latencies = [r["latency_ms"] for r in rows]
        assert latencies == sorted(latencies)

    def test_sota_timeline_staircase(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        rows = sota_timeline(n_gops=2, gop_size=3)
        assert len(rows) == 6
        refs = [r for r in rows if r["type"] == "I"]
        nonrefs = [r for r in rows if r["type"] == "P"]
        assert len(refs) == 2
        # Fig. 2 shape: every frame misses 16.66 ms, references massively.
        assert all(not r["meets_deadline"] for r in rows)
        assert min(r["upscale_ms"] for r in refs) > 5 * max(
            r["upscale_ms"] for r in nonrefs
        )
