"""CLI commands and PPM/PGM image export."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.render.io import save_pgm, save_ppm


class TestImageIO:
    def test_ppm_roundtrip(self, tmp_path, rng):
        image = rng.uniform(size=(12, 16, 3))
        path = save_ppm(image, tmp_path / "frame.ppm")
        data = path.read_bytes()
        header = b"P6\n16 12\n255\n"
        assert data.startswith(header)
        loaded = np.frombuffer(data[len(header):], dtype=np.uint8).reshape(12, 16, 3) / 255.0
        assert np.abs(loaded - image).max() <= 0.5 / 255 + 1e-9

    def test_pgm_header(self, tmp_path):
        path = save_pgm(np.zeros((4, 6)), tmp_path / "depth.pgm")
        data = path.read_bytes()
        assert data.startswith(b"P5\n6 4\n255\n")
        assert len(data) == len(b"P5\n6 4\n255\n") + 24

    def test_shape_validation(self, tmp_path):
        with pytest.raises(ValueError):
            save_ppm(np.zeros((4, 4)), tmp_path / "x.ppm")
        with pytest.raises(ValueError):
            save_pgm(np.zeros((4, 4, 3)), tmp_path / "x.pgm")

    def test_creates_directories(self, tmp_path):
        path = save_ppm(np.zeros((2, 2, 3)), tmp_path / "a" / "b" / "x.ppm")
        assert path.exists()


class TestCLI:
    def test_games_command(self, capsys):
        assert main(["games"]) == 0
        out = capsys.readouterr().out
        assert "G10" in out and "Racing" in out

    def test_devices_command(self, capsys):
        assert main(["devices"]) == 0
        out = capsys.readouterr().out
        assert "samsung_tab_s8" in out and "pixel_7_pro" in out

    def test_detect_command(self, capsys):
        assert main(["detect", "G9", "--width", "96", "--height", "64", "--side", "24"]) == 0
        assert "RoI 24x24" in capsys.readouterr().out

    def test_render_command(self, tmp_path, capsys):
        code = main(
            ["render", "G9", "--frames", "1", "--width", "64", "--height", "48",
             "--out", str(tmp_path)]
        )
        assert code == 0
        assert (tmp_path / "G9_000.ppm").exists()
        assert (tmp_path / "G9_000_depth.pgm").exists()

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["stream", "G3", "--frames", "0"], "--frames"),
            (["render", "G3", "--frames", "0"], "--frames"),
            (["render", "G3", "--width", "-4"], "--width"),
            (["render", "G3", "--height", "x"], "--height"),
            (["detect", "G3", "--side", "0"], "--side"),
            (["detect", "G3", "--frame", "-1"], "--frame"),
            (["render", "G99"], "game"),
            (["detect", "G99"], "game"),
            (["stream", "G99"], "game"),
            (["stream", "G3", "--device", "nope"], "--device"),
            (["render", "G3", "--width", "1", "--height", "1"], "--width"),
            (["detect", "G3", "--height", "1"], "--height"),
        ],
        ids=[
            "stream-frames", "render-frames", "render-width", "render-height",
            "detect-side", "detect-frame", "render-game", "detect-game",
            "stream-game", "stream-device", "render-viewport",
            "detect-viewport",
        ],
    )
    def test_bad_input_is_a_usage_error(self, argv, flag, tmp_path, capsys):
        """Bad counts, sizes and game ids fail at parse time: exit 2 and
        one ``error:`` line naming the argument, no traceback, no output."""
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(tmp_path)] if argv[0] == "render" else argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert len(errors) == 1 and f"argument {flag}" in errors[0]
        assert "Traceback" not in captured.err
        assert not any(tmp_path.iterdir())

    @pytest.mark.slow
    def test_stream_command(self, capsys, tiny_model):
        assert main(["stream", "G9", "--frames", "4", "--profile", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "gamestreamsr" in out and "nemo" in out

    @pytest.mark.slow
    def test_stream_trace_export(self, tmp_path, capsys, tiny_model):
        import json

        from repro.observability import validate_session_trace

        code = main(
            ["stream", "G9", "--frames", "4", "--profile", "tiny",
             "--trace-json", str(tmp_path)]
        )
        assert code == 0
        for design in ("gamestreamsr", "nemo"):
            path = tmp_path / f"G9_{design}_trace.json"
            assert path.exists()
            data = json.loads(path.read_text())
            validate_session_trace(data)
            assert data["session"]["design"] == design
            assert data["session"]["n_frames"] == 4
            assert len(data["frames"]) == 4
            assert data["metrics"]["frames_total"]["value"] == 4

    @pytest.mark.parametrize(
        "flags, span, key",
        [
            (["--gop-reuse"], "upscale", "reuse"),
            (["--sr-backend", "bilinear_gpu"], "upscale", "sr_backend"),
            (["--scenario", "wifi_congested"], "network", "scenario"),
        ],
        ids=["gop-reuse", "sr-backend", "scenario"],
    )
    def test_stream_flag_takes_effect(
        self, flags, span, key, tmp_path, capsys, tiny_model
    ):
        """Each execution flag must reach the session: its trace records
        the knob's metadata on every gamestreamsr frame."""
        import json

        code = main(
            ["stream", "G9", "--frames", "2", "--profile", "tiny",
             "--trace-json", str(tmp_path), *flags]
        )
        assert code == 0
        capsys.readouterr()
        data = json.loads((tmp_path / "G9_gamestreamsr_trace.json").read_text())
        for frame in data["frames"]:
            # The first span of that name: the server's network span
            # precedes the client's RX span.
            record = next(s for s in frame["spans"] if s["name"] == span)
            assert key in record["metadata"]

    def test_stream_abr_without_scenario_rejected(self, capsys, tiny_model):
        assert main(["stream", "G9", "--frames", "2", "--profile", "tiny",
                     "--abr"]) == 2
        assert "abr= needs a link" in capsys.readouterr().err
