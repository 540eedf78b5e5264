"""Ablation A2 — RoI window size sweep (latency vs quality).

Sweeps the RoI window across the paper's feasible range (foveal minimum
~172 px to beyond the real-time maximum ~300 px on the modeled 720p
frame) and reports the modeled NPU latency next to the measured frame
PSNR of the hybrid upscale on a real decoded G3 frame. Larger windows
buy quality until the 16.66 ms wall.
"""

from __future__ import annotations

from repro.analysis.experiments import default_runner
from repro.analysis.tables import format_table
from repro.codec.decoder import VideoDecoder
from repro.codec.encoder import VideoEncoder
from repro.core.detector import RoIDetector
from repro.core.upscaler import RoIAssistedUpscaler
from repro.metrics.psnr import psnr
from repro.platform.calibration import REALTIME_DEADLINE_MS
from repro.platform.device import samsung_tab_s8
from repro.platform.latency import npu_sr_latency_ms
from repro.render.games import build_game

from conftest import emit_report

# Modeled window sides on the 720p frame; eval sides scale by 128/720.
MODELED_SIDES = (100, 172, 240, 300, 400, 560)


def test_ablation_roi_size_sweep(benchmark):
    device = samsung_tab_s8()
    game = build_game("G3")
    hr = game.render_frame(5, 448, 256).color
    depth = game.render_frame(5, 224, 128).depth
    lr = hr.reshape(128, 2, 224, 2, 3).mean(axis=(1, 3))
    decoded = VideoDecoder().decode_frame(
        VideoEncoder(gop_size=1, quality=70).encode_frame(lr)
    ).rgb
    upscaler = RoIAssistedUpscaler(default_runner())

    rows = []
    psnrs = []
    for modeled_side in MODELED_SIDES:
        eval_side = max(8, round(modeled_side * 128 / 720))
        roi = RoIDetector(eval_side).detect(depth).box
        result = upscaler.upscale(decoded, roi)
        quality = psnr(hr, result.frame)
        latency = npu_sr_latency_ms(modeled_side**2, device)
        psnrs.append(quality)
        rows.append(
            (
                modeled_side,
                eval_side,
                round(latency, 1),
                latency <= REALTIME_DEADLINE_MS,
                round(quality, 3),
            )
        )
    emit_report(
        "ablation_roi_size",
        format_table(
            ["modeled side px", "eval side px", "NPU ms", "real-time", "frame PSNR dB"],
            rows,
            title="A2: RoI window size sweep (G3, S8 Tab model)",
        ),
    )

    # Quality grows with window size; real-time holds only up to ~300.
    assert psnrs[-1] > psnrs[0]
    realtime = [r[3] for r in rows]
    assert realtime[:4] == [True, True, True, True]
    assert realtime[-1] is False

    roi = RoIDetector(54).detect(depth).box
    benchmark(lambda: upscaler.upscale(decoded, roi))
