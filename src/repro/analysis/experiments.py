"""Shared experiment drivers behind the benchmark suite.

One function per paper artifact (see the DESIGN.md per-experiment index);
each returns plain data structures and caches its heavy parts under
``.cache/`` so re-running a bench is fast and deterministic. The bench
files in ``benchmarks/`` are thin formatting wrappers around these.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Sequence

from ..cache import load_or_build
from ..core.config import RoIConfig
from ..core.roi_sizing import RoIWindowPlan, plan_roi_window
from ..metrics.psnr import psnr as psnr_metric
from ..platform import calibration as cal
from ..platform import latency as lat
from ..platform.device import DeviceProfile, get_device
from ..render.games import GAME_TABLE, GameWorkload, build_game
from ..sr.interpolate import bilinear
from ..sr.pretrained import default_sr_model
from ..sr.runner import SRRunner
from ..streaming.client import (
    BilinearClient,
    GameStreamSRClient,
    NemoClient,
    SRIntegratedDecoderClient,
    StreamingClient,
)
from ..streaming.frames import StreamGeometry
from ..streaming.server import GameStreamServer
from ..streaming.session import SessionResult, run_session
from .parallel import run_session_matrix, session_cache_key

__all__ = [
    "ALL_GAME_IDS",
    "DEVICE_NAMES",
    "perf_geometry",
    "quality_geometry",
    "performance_sessions",
    "quality_sessions",
    "sota_timeline",
    "upscale_factor_tradeoff",
    "input_resolution_sweep",
    "roi_sizing_table",
    "bandwidth_comparison",
    "default_runner",
    "PERF_FRAMES",
    "QUALITY_FRAMES",
    "QUALITY_GOP",
    "STREAM_QUALITY",
    "FactorPoint",
]

ALL_GAME_IDS = [game_id for game_id, _, _ in GAME_TABLE]
DEVICE_NAMES = ("samsung_tab_s8", "pixel_7_pro")

#: Short sessions suffice for latency/energy (deterministic per frame
#: type); GOP-60 aggregates are synthesized via SessionResult helpers.
PERF_FRAMES = 16
#: Quality sessions simulate real GOPs at the evaluation geometry.
QUALITY_FRAMES = 36
QUALITY_GOP = 36
STREAM_QUALITY = 70

@lru_cache(maxsize=None)
def default_runner() -> SRRunner:
    """The shared SR inference runner (trains/caches weights at first use)."""
    return SRRunner(default_sr_model())


@lru_cache(maxsize=None)
def _game(game_id: str) -> GameWorkload:
    """One game per id per process. The server-stream memo's render key
    holds the scene by identity, so only cells streaming the same game
    object share its renders (:mod:`repro.streaming.server`)."""
    return build_game(game_id)


def perf_geometry() -> StreamGeometry:
    """Small native-LR geometry for latency/energy sessions (pixels are
    irrelevant to the modeled timings)."""
    return StreamGeometry(
        eval_lr_height=64, eval_lr_width=112, lr_source="native"
    )


def quality_geometry() -> StreamGeometry:
    """Anti-aliased evaluation geometry for the quality experiments."""
    return StreamGeometry(eval_lr_height=128, eval_lr_width=224, lr_source="downsample")


def _make_client(
    design: str, device: DeviceProfile, plan: RoIWindowPlan
) -> StreamingClient:
    runner = default_runner()
    if design == "gamestreamsr":
        return GameStreamSRClient(device, runner, modeled_roi_side=plan.side)
    if design == "nemo":
        return NemoClient(device, runner)
    if design == "bilinear":
        return BilinearClient(device)
    if design == "sr_integrated_decoder":
        return SRIntegratedDecoderClient(device, runner)
    raise ValueError(f"unknown design {design!r}")


def _run_one_session(
    game_id: str,
    device_name: str,
    design: str,
    geometry: StreamGeometry,
    n_frames: int,
    gop_size: int,
    quality: int,
    evaluate_quality: bool,
    with_lpips: bool = False,
    lpips_stride: int = 2,
    roi_config: Optional[RoIConfig] = None,
) -> SessionResult:
    device = get_device(device_name)
    plan = plan_roi_window(device)
    needs_roi = design in ("gamestreamsr", "sr_integrated_decoder")
    server = GameStreamServer(
        _game(game_id),
        geometry,
        roi_side=plan.side_for_frame(geometry.eval_lr_height) if needs_roi else None,
        gop_size=gop_size,
        quality=quality,
        roi_config=roi_config or RoIConfig(),
    )
    client = _make_client(design, device, plan)
    return run_session(
        server,
        client,
        n_frames=n_frames,
        evaluate_quality=evaluate_quality,
        with_lpips=with_lpips,
        lpips_stride=lpips_stride,
    )


def _cached_session(kind: str, **kwargs) -> SessionResult:
    def build() -> SessionResult:
        geometry = perf_geometry() if kind == "perf" else quality_geometry()
        return _run_one_session(
            geometry=geometry,
            evaluate_quality=(kind == "quality"),
            **kwargs,
        )

    return load_or_build(
        f"session-{kind}", session_cache_key(kind, kwargs), build, subdir="sessions"
    )


def performance_sessions(
    device_name: str,
    game_ids: Sequence[str] = ("G1", "G3", "G5", "G7", "G10"),
    designs: Sequence[str] = ("gamestreamsr", "nemo"),
    n_frames: int = PERF_FRAMES,
    workers: int | None = None,
) -> Dict[str, Dict[str, SessionResult]]:
    """Latency/energy sessions per design per game (cached).

    Uncached cells of the (design, game) matrix are built in parallel
    across ``workers`` processes (see :mod:`repro.analysis.parallel`);
    the artifacts are identical to what the serial path would produce.
    Cells are listed game by game, so a serial build streams each game's
    designs back to back and renders each frame once.
    """
    tasks = [
        (
            "perf",
            dict(
                game_id=game_id,
                device_name=device_name,
                design=design,
                n_frames=n_frames,
                gop_size=n_frames,
                quality=STREAM_QUALITY,
            ),
        )
        for game_id in game_ids
        for design in designs
    ]
    run_session_matrix(tasks, workers=workers)
    out: Dict[str, Dict[str, SessionResult]] = {design: {} for design in designs}
    for kind, kwargs in tasks:
        out[kwargs["design"]][kwargs["game_id"]] = _cached_session(kind, **kwargs)
    return out


def quality_sessions(
    game_id: str,
    device_name: str = "samsung_tab_s8",
    designs: Sequence[str] = ("gamestreamsr", "nemo"),
    n_frames: int = QUALITY_FRAMES,
    gop_size: int = QUALITY_GOP,
    with_lpips: bool = True,
    workers: int | None = None,
) -> Dict[str, SessionResult]:
    """Pixel-true quality sessions per design for one game (cached).

    Like :func:`performance_sessions`, missing designs are built in
    parallel before the results are read back from the cache.
    """
    tasks = [
        (
            "quality",
            dict(
                game_id=game_id,
                device_name=device_name,
                design=design,
                n_frames=n_frames,
                gop_size=gop_size,
                quality=STREAM_QUALITY,
                with_lpips=with_lpips,
            ),
        )
        for design in designs
    ]
    run_session_matrix(tasks, workers=workers)
    return {
        design: _cached_session(
            "quality",
            game_id=game_id,
            device_name=device_name,
            design=design,
            n_frames=n_frames,
            gop_size=gop_size,
            quality=STREAM_QUALITY,
            with_lpips=with_lpips,
        )
        for design in designs
    }


# ----------------------------------------------------------------------
# Fig. 2 — SOTA upscaling timeline


def sota_timeline(
    device_name: str = "samsung_tab_s8", n_gops: int = 3, gop_size: int = 8
) -> List[dict]:
    """Per-frame SOTA upscale latencies over consecutive GOPs.

    Modeled latencies depend only on frame type, so short GOPs render the
    same staircase the paper's Fig. 2 shows for 60-frame GOPs.
    """
    session = _cached_session(
        "perf",
        game_id="G3",
        device_name=device_name,
        design="nemo",
        n_frames=n_gops * gop_size,
        gop_size=gop_size,
        quality=STREAM_QUALITY,
    )
    return [
        {
            "frame": r.index,
            "type": r.frame_type,
            "upscale_ms": r.upscale_ms,
            "meets_deadline": r.upscale_ms <= cal.REALTIME_DEADLINE_MS,
        }
        for r in session.records
    ]


# ----------------------------------------------------------------------
# Fig. 3 — latency/quality vs upscale factor; latency vs input resolution


@dataclass(frozen=True)
class FactorPoint:
    factor: float
    input_height: int
    input_width: int
    npu_latency_ms: float
    bilinear_psnr_db: float


def upscale_factor_tradeoff(
    device_name: str = "samsung_tab_s8",
    factors: Sequence[int] = (2, 3, 4, 6),
    target: tuple[int, int] = (256, 448),
) -> List[FactorPoint]:
    """SR latency and attainable quality for different upscale factors.

    Latency is the modeled NPU cost of an EDSR at the required input size
    for a 1440p target; quality is measured on real pixels (G3 frame) by
    downsampling the HR render by each factor and upscaling back.
    """

    def build() -> List[FactorPoint]:
        device = get_device(device_name)
        hr = build_game("G3").render_frame(0, target[1], target[0]).color
        points = []
        for factor in factors:
            in_h, in_w = target[0] // factor, target[1] // factor
            modeled_in_px = (2560 // factor) * (1440 // factor)
            latency = lat.npu_sr_latency_ms(modeled_in_px, device)
            lr = bilinear(hr, in_h, in_w)
            up = bilinear(lr, target[0], target[1])
            points.append(
                FactorPoint(factor, in_h, in_w, latency, psnr_metric(hr, up))
            )
        return points

    # "v" changes whenever the frames do (v2: live renders, not uint8 replays).
    config = {
        "device": device_name, "factors": list(factors), "target": target, "v": 2
    }
    return load_or_build("fig3a", config, build, subdir="experiments")


def input_resolution_sweep(
    device_name: str = "samsung_tab_s8",
    resolutions: Sequence[tuple[str, int, int]] = (
        ("240p", 320, 240),
        ("360p", 640, 360),
        ("480p", 854, 480),
        ("720p", 1280, 720),
        ("1080p", 1920, 1080),
    ),
) -> List[dict]:
    """Fig. 3b: modeled x2-SR latency for different input resolutions."""
    device = get_device(device_name)
    return [
        {
            "label": label,
            "pixels": w * h,
            "latency_ms": lat.npu_sr_latency_ms(w * h, device),
            "meets_deadline": lat.npu_sr_latency_ms(w * h, device)
            <= cal.REALTIME_DEADLINE_MS,
        }
        for label, w, h in resolutions
    ]


# ----------------------------------------------------------------------
# Fig. 7 — RoI sizing


def roi_sizing_table() -> List[dict]:
    """Foveal minimum and device maximum RoI sides for both devices."""
    rows = []
    for name in DEVICE_NAMES:
        device = get_device(name)
        plan = plan_roi_window(device)
        rows.append(
            {
                "device": name,
                "ppi": device.display.ppi,
                "viewing_cm": device.viewing_distance_cm,
                "min_side": plan.min_side,
                "max_side": plan.max_side,
                "chosen_side": plan.side,
                "meets_foveal": plan.meets_foveal_minimum,
                "roi_latency_ms": lat.npu_sr_latency_ms(plan.side**2, device),
            }
        )
    return rows


# ----------------------------------------------------------------------
# bandwidth claim (Sec. IV-B2): 720p + RoI vs native-2K streaming


def bandwidth_comparison(game_id: str = "G3", n_frames: int = 12) -> dict:
    """Measured bitrate of streaming LR + RoI metadata vs native HR."""

    def build() -> dict:
        from ..codec.encoder import VideoEncoder
        from ..streaming.frames import ROI_METADATA_BYTES

        game = build_game(game_id)
        lr_frames = []
        hr_frames = []
        for i in range(n_frames):
            hr = game.render_frame(i, 448, 256).color
            hr_frames.append(hr)
            lr_frames.append(hr.reshape(128, 2, 224, 2, 3).mean(axis=(1, 3)))
        enc_lr = VideoEncoder(gop_size=n_frames, quality=STREAM_QUALITY)
        enc_hr = VideoEncoder(gop_size=n_frames, quality=STREAM_QUALITY)
        lr_bytes = sum(f.size_bytes + ROI_METADATA_BYTES for f in enc_lr.encode_sequence(lr_frames))
        hr_bytes = sum(f.size_bytes for f in enc_hr.encode_sequence(hr_frames))
        return {
            "lr_bytes_per_frame": lr_bytes / n_frames,
            "hr_bytes_per_frame": hr_bytes / n_frames,
            "bandwidth_reduction_pct": 100.0 * (1.0 - lr_bytes / hr_bytes),
        }

    # "v" changes whenever the frames do (v2: live renders, not uint8 replays).
    config = {"game": game_id, "n": n_frames, "q": STREAM_QUALITY, "v": 2}
    return load_or_build("bandwidth", config, build, subdir="experiments")
