"""Metric declarations; ``BENCHMARK.json`` is generated from them.

Regenerate the manifest with ``python3 e2ebench/run.py --write-manifest``.
"""

from __future__ import annotations

from typing import Dict, List

from tracing import LAYERS
from workloads import WHY

#: End-to-end metrics: name -> (unit, better, bound). The bound is the
#: share of the parent's median a metric may worsen by before a change
#: counts as a regression. Simulated metrics get at least three times
#: the quartile spread seen over ten seeds; host timings get the largest
#: bound allowed (see README.md).
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "frames_per_s": ("frames/s", "higher", 0.25),
    "frame_ms_p50": ("ms", "lower", 0.25),
    "frame_ms_p90": ("ms", "lower", 0.25),
    "peak_rss_mb": ("MiB", "lower", 0.2),
    "ok_frac": ("ratio", "higher", 0.01),
    "mtp_modeled_ms": ("ms", "lower", 0.15),
    "energy_modeled_mj": ("mJ/frame", "lower", 0.2),
    "psnr_db": ("dB", "higher", 0.05),
    "psnr_gain_db": ("dB", "higher", 0.1),
    "lpips": ("score", "lower", 0.05),
    "conformance_rate": ("ratio", "higher", 0.25),
}

#: Dispatch backends of the design_matrix pool, best first.
DISPATCH_BACKENDS = ("edsr", "quicksrnet", "bilinear_gpu")
#: Program stage spans the outside timings are cross-checked against.
CROSS_CHECKED_STAGES = ("render", "roi_detect", "encode", "decode", "upscale")


def per_layer() -> Dict[str, tuple]:
    """Per-layer metrics of a traced run: name -> (unit, better)."""
    out: Dict[str, tuple] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = ("count", "lower")
        out[f"{layer}.busy_ms_per_frame"] = ("ms/frame", "lower")
        out[f"{layer}.self_ms_per_frame"] = ("ms/frame", "lower")
    out["render.tris_per_s"] = ("tris/s", "higher")
    out["codec.bytes_per_frame"] = ("B/frame", "lower")
    out["sr.reuse.dirty_frac"] = ("ratio", "lower")
    for backend in DISPATCH_BACKENDS:
        out[f"sr.dispatch.tiles.{backend}"] = (
            "count",
            "higher" if backend == DISPATCH_BACKENDS[0] else "lower",
        )
    out["network.drops"] = ("count", "lower")
    out["network.retransmissions"] = ("count", "lower")
    out["streaming.abr.rung_changes"] = ("count", "lower")
    out["cache.hits"] = ("count", "higher")
    out["cache.misses"] = ("count", "lower")
    for stage in CROSS_CHECKED_STAGES:
        out[f"xcheck.{stage}.disagreement"] = ("ratio", "lower")
    out["trace.fps_ratio"] = ("ratio", "higher")
    return out


def manifest(run_seconds: int) -> dict:
    """The ``BENCHMARK.json`` document."""
    end_to_end: List[dict] = [
        {"name": name, "unit": unit, "better": better, "bound": bound}
        for name, (unit, better, bound) in END_TO_END.items()
    ]
    return {
        "command": ["python3", "e2ebench/run.py"],
        "paths": ["e2ebench"],
        "run_seconds": run_seconds,
        "workloads": [{"name": name, "why": why} for name, why in WHY.items()],
        "end_to_end": end_to_end,
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, (unit, better) in per_layer().items()
        ],
    }
