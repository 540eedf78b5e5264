"""GOP-reuse benchmark: warp-and-refresh SR vs full per-frame SR.

For every game workload (G1-G10, Table I) this streams one GOP through
the GameStreamSR client twice — once with the paper's full per-frame
RoI-SR path and once with ``gop_reuse=True`` (warp the previous SR
output by the decoded motion field, re-run SR only on residual-dirty
blocks) — over one game object, so the server-stream memo renders the
stream and its HR ground truth once — and writes ``BENCH_gopsr.json`` at
the repo root. Run::

    PYTHONPATH=src python benchmarks/bench_gopsr.py          # full run
    PYTHONPATH=src python benchmarks/bench_gopsr.py --smoke  # seconds, CI

Reported per scene:

* **effective client upscale throughput**: frames/s through the modeled
  upscale stage (1000 / mean upscale ms) for both modes, and the reuse
  speedup — the headline table;
* **delta-PSNR over the GOP**: mean PSNR of the full path minus the
  reuse path against the shared native HR reference;
* the ``sr.reuse/*`` tile ledger (reused vs recomputed, refreshes,
  mean dirty fraction).

One scene additionally exports a Fig-13-style transient: the per-frame
PSNR series of both modes across the GOP, showing the I-frame refresh
and the bounded drift between refreshes.

Acceptance (full run): the best scene reaches >= 2x effective upscale
throughput, and no scene loses more than 0.5 dB mean PSNR to reuse.
"""

from __future__ import annotations

import argparse
import os
import platform
import sys
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from repro.core.roi_sizing import plan_roi_window  # noqa: E402
from repro.platform.device import get_device  # noqa: E402
from repro.render.games import GAME_TABLE, build_game  # noqa: E402
from repro.sr.pretrained import default_sr_model  # noqa: E402
from repro.sr.runner import SRRunner  # noqa: E402
from repro.streaming import (  # noqa: E402
    GameStreamServer,
    StreamGeometry,
    run_session,
)
from repro.streaming.client import GameStreamSRClient  # noqa: E402

from conftest import write_bench_json  # noqa: E402

DEVICE = "samsung_tab_s8"
TRANSIENT_GAME = "G3"


def _bench_scene(game_id, n_frames, gop_size, device, plan, runner):
    """One GOP of ``game_id`` through full-SR and GOP-reuse sessions."""
    geometry = StreamGeometry(eval_lr_height=64, eval_lr_width=112, lr_source="native")
    game = build_game(game_id)
    roi_side = plan.side_for_frame(geometry.eval_lr_height)

    def make_server():
        return GameStreamServer(game, geometry, roi_side=roi_side, gop_size=gop_size)

    results = {}
    for mode, reuse in (("full", False), ("reuse", True)):
        client = GameStreamSRClient(device, runner, modeled_roi_side=plan.side)
        results[mode] = run_session(
            make_server(),
            client,
            n_frames=n_frames,
            evaluate_quality=True,
            gop_reuse=reuse,
        )

    full, reuse = results["full"], results["reuse"]
    up_full = full.mean_upscale_ms()
    up_reuse = reuse.mean_upscale_ms()
    psnr_full = full.mean_psnr()
    psnr_reuse = reuse.mean_psnr()
    metrics = reuse.metrics.to_dict()

    def counter(name):
        return int(metrics.get(name, {}).get("value", 0))

    scene = {
        "upscale_ms_full": round(up_full, 4),
        "upscale_ms_reuse": round(up_reuse, 4),
        "upscale_fps_full": round(1000.0 / up_full, 1),
        "upscale_fps_reuse": round(1000.0 / up_reuse, 1),
        "upscale_speedup": round(up_full / up_reuse, 3),
        "mtp_full_ms": round(full.mean_mtp().total_ms, 3),
        "mtp_reuse_ms": round(reuse.mean_mtp().total_ms, 3),
        "psnr_full_db": round(psnr_full, 3),
        "psnr_reuse_db": round(psnr_reuse, 3),
        "delta_psnr_db": round(psnr_full - psnr_reuse, 3),
        "reuse_observability": {
            "tiles_reused": counter("sr.reuse/tiles_reused"),
            "tiles_recomputed_sr": counter("sr.reuse/tiles_recomputed_sr"),
            "tiles_recomputed_bilinear": counter(
                "sr.reuse/tiles_recomputed_bilinear"
            ),
            "refreshes": counter("sr.reuse/refreshes"),
            "mean_dirty_fraction": round(
                metrics.get("sr.reuse/dirty_fraction", {}).get("mean", 1.0), 4
            ),
            "mean_warp_ms": round(
                metrics.get("sr.reuse/warp_ms", {}).get("mean", 0.0), 4
            ),
        },
    }
    transient = {
        "psnr_full_db": [round(v, 3) for v in full.psnr_series()],
        "psnr_reuse_db": [round(v, 3) for v in reuse.psnr_series()],
        "frame_types": [r.frame_type for r in reuse.records],
    }
    return scene, transient


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="two scenes, tiny GOP, no acceptance criteria (CI smoke)",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        games = ["G1", TRANSIENT_GAME]
        n_frames, gop_size = 6, 6
    else:
        games = [game_id for game_id, _, _ in GAME_TABLE]
        n_frames, gop_size = 30, 30

    device = get_device(DEVICE)
    plan = plan_roi_window(device)
    runner = SRRunner(default_sr_model(profile="tiny"))

    scenes = {}
    transient = None
    for game_id in games:
        scene, trans = _bench_scene(
            game_id, n_frames, gop_size, device, plan, runner
        )
        scenes[game_id] = scene
        if game_id == TRANSIENT_GAME:
            transient = trans
        print(
            f"{game_id}: upscale {scene['upscale_fps_full']:7.1f} -> "
            f"{scene['upscale_fps_reuse']:7.1f} fps "
            f"({scene['upscale_speedup']:.2f}x)  "
            f"dPSNR {scene['delta_psnr_db']:+.3f} dB  "
            f"dirty {scene['reuse_observability']['mean_dirty_fraction']:.3f}",
            file=sys.stderr,
        )

    best = max(scenes, key=lambda g: scenes[g]["upscale_speedup"])
    worst_dpsnr = max(scenes, key=lambda g: scenes[g]["delta_psnr_db"])
    report = {
        "mode": "smoke" if args.smoke else "full",
        "machine": {
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
        "session": {
            "device": DEVICE,
            "design": "gamestreamsr",
            "modeled_geometry": "1280x720 -> 2560x1440",
            "n_frames": n_frames,
            "gop_size": gop_size,
        },
        "scenes": scenes,
        "best_speedup": {
            "game": best,
            "upscale_speedup": scenes[best]["upscale_speedup"],
        },
        "worst_delta_psnr": {
            "game": worst_dpsnr,
            "delta_psnr_db": scenes[worst_dpsnr]["delta_psnr_db"],
        },
        "transient": {"game": TRANSIENT_GAME, **(transient or {})},
    }

    failures = []
    if not args.smoke:
        # PR acceptance criteria — one low-motion scene must clear 2x
        # effective upscale throughput, and reuse quality must stay
        # within 0.5 dB of full per-frame SR on every scene.
        if scenes[best]["upscale_speedup"] < 2.0:
            failures.append(
                f"best scene upscale speedup "
                f"{scenes[best]['upscale_speedup']}x ({best}) < 2.0x"
            )
        for game_id, scene in scenes.items():
            if scene["delta_psnr_db"] > 0.5:
                failures.append(
                    f"{game_id} loses {scene['delta_psnr_db']} dB > 0.5 dB to reuse"
                )
    report["criteria_failures"] = failures

    write_bench_json("gopsr", report, smoke=args.smoke)
    if failures:
        print("CRITERIA FAILED: " + "; ".join(failures), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
