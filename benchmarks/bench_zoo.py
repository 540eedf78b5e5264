"""Model-zoo benchmark: quality-vs-latency frontier + difficulty dispatch.

For each scene this streams the same session through the GameStreamSR
client once per zoo backend (EDSR reference, int8 EDSR, FSRCNN,
QuickSRNet, GPU bilinear) and once with the difficulty-aware dispatcher
(EDSR + QuickSRNet + GPU bilinear under half the 60 FPS frame budget),
all over one game object, so the server-stream memo renders the stream
and its HR ground truth once, and writes ``BENCH_zoo.json`` at the repo
root. Run::

    PYTHONPATH=src python benchmarks/bench_zoo.py          # full run
    PYTHONPATH=src python benchmarks/bench_zoo.py --smoke  # seconds, CI

Reported per scene:

* **frontier**: modeled upscale latency (and fps), mean PSNR, and mean
  per-frame energy for every backend — the quality-vs-latency trade
  curve the zoo spans;
* **dispatch**: the dispatcher's point against the EDSR-everywhere
  reference (speedup, delta-PSNR) plus the ``sr.dispatch/*`` routing
  ledger (tiles per backend, overflow).

Acceptance (full run): every NPU zoo member undercuts EDSR's modeled
upscale latency, and on at least one scene the dispatcher reaches
>= 1.5x upscale-latency reduction vs EDSR-everywhere while losing
<= 0.5 dB mean PSNR.
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
from repro.platform.calibration import REALTIME_DEADLINE_MS  # noqa: E402
from repro.platform.device import get_device  # noqa: E402
from repro.sr.backends import build_backend  # noqa: E402
from repro.sr.dispatch import DifficultyDispatcher  # noqa: E402
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
PROFILE = "tiny"
#: Frontier members, best quality first (EDSR is the paper reference).
FRONTIER = ("edsr", "edsr_int8", "fsrcnn", "quicksrnet", "bilinear_gpu")
#: Dispatcher pool and per-engine budget (half the 60 FPS frame budget:
#: tight enough that the greedy router must spill easy tiles).
DISPATCH_POOL = ("edsr", "quicksrnet", "bilinear_gpu")
DISPATCH_BUDGET_MS = REALTIME_DEADLINE_MS / 2


def _bench_scene(game_id, n_frames, gop_size, device, plan, zoo):
    """One scene: a session per frontier backend plus the dispatcher."""
    from repro.render.games import build_game

    geometry = StreamGeometry(eval_lr_height=64, eval_lr_width=112, lr_source="native")
    game = build_game(game_id)
    roi_side = plan.side_for_frame(geometry.eval_lr_height)

    def make_server():
        return GameStreamServer(game, geometry, roi_side=roi_side, gop_size=gop_size)

    def session(**knobs):
        client = GameStreamSRClient(
            device, zoo["edsr"].runner, modeled_roi_side=plan.side
        )
        return run_session(
            make_server(), client, n_frames=n_frames,
            evaluate_quality=True, **knobs,
        )

    frontier = {}
    for name in FRONTIER:
        result = session(sr_backend=zoo[name])
        frontier[name] = {
            "upscale_ms": round(result.mean_upscale_ms(), 4),
            "upscale_fps": round(1000.0 / result.mean_upscale_ms(), 1),
            "psnr_db": round(result.mean_psnr(), 3),
            "energy_mj": round(result.mean_energy().total, 3),
        }
    edsr = frontier["edsr"]
    for name, point in frontier.items():
        point["delta_psnr_db"] = round(edsr["psnr_db"] - point["psnr_db"], 3)

    dispatcher = DifficultyDispatcher(
        [zoo[name] for name in DISPATCH_POOL], budget_ms=DISPATCH_BUDGET_MS
    )
    routed = session(dispatch=dispatcher)
    metrics = routed.metrics.to_dict()

    def counter(name):
        return int(metrics.get(name, {}).get("value", 0))

    dispatch = {
        "pool": list(DISPATCH_POOL),
        "budget_ms": round(DISPATCH_BUDGET_MS, 4),
        "upscale_ms": round(routed.mean_upscale_ms(), 4),
        "upscale_fps": round(1000.0 / routed.mean_upscale_ms(), 1),
        "psnr_db": round(routed.mean_psnr(), 3),
        "energy_mj": round(routed.mean_energy().total, 3),
        "speedup_vs_edsr": round(
            edsr["upscale_ms"] / routed.mean_upscale_ms(), 3
        ),
        "delta_psnr_db": round(edsr["psnr_db"] - routed.mean_psnr(), 3),
        "observability": {
            "frames": counter("sr.dispatch/frames"),
            "tiles_total": counter("sr.dispatch/tiles_total"),
            "overflow_tiles": counter("sr.dispatch/overflow_tiles"),
            "tiles_per_backend": {
                name: counter(f"sr.dispatch/backend_tiles/{name}")
                for name in DISPATCH_POOL
            },
            "mean_upscale_ms": round(
                metrics.get("sr.dispatch/upscale_ms", {}).get("mean", 0.0), 4
            ),
        },
    }
    return {"frontier": frontier, "dispatch": dispatch}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="two scenes, short GOP, no acceptance criteria (CI smoke)",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        games = ["G1", "G3"]
        n_frames, gop_size = 6, 6
    else:
        games = ["G1", "G3", "G5", "G7", "G9"]
        n_frames, gop_size = 18, 18

    device = get_device(DEVICE)
    plan = plan_roi_window(device)
    runner = SRRunner(default_sr_model(profile=PROFILE))
    zoo = {
        name: build_backend(
            name, profile=PROFILE, runner=runner if name == "edsr" else None
        )
        for name in FRONTIER
    }

    scenes = {}
    for game_id in games:
        scene = _bench_scene(game_id, n_frames, gop_size, device, plan, zoo)
        scenes[game_id] = scene
        d = scene["dispatch"]
        print(
            f"{game_id}: edsr {scene['frontier']['edsr']['upscale_ms']:7.3f} ms"
            f" -> dispatch {d['upscale_ms']:7.3f} ms"
            f" ({d['speedup_vs_edsr']:.2f}x)  dPSNR {d['delta_psnr_db']:+.3f} dB"
            f"  tiles {d['observability']['tiles_per_backend']}",
            file=sys.stderr,
        )

    best = max(scenes, key=lambda g: scenes[g]["dispatch"]["speedup_vs_edsr"])
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
            "profile": PROFILE,
            "modeled_geometry": "1280x720 -> 2560x1440",
            "n_frames": n_frames,
            "gop_size": gop_size,
            "frontier_backends": list(FRONTIER),
        },
        "scenes": scenes,
        "best_dispatch": {
            "game": best,
            "speedup_vs_edsr": scenes[best]["dispatch"]["speedup_vs_edsr"],
            "delta_psnr_db": scenes[best]["dispatch"]["delta_psnr_db"],
        },
    }

    failures = []
    if not args.smoke:
        # PR acceptance criteria — the zoo must actually span a frontier
        # (every NPU member undercuts the EDSR reference latency), and
        # the dispatcher must buy >= 1.5x modeled upscale latency on at
        # least one scene for <= 0.5 dB of mean PSNR.
        for game_id, scene in scenes.items():
            edsr_ms = scene["frontier"]["edsr"]["upscale_ms"]
            for name in ("edsr_int8", "fsrcnn", "quicksrnet"):
                if scene["frontier"][name]["upscale_ms"] >= edsr_ms:
                    failures.append(
                        f"{game_id}: {name} does not undercut EDSR latency"
                    )
        hit = [
            g for g, s in scenes.items()
            if s["dispatch"]["speedup_vs_edsr"] >= 1.5
            and s["dispatch"]["delta_psnr_db"] <= 0.5
        ]
        if not hit:
            failures.append(
                "no scene reaches >= 1.5x dispatch speedup at <= 0.5 dB "
                "PSNR cost"
            )
    report["criteria_failures"] = failures

    write_bench_json("zoo", report, smoke=args.smoke)
    if failures:
        print("CRITERIA FAILED: " + "; ".join(failures), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
