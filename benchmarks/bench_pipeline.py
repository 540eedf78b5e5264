"""Modeled pipeline schedule: sustained end-to-end FPS vs the serial loop.

Streams the G3 reference session (720p modeled geometry, GameStreamSR
client, GOP 60) once through :func:`repro.streaming.run_session` and
writes ``BENCH_pipeline.json`` at the repo root. Run::

    PYTHONPATH=src python benchmarks/bench_pipeline.py          # full run
    PYTHONPATH=src python benchmarks/bench_pipeline.py --smoke  # seconds, CI

The paper's 16.66 ms deadline assumes the server encodes frame ``n+1``
while the client upscales frame ``n``. The session's per-frame *modeled*
MTP spans — the calibrated platform model all paper numbers come from —
are scheduled through the depth-bounded two-stage pipeline
(:func:`repro.streaming.modeled_pipeline_schedule`). Deterministic and
host-independent; the >= 1.7x acceptance criterion is asserted at depth
2, and the serial baseline must equal ``1000 / mean MTP``. A depth sweep
documents when ``depth > 2`` helps (it absorbs the I-frame encode spike
at each GOP head).
"""

from __future__ import annotations

import argparse
import math
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
from repro.render.games import build_game  # noqa: E402
from repro.sr.pretrained import default_sr_model  # noqa: E402
from repro.sr.runner import SRRunner  # noqa: E402
from repro.streaming import (  # noqa: E402
    GameStreamServer,
    StreamGeometry,
    modeled_pipeline_schedule,
    run_session,
)
from repro.streaming.client import GameStreamSRClient  # noqa: E402

from conftest import write_bench_json  # noqa: E402

DEVICE = "samsung_tab_s8"
GAME = "G3"


def _make_session(gop_size: int):
    """Fresh (server, client) pair for the G3 720p-modeled session."""
    device = get_device(DEVICE)
    plan = plan_roi_window(device)
    runner = SRRunner(default_sr_model(profile="tiny"))
    geometry = StreamGeometry(eval_lr_height=64, eval_lr_width=112, lr_source="native")
    server = GameStreamServer(
        build_game(GAME),
        geometry,
        roi_side=plan.side_for_frame(geometry.eval_lr_height),
        gop_size=gop_size,
    )
    client = GameStreamSRClient(device, runner, modeled_roi_side=plan.side)
    return server, client


def _bench_session(n_frames: int, gop_size: int, depth: int) -> dict:
    server, client = _make_session(gop_size)
    serial = run_session(server, client, n_frames=n_frames)

    traces = serial.frame_traces()
    sweep = {}
    for d in (1, 2, 4, 8):
        sched = modeled_pipeline_schedule(traces, depth=d)
        sweep[str(d)] = {
            "fps": round(sched.pipelined_fps, 2),
            "speedup": round(sched.speedup, 3),
        }
    sched = modeled_pipeline_schedule(traces, depth=depth)
    mean_mtp_ms = serial.mean_mtp().total_ms
    return {
        "session": {
            "game": GAME,
            "device": DEVICE,
            "design": "gamestreamsr",
            "modeled_geometry": "1280x720 -> 2560x1440",
            "n_frames": n_frames,
            "gop_size": gop_size,
            "depth": depth,
        },
        "modeled": {
            "mean_mtp_ms": round(mean_mtp_ms, 2),
            "mtp_fps": round(1000.0 / mean_mtp_ms, 2),
            "serial_fps": round(sched.serial_fps, 2),
            "serial_is_mtp": math.isclose(
                sched.serial_fps, 1000.0 / mean_mtp_ms, rel_tol=1e-9
            ),
            "pipelined_fps": round(sched.pipelined_fps, 2),
            "speedup": round(sched.speedup, 3),
            "server_busy_ms_per_frame": round(sched.server_busy_ms / n_frames, 2),
            "client_busy_ms_per_frame": round(sched.client_busy_ms / n_frames, 2),
            "depth_sweep": sweep,
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny session, no speedup criteria (CI smoke)",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        sessions = _bench_session(n_frames=6, gop_size=3, depth=2)
    else:
        sessions = _bench_session(n_frames=60, gop_size=60, depth=2)

    report = {
        "mode": "smoke" if args.smoke else "full",
        "machine": {
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
        "sessions": sessions,
    }

    failures = []
    modeled = sessions["modeled"]
    if not modeled["serial_is_mtp"]:
        failures.append(
            f"serial baseline {modeled['serial_fps']} FPS != 1000 / mean MTP "
            f"({modeled['mtp_fps']} FPS)"
        )
    if not args.smoke:
        # PR acceptance criteria — sustained end-to-end FPS on the G3
        # 720p-modeled reference session at depth 2.
        if sessions["modeled"]["speedup"] < 1.7:
            failures.append(
                f"modeled pipeline speedup {sessions['modeled']['speedup']}x < 1.7x"
            )
    report["criteria_failures"] = failures

    write_bench_json("pipeline", report, smoke=args.smoke)
    if failures:
        print("CRITERIA FAILED: " + "; ".join(failures), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
