"""Network-scenario benchmark: static knob configs vs the ABR loop.

For each trace-driven link scenario (canned cellular/WiFi traces from
:mod:`repro.network.trace`) this streams the same session through the
GameStreamSR client once per *static* knob configuration (pinned codec
quality / GOP length / SR backend, mirroring the ABR ladder's rungs)
and once with the :class:`~repro.streaming.abr.ABRController` closing
the loop, and writes ``BENCH_netscen.json`` at the repo root. Run::

    PYTHONPATH=src python benchmarks/bench_netscen.py          # full run
    PYTHONPATH=src python benchmarks/bench_netscen.py --smoke  # seconds, CI

Reported per scenario x arm:

* **conformance**: fraction of frames delivered inside the per-frame
  network budget *and* upscaled inside the 16.66 ms realtime deadline
  (:meth:`SessionResult.conformance_rate` — skipped reference-lost
  frames fail too, so GOP recovery speed is priced in);
* **mtp**: motion-to-photon mean / p50 / p99 across the session;
* **transport**: drop rate, retransmissions, mean delivered bitrate;
* **host cost**: ``wall_s``, the arm's host seconds (building its knobs
  and streaming), and ``render_calls``, how many frames it rendered. All
  arms stream one G3 object, so an arm renders only the frames the
  server-stream memo does not already hold under that game, geometry
  and fps; each static arm's knobs start a new encoded stream.

Acceptance (full run): on at least one bursty cellular trace the ABR
arm strictly beats *every* static configuration on conformance — the
co-adaptation claim the PR makes.
"""

from __future__ import annotations

import argparse
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from repro.core.roi_sizing import plan_roi_window  # noqa: E402
from repro.network import SCENARIO_NAMES  # noqa: E402
from repro.platform.device import get_device  # noqa: E402
from repro.sr.backends import build_backend  # noqa: E402
from repro.sr.pretrained import default_sr_model  # noqa: E402
from repro.sr.runner import SRRunner  # noqa: E402
from repro.streaming import (  # noqa: E402
    GameStreamServer,
    StreamGeometry,
    build_abr,
    run_session,
)
from repro.streaming.client import GameStreamSRClient  # noqa: E402

from conftest import write_bench_json  # noqa: E402

DEVICE = "samsung_tab_s8"
PROFILE = "tiny"
GAME = "G3"
NET_BUDGET_MS = 100.0
#: Traces where the burst-loss + outage structure is the point; the
#: acceptance criterion requires the ABR arm to win on one of these.
BURSTY_TRACES = ("lte_walk", "lte_drive")
#: Static arms pin the knobs the ABR ladder co-adapts (quality, GOP
#: length, SR backend) to one rung's operating point for the whole
#: session. Static RoI stays at the device plan — exactly what a
#: non-adaptive GameStreamSR deployment would ship.
STATIC_ARMS = (
    ("static_hq", dict(quality=75, gop_size=60, backend="edsr")),
    ("static_default", dict(quality=60, gop_size=60, backend="edsr")),
    ("static_balanced", dict(quality=45, gop_size=30, backend="quicksrnet")),
    ("static_low", dict(quality=32, gop_size=15, backend="quicksrnet")),
)


def _run_arm(arm, cfg, scenario, n_frames, game, device, plan, runner):
    geometry = StreamGeometry(eval_lr_height=64, eval_lr_width=112, lr_source="native")
    client = GameStreamSRClient(device, runner, modeled_roi_side=plan.side)
    knobs = dict(
        scenario=scenario,
        link_deadline_ms=NET_BUDGET_MS,
        skip_dropped=True,
    )
    if cfg is None:  # the ABR arm
        server = GameStreamServer(
            game, geometry, roi_side=plan.side_for_frame(64), gop_size=60
        )
        knobs["abr"] = build_abr(
            plan.side, plan.min_side, 720,
            runner=runner, profile=PROFILE, net_budget_ms=NET_BUDGET_MS,
        )
    else:
        server = GameStreamServer(
            game, geometry,
            roi_side=plan.side_for_frame(64), gop_size=cfg["gop_size"],
        )
        server.encoder.quality = cfg["quality"]
        knobs["sr_backend"] = build_backend(
            cfg["backend"], profile=PROFILE,
            runner=runner if cfg["backend"] == "edsr" else None,
        )
    result = run_session(server, client, n_frames=n_frames, **knobs)

    mtps = [r.mtp.total_ms for r in result.records]
    metrics = result.metrics.to_dict()
    point = {
        "conformance": round(result.conformance_rate(), 4),
        "drop_rate": round(result.drop_rate(), 4),
        "mtp_mean_ms": round(float(np.mean(mtps)), 3),
        "mtp_p50_ms": round(float(np.percentile(mtps, 50)), 3),
        "mtp_p99_ms": round(float(np.percentile(mtps, 99)), 3),
        "bitrate_mbps": round(result.mean_bitrate_mbps(), 3),
        "retransmissions": result.total_retransmissions(),
    }
    if cfg is not None:
        point["knobs"] = dict(cfg)
    else:
        abr = knobs["abr"]
        point["abr"] = {
            "mean_quality": round(
                metrics.get("abr/quality", {}).get("mean", 0.0), 2
            ),
            "downshifts": abr.n_downshifts,
            "upshifts": abr.n_upshifts,
            "idr_requests": abr.n_idr_requests,
            "final_rung": abr.rung.name,
            "rung_frames": {
                rung.name: int(
                    metrics.get(f"abr/frames_{rung.name}", {}).get("value", 0)
                )
                for rung in abr.ladder
            },
        }
    return point


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="two scenarios, a dozen frames, no acceptance criteria (CI smoke)",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        scenarios = ["wifi_stable", "lte_drive"]
        n_frames = 12
    else:
        scenarios = list(SCENARIO_NAMES)
        # 300 frames = 5 s of 60 FPS session time: spans lte_drive's
        # first outage segment (1.5-3.5 s) plus the recovery after it.
        n_frames = 300

    from repro.render.games import build_game

    device = get_device(DEVICE)
    plan = plan_roi_window(device)
    runner = SRRunner(default_sr_model(profile=PROFILE))
    game = build_game(GAME)
    renders = []
    render_frame = game.render_frame

    def counting_render_frame(*args, **kwargs):
        renders.append(args)
        return render_frame(*args, **kwargs)

    game.render_frame = counting_render_frame
    arms = list(STATIC_ARMS) + [("abr", None)]

    results = {}
    for scenario in scenarios:
        results[scenario] = {}
        for arm, cfg in arms:
            rendered_before = len(renders)
            start = time.perf_counter()
            point = _run_arm(
                arm, cfg, scenario, n_frames, game, device, plan, runner
            )
            point["wall_s"] = round(time.perf_counter() - start, 3)
            point["render_calls"] = len(renders) - rendered_before
            results[scenario][arm] = point
            print(
                f"{scenario:14s} {arm:16s} conf {point['conformance']:.3f}"
                f"  drops {point['drop_rate']:.3f}"
                f"  mtp {point['mtp_mean_ms']:6.1f} ms"
                f"  {point['bitrate_mbps']:5.1f} Mbps"
                f"  {point['wall_s']:6.2f} s  {point['render_calls']:3d} renders",
                file=sys.stderr,
            )

    abr_wins = [
        s for s in scenarios
        if all(
            results[s]["abr"]["conformance"] > results[s][arm]["conformance"]
            for arm, _ in STATIC_ARMS
        )
    ]
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
            "game": GAME,
            "n_frames": n_frames,
            "net_budget_ms": NET_BUDGET_MS,
            "arms": [arm for arm, _ in arms],
        },
        "scenarios": results,
        "abr_wins_conformance_on": abr_wins,
    }

    failures = []
    if not args.smoke:
        # PR acceptance criterion: co-adaptation must pay off where the
        # link is bursty — ABR strictly above every static arm on
        # conformance for at least one cellular trace.
        if not any(s in abr_wins for s in BURSTY_TRACES):
            failures.append(
                "ABR does not beat every static arm on conformance for any "
                f"bursty cellular trace ({', '.join(BURSTY_TRACES)})"
            )
    report["criteria_failures"] = failures

    write_bench_json("netscen", report, smoke=args.smoke)
    if failures:
        print("CRITERIA FAILED: " + "; ".join(failures), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
