"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``games``
    List the ten game workloads (Table I).
``devices``
    Show device profiles and their RoI window plans (Fig. 7).
``render``
    Render frames of a game to PPM files (color) + PGM (depth).
``detect``
    Run RoI detection on a game frame and print the box.
``stream``
    Run a short streaming session and print the design comparison.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

__all__ = ["build_parser", "main"]


def _cmd_games(args: argparse.Namespace) -> int:
    from .analysis.tables import format_table
    from .render.games import GAME_TABLE, build_game

    rows = []
    for game_id, title, genre in GAME_TABLE:
        game = build_game(game_id)
        rows.append((game_id, title, genre, game.scene.n_triangles()))
    print(format_table(["id", "title", "genre", "triangles"], rows))
    return 0


def _cmd_devices(args: argparse.Namespace) -> int:
    from .analysis.experiments import roi_sizing_table
    from .analysis.tables import format_table

    rows = [
        (r["device"], r["ppi"], r["min_side"], r["max_side"], round(r["roi_latency_ms"], 2))
        for r in roi_sizing_table()
    ]
    print(format_table(["device", "ppi", "min RoI", "max RoI", "RoI SR ms"], rows))
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    from .render.games import build_game
    from .render.io import save_pgm, save_ppm

    game = build_game(args.game)
    out_dir = Path(args.out)
    for index in range(args.frames):
        frame = game.render_frame(index, args.width, args.height)
        color_path = save_ppm(frame.color, out_dir / f"{args.game}_{index:03d}.ppm")
        save_pgm(frame.depth, out_dir / f"{args.game}_{index:03d}_depth.pgm")
        print(f"wrote {color_path} (+ depth)")
    return 0


def _cmd_detect(args: argparse.Namespace) -> int:
    from .core.detector import RoIDetector
    from .render.games import build_game

    frame = build_game(args.game).render_frame(args.frame, args.width, args.height)
    detection = RoIDetector(args.side).detect(frame.depth)
    box = detection.box
    print(
        f"{args.game} frame {args.frame}: RoI {box.width}x{box.height} at "
        f"({box.x}, {box.y}); foreground threshold "
        f"{detection.preprocess.foreground_threshold:.3f}; layer "
        f"{detection.preprocess.selected_layer}"
    )
    return 0


def _cmd_stream(args: argparse.Namespace) -> int:
    from .core.roi_sizing import plan_roi_window
    from .platform.device import get_device
    from .render.games import build_game
    from .sr.pretrained import default_sr_model
    from .sr.runner import SRRunner
    from .streaming.client import GameStreamSRClient, NemoClient
    from .streaming.frames import StreamGeometry
    from .streaming.server import GameStreamServer
    from .streaming.session import run_session

    device = get_device(args.device)
    plan = plan_roi_window(device)
    runner = SRRunner(default_sr_model(profile=args.profile))
    geometry = StreamGeometry(eval_lr_height=64, eval_lr_width=112, lr_source="native")

    sr_backend = None
    dispatch = None
    if args.sr_backend is not None:
        from .sr.backends import build_backend

        sr_backend = build_backend(
            args.sr_backend,
            profile=args.profile,
            # The default arch reuses the session's already-built runner.
            runner=runner if args.sr_backend == "edsr" else None,
        )
    if args.dispatch:
        from .platform.calibration import REALTIME_DEADLINE_MS
        from .sr.backends import build_backend
        from .sr.dispatch import DifficultyDispatcher

        budget = args.dispatch_budget_ms
        if budget is None:
            # Half the 60 FPS frame budget: tight enough that the greedy
            # router actually spills easy tiles onto the small net / GPU.
            budget = REALTIME_DEADLINE_MS / 2
        dispatch = DifficultyDispatcher(
            [
                build_backend("edsr", profile=args.profile, runner=runner),
                build_backend("quicksrnet", profile=args.profile),
                build_backend("bilinear_gpu"),
            ],
            budget_ms=budget,
        )

    for label, client, roi in (
        ("gamestreamsr", GameStreamSRClient(device, runner, modeled_roi_side=plan.side),
         plan.side_for_frame(64)),
        ("nemo", NemoClient(device, runner), None),
    ):
        # The execution knobs apply only to the designs that carry them
        # (the session's apply_client_knobs validates combinations);
        # NEMO's codec-guided reconstruction has its own reuse story.
        knobs = dict(
            gop_reuse=args.gop_reuse and hasattr(client, "gop_reuse"),
            sr_backend=sr_backend if hasattr(client, "sr_backend") else None,
            dispatch=dispatch if hasattr(client, "dispatch") else None,
        )
        if args.scenario is not None:
            knobs["scenario"] = args.scenario
            knobs["link_deadline_ms"] = args.net_budget_ms
            knobs["skip_dropped"] = True
        if args.abr:
            from .streaming.abr import build_abr

            # ABR subsumes the static execution knobs: drop them and let
            # the ladder drive quality/GOP/RoI/backend per frame.
            knobs = {
                k: v
                for k, v in knobs.items()
                if k not in ("gop_reuse", "sr_backend", "dispatch")
            }
            knobs["abr"] = build_abr(
                plan.side,
                plan.min_side,
                720,
                runner=runner if hasattr(client, "set_sr_backend") else None,
                profile=args.profile,
                net_budget_ms=args.net_budget_ms,
            )
        server = GameStreamServer(
            build_game(args.game), geometry, roi_side=roi, gop_size=args.frames
        )
        result = run_session(server, client, n_frames=args.frames, **knobs)
        extras = ""
        if args.scenario is not None:
            extras = (
                f" | conformance {result.conformance_rate():.2f}"
                f" | drops {result.drop_rate():.2f}"
            )
        print(
            f"{label:14s} ref {result.mean_upscale_ms(True):7.1f} ms | "
            f"non-ref {result.mean_upscale_ms(False):6.2f} ms | "
            f"MTP {result.mean_mtp().total_ms:6.1f} ms | "
            f"energy {result.gop_weighted_energy(60).total:6.1f} mJ/frame | "
            f"60 FPS: {result.realtime_conformant()}" + extras
        )
        if args.trace_json:
            from .observability import validate_session_trace

            out_dir = Path(args.trace_json)
            validate_session_trace(result.to_trace_dict())
            path = result.export_trace_json(out_dir / f"{args.game}_{label}_trace.json")
            print(f"  trace -> {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="GameStreamSR reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("games", help="list the ten game workloads").set_defaults(fn=_cmd_games)
    sub.add_parser("devices", help="device profiles + RoI plans").set_defaults(fn=_cmd_devices)

    render = sub.add_parser("render", help="render frames to PPM/PGM files")
    render.add_argument("game", help="game id, e.g. G3")
    render.add_argument("--frames", type=int, default=1)
    render.add_argument("--width", type=int, default=224)
    render.add_argument("--height", type=int, default=128)
    render.add_argument("--out", default="renders")
    render.set_defaults(fn=_cmd_render)

    detect = sub.add_parser("detect", help="run RoI detection on a frame")
    detect.add_argument("game")
    detect.add_argument("--frame", type=int, default=0)
    detect.add_argument("--width", type=int, default=224)
    detect.add_argument("--height", type=int, default=128)
    detect.add_argument("--side", type=int, default=54)
    detect.set_defaults(fn=_cmd_detect)

    stream = sub.add_parser("stream", help="compare designs on a short session")
    stream.add_argument("game", nargs="?", default="G3")
    stream.add_argument("--device", default="samsung_tab_s8")
    stream.add_argument("--frames", type=int, default=8)
    stream.add_argument("--profile", default="tiny", help="SR model profile")
    stream.add_argument(
        "--gop-reuse",
        action="store_true",
        help="warp-and-refresh SR reuse across the GOP for designs that "
        "support it (re-runs the DNN only on residual-dirty tiles)",
    )
    stream.add_argument(
        "--sr-backend",
        default=None,
        metavar="NAME",
        help="model-zoo SR backend for the RoI pass (edsr, edsr_int8, "
        "fsrcnn, quicksrnet, bicubic_cpu, bilinear_gpu)",
    )
    stream.add_argument(
        "--dispatch",
        action="store_true",
        help="difficulty-aware tile dispatch over edsr + quicksrnet + "
        "bilinear_gpu under a per-frame latency budget",
    )
    stream.add_argument(
        "--dispatch-budget-ms",
        type=float,
        default=None,
        help="per-engine latency budget for --dispatch "
        "(default: half the 60 FPS frame budget)",
    )
    stream.add_argument(
        "--scenario",
        default=None,
        metavar="NAME",
        help="stream over a trace-driven time-varying link: wifi_stable, "
        "wifi_congested, lte_walk, lte_drive, 5g_mmwave, or "
        "synthetic:<seed> (enables skip-dropped transport)",
    )
    stream.add_argument(
        "--abr",
        action="store_true",
        help="close the bitrate control loop: co-adapt codec quality, GOP "
        "structure, RoI size, and SR backend to the observed link "
        "(subsumes --gop-reuse/--sr-backend/--dispatch)",
    )
    stream.add_argument(
        "--net-budget-ms",
        type=float,
        default=100.0,
        help="per-frame delivery budget for --scenario/--abr (frames past "
        "it are dropped; the ABR controller backs off approaching it)",
    )
    stream.add_argument(
        "--trace-json",
        default=None,
        metavar="DIR",
        help="export a schema-validated per-frame trace JSON per design into DIR",
    )
    stream.set_defaults(fn=_cmd_stream)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
