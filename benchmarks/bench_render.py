"""Rasterizer trajectory benchmark: a game's render call vs the per-triangle loop.

Renders every game scene through ``GameWorkload.render_frame``, the call
the streaming server makes (its scene keeps a static draw list and
transforms only animated objects per frame, then runs the batched
rasterizer ``repro.render.rasterizer``), and the same world through the
frozen per-triangle reference the batched pass replaced
(``tests/render/_legacy_rasterizer.py``). It checks that color and depth
are byte-identical and writes per-scene wall ms/frame for both to
``BENCH_render.json`` at the repo root. Run::

    PYTHONPATH=src python benchmarks/bench_render.py          # full run
    PYTHONPATH=src python benchmarks/bench_render.py --smoke  # seconds, CI

The full run renders frames 0, 15 and 30 of G1-G10 at the perf (112x64)
and HR quality (448x256) geometries, best of three, and asserts the
acceptance criteria: byte-identical output everywhere, >= 4x at 112x64
and >= 1.5x at 448x256 over all scenes. Smoke mode renders one frame per
scene, once, with the byte-identity assertion but no speedup floors, and
writes ``BENCH_render.smoke.json`` instead.
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
sys.path.insert(0, str(REPO_ROOT))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from repro.render.games import GAME_TABLE, GameWorkload, build_game  # noqa: E402

from conftest import write_bench_json  # noqa: E402
from tests.render._legacy_rasterizer import render as legacy_render  # noqa: E402

GEOMETRIES = ((112, 64), (448, 256))
#: Minimum all-scene speedup per geometry in the full run.
SPEEDUP_FLOORS = {"112x64": 4.0, "448x256": 1.5}
FPS = 60.0


def _legacy_frames(game: GameWorkload, frames) -> list[tuple]:
    """Legacy ``render`` arguments of each frame: world objects, camera, light, background."""
    scene = game.scene
    calls = []
    for frame in frames:
        t = frame / FPS
        world = [(obj.world_mesh(t), obj.material) for obj in scene.objects]
        calls.append((world, scene.camera_at(t), scene.light, scene.background))
    return calls


def _best_ms(render_one, n_frames: int, repeats: int) -> float:
    """Best-of-N wall ms per frame of ``render_one(i)`` over ``n_frames`` frames."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for i in range(n_frames):
            render_one(i)
        best = min(best, time.perf_counter() - t0)
    return 1000.0 * best / n_frames


def _identical(game: GameWorkload, frames, legacy: list, width: int, height: int) -> bool:
    for frame, (world, camera, light, background) in zip(frames, legacy):
        new = game.render_frame(frame, width, height, FPS)
        old = legacy_render(
            world, camera, width, height, light=light, background=background
        )
        if new.color.tobytes() != old.color.tobytes():
            return False
        if new.depth.tobytes() != old.depth.tobytes():
            return False
    return True


def _bench_geometry(
    scenes: dict, frames, width: int, height: int, repeats: int
) -> dict:
    per_scene = {}
    for game_id, (game, legacy) in scenes.items():

        def legacy_one(i):
            world, camera, light, background = legacy[i]
            legacy_render(world, camera, width, height, light=light, background=background)

        legacy_ms = _best_ms(legacy_one, len(frames), repeats)
        batched_ms = _best_ms(
            lambda i: game.render_frame(frames[i], width, height, FPS),
            len(frames),
            repeats,
        )
        per_scene[game_id] = {
            "legacy_ms_per_frame": round(legacy_ms, 2),
            "batched_ms_per_frame": round(batched_ms, 2),
            "speedup": round(legacy_ms / batched_ms, 2),
            "byte_identical": _identical(game, frames, legacy, width, height),
        }
    legacy_total = sum(s["legacy_ms_per_frame"] for s in per_scene.values())
    batched_total = sum(s["batched_ms_per_frame"] for s in per_scene.values())
    return {
        "scenes": per_scene,
        "legacy_ms_per_frame": round(legacy_total / len(per_scene), 2),
        "batched_ms_per_frame": round(batched_total / len(per_scene), 2),
        "speedup": round(legacy_total / batched_total, 2),
        "byte_identical": all(s["byte_identical"] for s in per_scene.values()),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="one frame per scene, one repeat; byte-identity assert only",
    )
    args = parser.parse_args(argv)

    frames = (0,) if args.smoke else (0, 15, 30)
    repeats = 1 if args.smoke else 3
    games = [build_game(row[0]) for row in GAME_TABLE]
    scenes = {game.game_id: (game, _legacy_frames(game, frames)) for game in games}
    geometries = {
        f"{w}x{h}": _bench_geometry(scenes, frames, w, h, repeats)
        for w, h in GEOMETRIES
    }

    report = {
        "mode": "smoke" if args.smoke else "full",
        "machine": {
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
        "frames": list(frames),
        "byte_identical": all(g["byte_identical"] for g in geometries.values()),
        "geometries": geometries,
    }

    failures = []
    if not report["byte_identical"]:
        failures.append("batched output differs from the per-triangle reference")
    if not args.smoke:
        for name, floor in SPEEDUP_FLOORS.items():
            speedup = geometries[name]["speedup"]
            if speedup < floor:
                failures.append(f"{name} speedup {speedup}x < {floor}x")
    report["criteria_failures"] = failures

    write_bench_json("render", report, smoke=args.smoke)
    if failures:
        print("CRITERIA FAILED: " + "; ".join(failures), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
