"""Hot-path trajectory benchmark: conv2d, im2col, tiled SR, LPIPS, bilinear, end-to-end session.

Measures the fast inference path (float32, graph-free forwards,
strided-view im2col, batched tiles, tuned allocator) against the frozen pre-PR
reference implementation in ``_legacy_inference.py`` and writes the
numbers to ``BENCH_hotpath.json`` at the repo root so the speedup
trajectory survives across PRs. Run::

    PYTHONPATH=src python benchmarks/bench_hotpath.py          # full run
    PYTHONPATH=src python benchmarks/bench_hotpath.py --smoke  # seconds, CI

The full run uses the experiment-profile EDSR on a rendered 256x448 G3
frame and asserts the PR's acceptance criteria (fast ``upscale_tiled``
>= 3x over the legacy per-tile loop; float32 within >= 60 dB PSNR of
float64). Smoke mode swaps in a tiny untrained model and a small frame to
exercise every code path quickly (no speedup assertions — tiny shapes
don't amortize anything) and writes ``BENCH_hotpath.smoke.json`` instead.

The ``lpips`` row times the banded float64 LPIPS kernel against the
frozen scipy implementation and the frozen whole-map batched kernel
(``lpips`` and ``batched_lpips`` in ``tests/metrics/_legacy_lpips.py``)
on the same frame, and records each kernel's tracemalloc peak for one
call. The full run also scores frame 0 of all ten games at the 112x64
stream and 448x256 HR geometries and records each game's largest
|delta| against scipy under ``games``. Both modes fail if the kernel
disagrees with scipy by more than 1e-9 on any scored frame, or differs
at all from the whole-map kernel; the full run also requires >= 3x over
scipy, >= 1.15x over the whole-map kernel and at most a third of its
peak memory.

The ``bilinear`` row times the separable ``bilinear`` against the frozen
four-tap copy (``_legacy_codec.legacy_bilinear``) on 2x upscales of
64x112x3 and 128x224x3 and on two odd 2-D shapes. Both modes fail unless
the outputs are ``np.array_equal``; the full run also requires >= 1.5x
at 64x112x3.

The ``im2col`` row times ``conv2d_forward`` (one strided-view copy per
row chunk) against the frozen per-tap conv
(``_legacy_inference.tap_loop_conv2d_forward``) at the LPIPS scale-0 shape
and the EDSR 64-channel shape, in both modes (each call is tens of ms).
Both modes fail unless the two outputs are ``np.array_equal``; the full
run also requires >= 1.5x on the LPIPS shape.

The legacy baseline is timed in a pristine subprocess with
``REPRO_NO_MALLOC_TUNING=1`` so it runs under glibc's untouched (dynamic)
malloc defaults, exactly as the original code did — calling ``mallopt``
to "reset" thresholds in-process would disable glibc's dynamic threshold
adaptation and unfairly slow the baseline down.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from repro.neural import EDSR, Tensor, no_grad  # noqa: E402
from repro.neural.functional import conv2d_forward  # noqa: E402
from repro.neural.layers import Conv2d  # noqa: E402
from repro.neural.tensor import set_inference_dtype  # noqa: E402
from repro.metrics.lpips import lpips  # noqa: E402
from repro.metrics.psnr import psnr  # noqa: E402
from repro.sr.interpolate import bilinear  # noqa: E402
from repro.sr.runner import SRRunner  # noqa: E402

from _legacy_codec import legacy_bilinear  # noqa: E402
from _legacy_inference import legacy_upscale_tiled, tap_loop_conv2d_forward  # noqa: E402
from conftest import write_bench_json  # noqa: E402
from tests.metrics._legacy_lpips import batched_lpips  # noqa: E402
from tests.metrics._legacy_lpips import lpips as legacy_lpips  # noqa: E402

#: Largest |LPIPS difference| allowed between the batched kernel and the
#: frozen scipy reference.
LPIPS_MAX_ABS_DELTA = 1e-9


def _time(fn, repeats: int = 3) -> float:
    """Best-of-N wall time in seconds (fn is called once to warm up)."""
    fn()
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _time_alternating(fns, repeats: int) -> list:
    """Best-of-N wall time in seconds of each of ``fns``, called in turn
    so that a burst of load on the machine slows all of them alike."""
    for fn in fns:
        fn()
    best = [float("inf")] * len(fns)
    for _ in range(repeats):
        for i, fn in enumerate(fns):
            t0 = time.perf_counter()
            fn()
            best[i] = min(best[i], time.perf_counter() - t0)
    return best


def _bench_conv2d(channels: int, height: int, width: int, repeats: int) -> dict:
    conv = Conv2d(channels, channels, 3, rng=np.random.default_rng(0))
    x = np.random.default_rng(1).uniform(size=(1, channels, height, width))

    def run(dtype) -> None:
        with no_grad(dtype=dtype):
            conv(Tensor(x))

    f64 = _time(lambda: run(np.float64), repeats)
    f32 = _time(lambda: run(np.float32), repeats)
    return {
        "shape": [1, channels, height, width],
        "f64_ms": round(f64 * 1e3, 3),
        "f32_ms": round(f32 * 1e3, 3),
        "f32_speedup": round(f64 / f32, 2),
    }


#: (name, input shape, weight shape, padding, dtype) of the im2col row.
IM2COL_SHAPES = (
    ("lpips_scale0", (6, 1, 262, 454), (10, 1, 7, 7), 0, np.float64),
    ("edsr_64ch", (1, 64, 128, 224), (64, 64, 3, 3), 1, np.float32),
)


def _bench_im2col(repeats: int) -> dict:
    """Frozen per-tap conv vs the strided-view ``conv2d_forward``."""
    rng = np.random.default_rng(2)
    row = {}
    for name, x_shape, w_shape, pad, dtype in IM2COL_SHAPES:
        x = rng.uniform(size=x_shape).astype(dtype)
        weight = rng.normal(size=w_shape)
        def legacy():
            return tap_loop_conv2d_forward(x, weight, None, 1, pad)

        def fast():
            return conv2d_forward(x, weight, None, 1, pad)

        legacy_s = _time(legacy, repeats)
        fast_s = _time(fast, repeats)
        row[name] = {
            "x_shape": list(x_shape),
            "w_shape": list(w_shape),
            "padding": pad,
            "dtype": np.dtype(dtype).name,
            "tap_loop_ms": round(legacy_s * 1e3, 3),
            "strided_view_ms": round(fast_s * 1e3, 3),
            "speedup": round(legacy_s / fast_s, 2),
            "array_equal": bool(np.array_equal(legacy(), fast())),
        }
    return row


def _peak_mib(fn) -> float:
    """tracemalloc peak of one ``fn()`` call, in MiB."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def _bench_lpips(image: np.ndarray, repeats: int) -> dict:
    """Frozen scipy and whole-map LPIPS vs the banded kernel on ``image``.

    Scores the frame against its 2x down-up blur (timed) and against
    its vertical flip; ``max_abs_delta`` (vs scipy) and
    ``equal_to_whole_map`` are over both pairs.
    """
    h, w = image.shape[:2]
    blurred = _blurred(image)
    legacy_s = _time(lambda: legacy_lpips(image, blurred), repeats)
    # The two float64 kernels are several times cheaper than scipy: take
    # more repeats, alternated, so the gate on their ratio reads less of
    # the machine's noise.
    whole_s, fast_s = _time_alternating(
        (lambda: batched_lpips(image, blurred), lambda: lpips(image, blurred)),
        3 * repeats,
    )
    whole_peak = _peak_mib(lambda: batched_lpips(image, blurred))
    fast_peak = _peak_mib(lambda: lpips(image, blurred))
    return {
        "frame_hw": [h, w],
        "legacy_scipy_ms": round(legacy_s * 1e3, 2),
        "whole_map_ms": round(whole_s * 1e3, 2),
        "banded_f64_ms": round(fast_s * 1e3, 2),
        "speedup": round(legacy_s / fast_s, 2),
        "speedup_vs_whole_map": round(whole_s / fast_s, 2),
        "whole_map_peak_mib": round(whole_peak, 2),
        "banded_peak_mib": round(fast_peak, 2),
        "equal_to_whole_map": all(
            lpips(image, other) == batched_lpips(image, other)
            for other in (blurred, image[::-1])
        ),
        "max_abs_delta": _lpips_delta(image),
    }


def _blurred(image: np.ndarray) -> np.ndarray:
    """``image`` with its even-sized part replaced by a 2x down-up blur."""
    h, w = image.shape[:2]
    h2, w2 = h - h % 2, w - w % 2
    small = image[:h2, :w2].reshape(h2 // 2, 2, w2 // 2, 2, 3).mean(axis=(1, 3))
    blurred = image.copy()
    blurred[:h2, :w2] = small.repeat(2, axis=0).repeat(2, axis=1)
    return blurred


def _lpips_delta(image: np.ndarray) -> float:
    """Largest |batched - scipy| LPIPS of ``image`` against its blur and flip."""
    return max(
        abs(lpips(image, other) - legacy_lpips(image, other))
        for other in (_blurred(image), image[::-1])
    )


#: (width, height) of the e2ebench stream and the HR quality renders.
LPIPS_GEOMETRIES = ((112, 64), (448, 256))


def _lpips_all_games() -> dict:
    """``_lpips_delta`` of frame 0 of every game at both geometries."""
    from repro.render.games import all_games

    row = {}
    for game in all_games():
        deltas = {
            f"{w}x{h}": _lpips_delta(game.render_frame(0, w, h).color)
            for w, h in LPIPS_GEOMETRIES
        }
        row[game.game_id] = {**deltas, "max_abs_delta": max(deltas.values())}
    return row


#: (name, input shape, output (h, w)) of the bilinear row.
BILINEAR_SHAPES = (
    ("64x112x3_2x", (64, 112, 3), (128, 224)),
    ("128x224x3_2x", (128, 224, 3), (256, 448)),
    ("33x57_2x", (33, 57), (66, 114)),
    ("31x45_to_47x100", (31, 45), (47, 100)),
)


def _bench_bilinear(repeats: int) -> dict:
    """Frozen four-tap bilinear vs the separable ``bilinear``."""
    rng = np.random.default_rng(3)
    row = {}
    for name, shape, (out_h, out_w) in BILINEAR_SHAPES:
        image = rng.uniform(size=shape)
        legacy_s = _time(lambda: legacy_bilinear(image, out_h, out_w), repeats)
        fast_s = _time(lambda: bilinear(image, out_h, out_w), repeats)
        row[name] = {
            "four_tap_ms": round(legacy_s * 1e3, 3),
            "separable_ms": round(fast_s * 1e3, 3),
            "speedup": round(legacy_s / fast_s, 2),
            "array_equal": bool(
                np.array_equal(legacy_bilinear(image, out_h, out_w), bilinear(image, out_h, out_w))
            ),
        }
    return row


def _legacy_baseline_subprocess(smoke: bool, repeats: int) -> float:
    """Time the frozen pre-PR loop in a fresh untuned-allocator process."""
    import subprocess

    env = dict(os.environ)
    env["REPRO_NO_MALLOC_TUNING"] = "1"
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    cmd = [sys.executable, str(Path(__file__).resolve()), "--legacy-only"]
    if smoke:
        cmd.append("--smoke")
    out = subprocess.run(
        cmd, env=env, capture_output=True, text=True, check=True, cwd=str(REPO_ROOT)
    )
    return float(json.loads(out.stdout.strip().splitlines()[-1])["legacy_loop_f64_s"])


def _bench_upscale_tiled(model, image: np.ndarray, legacy_s: float, repeats: int) -> dict:
    runner = SRRunner(model)
    h, w = image.shape[:2]

    fast_whole_s = _time(
        lambda: runner.upscale_tiled(image, tile=max(h, w) * 2, overlap=0), repeats
    )
    fast_batched_s = _time(
        lambda: runner.upscale_tiled(image, tile=144, overlap=8, batch_size=2), repeats
    )
    fast_loop_s = _time(
        lambda: runner.upscale_tiled(image, tile=64, overlap=8, batched=False), repeats
    )

    out_f32 = runner.upscale_tiled(image, tile=max(h, w) * 2, overlap=0)
    prev = set_inference_dtype(np.float64)
    try:
        out_f64 = runner.upscale_tiled(image, tile=max(h, w) * 2, overlap=0)
    finally:
        set_inference_dtype(prev)

    return {
        "frame_hw": [h, w],
        "legacy_loop_f64_s": round(legacy_s, 4),
        "fast_whole_frame_s": round(fast_whole_s, 4),
        "fast_batched_tile144_s": round(fast_batched_s, 4),
        "fast_loop_f32_s": round(fast_loop_s, 4),
        "speedup_whole_vs_legacy": round(legacy_s / fast_whole_s, 2),
        "speedup_batched_vs_legacy": round(legacy_s / fast_batched_s, 2),
        "f32_vs_f64_psnr_db": round(psnr(out_f64, out_f32), 1),
    }


def _bench_session(smoke: bool) -> dict:
    """Wall-time one short end-to-end streaming session (uncached)."""
    from repro.analysis.experiments import quality_geometry, _run_one_session
    from repro.streaming.frames import StreamGeometry

    if smoke:
        geometry = StreamGeometry(
            eval_lr_height=32, eval_lr_width=48, lr_source="downsample"
        )
        n_frames = 2
    else:
        geometry = quality_geometry()
        n_frames = 4

    def run():
        return _run_one_session(
            game_id="G1",
            device_name="samsung_tab_s8",
            design="gamestreamsr",
            geometry=geometry,
            n_frames=n_frames,
            gop_size=4,
            quality=60,
            evaluate_quality=True,
        )

    t0 = time.perf_counter()
    result = run()
    wall = time.perf_counter() - t0
    return {
        "design": "gamestreamsr",
        "geometry_lr_hw": [geometry.eval_lr_height, geometry.eval_lr_width],
        "n_frames": n_frames,
        "wall_s": round(wall, 3),
        "wall_s_per_frame": round(wall / n_frames, 3),
        "mean_psnr_db": round(result.mean_psnr(), 2),
    }


def _bench_subject(smoke: bool):
    """The (model, 256x448-or-small frame) pair both bench modes measure."""
    if smoke:
        model = EDSR(scale=2, n_resblocks=2, n_feats=8, seed=0)
        image = np.random.default_rng(0).uniform(size=(64, 96, 3))
    else:
        from repro.render.games import build_game
        from repro.sr.pretrained import default_sr_model

        model = default_sr_model()
        image = build_game("G3").render_frame(0, 448, 256).color
    return model, image


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny model + small frame; no speedup assertions",
    )
    parser.add_argument(
        "--legacy-only",
        action="store_true",
        help="internal: time just the frozen legacy loop and print JSON "
        "(run by the parent bench in an untuned-allocator subprocess)",
    )
    args = parser.parse_args(argv)

    if args.legacy_only:
        model, image = _bench_subject(args.smoke)
        legacy_s = _time(
            lambda: legacy_upscale_tiled(model, image, tile=64, overlap=8),
            1 if args.smoke else 2,
        )
        print(json.dumps({"legacy_loop_f64_s": legacy_s}))
        return 0

    legacy_s = _legacy_baseline_subprocess(args.smoke, repeats=1 if args.smoke else 2)
    model, image = _bench_subject(args.smoke)
    if args.smoke:
        conv = _bench_conv2d(channels=8, height=32, width=32, repeats=2)
        tiled = _bench_upscale_tiled(model, image, legacy_s, repeats=1)
        lpips_row = _bench_lpips(image, repeats=1)
        im2col_row = _bench_im2col(repeats=1)
        bilinear_row = _bench_bilinear(repeats=1)
    else:
        conv = _bench_conv2d(channels=64, height=128, width=224, repeats=3)
        tiled = _bench_upscale_tiled(model, image, legacy_s, repeats=3)
        lpips_row = _bench_lpips(image, repeats=3)
        lpips_row["games"] = _lpips_all_games()
        lpips_row["max_abs_delta"] = max(
            [lpips_row["max_abs_delta"]]
            + [g["max_abs_delta"] for g in lpips_row["games"].values()]
        )
        im2col_row = _bench_im2col(repeats=5)
        bilinear_row = _bench_bilinear(repeats=10)

    session = _bench_session(smoke=args.smoke)

    report = {
        "mode": "smoke" if args.smoke else "full",
        "machine": {
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
        "conv2d_forward": conv,
        "upscale_tiled": tiled,
        "lpips": lpips_row,
        "im2col": im2col_row,
        "bilinear": bilinear_row,
        "session": session,
    }

    failures = []
    if lpips_row["max_abs_delta"] > LPIPS_MAX_ABS_DELTA:
        failures.append(
            f"LPIPS |delta| {lpips_row['max_abs_delta']} > {LPIPS_MAX_ABS_DELTA}"
        )
    if not lpips_row["equal_to_whole_map"]:
        failures.append("banded LPIPS != whole-map batched LPIPS")
    for name, entry in im2col_row.items():
        if not entry["array_equal"]:
            failures.append(f"im2col {name}: conv2d_forward != per-tap conv")
    for name, entry in bilinear_row.items():
        if not entry["array_equal"]:
            failures.append(f"bilinear {name}: separable != four-tap bilinear")
    if not args.smoke:
        # PR acceptance criteria — keep asserting them so regressions in the
        # fast path show up as a failing bench, not a silently smaller number.
        if tiled["speedup_whole_vs_legacy"] < 3.0:
            failures.append(
                f"fast upscale_tiled speedup {tiled['speedup_whole_vs_legacy']}x < 3x"
            )
        if tiled["f32_vs_f64_psnr_db"] < 60.0:
            failures.append(
                f"f32 vs f64 PSNR {tiled['f32_vs_f64_psnr_db']} dB < 60 dB"
            )
        if lpips_row["speedup"] < 3.0:
            failures.append(f"banded LPIPS speedup {lpips_row['speedup']}x < 3x")
        if lpips_row["speedup_vs_whole_map"] < 1.15:
            failures.append(
                f"banded LPIPS speedup over whole-map "
                f"{lpips_row['speedup_vs_whole_map']}x < 1.15x"
            )
        if lpips_row["banded_peak_mib"] * 3 > lpips_row["whole_map_peak_mib"]:
            failures.append(
                f"banded LPIPS peak {lpips_row['banded_peak_mib']} MiB > 1/3 of "
                f"whole-map {lpips_row['whole_map_peak_mib']} MiB"
            )
        if im2col_row["lpips_scale0"]["speedup"] < 1.5:
            failures.append(
                f"im2col LPIPS-shape speedup {im2col_row['lpips_scale0']['speedup']}x < 1.5x"
            )
        if bilinear_row["64x112x3_2x"]["speedup"] < 1.5:
            failures.append(
                f"bilinear 64x112x3 speedup {bilinear_row['64x112x3_2x']['speedup']}x < 1.5x"
            )
    report["criteria_failures"] = failures

    write_bench_json("hotpath", report, smoke=args.smoke)
    if failures:
        print("CRITERIA FAILED: " + "; ".join(failures), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
