"""Codec trajectory benchmark: motion search, compensation, entropy coding.

Measures the fast codec path (successive-elimination pruned full search,
vectorized compensation, batch bit-packed Exp-Golomb coding, one-pass
payload parse) against the frozen pre-PR reference implementation in
``_legacy_codec.py`` and writes the numbers to ``BENCH_codec.json`` at the
repo root so the speedup trajectory survives across PRs.  Run::

    PYTHONPATH=src python benchmarks/bench_codec.py          # full run
    PYTHONPATH=src python benchmarks/bench_codec.py --smoke  # seconds, CI

The full run uses the default 256x448 G3 rendered sequence and asserts the
PR's acceptance criteria: >= 4x ``encode_frame``, >= 3x motion estimation,
full-search motion vectors exactly equal to legacy, and bitstreams
byte-identical to legacy.  A second motion row runs at the end-to-end server geometry
(64x112 G3 planes) against the frozen per-offset pruned loop: motion
vectors exactly equal, and >= 1.5x faster in the full run.  A decode row
at the same geometry splits whole P-frame payloads into motion vectors
and plane levels with the one-pass ``decode_payload`` and with the frozen
buffered per-symbol reader: both exactly equal to the bit-at-a-time
``legacy_decode_blocks``, and the full run must be >= 1.5x faster than the
buffered reader.  The frame-codec row requires every decoded frame's rgb
and every P-frame's motion vectors to equal the legacy decoder's.  Smoke mode
swaps in a small frame (the 64x112 row keeps its geometry, with fewer
planes) to exercise every path and exactness assertion quickly (no
speedup floors — tiny shapes don't amortize anything) and writes
``BENCH_codec.smoke.json`` instead.

Both paths run in the same process: the codec allocates little, so no
allocator isolation is needed (unlike ``bench_hotpath.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from repro.codec.bitstream import BitWriter  # noqa: E402
from repro.codec.blocks import block_grid_shape, split_blocks  # noqa: E402
from repro.codec.color import rgb_to_ycbcr  # noqa: E402
from repro.codec.decoder import VideoDecoder  # noqa: E402
from repro.codec.encoder import VideoEncoder  # noqa: E402
from repro.codec.entropy import (  # noqa: E402
    decode_payload,
    encode_blocks,
    unsigned_to_signed_array,
)
from repro.codec.motion import compensate, estimate_motion  # noqa: E402
from repro.codec.transform import forward_dct, quantize  # noqa: E402

from conftest import write_bench_json  # noqa: E402
from _legacy_codec import (  # noqa: E402
    _legacy_decode_motion,
    LegacyBitReader,
    LegacyBitWriter,
    LegacyBufferedBitReader,
    LegacyVideoDecoder,
    LegacyVideoEncoder,
    legacy_compensate,
    legacy_decode_blocks,
    legacy_encode_blocks,
    legacy_estimate_motion,
    legacy_pruned_estimate_motion,
    buffered_decode_blocks,
    buffered_read_exp_golomb_array,
)

QUALITY = 60
GOP = 60  # paper default: the sequence below is 1 I-frame + P-frames


def _time(fn, repeats: int = 3) -> float:
    """Best-of-N wall time in seconds (fn is called once to warm up)."""
    fn()
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _frames(smoke: bool) -> list[np.ndarray]:
    from repro.render.games import build_game

    game = build_game("G3")
    if smoke:
        return [game.render_frame(i, 96, 64).color for i in range(2)]
    return [game.render_frame(i, 448, 256).color for i in range(4)]


def _luma(frame: np.ndarray) -> np.ndarray:
    y, _, _ = rgb_to_ycbcr(np.asarray(frame, dtype=np.float64))
    return y * 255.0 - 128.0


def _bench_motion(frames, repeats: int) -> dict:
    cur, ref = _luma(frames[1]), _luma(frames[0])
    legacy_s = _time(lambda: legacy_estimate_motion(cur, ref), repeats)
    fast_s = _time(lambda: estimate_motion(cur, ref), repeats)

    mv_legacy = legacy_estimate_motion(cur, ref)
    mv_fast = estimate_motion(cur, ref)
    if not np.array_equal(mv_legacy, mv_fast):
        raise AssertionError("pruned full search diverged from legacy full search")

    pred_legacy = legacy_compensate(ref, mv_fast)
    comp_legacy_s = _time(lambda: legacy_compensate(ref, mv_fast), repeats)
    comp_fast_s = _time(lambda: compensate(ref, mv_fast), repeats)
    if not np.array_equal(pred_legacy, compensate(ref, mv_fast)):
        raise AssertionError("vectorized compensate diverged from legacy loop")

    return {
        "frame_hw": list(cur.shape),
        "legacy_full_s": round(legacy_s, 4),
        "fast_full_s": round(fast_s, 4),
        "speedup_full_vs_legacy": round(legacy_s / fast_s, 2),
        "mv_equal_full_vs_legacy": True,
        "compensate_legacy_s": round(comp_legacy_s, 5),
        "compensate_fast_s": round(comp_fast_s, 5),
        "compensate_speedup": round(comp_legacy_s / comp_fast_s, 2),
    }


def _bench_motion_workload(smoke: bool, repeats: int) -> dict:
    """Full search at the e2ebench server geometry (64x112 luma planes).

    Times the batched search against the frozen per-offset pruned loop it
    replaced, per plane, over consecutive G3 frames; both must return the
    exhaustive search's motion vectors exactly.
    """
    from repro.render.games import build_game

    n_frames = 3 if smoke else 8
    game = build_game("G3")
    lumas = [_luma(game.render_frame(i, 112, 64).color) for i in range(n_frames)]
    pairs = list(zip(lumas[1:], lumas[:-1]))
    for cur, ref in pairs:
        mv = estimate_motion(cur, ref)
        if not np.array_equal(mv, legacy_pruned_estimate_motion(cur, ref)):
            raise AssertionError("batched full search diverged from the pruned loop")
        if not np.array_equal(mv, legacy_estimate_motion(cur, ref)):
            raise AssertionError("batched full search diverged from legacy full search")

    def run(search):
        return lambda: [search(cur, ref) for cur, ref in pairs]

    loop_s = _time(run(legacy_pruned_estimate_motion), repeats)
    batched_s = _time(run(estimate_motion), repeats)
    return {
        "sequence": "G3",
        "frame_hw": list(lumas[0].shape),
        "planes": len(pairs),
        "pruned_loop_ms_per_plane": round(1e3 * loop_s / len(pairs), 3),
        "batched_ms_per_plane": round(1e3 * batched_s / len(pairs), 3),
        "speedup_vs_pruned_loop": round(loop_s / batched_s, 2),
        "mv_equal_vs_pruned_loop": True,
        "mv_equal_vs_exhaustive": True,
    }


def _bench_entropy(frames, repeats: int) -> dict:
    blocks = quantize(forward_dct(split_blocks(_luma(frames[0]), 8)), QUALITY)

    def enc_legacy():
        w = LegacyBitWriter()
        legacy_encode_blocks(blocks, w)
        return w.getvalue()

    def enc_fast():
        w = BitWriter()
        encode_blocks(blocks, w)
        return w.getvalue()

    payload_legacy = enc_legacy()
    payload_fast = enc_fast()
    if payload_legacy != payload_fast:
        raise AssertionError("vectorized entropy coder is not byte-identical")

    enc_legacy_s = _time(enc_legacy, repeats)
    enc_fast_s = _time(enc_fast, repeats)
    dec_legacy_s = _time(
        lambda: legacy_decode_blocks(LegacyBitReader(payload_legacy), len(blocks), 8),
        repeats,
    )
    dec_fast_s = _time(
        lambda: decode_payload(payload_fast, 0, len(blocks), 8), repeats
    )
    return {
        "n_blocks": int(len(blocks)),
        "payload_bytes": len(payload_fast),
        "byte_identical": True,
        "encode_legacy_s": round(enc_legacy_s, 5),
        "encode_fast_s": round(enc_fast_s, 5),
        "encode_speedup": round(enc_legacy_s / enc_fast_s, 2),
        "decode_legacy_s": round(dec_legacy_s, 5),
        "decode_fast_s": round(dec_fast_s, 5),
        "decode_speedup": round(dec_legacy_s / dec_fast_s, 2),
    }


def _payload_layout(encoded) -> tuple[int, int, list[int]]:
    """(nby, nbx, blocks per plane) of one encoded frame's payload."""
    h, w, block = encoded.height, encoded.width, encoded.block
    nby, nbx = block_grid_shape(h, w, block)
    n_chroma = int(np.prod(block_grid_shape(-(-h // 2), -(-w // 2), block)))
    return nby, nbx, [nby * nbx, n_chroma, n_chroma]


def _bench_decode_workload(smoke: bool, repeats: int) -> dict:
    """Whole P-frame payload decode at the e2ebench server geometry.

    Splits each 64x112 G3 P-frame payload into motion vectors and the
    levels of its three planes, with the frozen buffered per-symbol reader
    and with the one-pass ``decode_payload``; both must equal the
    bit-at-a-time ``legacy_decode_blocks`` exactly.
    """
    from repro.render.games import build_game

    n_frames = 3 if smoke else 9
    game = build_game("G3")
    encoder = VideoEncoder(gop_size=GOP, quality=QUALITY)
    p_frames = [
        encoder.encode_frame(game.render_frame(i, 112, 64).color) for i in range(n_frames)
    ][1:]
    nby, nbx, plane_blocks = _payload_layout(p_frames[0])
    block = p_frames[0].block

    def scalar(reader_cls, read_mv, read_blocks):
        def run():
            out = []
            for e in p_frames:
                reader = reader_cls(e.payload)
                mv = read_mv(reader)
                out.append((mv, [read_blocks(reader, k, block) for k in plane_blocks]))
            return out
        return run

    def legacy_mv(reader):
        return _legacy_decode_motion(reader, nby, nbx)

    def buffered_mv(reader):
        codes = buffered_read_exp_golomb_array(reader, 2 * nby * nbx)
        return unsigned_to_signed_array(codes).reshape(nby, nbx, 2)

    legacy = scalar(LegacyBitReader, legacy_mv, legacy_decode_blocks)
    buffered = scalar(LegacyBufferedBitReader, buffered_mv, buffered_decode_blocks)

    def fast():
        return [
            decode_payload(e.payload, 2 * nby * nbx, sum(plane_blocks), block)
            for e in p_frames
        ]

    for (mv_l, planes_l), (mv_b, planes_b), (mv_f, levels_f) in zip(
        legacy(), buffered(), fast()
    ):
        levels_l = np.concatenate(planes_l)
        if not (
            np.array_equal(mv_f.reshape(nby, nbx, 2), mv_l)
            and np.array_equal(levels_f, levels_l)
        ):
            raise AssertionError("decode_payload diverged from legacy_decode_blocks")
        if not (np.array_equal(mv_b, mv_l) and np.array_equal(np.concatenate(planes_b), levels_l)):
            raise AssertionError("buffered reader diverged from legacy_decode_blocks")

    buffered_s = _time(buffered, repeats)
    fast_s = _time(fast, repeats)
    n = len(p_frames)
    return {
        "sequence": "G3",
        "frame_hw": [p_frames[0].height, p_frames[0].width],
        "p_frames": n,
        "payload_bytes": [e.size_bytes for e in p_frames],
        "buffered_reader_ms_per_frame": round(1e3 * buffered_s / n, 3),
        "one_pass_ms_per_frame": round(1e3 * fast_s / n, 3),
        "speedup_vs_buffered_reader": round(buffered_s / fast_s, 2),
        "equal_to_legacy_decode_blocks": True,
    }


def _encode_all(encoder, frames):
    encoder.reset()
    return [encoder.encode_frame(f) for f in frames]


def _bench_frame_codec(frames, repeats: int) -> dict:
    legacy_enc = LegacyVideoEncoder(gop_size=GOP, quality=QUALITY)
    fast_enc = VideoEncoder(gop_size=GOP, quality=QUALITY)

    encoded_legacy = _encode_all(legacy_enc, frames)
    encoded_fast = _encode_all(fast_enc, frames)
    for i, (a, b) in enumerate(zip(encoded_legacy, encoded_fast)):
        if a.payload != b.payload:
            raise AssertionError(f"frame {i}: fast bitstream differs from legacy")

    enc_legacy_s = _time(lambda: _encode_all(legacy_enc, frames), repeats)
    enc_fast_s = _time(lambda: _encode_all(fast_enc, frames), repeats)

    def dec_legacy():
        d = LegacyVideoDecoder()
        d.reset()
        return [d.decode_frame(e) for e in encoded_legacy]

    def dec_fast():
        d = VideoDecoder()
        return d.decode_sequence(encoded_fast)

    for i, (e, a, b) in enumerate(zip(encoded_fast, dec_legacy(), dec_fast())):
        if not np.array_equal(a.rgb, b.rgb):
            raise AssertionError(f"frame {i}: fast decoder rgb differs from legacy")
        if e.frame_type == "P":
            nby, nbx, _ = _payload_layout(e)
            mv = _legacy_decode_motion(LegacyBitReader(e.payload), nby, nbx)
            if not np.array_equal(b.motion_vectors, mv):
                raise AssertionError(f"frame {i}: decoded motion vectors differ from legacy")
    dec_legacy_s = _time(dec_legacy, repeats)
    dec_fast_s = _time(dec_fast, repeats)

    n = len(frames)
    return {
        "n_frames": n,
        "gop_size": GOP,
        "quality": QUALITY,
        "payload_bytes": [e.size_bytes for e in encoded_fast],
        "bitstream_byte_identical": True,
        "decode_array_equal": True,
        "encode_legacy_s_per_frame": round(enc_legacy_s / n, 4),
        "encode_fast_s_per_frame": round(enc_fast_s / n, 4),
        "encode_speedup": round(enc_legacy_s / enc_fast_s, 2),
        "decode_legacy_s_per_frame": round(dec_legacy_s / n, 4),
        "decode_fast_s_per_frame": round(dec_fast_s / n, 4),
        "decode_speedup": round(dec_legacy_s / dec_fast_s, 2),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small frames; exactness asserts only, no speedup floors",
    )
    args = parser.parse_args(argv)

    frames = _frames(args.smoke)
    repeats = 1 if args.smoke else 3

    motion = _bench_motion(frames, repeats)
    motion_workload = _bench_motion_workload(args.smoke, repeats)
    entropy = _bench_entropy(frames, repeats)
    decode_workload = _bench_decode_workload(args.smoke, repeats)
    frame_codec = _bench_frame_codec(frames, repeats)

    report = {
        "mode": "smoke" if args.smoke else "full",
        "machine": {
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
        "motion": motion,
        "motion_64x112": motion_workload,
        "entropy": entropy,
        "decode_64x112": decode_workload,
        "frame_codec": frame_codec,
    }

    failures = []
    if not args.smoke:
        # PR acceptance criteria — keep asserting them so regressions in
        # the fast path show up as a failing bench, not a smaller number.
        if frame_codec["encode_speedup"] < 4.0:
            failures.append(
                f"encode_frame speedup {frame_codec['encode_speedup']}x < 4x"
            )
        if motion["speedup_full_vs_legacy"] < 3.0:
            failures.append(
                f"motion estimation speedup {motion['speedup_full_vs_legacy']}x < 3x"
            )
        if motion_workload["speedup_vs_pruned_loop"] < 1.5:
            failures.append(
                "64x112 full search speedup "
                f"{motion_workload['speedup_vs_pruned_loop']}x < 1.5x vs the pruned loop"
            )
        if decode_workload["speedup_vs_buffered_reader"] < 1.5:
            failures.append(
                "64x112 P-frame payload decode speedup "
                f"{decode_workload['speedup_vs_buffered_reader']}x < 1.5x vs the buffered reader"
            )
    report["criteria_failures"] = failures

    write_bench_json("codec", report, smoke=args.smoke)
    if failures:
        print("CRITERIA FAILED: " + "; ".join(failures), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
