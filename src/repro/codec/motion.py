"""Block-matching motion estimation and compensation.

Motion search is an exhaustive full search over the square window,
exact but pruned by successive elimination (Li & Salari, IEEE TIP 1995),
batched over every offset at once with no per-offset Python loop.
(1) A lower bound |sum(cur) - sum(ref)| <= SAD, summed over half-block
sub-sums read from one integral image of the padded reference, is taken
for every (offset, block) pair through a strided view.  (2) Each block's
exact SAD at its smallest-bound offset is its upper bound.  (3) Only the
(offset, block) pairs whose bound is below that upper bound get an exact
SAD, gathered in fixed-size chunks from a sliding-window view of the
reference; the rest stay +inf.  (4) An arg-min over the nearest-first
offset axis picks each block's vector.  The result is *exactly* the
exhaustive-search motion field: a pair is pruned only when
``lb >= ub + slack``, so its SAD is strictly greater than one that was
computed and it cannot be the minimum.

Comparisons are exact (no float epsilon): SADs of uint8-range planes are
sums of at most a few thousand exactly-representable values, and the
first minimum in nearest-first offset order wins, so exact ties keep the
smallest displacement.  The estimated per-block motion vectors and the
prediction residual are the codec internals NEMO's non-reference
reconstruction consumes (Sec. II-A of the paper).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from .blocks import block_grid_shape, pad_to_blocks

__all__ = ["estimate_motion", "compensate", "upscale_motion_vectors"]

#: Guard band for the successive-elimination bound: sub-block sums come
#: from an integral image whose cumulative float64 rounding error is far
#: below this, so ``lb - _SEA_SLACK >= ub`` provably implies the exact
#: SAD cannot win.  Pruning efficiency is unaffected (real SAD gaps
#: are orders of magnitude larger).
_SEA_SLACK = 1e-3

#: Candidate windows whose exact SAD is evaluated per batch: 4096 windows
#: of 8x8 float64 are 2 MiB, so the gather never grows with the plane.
_SAD_CHUNK = 4096


@lru_cache(maxsize=None)
def _search_offsets(search_radius: int) -> tuple[np.ndarray, np.ndarray]:
    """All (dy, dx) in the window, nearest-first (zero motion leads).

    Returns the offsets as a (K, 2) array, and the permutation taking
    raster order (row-major over ``(dy + r, dx + r)``) to nearest-first
    order.  Cached per radius — identical for every frame of a session —
    and read-only, since every call with this radius shares them.
    """
    offsets = [
        (dy, dx)
        for dy in range(-search_radius, search_radius + 1)
        for dx in range(-search_radius, search_radius + 1)
    ]
    offsets.sort(key=lambda o: (abs(o[0]) + abs(o[1]), o))
    nearest = np.array(offsets, dtype=np.int64)
    rows, cols = (nearest + search_radius).T
    raster_to_nearest = rows * (2 * search_radius + 1) + cols
    nearest.flags.writeable = False
    raster_to_nearest.flags.writeable = False
    return nearest, raster_to_nearest


def _integral_image(plane: np.ndarray) -> np.ndarray:
    """Summed-area table with a zero border row/column."""
    ii = np.zeros((plane.shape[0] + 1, plane.shape[1] + 1), dtype=np.float64)
    np.cumsum(plane, axis=0, out=ii[1:, 1:])
    np.cumsum(ii[1:, 1:], axis=1, out=ii[1:, 1:])
    return ii


def _estimate_full(
    cur: np.ndarray, ref: np.ndarray, block: int, radius: int
) -> np.ndarray:
    """Exhaustive search with successive-elimination pruning, batched over offsets."""
    ph, pw = cur.shape
    nby, nbx = ph // block, pw // block
    rp = np.pad(ref, radius, mode="edge") if radius else ref
    offsets, raster_to_nearest = _search_offsets(radius)
    side = 2 * radius + 1

    # Sliding sub-block sums of the padded reference at every position,
    # from one integral image; sub-block sums of the current frame on its
    # block grid.  ``sub`` divides ``block`` so both tile exactly.
    sub = block // 2 if block % 2 == 0 and block >= 4 else block
    spb = block // sub
    ii = _integral_image(rp)
    ref_sub_all = ii[sub:, sub:] - ii[:-sub, sub:] - ii[sub:, :-sub] + ii[:-sub, :-sub]
    nsy, nsx = ph // sub, pw // sub
    cur_sub = cur.reshape(nsy, sub, nsx, sub).sum(axis=(1, 3))

    # Lower bound at every (offset, block): the sum of |cur sub-sum - ref
    # sub-sum| over the block's sub-blocks (triangle inequality: <= true
    # SAD).  ref_sub[i, j, sy, sx] = ref_sub_all[i + sy*sub, j + sx*sub]
    # is a strided view, so the reference sums are never copied per offset.
    s0, s1 = ref_sub_all.strides
    ref_sub = as_strided(
        ref_sub_all,
        shape=(side, side, nsy, nsx),
        strides=(s0, s1, s0 * sub, s1 * sub),
        writeable=False,
    )
    diff = np.subtract(cur_sub, ref_sub)
    np.abs(diff, out=diff)
    if spb == 2:
        # Strided adds: a numpy reduction over two length-2 axes is ~10x slower.
        diff = diff[:, :, 0::2] + diff[:, :, 1::2]
        diff = diff[..., 0::2] + diff[..., 1::2]
    lb = diff.reshape(side * side, nby, nbx)[raster_to_nearest]

    windows = sliding_window_view(rp, (block, block))
    cur_blocks = cur.reshape(nby, block, nbx, block).transpose(0, 2, 1, 3).copy()

    def exact_sads(ks: np.ndarray, bys: np.ndarray, bxs: np.ndarray) -> np.ndarray:
        # |cur - ref| summed over contiguous (n, block, block) chunks: each
        # SAD has the same bits whatever else is in its batch.
        out = np.empty(ks.size, dtype=np.float64)
        for lo in range(0, ks.size, _SAD_CHUNK):
            k = ks[lo : lo + _SAD_CHUNK]
            by = bys[lo : lo + _SAD_CHUNK]
            bx = bxs[lo : lo + _SAD_CHUNK]
            win = windows[
                by * block + radius + offsets[k, 0], bx * block + radius + offsets[k, 1]
            ]
            d = cur_blocks[by, bx]
            np.subtract(d, win, out=d)
            np.abs(d, out=d)
            out[lo : lo + _SAD_CHUNK] = d.sum(axis=(1, 2))
        return out

    # Upper bound per block: the exact SAD at its smallest-bound offset.
    bys, bxs = np.divmod(np.arange(nby * nbx, dtype=np.int64), nbx)
    ub = exact_sads(lb.argmin(axis=0).ravel(), bys, bxs).reshape(nby, nbx)

    # Only offsets whose bound does not rule them out get an exact SAD;
    # the rest stay +inf.  Offsets run nearest-first along axis 0, so
    # argmin's first-minimum rule keeps the smallest displacement on ties.
    ks, bys, bxs = np.nonzero(lb - _SEA_SLACK < ub)
    sad = np.full(lb.shape, np.inf, dtype=np.float64)
    sad[ks, bys, bxs] = exact_sads(ks, bys, bxs)
    return offsets[sad.argmin(axis=0)]


def estimate_motion(
    current: np.ndarray,
    reference: np.ndarray,
    block: int = 8,
    search_radius: int = 7,
) -> np.ndarray:
    """Per-block motion vectors (nby, nbx, 2) as (dy, dx) into ``reference``.

    A block at grid position (by, bx) is predicted from the reference
    region starting at ``(by*block + dy, bx*block + dx)``; each vector
    is the exact minimum-SAD offset within ``search_radius``.
    """
    current = np.asarray(current, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    if current.shape != reference.shape:
        raise ValueError(
            f"frame shape mismatch: {current.shape} vs {reference.shape}"
        )
    if current.ndim != 2:
        raise ValueError(f"expected 2-D planes, got {current.shape}")
    if search_radius < 0:
        raise ValueError(f"search_radius must be >= 0, got {search_radius}")

    cur = pad_to_blocks(current, block)
    ref = pad_to_blocks(reference, block)
    return _estimate_full(cur, ref, block, search_radius)


def compensate(
    reference: np.ndarray, motion_vectors: np.ndarray, block: int = 8
) -> np.ndarray:
    """Build the motion-compensated prediction of the current frame.

    ``reference`` is an (H, W) plane or an (H, W, C) frame. One
    fancy-indexed gather over the whole frame: each output pixel reads
    ``ref[clip(y + dy), clip(x + dx)]`` (every channel at once) with its
    block's displacement broadcast across the block — bit-identical to
    the per-block loop it replaces. On an HR frame with ``scale``-times
    the vectors and the block side this is NEMO's HR warp.
    """
    reference = np.asarray(reference, dtype=np.float64)
    h, w = reference.shape[:2]
    nby, nbx = block_grid_shape(h, w, block)
    if motion_vectors.shape != (nby, nbx, 2):
        raise ValueError(
            f"expected motion vectors {(nby, nbx, 2)}, got {motion_vectors.shape}"
        )
    ref = pad_to_blocks(reference, block)
    ph, pw = ref.shape[:2]
    mv = np.asarray(motion_vectors, dtype=np.int64)
    dy = np.repeat(np.repeat(mv[:, :, 0], block, axis=0), block, axis=1)
    dx = np.repeat(np.repeat(mv[:, :, 1], block, axis=0), block, axis=1)
    ys = np.clip(np.arange(ph, dtype=np.int64)[:, None] + dy, 0, ph - 1)
    xs = np.clip(np.arange(pw, dtype=np.int64)[None, :] + dx, 0, pw - 1)
    return ref[ys, xs][:h, :w]


def upscale_motion_vectors(
    motion_vectors: np.ndarray, factor: int
) -> np.ndarray:
    """Scale motion vectors for an upscaled frame (NEMO's MV upscaling).

    The block grid keeps the same number of blocks (each block now covers
    ``block*factor`` pixels) and displacements scale by ``factor``.
    """
    if factor < 1:
        raise ValueError(f"factor must be >= 1, got {factor}")
    return np.asarray(motion_vectors) * factor
