"""GOP-aware SR reuse: warp the previous SR output, refresh dirty tiles.

On low-motion P-frames most of the previous frame's SR output is still
valid — the codec tells us exactly where it is not. This module implements
the compressed-domain warp-and-refresh cache (NEMO-style anchor reuse,
specialized to the RoI client):

1. the decoded luma-grid motion field, upscaled to HR, warps the previous
   frame's SR canvas with one vectorized gather (the streaming client
   calls ``repro.codec.motion.compensate`` on the (H, W, 3) canvas);
2. the decoder's per-block residual-energy summary marks the *dirty*
   blocks — where the codec itself had to transmit a correction
   (:func:`dirty_block_mask`);
3. only dirty tiles re-enter the SR/bilinear paths and are composited
   into the warped canvas (:func:`composite_blocks`); everything else is
   reused for free.

Mandatory full refresh happens on I-frames and whenever the reference
chain breaks (a dropped/skipped frame — :class:`GOPSRCache` tracks frame
index continuity), mirroring the decoder's own GOP semantics.

Layering note: ``repro.sr`` sits below ``repro.codec``, so everything
here works on plain arrays (motion-vector grids, block-energy grids) that
the streaming client extracts from ``DecodedFrame``, and the warp itself
is the codec's ``compensate``, called by the client that sits above both.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..contracts import shaped

__all__ = [
    "REUSE_DIRTY_THRESHOLD",
    "GOPSRCache",
    "warp_hr",
    "dirty_block_mask",
    "composite_blocks",
]

#: Mean squared residual per pixel (summed over the three RGB channels,
#: pixel values in [0, 1]) at or above which a block is *dirty* and must
#: be re-upscaled. 1e-5 corresponds to an RMS residual of ~0.0018 per
#: channel (~0.5 of a uint8 step): below it the transmitted correction is
#: codec quantization noise and warping the previous SR output is
#: visually lossless; at or above it real texture or disocclusion changed
#: the block. The comparison is ``>=`` so a threshold of 0.0 marks every
#: block dirty (static blocks quantize to an exactly-zero residual) —
#: the bit-identity equivalence tests rely on that degenerate collapse.
REUSE_DIRTY_THRESHOLD = 1e-5


def warp_hr(reference: np.ndarray, motion_vectors: np.ndarray, block: int) -> np.ndarray:
    """``repro.codec.motion.compensate`` on an (H, W, 3) HR frame.

    The pipeline calls ``compensate`` itself; this name stays only
    because ``e2ebench/tracing.py`` binds ``repro.sr.gop_reuse:warp_hr``.
    """
    from ..codec.motion import compensate  # deferred: repro.codec sits above repro.sr

    return compensate(reference, motion_vectors, block)


@shaped(energy="BY BX:f64", pixel_counts="BY BX:i")
def dirty_block_mask(
    energy: np.ndarray, pixel_counts: np.ndarray, threshold: float
) -> np.ndarray:
    """Blocks whose mean squared residual per pixel is ``>= threshold``.

    ``energy`` is the decoder's per-block sum of squared residual;
    ``pixel_counts`` the ragged block-grid pixel counts, so the per-pixel
    comparison is evaluated as ``energy >= threshold * pixels`` without a
    division. ``>=`` makes threshold 0.0 mark everything dirty.
    """
    if threshold < 0:
        raise ValueError(f"threshold must be >= 0, got {threshold}")
    return energy >= threshold * pixel_counts


@shaped(canvas="H W 3:f64", source="H W 3:f64", mask="BY BX:b")
def composite_blocks(
    canvas: np.ndarray, source: np.ndarray, mask: np.ndarray, block: int
) -> np.ndarray:
    """Overwrite ``canvas`` pixels of masked blocks with ``source`` (in place).

    ``mask`` is a block-grid boolean grid and ``block`` the block side in
    canvas pixels; the grid must cover the canvas (edge blocks may be
    ragged). Returns the canvas for chaining.
    """
    if block < 1:
        raise ValueError(f"block must be >= 1, got {block}")
    h, w = canvas.shape[:2]
    nby, nbx = mask.shape
    if nby * block < h or nbx * block < w:
        raise ValueError(
            f"mask grid {nby}x{nbx} (block {block}) does not cover "
            f"canvas {h}x{w}"
        )
    px = np.repeat(np.repeat(mask, block, axis=0), block, axis=1)[:h, :w]
    canvas[px] = source[px]
    return canvas


class GOPSRCache:
    """The previous frame's SR output plus reuse bookkeeping.

    The cache only vouches for its canvas when the warp chain is intact:
    the held frame must be the *immediately preceding* frame (index
    continuity) and the current frame a P-frame. Everything else —
    I-frames, a cold cache, a gap left by a dropped/skipped frame — is a
    mandatory full refresh, reported with a reason string that feeds the
    ``sr.reuse/*`` counters.
    """

    def __init__(self, threshold: float = REUSE_DIRTY_THRESHOLD) -> None:
        if threshold < 0:
            raise ValueError(f"threshold must be >= 0, got {threshold}")
        self.threshold = threshold
        self.hr: Optional[np.ndarray] = None
        self.last_index: Optional[int] = None

    def reset(self) -> None:
        self.hr = None
        self.last_index = None

    def refresh_reason(self, index: int, is_reference: bool) -> Optional[str]:
        """Why this frame must take the full-SR path; None to warp-reuse."""
        if is_reference:
            return "reference_frame"
        if self.hr is None:
            return "cold_cache"
        if self.last_index is None or index != self.last_index + 1:
            return "chain_break"
        return None

    def store(self, hr: np.ndarray, index: int) -> None:
        """Record this frame's SR output as the next frame's warp source."""
        self.hr = hr
        self.last_index = index
