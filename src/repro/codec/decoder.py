"""GOP video decoder exposing the internals NEMO relies on.

:class:`VideoDecoder` reconstructs RGB frames purely from
:class:`~repro.codec.encoder.EncodedFrame` payloads. Besides the decoded
image, each :class:`DecodedFrame` carries the parsed motion-vector field
and the decoded residual (as an RGB-space image), because the NEMO
baseline (paper Sec. II-A / V-A) reconstructs upscaled non-reference
frames from exactly those codec internals — the reason it needs a software
decoder in the first place.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..contracts import shaped
from .blocks import block_grid_shape, merge_blocks
from .color import upsample_chroma, ycbcr_to_rgb
from .encoder import PIXEL_SCALE, EncodedFrame
from .entropy import decode_payload
from .motion import compensate
from .residual import block_energy
from .transform import dequantize, inverse_dct

__all__ = ["DecodedFrame", "VideoDecoder"]


class DecodedFrame:
    """A reconstructed frame plus the codec internals used to build it.

    ``prediction_rgb`` / ``residual_rgb`` are **lazy**: the decoder stores
    the motion-compensated prediction planes and the RGB conversion +
    subtraction run on first property access (then cache). Most client
    designs never read them (only NEMO's reconstruction and the GOP-reuse
    paths do), so the default decode loop skips two full chroma-upsampled
    color conversions per P-frame; the values, when read, are computed by
    the exact expressions the eager decoder used, so existing consumers
    see byte-identical arrays.
    """

    __slots__ = (
        "rgb",
        "frame_type",
        "motion_vectors",
        "_pred_planes",
        "_prediction_rgb",
        "_residual_rgb",
        "_residual_block_energy",
    )

    def __init__(
        self,
        rgb: np.ndarray,  # (H, W, 3) in [0, 1]
        frame_type: str,  # "I" or "P"
        motion_vectors: Optional[np.ndarray] = None,
        pred_planes: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None,
    ) -> None:
        self.rgb = rgb
        self.frame_type = frame_type
        #: Luma-grid motion vectors (nby, nbx, 2); None for I-frames.
        self.motion_vectors = motion_vectors
        self._pred_planes = pred_planes
        self._prediction_rgb: Optional[np.ndarray] = None
        self._residual_rgb: Optional[np.ndarray] = None
        self._residual_block_energy: Dict[int, np.ndarray] = {}

    @property
    def is_reference(self) -> bool:
        return self.frame_type == "I"

    @property
    def prediction_rgb(self) -> Optional[np.ndarray]:
        """RGB-space motion-compensated prediction; None for I-frames."""
        if self._prediction_rgb is None and self._pred_planes is not None:
            self._prediction_rgb = _planes_to_rgb(*self._pred_planes)
        return self._prediction_rgb

    @property
    def residual_rgb(self) -> Optional[np.ndarray]:
        """RGB-space decoded residual (current minus motion-compensated
        prediction); None for I-frames."""
        if self._residual_rgb is None and self._pred_planes is not None:
            self._residual_rgb = self.rgb - self.prediction_rgb
        return self._residual_rgb

    def residual_block_energy(self, block: int) -> Optional[np.ndarray]:
        """Per-block sum of squared RGB residual, cached per block size.

        The shared residual-energy summary (see :mod:`repro.codec.residual`)
        both the GOP-reuse dirty mask and the SR-integrated decoder's
        RoI-guided residual path consume; None for I-frames.
        """
        if self.residual_rgb is None:
            return None
        if block not in self._residual_block_energy:
            self._residual_block_energy[block] = block_energy(
                self._residual_rgb, block
            )
        return self._residual_block_energy[block]


def _decode_plane(
    levels: np.ndarray, height: int, width: int, block: int, quality: int
) -> np.ndarray:
    recon = inverse_dct(dequantize(levels, quality))
    return merge_blocks(recon, height, width, block)


@shaped(y="H W:f64", cb="SH SW:f64", cr="SH SW:f64")
def _planes_to_rgb(y: np.ndarray, cb: np.ndarray, cr: np.ndarray) -> np.ndarray:
    h, w = y.shape
    return ycbcr_to_rgb(
        (y + 128.0) / PIXEL_SCALE,
        upsample_chroma(cb / PIXEL_SCALE, h, w),
        upsample_chroma(cr / PIXEL_SCALE, h, w),
    )


class VideoDecoder:
    """Stateful decoder matching :class:`~repro.codec.encoder.VideoEncoder`."""

    def __init__(self) -> None:
        self._recon_y: Optional[np.ndarray] = None
        self._recon_cb: Optional[np.ndarray] = None
        self._recon_cr: Optional[np.ndarray] = None

    def reset(self) -> None:
        self._recon_y = self._recon_cb = self._recon_cr = None

    def decode_frame(self, encoded: EncodedFrame) -> DecodedFrame:
        h, w = encoded.height, encoded.width
        block = encoded.block
        quality = encoded.quality
        ch = -(-h // 2)
        cw = -(-w // 2)
        chroma_block = max(block // 2, 2)
        is_p = encoded.frame_type == "P"
        if not is_p and encoded.frame_type != "I":
            raise ValueError(f"unknown frame type {encoded.frame_type!r}")
        if is_p and self._recon_y is None:
            raise RuntimeError("P-frame received before any reference frame")

        nby, nbx = block_grid_shape(h, w, block)
        n_luma = nby * nbx
        n_chroma = int(np.prod(block_grid_shape(ch, cw, block)))
        mv, levels = decode_payload(
            encoded.payload, 2 * n_luma if is_p else 0, n_luma + 2 * n_chroma, block
        )
        y = _decode_plane(levels[:n_luma], h, w, block, quality)
        cb = _decode_plane(levels[n_luma : n_luma + n_chroma], ch, cw, block, quality)
        cr = _decode_plane(levels[n_luma + n_chroma :], ch, cw, block, quality)

        pred_planes = None
        if is_p:
            mv = mv.reshape(nby, nbx, 2)
            mv_c = np.round(mv / 2.0).astype(np.int64)
            pred_planes = (
                compensate(self._recon_y, mv, block),
                compensate(self._recon_cb, mv_c, chroma_block),
                compensate(self._recon_cr, mv_c, chroma_block),
            )
            y, cb, cr = pred_planes[0] + y, pred_planes[1] + cb, pred_planes[2] + cr

        self._recon_y = np.clip(y, -128.0, 127.0)
        self._recon_cb = np.clip(cb, -128.0, 127.0)
        self._recon_cr = np.clip(cr, -128.0, 127.0)
        return DecodedFrame(
            rgb=_planes_to_rgb(self._recon_y, self._recon_cb, self._recon_cr),
            frame_type=encoded.frame_type,
            motion_vectors=mv if is_p else None,
            pred_planes=pred_planes,
        )

    def decode_sequence(self, encoded: Iterable[EncodedFrame]) -> List[DecodedFrame]:
        self.reset()
        return [self.decode_frame(frame) for frame in encoded]
