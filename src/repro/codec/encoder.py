"""GOP video encoder: I (reference) and P (non-reference) frames.

Mirrors the structure the paper assumes of the streaming codec (Sec. II):
each group of pictures (GOP) opens with an intra-coded reference frame
followed by motion-predicted non-reference frames. The encoder runs a
reconstruction loop (it decodes what it encodes) so prediction references
match the decoder exactly — no drift beyond quantization.

Pixel pipeline: RGB -> YCbCr, 4:2:0 chroma, per-plane 8x8 DCT +
frequency-weighted quantization, zigzag/RLE/Exp-Golomb entropy coding of
coefficients and motion vectors into a real byte payload.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, NamedTuple, Optional

import numpy as np

from ..contracts import shaped
from .bitstream import BitWriter
from .blocks import merge_blocks, split_blocks
from .color import rgb_to_ycbcr, subsample_chroma, upsample_chroma, ycbcr_to_rgb
from .entropy import encode_blocks
from .motion import compensate, estimate_motion
from .transform import DEFAULT_BLOCK, dequantize, forward_dct, inverse_dct, quantize

__all__ = ["EncodedFrame", "EncoderState", "VideoEncoder", "PIXEL_SCALE"]

#: Planes are scaled to the 0-255 range the quantization tables assume.
PIXEL_SCALE = 255.0


@dataclass(frozen=True)
class EncodedFrame:
    """One compressed frame: metadata + entropy-coded payload."""

    frame_type: str  # "I" or "P"
    height: int
    width: int
    block: int
    quality: int
    payload: bytes
    #: Convenience copy of the luma-grid motion vectors (also in payload).
    #: Read-only: one encoded frame may be handed to many sessions.
    motion_vectors: Optional[np.ndarray] = field(default=None, repr=False)

    @property
    def size_bytes(self) -> int:
        return len(self.payload)


class EncoderState(NamedTuple):
    """What the next frame's encode depends on besides its pixels."""

    frame_index: int
    recon_y: Optional[np.ndarray]
    recon_cb: Optional[np.ndarray]
    recon_cr: Optional[np.ndarray]


def _encode_plane(
    plane: np.ndarray, block: int, quality: int, writer: BitWriter
) -> np.ndarray:
    """Transform-code one residual/intra plane; returns its reconstruction."""
    blocks = split_blocks(plane, block)
    levels = quantize(forward_dct(blocks), quality)
    encode_blocks(levels, writer)
    recon_blocks = inverse_dct(dequantize(levels, quality))
    return merge_blocks(recon_blocks, plane.shape[0], plane.shape[1], block)


def _encode_motion(mv: np.ndarray, writer: BitWriter) -> None:
    """Signed Exp-Golomb coding of the (nby, nbx, 2) motion field."""
    from .entropy import signed_to_unsigned_array, write_exp_golomb_array

    write_exp_golomb_array(writer, signed_to_unsigned_array(mv.reshape(-1)))


class VideoEncoder:
    """Streaming encoder with a fixed GOP structure.

    Parameters
    ----------
    gop_size:
        Frames per GOP (1 reference + ``gop_size - 1`` non-reference). The
        paper's mobile experiments use 60 (Sec. V-B).
    quality:
        Quantizer quality in [1, 100].
    search_radius:
        Motion search window half-width in pixels (exact full search).
    """

    def __init__(
        self,
        gop_size: int = 60,
        quality: int = 60,
        block: int = DEFAULT_BLOCK,
        search_radius: int = 7,
    ) -> None:
        if gop_size < 1:
            raise ValueError(f"gop_size must be >= 1, got {gop_size}")
        if block < 2:
            raise ValueError(f"block must be >= 2, got {block}")
        self.gop_size = gop_size
        self.quality = quality
        self.block = block
        self.search_radius = search_radius
        self._frame_index = 0
        self._recon_y: Optional[np.ndarray] = None
        self._recon_cb: Optional[np.ndarray] = None
        self._recon_cr: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Forget reconstruction state (next frame becomes an I-frame)."""
        self._frame_index = 0
        self._recon_y = self._recon_cb = self._recon_cr = None

    @property
    def next_is_reference(self) -> bool:
        return self._frame_index % self.gop_size == 0

    def state(self) -> EncoderState:
        """The reconstruction-loop state after the last encoded frame."""
        return EncoderState(
            self._frame_index, self._recon_y, self._recon_cb, self._recon_cr
        )

    def restore(self, state: EncoderState) -> None:
        """Resume the stream from a :meth:`state` snapshot.

        The snapshot's planes are shared, not copied: the encoder only
        ever rebinds them, never writes into them.
        """
        (
            self._frame_index, self._recon_y, self._recon_cb, self._recon_cr
        ) = state

    @shaped(rgb="H W 3:n")
    def encode_frame(self, rgb: np.ndarray) -> EncodedFrame:
        """Encode the next frame of the stream."""
        rgb = np.asarray(rgb, dtype=np.float64)
        if rgb.ndim != 3 or rgb.shape[2] != 3:
            raise ValueError(f"expected (H, W, 3) RGB frame, got {rgb.shape}")
        h, w = rgb.shape[:2]
        y, cb, cr = rgb_to_ycbcr(rgb)
        y_p = y * PIXEL_SCALE - 128.0
        cb_p = subsample_chroma(cb) * PIXEL_SCALE
        cr_p = subsample_chroma(cr) * PIXEL_SCALE

        is_reference = self.next_is_reference
        writer = BitWriter()
        mv: Optional[np.ndarray] = None

        if is_reference or self._recon_y is None:
            frame_type = "I"
            recon_y = _encode_plane(y_p, self.block, self.quality, writer)
            recon_cb = _encode_plane(cb_p, self.block, self.quality, writer)
            recon_cr = _encode_plane(cr_p, self.block, self.quality, writer)
        else:
            frame_type = "P"
            mv = estimate_motion(
                y_p,
                self._recon_y,
                block=self.block,
                search_radius=self.search_radius,
            )
            mv.flags.writeable = False
            _encode_motion(mv, writer)
            pred_y = compensate(self._recon_y, mv, self.block)
            mv_c = np.round(mv / 2.0).astype(np.int64)
            chroma_block = max(self.block // 2, 2)
            pred_cb = compensate(self._recon_cb, mv_c, chroma_block)
            pred_cr = compensate(self._recon_cr, mv_c, chroma_block)
            recon_y = pred_y + _encode_plane(y_p - pred_y, self.block, self.quality, writer)
            recon_cb = pred_cb + _encode_plane(cb_p - pred_cb, self.block, self.quality, writer)
            recon_cr = pred_cr + _encode_plane(cr_p - pred_cr, self.block, self.quality, writer)

        self._recon_y = np.clip(recon_y, -128.0, 127.0)
        self._recon_cb = np.clip(recon_cb, -128.0, 127.0)
        self._recon_cr = np.clip(recon_cr, -128.0, 127.0)
        self._frame_index += 1

        return EncodedFrame(
            frame_type=frame_type,
            height=h,
            width=w,
            block=self.block,
            quality=self.quality,
            payload=writer.getvalue(),
            motion_vectors=mv,
        )

    def encode_sequence(self, frames: Iterable[np.ndarray]) -> List[EncodedFrame]:
        """Encode an iterable of RGB frames; resets state first."""
        self.reset()
        return [self.encode_frame(frame) for frame in frames]

    # ------------------------------------------------------------------
    def last_reconstruction(self) -> Optional[np.ndarray]:
        """The encoder-side reconstruction of the last frame (RGB)."""
        if self._recon_y is None:
            return None
        h, w = self._recon_y.shape
        y = (self._recon_y + 128.0) / PIXEL_SCALE
        cb = upsample_chroma(self._recon_cb / PIXEL_SCALE, h, w)
        cr = upsample_chroma(self._recon_cr / PIXEL_SCALE, h, w)
        return ycbcr_to_rgb(y, cb, cr)
