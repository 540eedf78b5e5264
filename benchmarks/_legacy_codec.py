"""Frozen pre-fast-path codec, for trajectory benchmarking.

This is a faithful copy of the repo's codec hot loops *before* the fast
codec path (PR 2): per-offset full-frame SAD passes in motion estimation,
a per-block Python loop in motion compensation, and bit-at-a-time
Exp-Golomb entropy coding.  It also keeps the later pruned full search
(``legacy_pruned_estimate_motion``: a Python loop over offsets with a
successive-elimination bound), the reference for the batched search's
workload-geometry row, and the later buffered per-symbol reader
(``LegacyBufferedBitReader`` with ``buffered_decode_blocks``), the
reference for the one-pass payload parse.  The four-tap ``bilinear``
(``legacy_bilinear``) is copied too, because the legacy decoder's chroma
upsample must not move with the live separable one.
``bench_codec.py`` keeps measuring the live
path against this fixed reference as the codebase evolves — do not
"optimize" this file.

One deliberate deviation from the seed code: motion-estimation
comparisons use exact ``sad < best_sad`` instead of the old float
``best_sad - 1e-12`` tie epsilon.  The epsilon was removed from the live
path in the same PR that froze this baseline (it demotes genuinely
smaller SADs to ties on real frames), and the baseline adopts the same
comparison so the bench's bitstream byte-identity assertion is
meaningful.  The performance profile is untouched.

Unchanged codec stages (DCT/quantization, color conversion, block
reshaping) are imported from the live modules — they are shared by both paths and not
part of this baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.codec.blocks import block_grid_shape, merge_blocks, pad_to_blocks, split_blocks
from repro.codec.color import rgb_to_ycbcr, subsample_chroma, ycbcr_to_rgb
from repro.codec.encoder import PIXEL_SCALE, EncodedFrame
from repro.codec.entropy import zigzag_indices
from repro.codec.transform import dequantize, forward_dct, inverse_dct, quantize


# ----------------------------------------------------------------------
# Bit I/O (per-bit Python loops)
# ----------------------------------------------------------------------
class LegacyBitWriter:
    """Append-only MSB-first bit buffer (bit-at-a-time)."""

    def __init__(self) -> None:
        self._bytes = bytearray()
        self._accumulator = 0
        self._n_bits = 0

    def write_bit(self, bit: int) -> None:
        self._accumulator = (self._accumulator << 1) | (bit & 1)
        self._n_bits += 1
        if self._n_bits == 8:
            self._bytes.append(self._accumulator)
            self._accumulator = 0
            self._n_bits = 0

    def write_bits(self, value: int, count: int) -> None:
        for shift in range(count - 1, -1, -1):
            self.write_bit((value >> shift) & 1)

    def write_unary(self, value: int) -> None:
        for _ in range(value):
            self.write_bit(0)
        self.write_bit(1)

    def getvalue(self) -> bytes:
        out = bytearray(self._bytes)
        if self._n_bits:
            out.append(self._accumulator << (8 - self._n_bits))
        return bytes(out)

    def __len__(self) -> int:
        return len(self._bytes) * 8 + self._n_bits


class LegacyBitReader:
    """MSB-first reader over a byte string (bit-at-a-time)."""

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0

    def read_bit(self) -> int:
        byte_idx, bit_idx = divmod(self._pos, 8)
        if byte_idx >= len(self._data):
            raise EOFError("bitstream exhausted")
        self._pos += 1
        return (self._data[byte_idx] >> (7 - bit_idx)) & 1

    def read_bits(self, count: int) -> int:
        value = 0
        for _ in range(count):
            value = (value << 1) | self.read_bit()
        return value

    def read_unary(self) -> int:
        count = 0
        while self.read_bit() == 0:
            count += 1
        return count


# ----------------------------------------------------------------------
# Entropy coding (token-at-a-time)
# ----------------------------------------------------------------------
def _write_exp_golomb(writer, value: int) -> None:
    code = value + 1
    n_bits = code.bit_length()
    writer.write_unary(n_bits - 1)
    writer.write_bits(code, n_bits - 1)


def _read_exp_golomb(reader) -> int:
    prefix = reader.read_unary()
    suffix = reader.read_bits(prefix)
    return (1 << prefix) + suffix - 1


def _signed_to_unsigned(value: int) -> int:
    return 2 * value - 1 if value > 0 else -2 * value


def _unsigned_to_signed(code: int) -> int:
    return (code + 1) // 2 if code % 2 else -(code // 2)


def legacy_encode_blocks(blocks: np.ndarray, writer) -> None:
    """Entropy-code quantized integer blocks of shape (N, n, n)."""
    blocks = np.asarray(blocks)
    n = blocks.shape[1]
    rows, cols = zigzag_indices(n)
    scanned = blocks[:, rows, cols].astype(np.int64)
    for coeffs in scanned:
        nonzero = np.flatnonzero(coeffs)
        prev = -1
        for idx in nonzero:
            _write_exp_golomb(writer, int(idx - prev - 1))
            _write_exp_golomb(writer, _signed_to_unsigned(int(coeffs[idx])))
            prev = int(idx)
        _write_exp_golomb(writer, int(n * n - prev - 1))
        _write_exp_golomb(writer, 0)


def legacy_decode_blocks(reader, n_blocks: int, n: int) -> np.ndarray:
    rows, cols = zigzag_indices(n)
    out = np.zeros((n_blocks, n, n), dtype=np.int64)
    for b in range(n_blocks):
        flat = np.zeros(n * n, dtype=np.int64)
        pos = -1
        while True:
            run = _read_exp_golomb(reader)
            level_code = _read_exp_golomb(reader)
            if level_code == 0:
                break
            pos += run + 1
            if pos >= n * n:
                raise ValueError("corrupt bitstream: coefficient index overflow")
            flat[pos] = _unsigned_to_signed(level_code)
        out[b][rows, cols] = flat
    return out


# ----------------------------------------------------------------------
# Buffered scalar reader: the per-symbol decode (a rolling integer bit
# window, one Python step per code) that the one-pass payload parse
# replaced.  The reference for bench_codec's P-frame decode row.
# ----------------------------------------------------------------------
class LegacyBufferedBitReader:
    """MSB-first reader over a byte string, buffered for fast decode.

    Upcoming bits live in an integer window (``_buf`` holding the low
    ``_buf_bits`` bits), refilled up to eight bytes at a time, so unary
    runs are counted with one ``bit_length`` call instead of a per-bit
    loop.  The public API and EOF behaviour match the original unbuffered
    reader.
    """

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._total_bits = len(data) * 8
        self._pos = 0  # bits consumed so far
        self._buf = 0
        self._buf_bits = 0
        self._byte_pos = 0  # next byte to load into the buffer

    def _fill(self) -> bool:
        chunk = self._data[self._byte_pos : self._byte_pos + 8]
        if not chunk:
            return False
        self._buf = (self._buf << (8 * len(chunk))) | int.from_bytes(chunk, "big")
        self._buf_bits += 8 * len(chunk)
        self._byte_pos += len(chunk)
        return True

    def read_bit(self) -> int:
        if self._buf_bits == 0 and not self._fill():
            raise EOFError("bitstream exhausted")
        self._buf_bits -= 1
        self._pos += 1
        bit = (self._buf >> self._buf_bits) & 1
        self._buf &= (1 << self._buf_bits) - 1
        return bit

    def read_bits(self, count: int) -> int:
        while self._buf_bits < count:
            if not self._fill():
                raise EOFError("bitstream exhausted")
        self._buf_bits -= count
        self._pos += count
        value = self._buf >> self._buf_bits
        self._buf &= (1 << self._buf_bits) - 1
        return value

    def read_unary(self) -> int:
        count = 0
        while True:
            if self._buf_bits == 0 and not self._fill():
                raise EOFError("bitstream exhausted")
            if self._buf == 0:
                count += self._buf_bits
                self._pos += self._buf_bits
                self._buf_bits = 0
                continue
            top = self._buf.bit_length()
            zeros = self._buf_bits - top
            count += zeros
            self._buf_bits = top - 1  # consume the zeros and the 1
            self._buf &= (1 << self._buf_bits) - 1
            self._pos += zeros + 1
            return count

    @property
    def bits_remaining(self) -> int:
        return self._total_bits - self._pos


def buffered_read_exp_golomb_array(reader, count: int) -> np.ndarray:
    """Read ``count`` unsigned Exp-Golomb values into an int64 array."""
    out = np.empty(count, dtype=np.int64)
    read_unary = reader.read_unary
    read_bits = reader.read_bits
    for i in range(count):
        prefix = read_unary()
        out[i] = (1 << prefix) + read_bits(prefix) - 1
    return out


def buffered_decode_blocks(reader, n_blocks: int, n: int) -> np.ndarray:
    """The per-symbol block decode over a buffered reader."""
    rows, cols = zigzag_indices(n)
    out = np.zeros((n_blocks, n, n), dtype=np.int64)
    nn = n * n
    read_unary = reader.read_unary
    read_bits = reader.read_bits
    for b in range(n_blocks):
        flat = np.zeros(nn, dtype=np.int64)
        pos = -1
        while True:
            prefix = read_unary()
            run = (1 << prefix) + read_bits(prefix) - 1
            prefix = read_unary()
            level_code = (1 << prefix) + read_bits(prefix) - 1
            if level_code == 0:  # EOB
                break
            pos += run + 1
            if pos >= nn:
                raise ValueError("corrupt bitstream: coefficient index overflow")
            flat[pos] = _unsigned_to_signed(level_code)
        out[b][rows, cols] = flat
    return out


# ----------------------------------------------------------------------
# Four-tap bilinear resampling, as it was before the separable form
# (the decoder's chroma upsample and bench_hotpath's bilinear row).
# ----------------------------------------------------------------------
def _check_image(image: np.ndarray) -> np.ndarray:
    image = np.asarray(image, dtype=np.float64)
    if image.ndim not in (2, 3):
        raise ValueError(
            f"expected (H, W) or (H, W, C) image, got shape {image.shape}"
        )
    if image.shape[0] < 1 or image.shape[1] < 1:
        raise ValueError(f"image has empty spatial dims: {image.shape}")
    return image


def _source_coords(out_size: int, in_size: int) -> np.ndarray:
    """Map output pixel centres into input coordinate space."""
    scale = in_size / out_size
    return (np.arange(out_size, dtype=np.float64) + 0.5) * scale - 0.5


def legacy_bilinear(image: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear resampling (the paper's GPU ``GL_LINEAR`` path)."""
    image = _check_image(image)
    in_h, in_w = image.shape[:2]

    ys = _source_coords(out_h, in_h)
    xs = _source_coords(out_w, in_w)

    y0 = np.clip(np.floor(ys), 0, in_h - 1).astype(np.intp)
    x0 = np.clip(np.floor(xs), 0, in_w - 1).astype(np.intp)
    y1 = np.minimum(y0 + 1, in_h - 1)
    x1 = np.minimum(x0 + 1, in_w - 1)

    wy = np.clip(ys - y0, 0.0, 1.0)
    wx = np.clip(xs - x0, 0.0, 1.0)
    if image.ndim == 3:
        wy = wy[:, None, None]
        wx = wx[None, :, None]
    else:
        wy = wy[:, None]
        wx = wx[None, :]

    top = image[y0][:, x0] * (1 - wx) + image[y0][:, x1] * wx
    bot = image[y1][:, x0] * (1 - wx) + image[y1][:, x1] * wx
    return top * (1 - wy) + bot * wy


# ----------------------------------------------------------------------
# Motion (per-offset full-frame passes; the pruned per-offset loop;
# per-block compensation loop)
# ----------------------------------------------------------------------
#: Guard band of the pruned loop's elimination bound (integral-image
#: rounding stays far below it).
_PRUNE_SLACK = 1e-3


def _shift_frame(frame: np.ndarray, dy: int, dx: int) -> np.ndarray:
    h, w = frame.shape
    ys = np.clip(np.arange(h) + dy, 0, h - 1)
    xs = np.clip(np.arange(w) + dx, 0, w - 1)
    return frame[np.ix_(ys, xs)]


def legacy_estimate_motion(
    current: np.ndarray,
    reference: np.ndarray,
    block: int = 8,
    search_radius: int = 7,
) -> np.ndarray:
    """Exhaustive search: one shifted full-frame SAD pass per offset."""
    current = np.asarray(current, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    h, w = current.shape
    nby, nbx = block_grid_shape(h, w, block)
    cur = pad_to_blocks(current, block)
    ref = pad_to_blocks(reference, block)

    best_sad = np.full((nby, nbx), np.inf)
    best_mv = np.zeros((nby, nbx, 2), dtype=np.int64)

    offsets = [
        (dy, dx)
        for dy in range(-search_radius, search_radius + 1)
        for dx in range(-search_radius, search_radius + 1)
    ]
    offsets.sort(key=lambda o: (abs(o[0]) + abs(o[1]), o))

    for dy, dx in offsets:
        shifted = _shift_frame(ref, dy, dx)
        sad = (
            np.abs(cur - shifted)
            .reshape(nby, block, nbx, block)
            .sum(axis=(1, 3))
        )
        better = sad < best_sad
        best_sad = np.where(better, sad, best_sad)
        best_mv[better] = (dy, dx)
    return best_mv


def legacy_pruned_estimate_motion(
    current: np.ndarray,
    reference: np.ndarray,
    block: int = 8,
    search_radius: int = 7,
) -> np.ndarray:
    """The pruned full search before it was batched over offsets.

    A Python loop over the nearest-first offsets; at each, a
    successive-elimination bound from half-block integral-image sub-sums
    masks out the blocks whose best SAD so far cannot be beaten, and the
    exact SAD is gathered for the rest.  Frozen as the reference the
    batched search is timed against (same motion vectors, exactly).
    """
    current = np.asarray(current, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    cur = pad_to_blocks(current, block)
    ref = pad_to_blocks(reference, block)
    radius = search_radius
    ph, pw = cur.shape
    nby, nbx = ph // block, pw // block
    rp = np.pad(ref, radius, mode="edge") if radius else ref

    sub = block // 2 if block % 2 == 0 and block >= 4 else block
    spb = block // sub
    ii = np.zeros((rp.shape[0] + 1, rp.shape[1] + 1), dtype=np.float64)
    np.cumsum(rp, axis=0, out=ii[1:, 1:])
    np.cumsum(ii[1:, 1:], axis=1, out=ii[1:, 1:])
    ref_sub_all = ii[sub:, sub:] - ii[:-sub, sub:] - ii[sub:, :-sub] + ii[:-sub, :-sub]
    nsy, nsx = ph // sub, pw // sub
    cur_sub = cur.reshape(nsy, sub, nsx, sub).sum(axis=(1, 3))

    cur_blocks = cur.reshape(nby, block, nbx, block).transpose(0, 2, 1, 3).copy()
    best_sad = np.full((nby, nbx), np.inf, dtype=np.float64)
    best_mv = np.zeros((nby, nbx, 2), dtype=np.int64)
    taps = np.arange(block, dtype=np.int64)
    lb_buf = np.empty((nsy, nsx), dtype=np.float64)

    offsets = [
        (dy, dx)
        for dy in range(-radius, radius + 1)
        for dx in range(-radius, radius + 1)
    ]
    offsets.sort(key=lambda o: (abs(o[0]) + abs(o[1]), o))
    for dy, dx in offsets:
        y0 = radius + dy
        x0 = radius + dx
        np.subtract(
            cur_sub,
            ref_sub_all[y0 : y0 + nsy * sub : sub, x0 : x0 + nsx * sub : sub],
            out=lb_buf,
        )
        np.abs(lb_buf, out=lb_buf)
        lb = lb_buf.reshape(nby, spb, nbx, spb).sum(axis=(1, 3))
        bys, bxs = np.nonzero(lb - _PRUNE_SLACK < best_sad)
        if bys.size == 0:
            continue
        iy = (bys * block + y0)[:, None] + taps
        ix = (bxs * block + x0)[:, None] + taps
        ref_win = rp[iy[:, :, None], ix[:, None, :]]
        sad = np.abs(cur_blocks[bys, bxs] - ref_win).sum(axis=(1, 2))
        sel = sad < best_sad[bys, bxs]
        if sel.any():
            bys, bxs = bys[sel], bxs[sel]
            best_sad[bys, bxs] = sad[sel]
            best_mv[bys, bxs] = (dy, dx)
    return best_mv


def legacy_compensate(
    reference: np.ndarray, motion_vectors: np.ndarray, block: int = 8
) -> np.ndarray:
    """Per-block gather loop building the motion-compensated prediction."""
    reference = np.asarray(reference, dtype=np.float64)
    h, w = reference.shape
    nby, nbx = block_grid_shape(h, w, block)
    ref = pad_to_blocks(reference, block)
    ph, pw = ref.shape
    predicted = np.empty_like(ref)
    for by in range(nby):
        for bx in range(nbx):
            dy, dx = motion_vectors[by, bx]
            y0 = by * block + int(dy)
            x0 = bx * block + int(dx)
            ys = np.clip(np.arange(y0, y0 + block), 0, ph - 1)
            xs = np.clip(np.arange(x0, x0 + block), 0, pw - 1)
            predicted[
                by * block : (by + 1) * block, bx * block : (bx + 1) * block
            ] = ref[np.ix_(ys, xs)]
    return predicted[:h, :w]


# ----------------------------------------------------------------------
# Frame codec (mirrors VideoEncoder / VideoDecoder on the legacy pieces)
# ----------------------------------------------------------------------
def _legacy_encode_plane(plane, block, quality, writer):
    blocks = split_blocks(plane, block)
    levels = quantize(forward_dct(blocks), quality)
    legacy_encode_blocks(levels, writer)
    recon_blocks = inverse_dct(dequantize(levels, quality))
    return merge_blocks(recon_blocks, plane.shape[0], plane.shape[1], block)


def _legacy_encode_motion(mv, writer):
    for value in mv.reshape(-1):
        _write_exp_golomb(writer, _signed_to_unsigned(int(value)))


class LegacyVideoEncoder:
    """The seed GOP encoder running entirely on the frozen hot loops."""

    def __init__(
        self,
        gop_size: int = 60,
        quality: int = 60,
        block: int = 8,
        search_radius: int = 7,
    ) -> None:
        self.gop_size = gop_size
        self.quality = quality
        self.block = block
        self.search_radius = search_radius
        self._frame_index = 0
        self._recon_y: Optional[np.ndarray] = None
        self._recon_cb: Optional[np.ndarray] = None
        self._recon_cr: Optional[np.ndarray] = None

    def reset(self) -> None:
        self._frame_index = 0
        self._recon_y = self._recon_cb = self._recon_cr = None

    def encode_frame(self, rgb: np.ndarray) -> EncodedFrame:
        rgb = np.asarray(rgb, dtype=np.float64)
        h, w = rgb.shape[:2]
        y, cb, cr = rgb_to_ycbcr(rgb)
        y_p = y * PIXEL_SCALE - 128.0
        cb_p = subsample_chroma(cb) * PIXEL_SCALE
        cr_p = subsample_chroma(cr) * PIXEL_SCALE

        is_reference = self._frame_index % self.gop_size == 0
        writer = LegacyBitWriter()
        mv = None

        if is_reference or self._recon_y is None:
            frame_type = "I"
            recon_y = _legacy_encode_plane(y_p, self.block, self.quality, writer)
            recon_cb = _legacy_encode_plane(cb_p, self.block, self.quality, writer)
            recon_cr = _legacy_encode_plane(cr_p, self.block, self.quality, writer)
        else:
            frame_type = "P"
            mv = legacy_estimate_motion(
                y_p, self._recon_y, block=self.block, search_radius=self.search_radius
            )
            _legacy_encode_motion(mv, writer)
            pred_y = legacy_compensate(self._recon_y, mv, self.block)
            mv_c = np.round(mv / 2.0).astype(np.int64)
            chroma_block = max(self.block // 2, 2)
            pred_cb = legacy_compensate(self._recon_cb, mv_c, chroma_block)
            pred_cr = legacy_compensate(self._recon_cr, mv_c, chroma_block)
            recon_y = pred_y + _legacy_encode_plane(
                y_p - pred_y, self.block, self.quality, writer
            )
            recon_cb = pred_cb + _legacy_encode_plane(
                cb_p - pred_cb, self.block, self.quality, writer
            )
            recon_cr = pred_cr + _legacy_encode_plane(
                cr_p - pred_cr, self.block, self.quality, writer
            )

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


def _legacy_decode_plane(reader, height, width, block, quality):
    nby, nbx = block_grid_shape(height, width, block)
    levels = legacy_decode_blocks(reader, nby * nbx, block)
    recon = inverse_dct(dequantize(levels, quality))
    return merge_blocks(recon, height, width, block)


def _legacy_decode_motion(reader, nby, nbx):
    flat = np.empty(nby * nbx * 2, dtype=np.int64)
    for i in range(flat.size):
        flat[i] = _unsigned_to_signed(_read_exp_golomb(reader))
    return flat.reshape(nby, nbx, 2)


@dataclass(frozen=True)
class LegacyDecodedFrame:
    rgb: np.ndarray
    frame_type: str


class LegacyVideoDecoder:
    """The seed GOP decoder running entirely on the frozen hot loops."""

    def __init__(self) -> None:
        self._recon_y = self._recon_cb = self._recon_cr = None

    def reset(self) -> None:
        self._recon_y = self._recon_cb = self._recon_cr = None

    def _to_rgb(self, y, cb, cr):
        h, w = y.shape
        return ycbcr_to_rgb(
            (y + 128.0) / PIXEL_SCALE,
            legacy_bilinear(cb / PIXEL_SCALE, h, w),
            legacy_bilinear(cr / PIXEL_SCALE, h, w),
        )

    def decode_frame(self, encoded: EncodedFrame) -> LegacyDecodedFrame:
        h, w = encoded.height, encoded.width
        block = encoded.block
        quality = encoded.quality
        ch = -(-h // 2)
        cw = -(-w // 2)
        chroma_block = max(block // 2, 2)
        reader = LegacyBitReader(encoded.payload)

        if encoded.frame_type == "I":
            y = _legacy_decode_plane(reader, h, w, block, quality)
            cb = _legacy_decode_plane(reader, ch, cw, block, quality)
            cr = _legacy_decode_plane(reader, ch, cw, block, quality)
        else:
            nby, nbx = block_grid_shape(h, w, block)
            mv = _legacy_decode_motion(reader, nby, nbx)
            mv_c = np.round(mv / 2.0).astype(np.int64)
            pred_y = legacy_compensate(self._recon_y, mv, block)
            pred_cb = legacy_compensate(self._recon_cb, mv_c, chroma_block)
            pred_cr = legacy_compensate(self._recon_cr, mv_c, chroma_block)
            y = pred_y + _legacy_decode_plane(reader, h, w, block, quality)
            cb = pred_cb + _legacy_decode_plane(reader, ch, cw, block, quality)
            cr = pred_cr + _legacy_decode_plane(reader, ch, cw, block, quality)

        self._recon_y = np.clip(y, -128.0, 127.0)
        self._recon_cb = np.clip(cb, -128.0, 127.0)
        self._recon_cr = np.clip(cr, -128.0, 127.0)
        return LegacyDecodedFrame(
            rgb=self._to_rgb(self._recon_y, self._recon_cb, self._recon_cr),
            frame_type=encoded.frame_type,
        )
