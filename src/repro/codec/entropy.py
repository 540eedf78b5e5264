"""Entropy coding of quantized transform coefficients.

Coefficients are zigzag-scanned per block, run-length coded
(zero-run, nonzero-level pairs with an end-of-block marker), and levels are
written with signed Exp-Golomb codes — the coefficient-coding recipe of
H.264's CAVLC family, simplified but producing a *real* bitstream whose
length feeds the network bandwidth model.

The encoder is fully vectorized: nonzero runs come from ``np.flatnonzero``
diffs over all blocks at once, Exp-Golomb codeword bit-lengths from
``np.frexp``, and the whole token sequence is packed to bytes in one
:meth:`~repro.codec.bitstream.BitWriter.write_codes` pass.  The bitstream
is byte-identical to the original token-at-a-time writer (asserted by the
tier-1 equivalence tests and ``benchmarks/bench_codec.py``).  Decoding is
vectorized the same way: every field of a payload is an unsigned
Exp-Golomb code, so :func:`decode_payload` parses the whole payload as one
chain of codes and places every level with one scatter.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .bitstream import BitWriter

__all__ = [
    "zigzag_indices",
    "encode_blocks",
    "decode_payload",
    "write_exp_golomb_array",
    "read_exp_golomb_array",
    "signed_to_unsigned_array",
    "unsigned_to_signed_array",
]


@lru_cache(maxsize=None)
def zigzag_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row/col index arrays visiting an n x n block in zigzag order."""
    order = sorted(
        ((r, c) for r in range(n) for c in range(n)),
        key=lambda rc: (rc[0] + rc[1], rc[0] if (rc[0] + rc[1]) % 2 else rc[1]),
    )
    rows = np.array([r for r, _ in order], dtype=np.intp)
    cols = np.array([c for _, c in order], dtype=np.intp)
    return rows, cols


def _exp_golomb_codes(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(codeword, bit width) arrays for unsigned Exp-Golomb values.

    The codeword for v is the integer ``v + 1`` emitted over
    ``2*bit_length(v+1) - 1`` bits: ``bit_length - 1`` leading zeros (the
    unary prefix) followed by the binary digits of ``v + 1``.
    """
    codes = np.asarray(values, dtype=np.int64) + 1
    if codes.size and int(codes.min()) < 1:
        raise ValueError("Exp-Golomb values must be >= 0")
    if codes.size == 0:
        return codes, np.zeros(0, dtype=np.int64)
    if int(codes.max()) < (1 << 53):
        # frexp's exponent is the exact bit length for ints below 2**53.
        _, exp = np.frexp(codes.astype(np.float64))  # exact: codes < 2**53
        n_bits = exp.astype(np.int64)
    else:
        n_bits = np.array([int(c).bit_length() for c in codes], dtype=np.int64)
    return codes, 2 * n_bits - 1


def write_exp_golomb_array(writer: BitWriter, values: np.ndarray) -> None:
    """Bulk unsigned Exp-Golomb coding of a 1-D array of values >= 0."""
    codes, widths = _exp_golomb_codes(values)
    writer.write_codes(codes, widths)


#: Byte offsets of the window each code's value is read from (9 bytes
#: hold any 63-bit span that starts mid-byte).
_WINDOW = np.arange(9, dtype=np.intp)


def read_exp_golomb_array(data: bytes) -> tuple[np.ndarray, Exception]:
    """Parse ``data`` as one chain of unsigned Exp-Golomb codes.

    Returns every complete code from bit 0 on, as int64 values, and the
    fault a reader hits right after the last one: ``EOFError`` at the end
    of the data, or ``ValueError`` at a code wider than 63 bits (its value
    would overflow int64).  The zero padding of the last byte never holds
    a 1, so it ends the chain without adding a code.

    A code that starts at bit ``p`` with its first 1 at bit ``q`` ends at
    ``2q - p + 1``: a "next 1 at or after p" array makes each step of the
    chain one lookup, and the values are then gathered from 9-byte windows
    in one numpy pass.
    """
    bits = np.unpackbits(np.frombuffer(data + b"\x80", dtype=np.uint8))
    n_bits = 8 * len(data)  # the sentinel 1 sits at bit n_bits
    ones = np.where(bits, np.arange(bits.size, dtype=np.int32), np.int32(bits.size))
    next_one = np.minimum.accumulate(ones[::-1])[::-1]
    lookup = memoryview(next_one)
    starts = []
    append = starts.append
    p = 0
    while p < n_bits:
        append(p)
        p = 2 * lookup[p] - p + 1
    starts = np.array(starts, dtype=np.intp)
    ones_at = next_one[starts].astype(np.intp)
    if starts.size and 2 * ones_at[-1] - starts[-1] + 1 > n_bits:
        starts, ones_at = starts[:-1], ones_at[:-1]  # runs past the data
    fault: Exception = EOFError("bitstream exhausted")
    width = ones_at - starts + 1  # bit length of value + 1
    wide = np.flatnonzero(width > 63)
    if wide.size:
        ones_at, width = ones_at[: wide[0]], width[: wide[0]]
        fault = ValueError("corrupt bitstream: Exp-Golomb code wider than 63 bits")
    padded = np.frombuffer(data + bytes(9), dtype=np.uint8)
    window = padded[(ones_at >> 3)[:, None] + _WINDOW]
    shift = (ones_at & 7).astype(np.uint64)
    word = np.ascontiguousarray(window[:, :8]).view(">u8")[:, 0].astype(np.uint64)
    word = (word << shift) | (window[:, 8].astype(np.uint64) >> (np.uint64(8) - shift))
    return (word >> (np.uint64(64) - width.astype(np.uint64))).astype(np.int64) - 1, fault


def signed_to_unsigned_array(values: np.ndarray) -> np.ndarray:
    """Vectorized signed->unsigned Exp-Golomb value mapping."""
    values = np.asarray(values, dtype=np.int64)
    return np.where(values > 0, 2 * values - 1, -2 * values)


def unsigned_to_signed_array(codes: np.ndarray) -> np.ndarray:
    """Vectorized unsigned->signed Exp-Golomb value mapping."""
    codes = np.asarray(codes, dtype=np.int64)
    return np.where(codes % 2 == 1, (codes + 1) // 2, -(codes // 2))


def encode_blocks(blocks: np.ndarray, writer: BitWriter) -> None:
    """Entropy-code quantized integer blocks of shape (N, n, n).

    Token order per block — (zero-run, level) pairs for each nonzero in
    zigzag order, then an end-of-block (run past the last coefficient,
    level 0) — matches the original scalar writer bit for bit; the whole
    token sequence is assembled and packed vectorized.
    """
    blocks = np.asarray(blocks)
    if blocks.ndim != 3 or blocks.shape[1] != blocks.shape[2]:
        raise ValueError(f"expected (N, n, n) blocks, got {blocks.shape}")
    n_blocks = blocks.shape[0]
    n = blocks.shape[1]
    nn = n * n
    rows, cols = zigzag_indices(n)
    flat = blocks[:, rows, cols].astype(np.int64).ravel()  # (N * n*n)

    nz = np.flatnonzero(flat)
    block_id = nz // nn
    pos = nz % nn
    # Zero-run before each nonzero: distance to the previous nonzero in the
    # same block (or to the block start for the first one).
    prev_pos = np.empty_like(pos)
    prev_pos[:1] = 0
    prev_pos[1:] = pos[:-1]
    same_block = np.empty(block_id.shape, dtype=bool)
    same_block[:1] = False
    same_block[1:] = block_id[1:] == block_id[:-1]
    runs = np.where(same_block, pos - prev_pos - 1, pos)
    level_codes = signed_to_unsigned_array(flat[nz])

    # Scatter (run, level) token pairs, then per-block EOB pairs, into the
    # exact interleaved order the scalar writer produced.
    nnz = np.bincount(block_id, minlength=n_blocks)
    first = np.concatenate(([0], np.cumsum(nnz)[:-1]))
    token_start = np.concatenate(([0], np.cumsum(2 * nnz + 2)[:-1]))
    values = np.zeros(2 * nz.size + 2 * n_blocks, dtype=np.int64)
    idx = token_start[block_id] + 2 * (np.arange(nz.size, dtype=np.int64) - first[block_id])
    values[idx] = runs
    values[idx + 1] = level_codes
    last_pos = np.full(n_blocks, -1, dtype=np.int64)
    has_nz = nnz > 0
    last_pos[has_nz] = pos[first[has_nz] + nnz[has_nz] - 1]
    eob_idx = token_start + 2 * nnz
    values[eob_idx] = nn - last_pos - 1  # run pointing past the final coeff
    values[eob_idx + 1] = 0  # level 0 = EOB marker

    write_exp_golomb_array(writer, values)


def decode_payload(
    data: bytes, n_values: int, n_blocks: int, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Split one payload into ``n_values`` signed values and coded blocks.

    The payload is ``n_values`` signed Exp-Golomb values (a P-frame's
    motion vectors; none for an I-frame) followed by the
    :func:`encode_blocks` tokens of ``n_blocks`` (n, n) blocks, which may
    span several planes.  Returns the values and the (n_blocks, n, n)
    int64 levels.  A block ends at its EOB (level code 0); a coefficient's
    zigzag position is the running sum of ``run + 1`` within its block.
    Faults are raised in stream order: a coefficient index past the block
    end (``ValueError``) before running out of codes.
    """
    codes, fault = read_exp_golomb_array(data)
    if codes.size < n_values:
        raise fault
    values = unsigned_to_signed_array(codes[:n_values])
    tokens = codes[n_values : n_values + (codes.size - n_values) // 2 * 2]
    runs, levels = tokens[0::2], tokens[1::2]
    eob = levels == 0
    ends = np.flatnonzero(eob)
    if ends.size >= n_blocks:  # drop the tokens past the last block
        used = ends[n_blocks - 1] + 1 if n_blocks else 0
        runs, levels, eob, ends = runs[:used], levels[:used], eob[:used], ends[:n_blocks]
    nn = n * n
    # Runs are capped at nn so the running sums cannot overflow; any capped
    # run still lands past the block end.
    step = np.minimum(runs, nn) + 1
    step[eob] = 0
    pos = np.cumsum(step)
    block_id = np.cumsum(eob) - eob
    block_base = np.concatenate(([0], pos[ends]))
    coeff = ~eob
    block_id = block_id[coeff]
    pos = pos[coeff] - block_base[block_id] - 1
    if pos.size and int(pos.max()) >= nn:
        raise ValueError("corrupt bitstream: coefficient index overflow")
    if ends.size < n_blocks:
        raise fault
    rows, cols = zigzag_indices(n)
    out = np.zeros((n_blocks, n, n), dtype=np.int64)
    out.reshape(-1)[block_id * nn + (rows * n + cols)[pos]] = unsigned_to_signed_array(
        levels[coeff]
    )
    return values, out
