"""Bit-level output for the codec's entropy-coded payloads.

:class:`BitWriter` appends single bits (:meth:`BitWriter.write_bit`) or,
with :meth:`BitWriter.write_codes`, a whole batch of MSB-first codewords
in one numpy pass (bit scatter + ``np.packbits``), byte-identical to
writing the same codewords bit by bit.
Payloads are read back by :func:`repro.codec.entropy.decode_payload`,
which parses a whole payload at once and needs no bit reader.
"""

from __future__ import annotations

import numpy as np

__all__ = ["BitWriter"]


class BitWriter:
    """Append-only MSB-first bit buffer."""

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

    def write_codes(self, values: np.ndarray, widths: np.ndarray) -> None:
        """Bulk-append codewords: the ``widths[i]`` low bits of ``values[i]``.

        Equivalent to ``write_bit`` over those bits, MSB first, for each i,
        but the whole batch is scattered into one bit array and packed with a
        single ``np.packbits`` pass.  Works at any bit offset: pending
        accumulator bits are prepended and the new tail (< 8 bits) is
        carried back into the accumulator.
        """
        values = np.asarray(values, dtype=np.int64)
        widths = np.asarray(widths, dtype=np.int64)
        if values.shape != widths.shape or values.ndim != 1:
            raise ValueError(
                f"values/widths must be matching 1-D arrays, got "
                f"{values.shape} vs {widths.shape}"
            )
        if widths.size and int(widths.min()) < 0:
            raise ValueError("widths must be >= 0")
        pending = self._n_bits
        total = pending + int(widths.sum())
        bits = np.zeros(total, dtype=np.uint8)
        for i in range(pending):  # < 8 bits
            bits[pending - 1 - i] = (self._accumulator >> i) & 1
        ends = pending + np.cumsum(widths)
        max_width = int(widths.max()) if widths.size else 0
        for k in range(max_width):
            sel = widths > k
            bits[ends[sel] - 1 - k] = (values[sel] >> k) & 1
        n_full = total // 8
        if n_full:
            self._bytes += np.packbits(bits[: n_full * 8]).tobytes()
        self._accumulator = 0
        self._n_bits = 0
        for bit in bits[n_full * 8 :]:  # < 8 bits
            self.write_bit(int(bit))

    def getvalue(self) -> bytes:
        """Flushed byte string (zero-padded to a byte boundary)."""
        out = bytearray(self._bytes)
        if self._n_bits:
            out.append(self._accumulator << (8 - self._n_bits))
        return bytes(out)
