"""Bit-level output."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codec.bitstream import BitWriter


class TestBitWriter:
    def test_single_bits(self):
        w = BitWriter()
        for bit in (1, 0, 1, 1, 0, 0, 0, 1):
            w.write_bit(bit)
        assert w.getvalue() == bytes([0b10110001])

    def test_partial_byte_padded(self):
        w = BitWriter()
        for bit in (1, 0, 1):
            w.write_bit(bit)
        assert w.getvalue() == bytes([0b10100000])

    def test_write_bits_msb_first(self):
        w = BitWriter()
        w.write_codes(np.array([0xAB]), np.array([8]))
        assert w.getvalue() == bytes([0xAB])

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            BitWriter().write_codes(np.array([1]), np.array([-1]))


class TestWriteCodes:
    """Bulk write_codes must match a write_bit loop bit for bit."""

    @given(
        st.lists(
            st.tuples(st.integers(0, 2**20), st.integers(1, 21)),
            min_size=0,
            max_size=30,
        ),
        st.integers(0, 7),
    )
    @settings(max_examples=50, deadline=None)
    def test_matches_sequential_writes(self, pairs, lead_bits):
        bulk, loop = BitWriter(), BitWriter()
        for w in (bulk, loop):
            for i in range(lead_bits):  # start mid-byte
                w.write_bit(i & 1)
        values = np.array([v & ((1 << c) - 1) for v, c in pairs], dtype=np.int64)
        widths = np.array([c for _, c in pairs], dtype=np.int64)
        bulk.write_codes(values, widths)
        for v, c in zip(values.tolist(), widths.tolist()):
            for k in reversed(range(c)):  # MSB first
                loop.write_bit((v >> k) & 1)
        assert bulk.getvalue() == loop.getvalue()

    def test_empty_batch(self):
        w = BitWriter()
        w.write_codes(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
        assert w.getvalue() == b""

    def test_zero_width_codes_write_nothing(self):
        w = BitWriter()
        w.write_codes(np.array([0, 5, 0]), np.array([0, 3, 0]))
        assert w.getvalue() == bytes([0b10100000])

    def test_shape_and_negative_width_validation(self):
        with pytest.raises(ValueError, match="1-D"):
            BitWriter().write_codes(np.zeros((2, 2)), np.zeros((2, 2)))
        with pytest.raises(ValueError, match="matching"):
            BitWriter().write_codes(np.zeros(3), np.zeros(2))
        with pytest.raises(ValueError, match=">= 0"):
            BitWriter().write_codes(np.array([1]), np.array([-1]))


def _bits(data: bytes) -> list[int]:
    return np.unpackbits(np.frombuffer(data, dtype=np.uint8)).tolist()


class TestRoundTrip:
    @given(st.lists(st.integers(0, 1), min_size=1, max_size=64))
    @settings(max_examples=50, deadline=None)
    def test_bit_sequences(self, bits):
        w = BitWriter()
        for bit in bits:
            w.write_bit(bit)
        out = _bits(w.getvalue())
        assert out[: len(bits)] == bits
        assert not any(out[len(bits) :])  # zero padding

    @given(st.lists(st.tuples(st.integers(0, 2**20), st.integers(1, 21)), max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_value_sequences(self, pairs):
        w = BitWriter()
        for value, width in pairs:
            w.write_codes(np.array([value & ((1 << width) - 1)]), np.array([width]))
        out = "".join(map(str, _bits(w.getvalue())))
        pos = 0
        for value, width in pairs:
            assert int(out[pos : pos + width], 2) == value & ((1 << width) - 1)
            pos += width
