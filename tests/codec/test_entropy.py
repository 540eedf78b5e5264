"""Zigzag scan order and coefficient entropy coding."""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks"))

from _legacy_codec import (  # noqa: E402
    LegacyBitReader,
    LegacyBitWriter,
    _legacy_decode_motion,
    legacy_decode_blocks,
    legacy_encode_blocks,
)
from repro.codec.bitstream import BitWriter  # noqa: E402
from repro.codec.entropy import (  # noqa: E402
    decode_payload,
    encode_blocks,
    read_exp_golomb_array,
    signed_to_unsigned_array,
    unsigned_to_signed_array,
    write_exp_golomb_array,
    zigzag_indices,
)


class TestZigzag:
    def test_known_4x4_order(self):
        block = np.arange(16).reshape(4, 4)
        rows, cols = zigzag_indices(4)
        flat = block[rows, cols]
        # Standard JPEG zigzag for 4x4.
        np.testing.assert_array_equal(
            flat, [0, 1, 4, 8, 5, 2, 3, 6, 9, 12, 13, 10, 7, 11, 14, 15]
        )

    def test_indices_visit_every_cell(self):
        rows, cols = zigzag_indices(8)
        assert len(set(zip(rows.tolist(), cols.tolist()))) == 64

    def test_frequency_ordering(self):
        """Zigzag visits low-frequency (small r+c) coefficients first."""
        rows, cols = zigzag_indices(8)
        sums = rows + cols
        assert all(sums[i] <= sums[i + 1] + 1 for i in range(len(sums) - 1))
        assert sums[0] == 0 and sums[-1] == 14


class TestBlockCoding:
    def roundtrip(self, blocks: np.ndarray) -> np.ndarray:
        writer = BitWriter()
        encode_blocks(blocks, writer)
        _, levels = decode_payload(writer.getvalue(), 0, len(blocks), blocks.shape[1])
        return levels

    def test_simple_roundtrip(self):
        blocks = np.zeros((2, 8, 8), dtype=np.int64)
        blocks[0, 0, 0] = 17
        blocks[1, 3, 4] = -9
        np.testing.assert_array_equal(self.roundtrip(blocks), blocks)

    def test_all_zero_blocks_are_tiny(self):
        writer = BitWriter()
        encode_blocks(np.zeros((10, 8, 8), dtype=np.int64), writer)
        assert len(writer.getvalue()) < 30  # ~2 codes per block

    def test_sparse_cheaper_than_dense(self, rng):
        sparse = np.zeros((4, 8, 8), dtype=np.int64)
        sparse[:, 0, 0] = 5
        dense = rng.integers(-20, 20, size=(4, 8, 8))
        ws, wd = BitWriter(), BitWriter()
        encode_blocks(sparse, ws)
        encode_blocks(dense, wd)
        assert len(ws.getvalue()) < len(wd.getvalue())

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            encode_blocks(np.zeros((2, 8, 4), dtype=np.int64), BitWriter())

    @given(
        arrays(
            dtype=np.int64,
            shape=st.tuples(st.integers(1, 4), st.just(8), st.just(8)),
            elements=st.integers(-255, 255),
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_property(self, blocks):
        np.testing.assert_array_equal(self.roundtrip(blocks), blocks)

    @given(
        arrays(
            dtype=np.int64,
            shape=st.tuples(st.integers(1, 3), st.just(4), st.just(4)),
            elements=st.integers(-1000, 1000),
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_property_4x4(self, blocks):
        np.testing.assert_array_equal(self.roundtrip(blocks), blocks)


class TestExpGolombArrays:
    @given(st.lists(st.integers(0, 2**30), min_size=0, max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_unsigned_roundtrip(self, values):
        w = BitWriter()
        write_exp_golomb_array(w, np.asarray(values, dtype=np.int64))
        out, fault = read_exp_golomb_array(w.getvalue())
        np.testing.assert_array_equal(out, values)
        assert isinstance(fault, EOFError)

    @given(st.lists(st.integers(-(2**30), 2**30), min_size=1, max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_signed_mapping_roundtrip(self, values):
        values = np.asarray(values, dtype=np.int64)
        np.testing.assert_array_equal(
            unsigned_to_signed_array(signed_to_unsigned_array(values)), values
        )

    def test_negative_values_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            write_exp_golomb_array(BitWriter(), np.array([3, -1]))


class TestCorruptStreams:
    """decode_payload error paths on damaged payloads, in stream order."""

    def _payload(self, blocks: np.ndarray) -> bytes:
        w = BitWriter()
        encode_blocks(blocks, w)
        return w.getvalue()

    def test_coefficient_index_overflow(self):
        # A run pointing past the block end without an EOB marker:
        # run=63 then level, then run=5 (overflows a 64-coefficient block).
        w = BitWriter()
        write_exp_golomb_array(w, np.array([63, 1, 5, 1], dtype=np.int64))
        # No EOB follows either: the overflow comes first in the stream,
        # so it wins over running out of codes.
        with pytest.raises(ValueError, match="coefficient index overflow"):
            decode_payload(w.getvalue(), 0, 1, 8)

    def test_truncated_payload_raises_eof(self, rng):
        blocks = rng.integers(-20, 20, size=(4, 8, 8))
        payload = self._payload(blocks)
        with pytest.raises(EOFError):
            decode_payload(payload[: len(payload) // 2], 0, 4, 8)

    def test_empty_payload_with_blocks_expected(self):
        with pytest.raises(EOFError):
            decode_payload(b"", 0, 1, 8)

    def test_too_many_blocks_requested(self, rng):
        blocks = rng.integers(-20, 20, size=(2, 8, 8))
        payload = self._payload(blocks)
        with pytest.raises(EOFError):
            decode_payload(payload, 0, 8, 8)

    def test_too_few_values(self):
        w = BitWriter()
        write_exp_golomb_array(w, np.array([3, 4, 5], dtype=np.int64))
        with pytest.raises(EOFError):
            decode_payload(w.getvalue(), 4, 0, 8)

    def test_code_wider_than_63_bits(self):
        # 63 zeros, a one and 63 suffix bits: the value overflows int64.
        w = BitWriter()
        write_exp_golomb_array(w, np.array([0, 1], dtype=np.int64))
        w.write_codes(np.array([1]), np.array([64]))
        w.write_codes(np.array([0]), np.array([63]))
        with pytest.raises(ValueError, match="wider than 63 bits"):
            decode_payload(w.getvalue(), 2, 1, 8)

    def test_overflow_before_wide_code(self):
        w = BitWriter()
        write_exp_golomb_array(w, np.array([70, 1], dtype=np.int64))
        w.write_codes(np.array([1]), np.array([64]))
        w.write_codes(np.array([0]), np.array([63]))
        with pytest.raises(ValueError, match="coefficient index overflow"):
            decode_payload(w.getvalue(), 0, 1, 8)

    def test_tokens_past_the_last_block_are_ignored(self):
        w = BitWriter()
        encode_blocks(np.zeros((1, 8, 8), dtype=np.int64), w)
        write_exp_golomb_array(w, np.array([500, 1], dtype=np.int64))
        _, levels = decode_payload(w.getvalue(), 0, 1, 8)
        assert not levels.any()


class TestExpGolombParse:
    """The one-pass chain parse: code boundaries, values and faults."""

    def test_prefix_and_suffix(self):
        # 0001 000(0): three zeros, the one, three suffix bits -> 8 - 1.
        codes, _ = read_exp_golomb_array(bytes([0b00010000]))
        np.testing.assert_array_equal(codes, [7])

    def test_empty(self):
        codes, fault = read_exp_golomb_array(b"")
        assert codes.size == 0 and isinstance(fault, EOFError)

    def test_suffix_past_the_data(self):
        codes, fault = read_exp_golomb_array(bytes([0b10000001]))
        np.testing.assert_array_equal(codes, [0])
        assert isinstance(fault, EOFError)

    def test_prefix_without_a_one(self):
        codes, fault = read_exp_golomb_array(bytes([0x00, 0x00]))
        assert codes.size == 0 and isinstance(fault, EOFError)

    def test_widest_code_and_wider(self):
        # 62 zeros + 63-bit code is the widest int64 value; one more zero
        # ends the chain with a ValueError.
        w = BitWriter()
        write_exp_golomb_array(w, np.array([2**63 - 2, 5], dtype=np.int64))
        w.write_codes(np.array([1]), np.array([64]))
        w.write_codes(np.array([0]), np.array([63]))
        codes, fault = read_exp_golomb_array(w.getvalue())
        np.testing.assert_array_equal(codes, [2**63 - 2, 5])
        assert isinstance(fault, ValueError)

    @given(
        st.lists(st.integers(0, 2**40), min_size=1, max_size=30),
        st.integers(0, 7),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_scalar_reader(self, values, lead_bits):
        w = BitWriter()
        # Lead with one-bit codes (value 0) to shift the rest off byte
        # alignment.
        w.write_codes(np.array([2**lead_bits - 1]), np.array([lead_bits]))
        write_exp_golomb_array(w, np.asarray(values, dtype=np.int64))
        codes, _ = read_exp_golomb_array(w.getvalue())
        reader = LegacyBitReader(w.getvalue())
        scalar = []
        for _ in range(codes.size):
            prefix = reader.read_unary()
            scalar.append((1 << prefix) + reader.read_bits(prefix) - 1)
        assert codes.tolist() == scalar
        assert codes.tolist() == [0] * lead_bits + values


def _legacy_payload(mv: np.ndarray, planes: list) -> bytes:
    w = LegacyBitWriter()
    for value in signed_to_unsigned_array(mv.reshape(-1)):
        code = int(value) + 1
        w.write_unary(code.bit_length() - 1)
        w.write_bits(code, code.bit_length() - 1)
    for blocks in planes:
        legacy_encode_blocks(blocks, w)
    return w.getvalue()


class TestMatchesScalarDecoder:
    """decode_payload against the frozen bit-at-a-time decoder."""

    @given(
        st.sampled_from([4, 8]),
        st.integers(1, 5),
        st.integers(0, 20),
        st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_blocks(self, n, n_blocks, log_level, data):
        limit = 2**log_level
        blocks = data.draw(
            arrays(
                dtype=np.int64,
                shape=(n_blocks, n, n),
                elements=st.integers(-limit, limit),
            )
        )
        if data.draw(st.booleans()):
            blocks[data.draw(st.integers(0, n_blocks - 1))] = 0
        payload = _legacy_payload(np.zeros(0, dtype=np.int64), [blocks])
        expected = legacy_decode_blocks(LegacyBitReader(payload), n_blocks, n)
        _, levels = decode_payload(payload, 0, n_blocks, n)
        np.testing.assert_array_equal(levels, expected)
        np.testing.assert_array_equal(levels, blocks)

    def test_all_zero_blocks(self):
        blocks = np.zeros((6, 8, 8), dtype=np.int64)
        payload = _legacy_payload(np.zeros(0, dtype=np.int64), [blocks])
        _, levels = decode_payload(payload, 0, 6, 8)
        np.testing.assert_array_equal(
            levels, legacy_decode_blocks(LegacyBitReader(payload), 6, 8)
        )

    @given(
        arrays(np.int64, st.tuples(st.integers(1, 3), st.integers(1, 4), st.just(2)),
               elements=st.integers(-16, 16)),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_p_payload_splits_like_the_scalar_reader(self, mv, seed):
        # Motion vectors, then a luma plane and two chroma planes.
        rng = np.random.default_rng(seed)
        n_luma = mv.shape[0] * mv.shape[1]
        sizes = (n_luma, max(n_luma // 4, 1), max(n_luma // 4, 1))
        planes = [
            rng.integers(-40, 40, size=(k, 8, 8)) * (rng.random((k, 8, 8)) < 0.2)
            for k in sizes
        ]
        payload = _legacy_payload(mv, planes)
        reader = LegacyBitReader(payload)
        mv_scalar = _legacy_decode_motion(reader, mv.shape[0], mv.shape[1])
        levels_scalar = [legacy_decode_blocks(reader, k, 8) for k in sizes]
        values, levels = decode_payload(payload, mv.size, sum(sizes), 8)
        np.testing.assert_array_equal(values.reshape(mv.shape), mv_scalar)
        np.testing.assert_array_equal(levels, np.concatenate(levels_scalar))
