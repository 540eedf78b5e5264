"""Network link model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.network.link import MTU_BYTES, NetworkLink, packet_sizes


def _serialization_ms(size_bytes, bandwidth_mbps=80.0):
    """Time to clock ``size_bytes`` onto a link of ``bandwidth_mbps``."""
    return size_bytes * 8 / (bandwidth_mbps * 1e3)


class TestSerialization:
    def test_time_from_bandwidth(self):
        link = NetworkLink(bandwidth_mbps=80.0, propagation_ms=0.0)
        # 10 KB at 80 Mbps = 80,000 bits / 80,000 bits-per-ms = 1 ms.
        assert link.transmit(10_000).serialization_ms == pytest.approx(1.0)

    def test_propagation_added(self):
        link = NetworkLink(bandwidth_mbps=80.0, propagation_ms=5.0)
        result = link.transmit(10_000)
        assert result.latency_ms == pytest.approx(6.0)
        assert not result.dropped

    def test_packet_count(self):
        link = NetworkLink()
        assert link.transmit(1).n_packets == 1
        assert link.transmit(MTU_BYTES + 1).n_packets == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            NetworkLink(bandwidth_mbps=0)
        with pytest.raises(ValueError):
            NetworkLink(loss_rate=1.0)
        with pytest.raises(ValueError):
            NetworkLink().transmit(-1)


class TestLoss:
    def test_lossless_is_deterministic(self):
        link = NetworkLink(loss_rate=0.0)
        a = link.transmit(50_000)
        b = link.transmit(50_000)
        assert a.latency_ms == b.latency_ms
        assert a.n_retransmissions == 0

    def test_loss_adds_latency(self):
        clean = NetworkLink(loss_rate=0.0).transmit(500_000)
        lossy_link = NetworkLink(loss_rate=0.3, seed=1)
        lossy = lossy_link.transmit(500_000)
        assert lossy.n_retransmissions > 0
        assert lossy.latency_ms > clean.latency_ms

    def test_deadline_marks_drop(self):
        link = NetworkLink(bandwidth_mbps=1.0, propagation_ms=5.0)
        assert link.transmit(100_000, deadline_ms=10.0).dropped
        assert not link.transmit(100, deadline_ms=100.0).dropped


class TestPacketization:
    def test_packet_sizes_partial_tail(self):
        sizes = packet_sizes(MTU_BYTES + 200)
        assert list(sizes) == [MTU_BYTES, 200]
        assert int(sizes.sum()) == MTU_BYTES + 200

    def test_packet_sizes_exact_multiple(self):
        sizes = packet_sizes(3 * MTU_BYTES)
        assert list(sizes) == [MTU_BYTES] * 3

    def test_tiny_frame_single_packet(self):
        assert list(packet_sizes(1)) == [1]


class TestRetransmitSerialization:
    """Regression: retransmission rounds must serialize the actual byte
    sizes of the lost packets, not ``lost * MTU_BYTES`` — losing a
    partial tail packet re-clocks only its own bytes."""

    def test_partial_tail_retransmit_charges_actual_bytes(self):
        # 2 packets: one full MTU + a 200-byte tail. Force every packet
        # lost exactly once, then delivered.
        size = MTU_BYTES + 200
        link = NetworkLink(bandwidth_mbps=80.0, propagation_ms=5.0, loss_rate=0.5)
        rounds = iter(
            [np.array([True, True]), np.array([False, False])]
        )
        link._lose_packets = lambda n, p: next(rounds)
        result = link.transmit(size)
        # Serialization: full frame once + both packets once more — the
        # old code would have charged 2 * MTU_BYTES for the retransmit.
        expected_ser = 2 * _serialization_ms(size)
        assert result.serialization_ms == pytest.approx(expected_ser)
        assert result.latency_ms == pytest.approx(
            expected_ser + 5.0 + 2 * 5.0
        )
        assert result.n_retransmissions == 2

    def test_lost_tail_only_recharges_tail(self):
        size = MTU_BYTES + 200
        link = NetworkLink(bandwidth_mbps=80.0, propagation_ms=0.0, loss_rate=0.5)
        rounds = iter([np.array([False, True]), np.array([False])])
        link._lose_packets = lambda n, p: next(rounds)
        result = link.transmit(size)
        assert result.serialization_ms == pytest.approx(
            _serialization_ms(size) + _serialization_ms(200)
        )
        assert result.n_retransmissions == 1

    def test_serialization_ms_excludes_propagation(self):
        link = NetworkLink(bandwidth_mbps=80.0, propagation_ms=7.0, loss_rate=0.0)
        result = link.transmit(10_000)
        assert result.serialization_ms == pytest.approx(_serialization_ms(10_000))
        assert result.latency_ms - result.serialization_ms == pytest.approx(7.0)


class TestStreamDropRate:
    def test_high_bitrate_drops_more(self):
        """The paper's motivation: 2K streams overload the link (Sec. II-A)."""
        link_720 = NetworkLink(bandwidth_mbps=40.0, seed=0)
        link_2k = NetworkLink(bandwidth_mbps=40.0, seed=0)
        drops_720 = link_720.stream_drop_rate(frame_bytes=30_000, n_frames=120)
        drops_2k = link_2k.stream_drop_rate(frame_bytes=110_000, n_frames=120)
        assert drops_2k > drops_720
        assert drops_2k > 0.3  # severe, like the study the paper cites

    def test_ample_bandwidth_no_drops(self):
        link = NetworkLink(bandwidth_mbps=500.0)
        assert link.stream_drop_rate(frame_bytes=30_000, n_frames=60) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            NetworkLink().stream_drop_rate(1000, fps=0)

    def test_retransmit_rtt_does_not_occupy_queue(self):
        """Regression: each retransmission round's 2x propagation used to
        stay inside the link busy window (``queue_free_at = finish -
        propagation_ms``), so retransmit RTTs blocked the queue as if
        they serialized bytes. With ample bandwidth and a fat RTT, one
        retransmission per frame must not cascade into a backlog."""
        frame_bytes = 10_000
        n_full = len(packet_sizes(frame_bytes))

        def lose_tail_once(n, loss_rate):
            mask = np.zeros(n, dtype=bool)
            if n == n_full:  # first round: lose only the tail packet
                mask[-1] = True
            return mask

        lossy = NetworkLink(bandwidth_mbps=80.0, propagation_ms=10.0, loss_rate=0.5)
        lossy._lose_packets = lose_tail_once
        lossless = NetworkLink(bandwidth_mbps=80.0, propagation_ms=10.0)
        # Delivery latency with one retransmit round: ~1 ms serialization
        # + 3 x 10 ms propagation ~= 31 ms < the 2-frame (33.3 ms) slack,
        # and serialization alone (~1 ms) is far under the 16.7 ms frame
        # period — so neither link may ever drop. The old accounting
        # charged ~21 ms of occupancy per frame and cascaded to drops.
        kwargs = dict(frame_bytes=frame_bytes, fps=60.0, n_frames=120)
        assert lossless.stream_drop_rate(**kwargs) == 0.0
        assert lossy.stream_drop_rate(**kwargs) == 0.0
