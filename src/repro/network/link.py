"""Network link model: bandwidth, propagation, packetization, loss.

Models the WiFi downlink between streaming server and mobile client. The
paper's motivation (Sec. II-A) is that 2K streams exceed what mobile
links sustain — the characterization study it cites saw 44-90 % frame
drops. :class:`NetworkLink` reproduces that mechanism: frames are
packetized, each packet takes serialization + propagation time, random
loss forces retransmission, and a frame *drops* when it misses its
display deadline.

:meth:`NetworkLink.transmit` is *time-aware*: the optional ``at_ms``
argument names the instant the frame enters the link. The static base
link ignores it (conditions never change), but
:class:`~repro.network.trace.TraceDrivenLink` looks up bandwidth, RTT,
and loss from a :class:`~repro.network.trace.LinkTrace` at that instant,
which is how the time-varying LTE/5G/WiFi scenarios are driven.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["TransmitResult", "NetworkLink", "MTU_BYTES", "packet_sizes"]

#: Ethernet/WiFi payload MTU used for packetization.
MTU_BYTES = 1400


def packet_sizes(size_bytes: int) -> np.ndarray:
    """Per-packet byte sizes of one packetized frame.

    ``size_bytes // MTU_BYTES`` full packets plus a partial tail packet
    when the frame does not divide evenly — the tail's *actual* size is
    what retransmission serialization must charge (losing a 200-byte
    tail does not re-clock 1400 bytes).
    """
    if size_bytes < 0:
        raise ValueError(f"size_bytes must be >= 0, got {size_bytes}")
    n_packets = max(1, -(-size_bytes // MTU_BYTES))
    sizes = np.full(n_packets, MTU_BYTES, dtype=np.int64)
    sizes[-1] = size_bytes - (n_packets - 1) * MTU_BYTES
    return sizes


@dataclass(frozen=True)
class TransmitResult:
    """Outcome of transmitting one frame.

    ``serialization_ms`` is the total time the link spent clocking bytes
    (first transmission + every retransmission round), i.e. how long the
    frame *occupies* the serialized link. ``latency_ms`` adds the
    byte-independent propagation components (one downlink propagation
    plus one RTT per retransmission round), which overlap with other
    frames' serialization and must never be charged to link occupancy.
    """

    latency_ms: float
    n_packets: int
    n_retransmissions: int
    dropped: bool
    serialization_ms: float = 0.0


class NetworkLink:
    """A lossy, finite-bandwidth downlink."""

    def __init__(
        self,
        bandwidth_mbps: float = 80.0,
        propagation_ms: float = 8.0,
        loss_rate: float = 0.0,
        seed: int = 0,
    ) -> None:
        if bandwidth_mbps <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth_mbps}")
        if propagation_ms < 0:
            raise ValueError(f"propagation must be >= 0, got {propagation_ms}")
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError(f"loss_rate must be in [0, 1), got {loss_rate}")
        self.bandwidth_mbps = bandwidth_mbps
        self.propagation_ms = propagation_ms
        self.loss_rate = loss_rate
        self._rng = np.random.default_rng(seed)

    # -- per-call conditions (overridden by the trace-driven link) -------
    def _conditions_at(self, at_ms: float) -> tuple[float, float, float]:
        """(bandwidth_mbps, propagation_ms, loss_rate) at instant ``at_ms``."""
        return self.bandwidth_mbps, self.propagation_ms, self.loss_rate

    def _lose_packets(self, n_outstanding: int, loss_rate: float) -> np.ndarray:
        """Boolean lost-mask over the outstanding packets of one round."""
        if loss_rate <= 0.0:
            return np.zeros(n_outstanding, dtype=bool)
        return self._rng.random(n_outstanding) < loss_rate

    def transmit(
        self,
        size_bytes: int,
        deadline_ms: float = float("inf"),
        at_ms: float = 0.0,
    ) -> TransmitResult:
        """Send one frame at instant ``at_ms``; it drops past ``deadline_ms``.

        Lost packets are retransmitted (adding one RTT each round); a
        frame is only displayable once every packet has arrived. Loss is
        drawn per packet, so a retransmission round serializes the
        *actual* byte sizes of the packets it lost — a partial tail
        packet re-clocks only its own bytes.
        """
        sizes = packet_sizes(size_bytes)
        n_packets = int(sizes.size)
        bandwidth, propagation, loss_rate = self._conditions_at(at_ms)
        serialization = size_bytes * 8 / (bandwidth * 1e3)
        latency = serialization + propagation
        retransmissions = 0
        outstanding = sizes
        while outstanding.size:
            lost = outstanding[self._lose_packets(outstanding.size, loss_rate)]
            if lost.size == 0:
                break
            retransmissions += int(lost.size)
            round_ser = int(lost.sum()) * 8 / (bandwidth * 1e3)
            serialization += round_ser
            latency += 2 * propagation + round_ser
            outstanding = lost
        return TransmitResult(
            latency_ms=latency,
            n_packets=n_packets,
            n_retransmissions=retransmissions,
            dropped=latency > deadline_ms,
            serialization_ms=serialization,
        )

    def stream_drop_rate(
        self,
        frame_bytes: int,
        fps: float = 60.0,
        n_frames: int = 600,
        buffer_frames: float = 2.0,
    ) -> float:
        """Fraction of frames dropped when streaming at ``fps``.

        A frame drops when its delivery lags the display deadline
        (``buffer_frames`` periods of slack), including queueing behind
        earlier frames on the serialized link. Only serialization time
        occupies the link: propagation (including each retransmission
        round's RTT) is in-flight air time that overlaps the next
        frame's bytes, so it never extends the busy window.
        """
        if fps <= 0 or n_frames < 1:
            raise ValueError("fps and n_frames must be positive")
        period = 1000.0 / fps
        deadline_slack = buffer_frames * period
        queue_free_at = 0.0
        drops = 0
        for i in range(n_frames):
            arrival = i * period
            start = max(arrival, queue_free_at)
            result = self.transmit(frame_bytes, at_ms=start)
            finish = start + result.latency_ms
            queue_free_at = start + result.serialization_ms
            if finish > arrival + deadline_slack:
                drops += 1
        return drops / n_frames
