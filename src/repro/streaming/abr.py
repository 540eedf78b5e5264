"""Adaptive-bitrate control: co-adapt codec, RoI, and SR to the link.

The scenario layer (:mod:`repro.network.trace`) makes delivery
conditions time-varying; this module closes the loop. A single static
operating point — one codec quality, one GOP length, one RoI size, one
SR backend — either wastes quality on a good link or drops frames
through every fade. :class:`ABRController` runs a rung *ladder* of
co-designed operating points and moves along it from observed per-frame
network outcomes, the same AIMD discipline the RoI controller already
applies to upscale latency:

* **down** one rung immediately when a frame drops or its delivery
  latency eats the network budget (multiplicative-style backoff under
  congestion), requesting an IDR so the decoder resyncs at the new
  operating point without waiting out a broken GOP;
* **up** one rung after a sustained run of comfortable deliveries
  (additive probe).

Each rung co-adapts every server/client knob the previous PRs built:
codec ``quality`` and ``gop_size`` (shorter GOPs heal faster on lossy
rungs), an RoI-size cap multiplied onto the inherited
:class:`~repro.streaming.adaptive.AdaptiveRoIController` AIMD side, and
the SR backend (a lighter model buys client-side headroom when the
link forces small, low-quality frames). The session layer actuates the
rung's knobs before each frame is produced, so a decision taken on frame
``n``'s transmit outcome shapes frame ``n+1``.

This is an extension beyond the paper (which assumes a fixed 80 Mbps
WiFi link); the default pipeline keeps the static configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from ..network.link import TransmitResult
from ..platform import calibration as cal
from ..sr.backends import SRBackend, build_backend
from .adaptive import AdaptiveRoIController

__all__ = [
    "ABRRung",
    "ABRController",
    "DEFAULT_LADDER",
    "build_abr",
]


@dataclass(frozen=True)
class ABRRung:
    """One co-designed operating point on the ladder.

    ``roi_scale`` caps the adaptive RoI side at ``roi_scale * max_side``;
    ``sr_backend`` names a zoo backend (``None`` leaves the client's
    executor untouched — used for designs without the zoo knob).
    """

    name: str
    quality: int
    gop_size: int
    roi_scale: float = 1.0
    sr_backend: Optional[str] = None

    def __post_init__(self) -> None:
        if not 1 <= self.quality <= 100:
            raise ValueError(f"quality must be in [1, 100], got {self.quality}")
        if self.gop_size < 1:
            raise ValueError(f"gop_size must be >= 1, got {self.gop_size}")
        if not 0.0 < self.roi_scale <= 1.0:
            raise ValueError(f"roi_scale must be in (0, 1], got {self.roi_scale}")


#: Highest-fidelity first. The top rung is the paper's static operating
#: point at elevated quality; the floor rung is what survives a deep
#: cellular outage: small low-quality frames, short healing GOPs, a
#: shrunken RoI, and interpolation-only upscaling.
DEFAULT_LADDER: Tuple[ABRRung, ...] = (
    ABRRung("hq", quality=75, gop_size=60, roi_scale=1.0, sr_backend="edsr"),
    ABRRung("default", quality=60, gop_size=60, roi_scale=1.0, sr_backend="edsr"),
    ABRRung("balanced", quality=45, gop_size=30, roi_scale=0.9, sr_backend="quicksrnet"),
    ABRRung("low", quality=32, gop_size=15, roi_scale=0.75, sr_backend="quicksrnet"),
    ABRRung("floor", quality=18, gop_size=8, roi_scale=0.6, sr_backend="bilinear_gpu"),
)


class ABRController(AdaptiveRoIController):
    """Ladder-based ABR on top of the AIMD RoI controller.

    The inherited controller keeps adapting the RoI side to *client*
    compute (upscale spans); this subclass adds the *network* control
    dimension: a rung index moved by per-frame
    :class:`~repro.network.link.TransmitResult` outcomes, whose rung caps
    the RoI side and selects codec quality, GOP length, and SR backend.

    Parameters
    ----------
    initial_side / min_side / max_side:
        RoI planning bounds, as for the base controller.
    ladder:
        Operating points, highest fidelity first.
    backends:
        Optional ``{name: SRBackend}`` pool for the rungs' SR choices
        (see :func:`build_abr`); without it backend switching is off.
    net_budget_ms:
        Per-frame delivery budget; a transmit outcome past
        ``net_headroom * net_budget_ms`` (or an outright drop) is a
        congestion signal.
    upshift_after:
        Consecutive comfortable deliveries before probing one rung up.
    cooldown_frames:
        Frames to hold after a downshift before reacting again — covers
        the one-frame actuation lag so one burst does not slam the
        ladder to the floor.
    """

    def __init__(
        self,
        initial_side: int,
        min_side: int,
        max_side: int,
        ladder: Sequence[ABRRung] = DEFAULT_LADDER,
        backends: Optional[Dict[str, SRBackend]] = None,
        net_budget_ms: float = 100.0,
        net_headroom: float = 0.85,
        upshift_after: int = 12,
        cooldown_frames: int = 2,
        start_rung: int = 0,
        deadline_ms: float = cal.REALTIME_DEADLINE_MS,
    ) -> None:
        super().__init__(
            initial_side=initial_side,
            min_side=min_side,
            max_side=max_side,
            deadline_ms=deadline_ms,
        )
        if not ladder:
            raise ValueError("ladder needs at least one rung")
        names = [r.name for r in ladder]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate rung names: {names}")
        if not 0 <= start_rung < len(ladder):
            raise ValueError(f"start_rung {start_rung} outside ladder")
        if net_budget_ms <= 0:
            raise ValueError(f"net_budget_ms must be positive, got {net_budget_ms}")
        if not 0.0 < net_headroom <= 1.0:
            raise ValueError(f"net_headroom must be in (0, 1], got {net_headroom}")
        if upshift_after < 1:
            raise ValueError(f"upshift_after must be >= 1, got {upshift_after}")
        if cooldown_frames < 0:
            raise ValueError(f"cooldown_frames must be >= 0, got {cooldown_frames}")
        missing = {
            r.sr_backend
            for r in ladder
            if r.sr_backend is not None
            and backends is not None
            and r.sr_backend not in backends
        }
        if missing:
            raise ValueError(f"ladder backends missing from pool: {sorted(missing)}")
        self.ladder: Tuple[ABRRung, ...] = tuple(ladder)
        self.backends = backends
        self.net_budget_ms = net_budget_ms
        self.net_headroom = net_headroom
        self.upshift_after = upshift_after
        self.cooldown_frames = cooldown_frames
        self._rung_index = start_rung
        self._good_streak = 0
        self._cooldown = 0
        self._pending_idr = False
        self._last_knobs: Optional[Dict[str, object]] = None
        #: Span metadata of the most recent :meth:`next_frame_knobs`.
        self.frame_meta: Dict[str, object] = {}
        self.n_downshifts = 0
        self.n_upshifts = 0
        self.n_idr_requests = 0

    # -- state ------------------------------------------------------------

    @property
    def rung(self) -> ABRRung:
        """The operating point for the next produced frame."""
        return self.ladder[self._rung_index]

    @property
    def rung_index(self) -> int:
        return self._rung_index

    def _rung_side_cap(self) -> int:
        """The rung's RoI cap, snapped onto the controller lattice."""
        return self._quantize_down(self.max_side * self.rung.roi_scale)

    @property
    def side(self) -> int:
        """AIMD side clamped by the current rung's RoI cap."""
        return min(self._side, self._rung_side_cap())

    # -- network observation ----------------------------------------------

    def observe_network(
        self, outcome: TransmitResult, size_bytes: int, at_ms: float = 0.0
    ) -> None:
        """Feed one frame's transmit outcome; may move the rung.

        Ladder moves take effect on the *next* produced frame (the
        session actuates :meth:`next_frame_knobs` before production).
        """
        if size_bytes < 0:
            raise ValueError(f"size_bytes must be >= 0, got {size_bytes}")
        congested = (
            outcome.dropped
            or outcome.latency_ms > self.net_headroom * self.net_budget_ms
        )
        if self._cooldown > 0:
            self._cooldown -= 1
            if congested:
                self._good_streak = 0
            return
        if congested:
            self._good_streak = 0
            if self._rung_index < len(self.ladder) - 1:
                self._rung_index += 1
                self.n_downshifts += 1
                self._request_idr()
            self._cooldown = self.cooldown_frames
        else:
            self._good_streak += 1
            if self._good_streak >= self.upshift_after and self._rung_index > 0:
                self._rung_index -= 1
                self.n_upshifts += 1
                self._good_streak = 0

    def _request_idr(self) -> None:
        self._pending_idr = True
        self.n_idr_requests += 1

    # -- actuation ---------------------------------------------------------

    def next_frame_knobs(self, eval_roi_side: Optional[int]) -> Dict[str, object]:
        """Server-side knob set for the next produced frame.

        ``eval_roi_side`` is the controller side rescaled to the eval
        geometry by the session layer (``None`` for servers without RoI
        detection). Consumes the pending IDR request.
        """
        rung = self.rung
        knobs: Dict[str, object] = {
            "eval_roi_side": eval_roi_side,
            "quality": rung.quality,
            "gop_size": rung.gop_size,
            "force_idr": self._pending_idr,
        }
        self._pending_idr = False
        switched = (
            self._last_knobs is not None
            and self._last_knobs.get("rung") != rung.name
        )
        self._last_knobs = {"rung": rung.name, **knobs}
        self.frame_meta = {
            "rung": rung.name,
            "rung_index": self._rung_index,
            "quality": rung.quality,
            "gop_size": rung.gop_size,
            "roi_side": self.side,
            "sr_backend": rung.sr_backend,
            "force_idr": bool(knobs["force_idr"]),
            "switched": switched,
        }
        return knobs

    def client_backend(self) -> Optional[SRBackend]:
        """The rung's SR backend object, when a pool was provided."""
        if self.backends is None or self.rung.sr_backend is None:
            return None
        return self.backends[self.rung.sr_backend]


def build_abr(
    initial_side: int,
    min_side: int,
    max_side: int,
    ladder: Sequence[ABRRung] = DEFAULT_LADDER,
    runner=None,
    scale: int = 2,
    profile: str = "experiment",
    **kwargs,
) -> ABRController:
    """An :class:`ABRController` with its rungs' backend pool materialized.

    ``runner`` is reused for the EDSR rungs (so the top rung reproduces
    the session's default executor exactly); other neural rungs
    train-or-load their zoo weights via ``profile``. With ``runner=None``
    backend switching is disabled and the ladder only drives codec/RoI.
    """
    backends: Optional[Dict[str, SRBackend]] = None
    if runner is not None:
        backends = {}
        for rung in ladder:
            if rung.sr_backend is not None and rung.sr_backend not in backends:
                backends[rung.sr_backend] = build_backend(
                    rung.sr_backend,
                    scale=scale,
                    profile=profile,
                    runner=runner if rung.sr_backend == "edsr" else None,
                )
    return ABRController(
        initial_side=initial_side,
        min_side=min_side,
        max_side=max_side,
        ladder=ladder,
        backends=backends,
        **kwargs,
    )
