"""Client-side upscaling designs: GameStreamSR and its baselines.

Every client consumes :class:`~repro.streaming.frames.ServerFrame`
objects and produces :class:`~repro.streaming.frames.ClientFrameResult`
with (a) real upscaled pixels at the evaluation geometry and (b) stage
latencies + energy stage lists evaluated at the *modeled* geometry
(720p -> 1440p) through the calibrated platform model.

The client pipeline is staged (Fig. 9): :meth:`StreamingClient.process`
is a template method that records the shared network-receive, decode, and
display spans into a :class:`~repro.streaming.pipeline.FrameTrace` and
assembles the :class:`ClientFrameResult`; each design only implements its
:meth:`~StreamingClient._upscale_stage` (and may amend the decode span —
the SR-integrated decoder replaces it with its augmented datapath, NEMO
charges its in-decoder warp energy to it).

Designs:

* :class:`GameStreamSRClient` — the paper's design: hardware decode, DNN
  SR on the RoI (NPU) in parallel with GPU bilinear on the rest, merge.
* :class:`NemoClient` — the SOTA baseline (NEMO): software decode
  (codec-modified, so no hardware decoder), full-frame DNN SR on
  reference frames, and non-reference reconstruction from the upscaled
  reference + bilinearly upscaled motion vectors and residuals on the CPU.
* :class:`BilinearClient` — hardware decode + GPU bilinear only (quality
  floor).
* :class:`FullFrameSRClient` — DNN SR on every full frame (quality
  ceiling; hopelessly slow on mobile).
* :class:`SRIntegratedDecoderClient` — the paper's Fig. 15 future-work
  prototype: RoI-SR on reference frames only; non-reference frames are
  reconstructed inside the (augmented) decoder from the cached upscaled
  reference with RoI-guided residual interpolation (bicubic inside the
  RoI, bilinear outside), bypassing the NPU.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from ..codec.decoder import DecodedFrame, VideoDecoder
from ..codec.residual import block_energy, block_pixel_counts
from ..contracts import expect
from ..codec.motion import compensate, upscale_motion_vectors
from ..core.roi_search import RoIBox
from ..core.upscaler import RoIAssistedUpscaler
from ..platform import latency as lat
from ..platform.device import DeviceProfile
from ..platform.energy import Component
from ..sr.backends import SRBackend, build_backend
from ..sr.dispatch import DifficultyDispatcher
from ..sr.gop_reuse import (
    REUSE_DIRTY_THRESHOLD,
    GOPSRCache,
    composite_blocks,
    dirty_block_mask,
)
from ..sr.interpolate import bicubic, bilinear
from ..sr.runner import SRRunner
from .frames import ClientFrameResult, ServerFrame
from .pipeline import FrameTrace, split_transmission

__all__ = [
    "StreamingClient",
    "GameStreamSRClient",
    "NemoClient",
    "BilinearClient",
    "FullFrameSRClient",
    "SRIntegratedDecoderClient",
]


class StreamingClient:
    """Base class: owns the decoder, the device profile, and the template
    pipeline (network rx -> decode -> upscale -> display -> assemble)."""

    #: Human-readable design label used in reports.
    design = "abstract"
    #: Whether the design can use the hardware decoder block (NEMO's codec
    #: modifications force the software decoder, Sec. V-A).
    decode_hardware = True
    #: Component charged for the decode stage energy.
    decode_component = Component.HW_DECODER

    def __init__(self, device: DeviceProfile) -> None:
        self.device = device
        self.decoder = VideoDecoder()

    def reset(self) -> None:
        self.decoder.reset()

    def configure_sr(
        self,
        *,
        gop_reuse: bool = False,
        sr_backend: Optional[SRBackend] = None,
        dispatch: Optional[DifficultyDispatcher] = None,
    ) -> None:
        """Set the per-session SR execution knobs.

        Only the RoI-SR designs carry them; asking any other design is a
        configuration error, not a silent no-op.
        """
        for knob, on in (
            ("gop_reuse", gop_reuse),
            ("sr_backend", sr_backend is not None),
            ("dispatch", dispatch is not None),
        ):
            if on:
                raise ValueError(
                    f"design {self.design!r} does not support {knob}; use "
                    "GameStreamSRClient or SRIntegratedDecoderClient"
                )

    # -- template pipeline ----------------------------------------------
    def process(self, frame: ServerFrame) -> ClientFrameResult:
        """Run one frame through the staged client pipeline."""
        self._check_frame(frame)
        trace = FrameTrace(index=frame.index, frame_type=frame.encoded.frame_type)

        with trace.stage("network", mtp=False) as st:
            # Energy-only span: the server's network span owns the MTP
            # downlink time; the client attributes the radio-active
            # serialization window to RX energy exactly once (pipeline.py).
            split = split_transmission(frame.modeled_size_bytes)
            st.modeled_ms = split.serialization_ms
            st.add_energy(Component.NETWORK_RX, split.serialization_ms)
            st.meta(modeled_bytes=frame.modeled_size_bytes)

        with trace.stage("decode") as st:
            decoded = self.decoder.decode_frame(frame.encoded)
            decode_ms = lat.decode_ms(
                frame.geometry.modeled_lr_pixels, self.device,
                hardware=self.decode_hardware,
            )
            st.modeled_ms = decode_ms
            st.add_energy(self.decode_component, decode_ms)
            st.meta(hardware=self.decode_hardware)

        hr = self._upscale_stage(frame, decoded, trace)
        expect(hr, "H W 3:f", name="hr_frame", where=f"{type(self).__name__}.process")

        with trace.stage("display") as st:
            st.modeled_ms = self._display_ms(frame, trace)

        return ClientFrameResult(
            index=frame.index,
            frame_type=frame.encoded.frame_type,
            hr_frame=hr,
            trace=trace,
        )

    # -- design hooks ----------------------------------------------------
    def _check_frame(self, frame: ServerFrame) -> None:
        """Validate per-design frame requirements before any work."""

    def _upscale_stage(
        self, frame: ServerFrame, decoded: DecodedFrame, trace: FrameTrace
    ) -> np.ndarray:
        """Record the design's upscale span(s) and return the HR pixels."""
        raise NotImplementedError

    def _display_ms(self, frame: ServerFrame, trace: FrameTrace) -> float:
        """Display-stage latency; designs may add composition work."""
        return lat.display_present_ms(self.device)


def _roi_block_count(roi: RoIBox, block: int) -> int:
    """How many blocks of the LR grid the RoI intersects."""
    rows = -(-roi.y_end // block) - roi.y // block
    cols = -(-roi.x_end // block) - roi.x // block
    return rows * cols


def _refresh_reuse_meta(geometry, roi: RoIBox, reason: str, block: int) -> Dict:
    """The ``reuse`` span metadata for a full-refresh frame.

    Shared by every client with a GOP-reuse path so the ``sr.reuse/*``
    counters mean the same thing across designs.
    """
    nby = -(-geometry.eval_lr_height // block)
    nbx = -(-geometry.eval_lr_width // block)
    n_roi = _roi_block_count(roi, block)
    return dict(
        refresh=True, reason=reason, warp_ms=0.0, dirty_fraction=1.0,
        tiles_total=nby * nbx, tiles_reused=0,
        tiles_recomputed_sr=n_roi,
        tiles_recomputed_bilinear=nby * nbx - n_roi,
    )


def _dirty_mask(
    decoded: DecodedFrame, geometry, block: int, threshold: float
) -> Tuple[np.ndarray, np.ndarray]:
    """GOP-reuse dirty blocks of a P-frame and their eval-LR pixel mask.

    Both reuse consumers read the decoder's residual summary the same
    way: per-block residual energy against ``threshold``, then the block
    grid expanded to pixels and cropped to the frame.
    """
    h, w = geometry.eval_lr_height, geometry.eval_lr_width
    energy = decoded.residual_block_energy(block)
    dirty = dirty_block_mask(energy, block_pixel_counts(h, w, block), threshold)
    dirty_px = np.repeat(np.repeat(dirty, block, axis=0), block, axis=1)[:h, :w]
    return dirty, dirty_px


class _ZooSRExecution:
    """Mixin: the RoI SR pass of the RoI-SR clients and its session knobs.

    The RoI always runs on an :class:`~repro.sr.backends.SRBackend`. By
    default that is the ``edsr`` zoo member over the client's own runner,
    built once, so the paper configuration is one backend among the zoo.
    Three knobs; ``dispatch`` excludes the other two (the rule lives on
    :class:`~repro.streaming.session.SessionConfig`):

    * ``gop_reuse`` — the compressed-domain SR cache; each design
      implements its own warp-and-refresh path, and GameStreamSR's
      partial refresh upscales its dirty RoI windows on the backend.
    * ``sr_backend`` — swap the session EDSR for any zoo backend.
    * ``dispatch`` — a :class:`~repro.sr.dispatch.DifficultyDispatcher`
      routes RoI tiles across a backend pool per frame, planned at the
      *modeled* per-tile pixel load so budgets compare against the
      real-time deadline.

    :meth:`_price_pass` prices every RoI SR pass, whole-RoI
    (:meth:`_roi_pass`) or partial refresh: same-engine work serializes
    (with the GPU bilinear rest too), distinct engines run in parallel
    (Sec. IV-C). Its span records ``sr_backend`` and ``sr_ms`` (or
    ``dispatch``), ``gpu_ms``, ``merge_ms`` and ``modeled_roi_pixels``.
    """

    gop_reuse: bool = False
    dispatch: Optional[DifficultyDispatcher] = None

    def __init__(self, device: DeviceProfile, runner: SRRunner) -> None:
        super().__init__(device)
        self.runner = runner
        self._session_backend = build_backend(
            "edsr", scale=runner.scale, runner=runner
        )
        self.set_sr_backend(self._session_backend)

    def configure_sr(
        self,
        *,
        gop_reuse: bool = False,
        sr_backend: Optional[SRBackend] = None,
        dispatch: Optional[DifficultyDispatcher] = None,
    ) -> None:
        """Set all three SR execution knobs, "off" included.

        ``run_session`` calls this at every session start, so neither a
        knob nor a backend an ABR ladder switched to carries over into
        the client's next session; ``sr_backend=None`` restores the
        session EDSR.
        """
        self.gop_reuse = gop_reuse
        self.dispatch = None
        self.set_sr_backend(
            self._session_backend if sr_backend is None else sr_backend
        )
        if dispatch is not None:
            self.set_dispatch(dispatch)

    def set_sr_backend(self, backend: SRBackend) -> None:
        """Route the RoI SR pass through a model-zoo backend."""
        if backend.scale != self.runner.scale:
            raise ValueError(
                f"backend scale {backend.scale} != client scale "
                f"{self.runner.scale}"
            )
        self.backend = backend
        self.upscaler = RoIAssistedUpscaler(backend)

    def set_dispatch(self, dispatcher: DifficultyDispatcher) -> None:
        """Route RoI tiles across a backend pool under a latency budget."""
        if dispatcher.scale != self.runner.scale:
            raise ValueError(
                f"dispatcher scale {dispatcher.scale} != client scale "
                f"{self.runner.scale}"
            )
        self.dispatch = dispatcher

    def _roi_residual_energy(
        self, decoded: DecodedFrame, roi: RoIBox
    ) -> Optional[np.ndarray]:
        """Codec residual energies over the RoI tile grid, if available.

        P-frames carry a decoded residual; its per-tile energy biases
        the difficulty metric toward tiles the codec itself found hard
        to predict. Reference frames have no meaningful residual signal.
        """
        if decoded.is_reference:
            return None
        residual = decoded.residual_rgb
        if residual is None:
            return None
        return block_energy(roi.extract(residual), self.dispatch.tile)

    def _roi_pass(
        self,
        frame: ServerFrame,
        decoded: DecodedFrame,
        roi_px: float,
        st,
        merge_serial: bool = False,
    ) -> np.ndarray:
        """Upscale the whole RoI on its backend(s), bilinear elsewhere,
        and price the pass on ``st`` at ``roi_px`` modeled RoI pixels."""
        geometry = frame.geometry
        roi = frame.roi
        if self.dispatch is not None:
            s = geometry.scale
            hr = bilinear(
                decoded.rgb, geometry.eval_lr_height * s, geometry.eval_lr_width * s
            )
            tile = self.dispatch.tile
            n_tiles = (-(-roi.height // tile)) * (-(-roi.width // tile))
            hr_roi, plan = self.dispatch.run(
                roi.extract(decoded.rgb),
                self.device,
                extra_energy=self._roi_residual_energy(decoded, roi),
                tile_pixels=roi_px / n_tiles,
            )
            roi_hr = roi.scaled(s)
            hr[roi_hr.y : roi_hr.y_end, roi_hr.x : roi_hr.x_end] = hr_roi
            runs = [(b, plan.backend_ms[b.name]) for b in self.dispatch.backends]
            st.meta(dispatch=plan.meta())
        else:
            hr = self.upscaler.upscale(decoded.rgb, roi).frame
            sr_ms = self.backend.latency_ms(roi_px, self.device)
            runs = [(self.backend, sr_ms)]
            st.meta(sr_backend=self.backend.name, sr_ms=sr_ms)
        self._price_pass(
            st, runs, roi_px,
            bilinear_px=geometry.modeled_lr_pixels - roi_px,
            merge_px=geometry.modeled_hr_pixels,
            merge_serial=merge_serial,
        )
        return hr

    def _price_pass(
        self,
        st,
        runs,
        roi_px: float,
        bilinear_px: float,
        merge_px: float,
        merge_serial: bool = False,
        warp_ms: float = 0.0,
    ) -> None:
        """Price one RoI SR pass on ``st``: ``runs`` of (backend, ms), the
        GPU bilinear over ``bilinear_px`` modeled LR pixels and the merge
        over ``merge_px`` HR pixels, after a GOP-reuse warp of ``warp_ms``.

        ``merge_serial`` keeps each design's merge convention: the
        SR-integrated decoder folds the merge into the upscale span
        (latency only), GameStreamSR defers it to display but charges
        its GPU energy here (Fig. 12).
        """
        gpu_ms = lat.gpu_bilinear_ms(bilinear_px, self.device)
        merge_ms = lat.merge_ms(merge_px, self.device)
        # Summed per engine from 0.0 in backend order, as the dispatcher's
        # plan sums them; the non-RoI bilinear joins the GPU engine.
        engine_ms: Dict[str, float] = {}
        for b, ms in runs:
            engine_ms[b.engine] = engine_ms.get(b.engine, 0.0) + ms
        engine_ms["gpu"] = engine_ms.get("gpu", 0.0) + gpu_ms
        st.modeled_ms = (
            warp_ms + max(engine_ms.values()) + (merge_ms if merge_serial else 0.0)
        )
        for b, ms in runs:
            if ms > 0.0:
                st.add_energy(b.component, b.energy_charged_ms(ms, self.device))
        st.add_energy(
            Component.GPU,
            warp_ms + gpu_ms if merge_serial else warp_ms + gpu_ms + merge_ms,
        )
        st.meta(gpu_ms=gpu_ms, merge_ms=merge_ms, modeled_roi_pixels=roi_px)


class GameStreamSRClient(_ZooSRExecution, StreamingClient):
    """The paper's RoI-assisted hybrid client (Fig. 9).

    With ``gop_reuse`` enabled (default off — the default path stays
    byte-identical to the paper configuration) the client keeps a
    :class:`~repro.sr.gop_reuse.GOPSRCache`: on P-frames whose warp chain
    is intact it warps the previous frame's SR output by the decoded
    motion field and re-runs the SR backend / bilinear paths only on the
    blocks the residual-energy mask marks dirty. I-frames, a cold cache, a
    broken reference chain (frame-index gap left by ``skip_dropped``), or
    an all-dirty mask fall back to the exact full per-frame path.
    """

    design = "gamestreamsr"

    #: LR context pixels forwarded around each recomputed SR tile (the
    #: same default halo as tiled full-frame inference).
    REUSE_TILE_HALO = 8

    def __init__(
        self,
        device: DeviceProfile,
        runner: SRRunner,
        modeled_roi_side: Optional[int] = None,
        reuse_threshold: float = REUSE_DIRTY_THRESHOLD,
    ) -> None:
        """``modeled_roi_side`` pins the RoI side at the modeled geometry
        (the negotiated plan side, e.g. ~300 px on 720p); by default the
        eval-scale RoI area is extrapolated by the area ratio."""
        super().__init__(device, runner)
        self.modeled_roi_side = modeled_roi_side
        self._reuse = GOPSRCache(threshold=reuse_threshold)

    def reset(self) -> None:
        super().reset()
        self._reuse.reset()

    def _modeled_roi_pixels(self, frame: ServerFrame) -> int:
        if self.modeled_roi_side is not None:
            return self.modeled_roi_side**2
        return frame.geometry.modeled_roi_pixels(frame.roi)

    def _check_frame(self, frame: ServerFrame) -> None:
        if frame.roi is None:
            raise ValueError("GameStreamSRClient requires server-side RoI data")

    def _upscale_stage(
        self, frame: ServerFrame, decoded: DecodedFrame, trace: FrameTrace
    ) -> np.ndarray:
        # The paper's full per-frame path: SR on the RoI + bilinear rest,
        # with the RoI merge deferred to the display stage.
        if not self.gop_reuse:
            with trace.stage("upscale") as st:
                hr = self._roi_pass(
                    frame, decoded, self._modeled_roi_pixels(frame), st
                )
            return hr
        return self._upscale_stage_reuse(frame, decoded, trace)

    # -- GOP reuse path ---------------------------------------------------
    def _upscale_stage_reuse(
        self, frame: ServerFrame, decoded: DecodedFrame, trace: FrameTrace
    ) -> np.ndarray:
        block = frame.encoded.block
        reason = self._reuse.refresh_reason(frame.index, decoded.is_reference)
        if reason is None:
            dirty, dirty_px = _dirty_mask(
                decoded, frame.geometry, block, self._reuse.threshold
            )
            if bool(dirty.all()):
                # Every block dirty: the partial path would recompute the
                # whole frame anyway — collapse to the exact full path so
                # threshold 0 is bit-identical to per-frame SR.
                reason = "all_dirty"
        with trace.stage("upscale") as st:
            if reason is not None:
                hr = self._roi_pass(
                    frame, decoded, self._modeled_roi_pixels(frame), st
                )
                reuse_meta = _refresh_reuse_meta(
                    frame.geometry, frame.roi, reason, block
                )
            else:
                hr, reuse_meta = self._warp_and_refresh(
                    frame, decoded, dirty, dirty_px, st
                )
            st.meta(reuse=reuse_meta)
        if reason is None:
            # Observability-only sub-span: the warp time is already part
            # of the upscale span's modeled_ms (mtp=False avoids double
            # counting), but gets its own stage_ms histogram this way.
            trace.add_span("sr.reuse/warp", reuse_meta["warp_ms"], mtp=False)
        self._reuse.store(hr, frame.index)
        return hr

    def _warp_and_refresh(
        self,
        frame: ServerFrame,
        decoded: DecodedFrame,
        dirty: np.ndarray,
        dirty_px: np.ndarray,
        st,
    ) -> Tuple[np.ndarray, Dict]:
        """Warp the cached SR canvas and recompute only the dirty blocks."""
        geometry = frame.geometry
        s = geometry.scale
        block = frame.encoded.block
        block_hr = block * s
        lr = decoded.rgb
        h_lr, w_lr = geometry.eval_lr_height, geometry.eval_lr_width
        h_hr, w_hr = h_lr * s, w_lr * s
        roi = frame.roi
        roi_hr = roi.scaled(s)

        mv_hr = upscale_motion_vectors(decoded.motion_vectors, s)
        canvas = compensate(self._reuse.hr, mv_hr, block_hr)

        # Real pixels: bilinear-refresh every dirty block, then overwrite
        # the dirty pixels inside the RoI with the backend's tiles —
        # matching the full path's pixel-granularity SR-inside /
        # bilinear-outside composition at the RoI boundary.
        hr_bilinear = bilinear(lr, h_hr, w_hr)
        composite_blocks(canvas, hr_bilinear, dirty, block_hr)

        coords = [tuple(map(int, c)) for c in np.argwhere(dirty)]
        in_roi = [
            (by, bx)
            for by, bx in coords
            if by * block < roi.y_end and (by + 1) * block > roi.y
            and bx * block < roi.x_end and (bx + 1) * block > roi.x
        ]
        if in_roi:
            origins = np.array(
                [[by * block, bx * block] for by, bx in in_roi], dtype=np.int64
            )
            tiles = self.backend.upscale_windows(
                lr, origins, tile=block, halo=self.REUSE_TILE_HALO
            )
            for tile_hr, (by, bx) in zip(tiles, in_roi):
                y0 = max(by * block_hr, roi_hr.y)
                y1 = min((by + 1) * block_hr, roi_hr.y_end, h_hr)
                x0 = max(bx * block_hr, roi_hr.x)
                x1 = min((bx + 1) * block_hr, roi_hr.x_end, w_hr)
                canvas[y0:y1, x0:x1] = tile_hr[
                    y0 - by * block_hr : y1 - by * block_hr,
                    x0 - bx * block_hr : x1 - bx * block_hr,
                ]

        # Modeled costs: dirty-pixel accounting at the eval geometry,
        # rescaled to the modeled (720p) geometry by area fraction —
        # honoring a pinned modeled RoI side exactly like the full path.
        roi_mask = np.zeros_like(dirty_px)
        roi_mask[roi.y : roi.y_end, roi.x : roi.x_end] = True
        dirty_lr = int(dirty_px.sum())
        dirty_roi_lr = int((dirty_px & roi_mask).sum())
        dirty_nonroi_lr = dirty_lr - dirty_roi_lr

        modeled_roi_px = self._modeled_roi_pixels(frame)
        modeled_nonroi_px = geometry.modeled_lr_pixels - modeled_roi_px
        roi_frac = dirty_roi_lr / roi.area if roi.area else 0.0
        nonroi_area = h_lr * w_lr - roi.area
        nonroi_frac = dirty_nonroi_lr / nonroi_area if nonroi_area else 0.0

        # The warp precedes the parallel SR/GPU refresh of dirty tiles;
        # the (now partial) merge copy still lands in the display stage
        # with its GPU energy in the upscale category, as in the full path.
        warp_ms = lat.gpu_warp_ms(geometry.modeled_hr_pixels, self.device)
        sr_ms = self.backend.latency_ms(modeled_roi_px * roi_frac, self.device)
        st.meta(sr_backend=self.backend.name, sr_ms=sr_ms)
        self._price_pass(
            st, [(self.backend, sr_ms)], modeled_roi_px,
            bilinear_px=modeled_nonroi_px * nonroi_frac,
            merge_px=geometry.modeled_hr_pixels * dirty_lr / (h_lr * w_lr),
            warp_ms=warp_ms,
        )
        reuse_meta = dict(
            refresh=False, reason="", warp_ms=warp_ms,
            dirty_fraction=float(dirty.mean()),
            tiles_total=int(dirty.size),
            tiles_reused=int(dirty.size) - len(coords),
            tiles_recomputed_sr=len(in_roi),
            tiles_recomputed_bilinear=len(coords) - len(in_roi),
        )
        return canvas, reuse_meta

    def _display_ms(self, frame: ServerFrame, trace: FrameTrace) -> float:
        merge_ms = trace.span("upscale").metadata["merge_ms"]
        return lat.display_present_ms(self.device) + merge_ms


class NemoClient(StreamingClient):
    """NEMO (Yeo et al. 2020) ported to game streaming — the paper's SOTA.

    Reference frames get full-frame DNN SR; non-reference frames reuse the
    cached upscaled reference: HR prediction = warp(HR reference, 2x-scaled
    motion vectors), plus the bilinearly upscaled decoded residual. Codec
    modifications force the software decoder (Sec. V-A).
    """

    design = "nemo"
    decode_hardware = False
    decode_component = Component.CPU
    #: Tile side of the full-frame tiled SR on reference frames.
    SR_TILE = 72

    def __init__(self, device: DeviceProfile, runner: SRRunner) -> None:
        super().__init__(device)
        self.runner = runner
        self._hr_reference: Optional[np.ndarray] = None

    def reset(self) -> None:
        super().reset()
        self._hr_reference = None

    def _upscale_stage(
        self, frame: ServerFrame, decoded: DecodedFrame, trace: FrameTrace
    ) -> np.ndarray:
        geometry = frame.geometry
        with trace.stage("upscale") as st:
            if decoded.is_reference or self._hr_reference is None:
                hr = self.runner.upscale_tiled(decoded.rgb, tile=self.SR_TILE)
                npu_ms = lat.npu_sr_latency_ms(geometry.modeled_lr_pixels, self.device)
                st.modeled_ms = npu_ms
                st.add_energy(Component.NPU, npu_ms)
                st.meta(path="full_frame_sr")
            else:
                from ..baselines.nemo import reconstruct_nonreference

                hr = reconstruct_nonreference(
                    self._hr_reference,
                    decoded.motion_vectors,
                    decoded.residual_rgb,
                    scale=geometry.scale,
                    block=frame.encoded.block,
                )
                cpu_up_ms = lat.cpu_bilinear_ms(geometry.modeled_lr_pixels, self.device)
                warp_ms = lat.cpu_warp_ms(geometry.modeled_hr_pixels, self.device)
                st.modeled_ms = cpu_up_ms + warp_ms
                st.add_energy(Component.CPU, cpu_up_ms)
                # Energy accounting note (calibration.py): the warp runs
                # inside NEMO's modified decoder, so its energy lands in
                # the decode category.
                trace.add_energy("decode", Component.RECON_MEMORY, warp_ms)
                st.meta(path="warp_reconstruction", warp_ms=warp_ms)
            self._hr_reference = hr
        return hr


class BilinearClient(StreamingClient):
    """Hardware decode + GPU bilinear upscale of the whole frame."""

    design = "bilinear"

    def _upscale_stage(
        self, frame: ServerFrame, decoded: DecodedFrame, trace: FrameTrace
    ) -> np.ndarray:
        geometry = frame.geometry
        with trace.stage("upscale") as st:
            s = geometry.scale
            hr = bilinear(
                decoded.rgb, geometry.eval_lr_height * s, geometry.eval_lr_width * s
            )
            gpu_ms = lat.gpu_bilinear_ms(geometry.modeled_lr_pixels, self.device)
            st.modeled_ms = gpu_ms
            st.add_energy(Component.GPU, gpu_ms)
        return hr


class FullFrameSRClient(StreamingClient):
    """DNN SR on every frame — the quality ceiling, far from real time."""

    design = "fullframe_sr"
    #: Tile side of the full-frame tiled SR.
    SR_TILE = 72

    def __init__(self, device: DeviceProfile, runner: SRRunner) -> None:
        super().__init__(device)
        self.runner = runner

    def _upscale_stage(
        self, frame: ServerFrame, decoded: DecodedFrame, trace: FrameTrace
    ) -> np.ndarray:
        with trace.stage("upscale") as st:
            hr = self.runner.upscale_tiled(decoded.rgb, tile=self.SR_TILE)
            npu_ms = lat.npu_sr_latency_ms(
                frame.geometry.modeled_lr_pixels, self.device
            )
            st.modeled_ms = npu_ms
            st.add_energy(Component.NPU, npu_ms)
        return hr


class SRIntegratedDecoderClient(_ZooSRExecution, StreamingClient):
    """Fig. 15 future-work prototype: RoI-SR only on reference frames.

    Non-reference frames bypass the NPU entirely: the (hypothetically
    augmented) hardware decoder reconstructs them in HR from the cached
    upscaled reference using 2x-scaled motion vectors, with RoI-guided
    residual interpolation — bicubic inside the RoI, bilinear outside.
    In trace terms: the upscale span collapses to zero and the decode
    span is *amended* with the augmented-datapath cost.
    """

    design = "sr_integrated_decoder"

    #: Modeled latency/energy multiplier of the augmented decoder relative
    #: to the stock hardware decoder (extra HR reconstruction datapath).
    DECODER_AUGMENT_FACTOR = 1.6
    #: In-decoder HR reconstruction engine (warp + RoI-guided residual
    #: interpolation + merge) per HR pixel — a fixed-function datapath at
    #: composition-level power. Sized so the prototype's projected savings
    #: land near the paper's "as high as 50 %" (Sec. VI), not at the
    #: free-lunch number a zero-cost decoder would give.
    RECON_MS_PER_HR_PX = 5.4e-6
    #: Share of the reconstruction engine that runs regardless of the
    #: GOP-reuse dirty mask: the MV warp + merge datapath touches every HR
    #: pixel; only the remaining residual-interpolation share gates per
    #: dirty block when ``gop_reuse`` is enabled.
    REUSE_RECON_WARP_SHARE = 0.25

    def __init__(
        self,
        device: DeviceProfile,
        runner: SRRunner,
        reuse_threshold: float = REUSE_DIRTY_THRESHOLD,
    ) -> None:
        super().__init__(device, runner)
        self.reuse_threshold = reuse_threshold
        self._hr_reference: Optional[np.ndarray] = None

    def reset(self) -> None:
        super().reset()
        self._hr_reference = None

    def _check_frame(self, frame: ServerFrame) -> None:
        if frame.roi is None:
            raise ValueError("SRIntegratedDecoderClient requires RoI data")

    def _roi_guided_residual(
        self, residual: np.ndarray, roi: RoIBox, h_hr: int, w_hr: int
    ) -> np.ndarray:
        upscaled = bilinear(residual, h_hr, w_hr)
        roi_hr = roi.scaled(h_hr // residual.shape[0])
        patch = roi.extract(residual)
        upscaled[roi_hr.y : roi_hr.y_end, roi_hr.x : roi_hr.x_end] = bicubic(
            patch, roi_hr.height, roi_hr.width
        )
        return upscaled

    def _upscale_stage(
        self, frame: ServerFrame, decoded: DecodedFrame, trace: FrameTrace
    ) -> np.ndarray:
        geometry = frame.geometry
        s = geometry.scale
        with trace.stage("upscale") as st:
            if decoded.is_reference or self._hr_reference is None:
                hr = self._roi_pass(
                    frame, decoded, geometry.modeled_roi_pixels(frame.roi), st,
                    merge_serial=True,
                )
                st.meta(path="roi_sr")
                if self.gop_reuse:
                    reason = (
                        "reference_frame" if decoded.is_reference else "cold_cache"
                    )
                    st.meta(
                        reuse=_refresh_reuse_meta(
                            geometry, frame.roi, reason, frame.encoded.block
                        )
                    )
            else:
                mv_hr = upscale_motion_vectors(decoded.motion_vectors, s)
                block_hr = frame.encoded.block * s
                h_hr = geometry.eval_lr_height * s
                w_hr = geometry.eval_lr_width * s
                prediction = compensate(self._hr_reference, mv_hr, block_hr)
                residual = decoded.residual_rgb
                dirty = None
                if self.gop_reuse:
                    # The residual-interpolation engine only processes
                    # dirty blocks; clean blocks contribute zero residual.
                    dirty, dirty_px = _dirty_mask(
                        decoded, geometry, frame.encoded.block, self.reuse_threshold
                    )
                    residual = residual * dirty_px[:, :, None]
                residual_hr = self._roi_guided_residual(
                    residual, frame.roi, h_hr, w_hr
                )
                hr = np.clip(prediction + residual_hr, 0.0, 1.0)
                # Everything happens inside the augmented decoder hardware
                # (entropy/transform decode plus the HR reconstruction
                # engine): amend the stock decode span with the augmented
                # datapath's latency and energy, and idle the upscaler.
                hw_decode_ms = trace.span("decode").modeled_ms
                recon_ms = self.RECON_MS_PER_HR_PX * geometry.modeled_hr_pixels
                reuse_amend = {}
                if dirty is not None:
                    dirty_fraction = float(dirty.mean())
                    recon_ms *= (
                        self.REUSE_RECON_WARP_SHARE
                        + (1.0 - self.REUSE_RECON_WARP_SHARE) * dirty_fraction
                    )
                    n_dirty = int(dirty.sum())
                    reuse_amend = dict(
                        reuse=dict(
                            refresh=False, reason="", warp_ms=0.0,
                            dirty_fraction=dirty_fraction,
                            tiles_total=int(dirty.size),
                            tiles_reused=int(dirty.size) - n_dirty,
                            tiles_recomputed_sr=0,
                            tiles_recomputed_bilinear=n_dirty,
                        )
                    )
                trace.amend_span(
                    "decode",
                    modeled_ms=hw_decode_ms * self.DECODER_AUGMENT_FACTOR + recon_ms,
                    energy=[
                        (
                            Component.HW_DECODER,
                            hw_decode_ms * self.DECODER_AUGMENT_FACTOR,
                        ),
                        (Component.COMPOSITION, recon_ms),
                    ],
                    augmented=True,
                    recon_ms=recon_ms,
                    **reuse_amend,
                )
                st.modeled_ms = 0.0
                st.meta(path="in_decoder_reconstruction")
            self._hr_reference = hr
        return hr
