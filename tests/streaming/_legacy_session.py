"""Frozen pre-refactor streaming pipeline (seed commit), for equivalence tests.

This is a verbatim-behavior copy of the seed's ``GameStreamServer.next_frame``
and the five clients' monolithic ``process`` methods, before they were
decomposed into the staged :mod:`repro.streaming.pipeline` architecture.
The equivalence test streams the same session through both implementations
and asserts exact float equality of every record. Do NOT "modernize" this
file — its whole value is that it does not change with the production code.
The seed's frame types carried timing and energy dicts and no trace; they
live on here as :class:`LegacyServerFrame` / :class:`LegacyClientResult`,
with the seed's dict-based MTP (:func:`legacy_mtp`) and energy
(:func:`energy_of_frame`) arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.codec.encoder import EncodedFrame
from repro.codec.motion import compensate, upscale_motion_vectors
from repro.core.roi_search import RoIBox
from repro.core.upscaler import RoIAssistedUpscaler
from repro.platform import latency as lat
from repro.platform.device import DeviceProfile
from repro.platform.energy import (
    Component,
    EnergyBreakdown,
    overhead_mj,
    stage_energy_mj,
)
from repro.sr.interpolate import bicubic, bilinear
from repro.sr.runner import SRRunner
from repro.streaming.client import StreamingClient
from repro.streaming.frames import ROI_METADATA_BYTES, StreamGeometry
from repro.streaming.mtp import MTP_STAGES, MTPBreakdown
from repro.streaming.server import GameStreamServer

EnergyStages = Dict[str, List[Tuple[Component, float]]]


@dataclass(frozen=True)
class LegacyServerFrame:
    """The seed's server frame: payload, RoI and a timing dict."""

    index: int
    encoded: EncodedFrame
    roi: Optional[RoIBox]
    geometry: StreamGeometry
    server_timings_ms: Dict[str, float]
    modeled_size_bytes: int


@dataclass(frozen=True)
class LegacyClientResult:
    """The seed's client result: pixels plus timing and energy dicts."""

    index: int
    frame_type: str
    hr_frame: np.ndarray
    client_timings_ms: Dict[str, float]
    energy_stages: EnergyStages

    @property
    def upscale_ms(self) -> float:
        return self.client_timings_ms["upscale"]


def legacy_mtp(
    server_frame: LegacyServerFrame, client_result: LegacyClientResult
) -> MTPBreakdown:
    """The seed's dict-based MTP assembly of one frame."""
    stages = dict(server_frame.server_timings_ms)
    stages.update(client_result.client_timings_ms)
    return MTPBreakdown({s: stages.get(s, 0.0) for s in MTP_STAGES})


def energy_of_frame(
    device: DeviceProfile, client_result: LegacyClientResult
) -> EnergyBreakdown:
    """The seed's dict-view energy integration of one frame (Fig. 12)."""
    totals = {"decode": 0.0, "upscale": 0.0, "network": 0.0}
    for category, stages in client_result.energy_stages.items():
        if category not in totals:
            raise ValueError(f"unknown energy category {category!r}")
        for component, ms in stages:
            totals[category] += stage_energy_mj(device, component, ms)
    return EnergyBreakdown(
        decode=totals["decode"],
        upscale=totals["upscale"],
        network=totals["network"],
        display=overhead_mj(device),
    )


def legacy_next_frame(server: GameStreamServer) -> LegacyServerFrame:
    """The seed server pipeline: hand-assembled timing dict, no trace."""
    index = server._index
    server._index += 1

    rendered = server.render_lr(index)
    roi = None
    roi_detect_ms = 0.0
    if server.detector is not None:
        roi = server.detector.detect(rendered.depth).box
        roi_detect_ms = lat.server_roi_detect_ms()

    encoded = server.encoder.encode_frame(rendered.color)
    modeled_bytes = int(round(encoded.size_bytes * server.geometry.byte_scale))
    if roi is not None:
        modeled_bytes += ROI_METADATA_BYTES

    timings = {
        "input": lat.server_input_ms(),
        "game_logic": lat.server_game_logic_ms(),
        "render": lat.server_render_ms(server.geometry.modeled_lr_pixels),
        "roi_detect": roi_detect_ms,
        "encode": lat.server_encode_ms(server.geometry.modeled_lr_pixels),
        "network": lat.transmission_ms(modeled_bytes),
    }
    return LegacyServerFrame(
        index=index,
        encoded=encoded,
        roi=roi,
        geometry=server.geometry,
        server_timings_ms=timings,
        modeled_size_bytes=modeled_bytes,
    )


class _LegacyClientBase(StreamingClient):
    """Seed client base: shared decode + network helpers, no template."""

    def _decode(self, frame, hardware):
        decoded = self.decoder.decode_frame(frame.encoded)
        ms = lat.decode_ms(
            frame.geometry.modeled_lr_pixels, self.device, hardware=hardware
        )
        return decoded, ms

    def _network_stage(self, frame):
        rx_ms = lat.transmission_ms(frame.modeled_size_bytes) - lat.transmission_ms(0)
        return rx_ms, {"network": [(Component.NETWORK_RX, rx_ms)]}

    def process(self, frame: LegacyServerFrame) -> LegacyClientResult:
        raise NotImplementedError


class LegacyGameStreamSRClient(_LegacyClientBase):
    design = "gamestreamsr"

    def __init__(
        self,
        device: DeviceProfile,
        runner: SRRunner,
        modeled_roi_side: Optional[int] = None,
    ) -> None:
        super().__init__(device)
        self.upscaler = RoIAssistedUpscaler(runner)
        self.modeled_roi_side = modeled_roi_side

    def _modeled_roi_pixels(self, frame: LegacyServerFrame) -> int:
        if self.modeled_roi_side is not None:
            return self.modeled_roi_side**2
        return frame.geometry.modeled_roi_pixels(frame.roi)

    def process(self, frame: LegacyServerFrame) -> LegacyClientResult:
        if frame.roi is None:
            raise ValueError("GameStreamSRClient requires server-side RoI data")
        geometry = frame.geometry
        decoded, decode_ms = self._decode(frame, hardware=True)
        result = self.upscaler.upscale(decoded.rgb, frame.roi)

        roi_px = self._modeled_roi_pixels(frame)
        non_roi_px = geometry.modeled_lr_pixels - roi_px
        npu_ms = lat.npu_sr_latency_ms(roi_px, self.device)
        gpu_ms = lat.gpu_bilinear_ms(non_roi_px, self.device)
        merge_ms = lat.merge_ms(geometry.modeled_hr_pixels, self.device)
        upscale_ms = max(npu_ms, gpu_ms)
        rx_ms, energy = self._network_stage(frame)
        energy["decode"] = [(Component.HW_DECODER, decode_ms)]
        energy["upscale"] = [
            (Component.NPU, npu_ms),
            (Component.GPU, gpu_ms + merge_ms),
        ]
        return LegacyClientResult(
            index=frame.index,
            frame_type=frame.encoded.frame_type,
            hr_frame=result.frame,
            client_timings_ms={
                "decode": decode_ms,
                "upscale": upscale_ms,
                "display": lat.display_present_ms(self.device) + merge_ms,
            },
            energy_stages=energy,
        )


class LegacyNemoClient(_LegacyClientBase):
    design = "nemo"

    def __init__(self, device: DeviceProfile, runner: SRRunner, sr_tile: int = 72) -> None:
        super().__init__(device)
        self.runner = runner
        self.sr_tile = sr_tile
        self._hr_reference: Optional[np.ndarray] = None

    def reset(self) -> None:
        super().reset()
        self._hr_reference = None

    def process(self, frame: LegacyServerFrame) -> LegacyClientResult:
        geometry = frame.geometry
        decoded, decode_ms = self._decode(frame, hardware=False)
        scale = geometry.scale
        rx_ms, energy = self._network_stage(frame)

        if decoded.is_reference or self._hr_reference is None:
            hr = self.runner.upscale_tiled(decoded.rgb, tile=self.sr_tile)
            self._hr_reference = hr
            npu_ms = lat.npu_sr_latency_ms(geometry.modeled_lr_pixels, self.device)
            upscale_ms = npu_ms
            energy["decode"] = [(Component.CPU, decode_ms)]
            energy["upscale"] = [(Component.NPU, npu_ms)]
        else:
            from repro.baselines.nemo import reconstruct_nonreference

            hr = reconstruct_nonreference(
                self._hr_reference,
                decoded.motion_vectors,
                decoded.residual_rgb,
                scale=scale,
                block=frame.encoded.block,
            )
            self._hr_reference = hr

            cpu_up_ms = lat.cpu_bilinear_ms(geometry.modeled_lr_pixels, self.device)
            warp_ms = lat.cpu_warp_ms(geometry.modeled_hr_pixels, self.device)
            upscale_ms = cpu_up_ms + warp_ms
            energy["decode"] = [
                (Component.CPU, decode_ms),
                (Component.RECON_MEMORY, warp_ms),
            ]
            energy["upscale"] = [(Component.CPU, cpu_up_ms)]

        return LegacyClientResult(
            index=frame.index,
            frame_type=frame.encoded.frame_type,
            hr_frame=hr,
            client_timings_ms={
                "decode": decode_ms,
                "upscale": upscale_ms,
                "display": lat.display_present_ms(self.device),
            },
            energy_stages=energy,
        )


class LegacyBilinearClient(_LegacyClientBase):
    design = "bilinear"

    def process(self, frame: LegacyServerFrame) -> LegacyClientResult:
        geometry = frame.geometry
        decoded, decode_ms = self._decode(frame, hardware=True)
        s = geometry.scale
        hr = bilinear(
            decoded.rgb, geometry.eval_lr_height * s, geometry.eval_lr_width * s
        )
        gpu_ms = lat.gpu_bilinear_ms(geometry.modeled_lr_pixels, self.device)
        rx_ms, energy = self._network_stage(frame)
        energy["decode"] = [(Component.HW_DECODER, decode_ms)]
        energy["upscale"] = [(Component.GPU, gpu_ms)]
        return LegacyClientResult(
            index=frame.index,
            frame_type=frame.encoded.frame_type,
            hr_frame=hr,
            client_timings_ms={
                "decode": decode_ms,
                "upscale": gpu_ms,
                "display": lat.display_present_ms(self.device),
            },
            energy_stages=energy,
        )


class LegacyFullFrameSRClient(_LegacyClientBase):
    design = "fullframe_sr"

    def __init__(self, device: DeviceProfile, runner: SRRunner, sr_tile: int = 72) -> None:
        super().__init__(device)
        self.runner = runner
        self.sr_tile = sr_tile

    def process(self, frame: LegacyServerFrame) -> LegacyClientResult:
        geometry = frame.geometry
        decoded, decode_ms = self._decode(frame, hardware=True)
        hr = self.runner.upscale_tiled(decoded.rgb, tile=self.sr_tile)
        npu_ms = lat.npu_sr_latency_ms(geometry.modeled_lr_pixels, self.device)
        rx_ms, energy = self._network_stage(frame)
        energy["decode"] = [(Component.HW_DECODER, decode_ms)]
        energy["upscale"] = [(Component.NPU, npu_ms)]
        return LegacyClientResult(
            index=frame.index,
            frame_type=frame.encoded.frame_type,
            hr_frame=hr,
            client_timings_ms={
                "decode": decode_ms,
                "upscale": npu_ms,
                "display": lat.display_present_ms(self.device),
            },
            energy_stages=energy,
        )


class LegacySRIntegratedDecoderClient(_LegacyClientBase):
    design = "sr_integrated_decoder"

    DECODER_AUGMENT_FACTOR = 1.6
    RECON_MS_PER_HR_PX = 5.4e-6

    def __init__(self, device: DeviceProfile, runner: SRRunner) -> None:
        super().__init__(device)
        self.upscaler = RoIAssistedUpscaler(runner)
        self._hr_reference: Optional[np.ndarray] = None

    def reset(self) -> None:
        super().reset()
        self._hr_reference = None

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

    def process(self, frame: LegacyServerFrame) -> LegacyClientResult:
        if frame.roi is None:
            raise ValueError("SRIntegratedDecoderClient requires RoI data")
        geometry = frame.geometry
        decoded, hw_decode_ms = self._decode(frame, hardware=True)
        s = geometry.scale
        rx_ms, energy = self._network_stage(frame)

        if decoded.is_reference or self._hr_reference is None:
            result = self.upscaler.upscale(decoded.rgb, frame.roi)
            hr = result.frame
            roi_px = geometry.modeled_roi_pixels(frame.roi)
            npu_ms = lat.npu_sr_latency_ms(roi_px, self.device)
            gpu_ms = lat.gpu_bilinear_ms(geometry.modeled_lr_pixels - roi_px, self.device)
            upscale_ms = max(npu_ms, gpu_ms) + lat.merge_ms(
                geometry.modeled_hr_pixels, self.device
            )
            decode_ms = hw_decode_ms
            energy["decode"] = [(Component.HW_DECODER, decode_ms)]
            energy["upscale"] = [(Component.NPU, npu_ms), (Component.GPU, gpu_ms)]
        else:
            mv_hr = upscale_motion_vectors(decoded.motion_vectors, s)
            block_hr = frame.encoded.block * s
            h_hr = geometry.eval_lr_height * s
            w_hr = geometry.eval_lr_width * s
            prediction = np.stack(
                [
                    compensate(self._hr_reference[..., c], mv_hr, block_hr)
                    for c in range(3)
                ],
                axis=-1,
            )
            residual_hr = self._roi_guided_residual(
                decoded.residual_rgb, frame.roi, h_hr, w_hr
            )
            hr = np.clip(prediction + residual_hr, 0.0, 1.0)
            recon_ms = self.RECON_MS_PER_HR_PX * geometry.modeled_hr_pixels
            decode_ms = hw_decode_ms * self.DECODER_AUGMENT_FACTOR + recon_ms
            upscale_ms = 0.0
            energy["decode"] = [
                (Component.HW_DECODER, hw_decode_ms * self.DECODER_AUGMENT_FACTOR),
                (Component.COMPOSITION, recon_ms),
            ]
            energy["upscale"] = []
        self._hr_reference = hr

        return LegacyClientResult(
            index=frame.index,
            frame_type=frame.encoded.frame_type,
            hr_frame=hr,
            client_timings_ms={
                "decode": decode_ms,
                "upscale": upscale_ms,
                "display": lat.display_present_ms(self.device),
            },
            energy_stages=energy,
        )
