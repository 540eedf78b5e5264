"""First-class SR execution backends: the model zoo behind dispatch.

The paper runs exactly one EDSR on one NPU. The related work (MobiSR,
NAWQ-SR, QuickSRNet) shows the mobile win comes from *choosing* the
engine per patch — which needs SR execution abstracted behind a uniform
interface. :class:`SRBackend` is that interface: a named upscaler with a
modeled latency/energy footprint on a
:class:`~repro.platform.device.DeviceProfile`, executable on whole
patches (:meth:`~SRBackend.upscale`, duck-compatible with
:class:`~repro.core.upscaler.RoIAssistedUpscaler`) or batched equal-size
tiles (:meth:`~SRBackend.upscale_batch`, the seam
:mod:`repro.sr.dispatch` routes through).

Two families:

* :class:`NeuralBackend` — an :class:`~repro.sr.runner.SRRunner` on the
  modeled NPU. Latency rides the device's calibrated EDSR anchor curve
  scaled by a per-model ``DeviceProfile`` field (EDSR itself uses scale
  1.0, so the default backend reproduces
  :func:`~repro.platform.latency.npu_sr_latency_ms` bit-for-bit); an
  optional power-scale field derates the energy charge (int8 datapaths
  draw less per ms, NAWQ-SR Sec. 5).
* :class:`InterpBackend` — classical filters on the GPU (hardware
  bilinear) or CPU (software bicubic), with the platform model's
  existing latency anchors and no weights.

``build_backend(name)`` materializes a zoo member by name; neural
members load deterministic in-repo weights via
:func:`repro.sr.pretrained.zoo_sr_model`, once per weights file: calls
for the same member, scale, profile and unchanged file share one
backend.
"""

from __future__ import annotations

import abc
from functools import lru_cache
from typing import Callable, Dict, Optional

import numpy as np

from ..platform.device import DeviceProfile
from ..platform.energy import Component
from ..platform.latency import (
    cpu_bicubic_ms,
    gpu_bilinear_ms,
    npu_sr_latency_ms,
)
from .interpolate import bicubic, bilinear
from .runner import SRRunner

__all__ = [
    "SRBackend",
    "NeuralBackend",
    "InterpBackend",
    "available_backends",
    "build_backend",
]


class SRBackend(abc.ABC):
    """A named SR executor with a modeled platform footprint.

    Attributes
    ----------
    name:
        Zoo identifier (``"edsr"``, ``"quicksrnet"``, ...).
    scale:
        Integer upscale factor.
    engine:
        Which modeled processor executes it: ``"npu"``, ``"gpu"`` or
        ``"cpu"``. The dispatcher sums latency per engine and runs
        engines concurrently (they are distinct silicon blocks).
    component:
        The :class:`~repro.platform.energy.Component` the energy charge
        lands on.
    quality_rank:
        Relative output quality, lower is better — the dispatcher's
        preference order when the budget allows.
    """

    name: str
    scale: int
    engine: str
    component: Component
    quality_rank: int

    @abc.abstractmethod
    def upscale(self, image: np.ndarray) -> np.ndarray:
        """Upscale one (H, W, C) image in [0, 1] to (H*s, W*s, C)."""

    @abc.abstractmethod
    def upscale_batch(self, tiles: np.ndarray) -> np.ndarray:
        """Upscale an (N, h, w, C) tile stack to (N, h*s, w*s, C)."""

    #: Upscale caller-chosen halo windows of one image through
    #: :meth:`upscale_batch` and crop the HR cores (the GOP-reuse partial
    #: refresh). One implementation with
    #: :meth:`SRRunner.upscale_windows <repro.sr.runner.SRRunner.upscale_windows>`:
    #: it needs only ``scale`` and ``upscale_batch``.
    upscale_windows = SRRunner.upscale_windows

    @abc.abstractmethod
    def latency_ms(self, lr_pixels: float, device: DeviceProfile) -> float:
        """Modeled latency for one batched invocation over ``lr_pixels``."""

    def energy_charged_ms(
        self, latency_ms: float, device: DeviceProfile
    ) -> float:
        """Milliseconds to charge at ``component``'s power draw.

        Defaults to the latency itself; backends on derated datapaths
        (int8) override the effective draw by scaling the charged time.
        """
        return latency_ms

    def describe(self) -> str:
        return f"{self.name} (x{self.scale}, {self.engine})"


class NeuralBackend(SRBackend):
    """An :class:`SRRunner` executing on the modeled NPU.

    ``latency_scale_field`` / ``power_scale_field`` name defaulted
    :class:`DeviceProfile` fields so per-device calibration flows
    through ``device.with_overrides(...)`` like every other anchor;
    ``None`` means 1.0 (the EDSR reference point).
    """

    engine = "npu"
    component = Component.NPU

    def __init__(
        self,
        name: str,
        runner: SRRunner,
        quality_rank: int,
        latency_scale_field: Optional[str] = None,
        power_scale_field: Optional[str] = None,
    ) -> None:
        self.name = name
        self.runner = runner
        self.scale = runner.scale
        self.quality_rank = quality_rank
        self._latency_scale_field = latency_scale_field
        self._power_scale_field = power_scale_field

    def _field(self, device: DeviceProfile, field: Optional[str]) -> float:
        return 1.0 if field is None else float(getattr(device, field))

    def upscale(self, image: np.ndarray) -> np.ndarray:
        return self.runner.upscale(image)

    def upscale_batch(self, tiles: np.ndarray) -> np.ndarray:
        return self.runner.upscale_batch(tiles)

    def latency_ms(self, lr_pixels: float, device: DeviceProfile) -> float:
        scale = self._field(device, self._latency_scale_field)
        if scale == 1.0:
            # Exactly the reference call, not a float multiply by 1.0 —
            # the default-path byte-identity guarantee rests on this.
            return npu_sr_latency_ms(lr_pixels, device)
        return npu_sr_latency_ms(lr_pixels, device) * scale

    def energy_charged_ms(
        self, latency_ms: float, device: DeviceProfile
    ) -> float:
        return latency_ms * self._field(device, self._power_scale_field)


class InterpBackend(SRBackend):
    """A classical interpolation filter with a platform latency anchor."""

    def __init__(
        self,
        name: str,
        scale: int,
        filter_fn: Callable[[np.ndarray, int, int], np.ndarray],
        engine: str,
        component: Component,
        latency_fn: Callable[[float, DeviceProfile], float],
        quality_rank: int,
    ) -> None:
        if scale < 1:
            raise ValueError(f"scale must be >= 1, got {scale}")
        self.name = name
        self.scale = scale
        self.engine = engine
        self.component = component
        self.quality_rank = quality_rank
        self._filter = filter_fn
        self._latency_fn = latency_fn

    def upscale(self, image: np.ndarray) -> np.ndarray:
        h, w = image.shape[:2]
        return self._filter(image, h * self.scale, w * self.scale)

    def upscale_batch(self, tiles: np.ndarray) -> np.ndarray:
        n, h, w = tiles.shape[:3]
        s = self.scale
        if n == 0:
            return np.empty(
                (0, h * s, w * s) + tiles.shape[3:], dtype=tiles.dtype
            )
        return np.stack([self._filter(t, h * s, w * s) for t in tiles])

    def latency_ms(self, lr_pixels: float, device: DeviceProfile) -> float:
        return self._latency_fn(lr_pixels, device)


#: name -> (quality_rank, latency_scale_field, power_scale_field) for the
#: neural members; interpolation members are constructed inline below.
_NEURAL_SPECS: Dict[str, tuple] = {
    "edsr": (0, None, None),
    "edsr_int8": (1, "edsr_int8_npu_latency_scale", "edsr_int8_npu_power_scale"),
    "fsrcnn": (2, "fsrcnn_npu_latency_scale", None),
    "quicksrnet": (3, "quicksrnet_npu_latency_scale", None),
}


def available_backends() -> tuple:
    """All zoo member names, best quality first."""
    return tuple(_NEURAL_SPECS) + ("bicubic_cpu", "bilinear_gpu")


def build_backend(
    name: str,
    scale: int = 2,
    profile: str = "experiment",
    runner: Optional[SRRunner] = None,
) -> SRBackend:
    """Materialize a zoo backend by name.

    Neural members train-or-load their deterministic in-repo weights
    (``profile`` selects the shared geometry table), and calls over the
    same unchanged weights file (same path, mtime and size) return one
    shared backend; pass ``runner`` to reuse an already-built
    :class:`SRRunner` instead (its scale must match — the EDSR default
    path does this so the backend wraps the session's existing model
    object).
    """
    if name in _NEURAL_SPECS:
        if runner is None:
            from .pretrained import weights_path, zoo_sr_model  # deferred: training import

            path = weights_path(name, scale, profile)
            if path.exists():
                stat = path.stat()
                return _zoo_backend(
                    name, scale, profile, str(path), stat.st_mtime_ns, stat.st_size
                )
            runner = SRRunner(zoo_sr_model(name, scale=scale, profile=profile))
        rank, lat_field, pow_field = _NEURAL_SPECS[name]
        if runner.scale != scale:
            raise ValueError(
                f"runner scale {runner.scale} != requested scale {scale}"
            )
        return NeuralBackend(
            name,
            runner,
            quality_rank=rank,
            latency_scale_field=lat_field,
            power_scale_field=pow_field,
        )
    if name == "bilinear_gpu":
        return InterpBackend(
            "bilinear_gpu",
            scale,
            bilinear,
            engine="gpu",
            component=Component.GPU,
            latency_fn=gpu_bilinear_ms,
            quality_rank=5,
        )
    if name == "bicubic_cpu":
        return InterpBackend(
            "bicubic_cpu",
            scale,
            bicubic,
            engine="cpu",
            component=Component.CPU,
            latency_fn=cpu_bicubic_ms,
            quality_rank=4,
        )
    raise ValueError(
        f"unknown SR backend {name!r}; choose from {available_backends()}"
    )


@lru_cache(maxsize=8)
def _zoo_backend(
    name: str, scale: int, profile: str, path: str, mtime_ns: int, size: int
) -> SRBackend:
    """The zoo member ``name`` over the weights file at ``path`` as it is
    at ``mtime_ns`` and ``size``: a rewritten or healed file loads again."""
    from .pretrained import zoo_sr_model  # deferred: training import

    runner = SRRunner(zoo_sr_model(name, scale=scale, profile=profile))
    return build_backend(name, scale=scale, profile=profile, runner=runner)
