"""Super-resolution network architectures.

:class:`EDSR` follows Lim et al. 2017 (the model the paper deploys on the
mobile NPU, Sec. V-A: 16 residual blocks, 64 channels, x2): a head conv,
residual body with a global skip, sub-pixel upsampler, and tail conv —
no batch norm. One deliberate addition: a **bilinear global skip** from the
interpolated input to the output, so the network learns the residual *over
bilinear interpolation*. An untrained model therefore reproduces bilinear
quality exactly and training can only improve on it — which makes the
quality comparisons in the evaluation robust to the small training budgets
feasible in pure numpy.

:class:`FSRCNNLite` is a smaller alternative used in ablations and to model
the "efficient mobile SR architectures" related-work family.

Two model-zoo additions back the heterogeneous-dispatch work
(:mod:`repro.sr.backends`):

* :class:`QuickSRNet` — a QuickSRNet-style *plain* conv net (Berger et
  al. 2023): no skip connections at inference time; instead every body
  conv is **identity-initialized** (a centre delta kernel added onto the
  scaled random init, the "residual repeat" trick) and the tail is
  initialized as a nearest-neighbour channel repeat, so an untrained net
  approximates nearest-neighbour upsampling and training learns the
  residual on top — while the deployed graph stays a skip-free conv
  stack, the shape mobile NPU compilers fuse best.
* :class:`QuantizedEDSR` — a simulated-int8 EDSR à la NAWQ-SR:
  :meth:`~QuantizedEDSR.quantize` fake-quantizes every conv weight
  per-output-channel to ``weight_bits`` and dequantizes in place, so the
  float forward path executes exactly the arithmetic an int8 NPU kernel
  would round through (activations stay float — the hybrid-precision
  regime).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .layers import (
    Conv2d,
    Module,
    PixelShuffle,
    PReLU,
    ResidualBlock,
    Sequential,
    Upsampler,
)
from .tensor import Tensor, is_grad_enabled

__all__ = [
    "EDSR",
    "FSRCNNLite",
    "QuickSRNet",
    "QuantizedEDSR",
    "conv_modules",
    "quantize_conv_per_channel",
    "PAPER_EDSR_BLOCKS",
    "PAPER_EDSR_CHANNELS",
]

#: EDSR geometry used in the paper's evaluation (Sec. V-A).
PAPER_EDSR_BLOCKS = 16
PAPER_EDSR_CHANNELS = 64


def _bilinear_skip(x_data: np.ndarray, factor: int) -> np.ndarray:
    """Bilinear-upscale an (N, C, H, W) batch by ``factor`` (no gradient).

    Vectorised over the whole batch and computed in the input dtype
    (float32 on the inference path), matching
    :func:`repro.sr.interpolate.bilinear` — same "align corners = False"
    coordinates and the same x-then-y lerp order, so float64 results are
    bit-identical to the image-space filter.
    """
    n, c, h, w = x_data.shape
    dt = x_data.dtype

    def _axis(out_size: int, in_size: int):
        # Same expression as interpolate._source_coords (multiply by the
        # reciprocal scale, not divide) so coords match to the last ulp.
        scale = in_size / out_size
        coords = (np.arange(out_size, dtype=np.float64) + 0.5) * scale - 0.5
        lo = np.clip(np.floor(coords), 0, in_size - 1).astype(np.intp)
        hi = np.minimum(lo + 1, in_size - 1)
        frac = np.clip(coords - lo, 0.0, 1.0).astype(dt)
        return lo, hi, frac

    y0, y1, wy = _axis(h * factor, h)
    x0, x1, wx = _axis(w * factor, w)
    cols = x_data[..., x0] * (1 - wx) + x_data[..., x1] * wx
    wy = wy[:, None]
    return cols[:, :, y0] * (1 - wy) + cols[:, :, y1] * wy


class EDSR(Module):
    """Enhanced Deep residual Super-Resolution network.

    Parameters mirror the reference implementation:

    - ``scale``: integer upscale factor (the paper uses 2).
    - ``n_resblocks`` / ``n_feats``: body depth and width.
    - ``res_scale``: residual scaling inside each block.
    - ``channels``: image channels (3 for RGB frames).
    """

    def __init__(
        self,
        scale: int = 2,
        n_resblocks: int = PAPER_EDSR_BLOCKS,
        n_feats: int = PAPER_EDSR_CHANNELS,
        res_scale: float = 0.1,
        channels: int = 3,
        seed: int = 0,
    ) -> None:
        super().__init__()
        if scale < 1:
            raise ValueError(f"scale must be >= 1, got {scale}")
        if n_resblocks < 1 or n_feats < 1:
            raise ValueError("n_resblocks and n_feats must be positive")
        rng = np.random.default_rng(seed)
        self.scale = scale
        self.channels = channels
        self.head = Conv2d(channels, n_feats, 3, rng=rng)
        self.body = Sequential(
            *[ResidualBlock(n_feats, res_scale=res_scale, rng=rng) for _ in range(n_resblocks)]
        )
        self.body_tail = Conv2d(n_feats, n_feats, 3, rng=rng)
        self.upsampler = Upsampler(n_feats, scale, rng=rng)
        self.tail = Conv2d(n_feats, channels, 3, rng=rng)
        # Start the tail near zero so the initial output is ~pure bilinear.
        self.tail.weight.data *= 0.01

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 4:
            raise ValueError(f"expected (N, C, H, W) input, got {x.shape}")
        if x.shape[1] != self.channels:
            raise ValueError(
                f"expected {self.channels} channels, got {x.shape[1]}"
            )
        feats = self.head(x)
        if not is_grad_enabled():
            # Inference: fold the global feature skip and the bilinear skip
            # into the freshly produced activations in place.
            body_out = self.body_tail(self.body(feats))
            body_out.data += feats.data
            out = self.tail(self.upsampler(body_out))
            out.data += _bilinear_skip(x.data, self.scale)
            return out
        body_out = self.body_tail(self.body(feats)) + feats  # global feature skip
        residual = self.tail(self.upsampler(body_out))
        skip = Tensor(_bilinear_skip(x.data, self.scale))
        return residual + skip

    def describe(self) -> str:
        return (
            f"EDSR(x{self.scale}, {len(self.body)} blocks, "
            f"{self.head.out_channels} feats, {self.num_parameters():,} params)"
        )


class FSRCNNLite(Module):
    """A compact FSRCNN-style SR net: shrink -> map -> expand -> upsample."""

    def __init__(
        self,
        scale: int = 2,
        feats: int = 24,
        shrink: int = 12,
        n_maps: int = 3,
        channels: int = 3,
        seed: int = 0,
    ) -> None:
        super().__init__()
        rng = np.random.default_rng(seed)
        self.scale = scale
        self.channels = channels
        self.extract = Conv2d(channels, feats, 5, rng=rng)
        self.act0 = PReLU()
        self.shrink = Conv2d(feats, shrink, 1, rng=rng)
        self.act1 = PReLU()
        self.mapping = Sequential(
            *[Conv2d(shrink, shrink, 3, rng=rng) for _ in range(n_maps)]
        )
        self.act2 = PReLU()
        self.expand = Conv2d(shrink, feats, 1, rng=rng)
        self.act3 = PReLU()
        self.upsampler = Upsampler(feats, scale, rng=rng)
        self.tail = Conv2d(feats, channels, 3, rng=rng)
        self.tail.weight.data *= 0.01

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 4:
            raise ValueError(f"expected (N, C, H, W) input, got {x.shape}")
        y = self.act0(self.extract(x))
        y = self.act1(self.shrink(y))
        y = self.act2(self.mapping(y))
        y = self.act3(self.expand(y))
        residual = self.tail(self.upsampler(y))
        skip = Tensor(_bilinear_skip(x.data, self.scale))
        return residual + skip


def conv_modules(module: Module) -> Iterator[Conv2d]:
    """Yield every :class:`Conv2d` in ``module``'s tree, depth-first.

    Used by the quantization helpers below so they operate uniformly on
    any architecture (EDSR's convs live inside ``ResidualBlock`` and
    ``Upsampler`` submodules).
    """
    if isinstance(module, Conv2d):
        yield module
    for child in module._modules.values():
        yield from conv_modules(child)


def quantize_conv_per_channel(conv: Conv2d, bits: int = 8) -> np.ndarray:
    """Fake-quantize ``conv``'s weight per output channel, in place.

    Symmetric quantization: each output channel ``o`` gets its own scale
    ``max|w[o]| / qmax`` (per-channel granularity is what keeps int8 SR
    nets near float quality — NAWQ-SR Sec. 3), the weights are rounded
    onto the ``bits``-bit signed integer grid and immediately
    dequantized, so the stored float weights land exactly on
    representable int8 values. Returns the per-channel scales.
    """
    if bits < 2:
        raise ValueError(f"bits must be >= 2, got {bits}")
    w = conv.weight.data
    qmax = float(2 ** (bits - 1) - 1)
    absmax = np.abs(w.reshape(w.shape[0], -1)).max(axis=1)
    # All-zero channels (e.g. a zero-initialized tail) quantize to zero
    # under any scale; use 1.0 to avoid dividing by zero.
    scales = np.where(absmax > 0.0, absmax / qmax, 1.0)
    per_out = scales.reshape(-1, 1, 1, 1)
    quantized = np.clip(np.rint(w / per_out), -qmax, qmax) * per_out
    conv.weight.data = quantized.astype(w.dtype, copy=False)
    return scales


class QuickSRNet(Module):
    """QuickSRNet-style plain conv SR net (Berger et al. 2023).

    A skip-free stack — head conv, ``n_convs`` body convs with PReLU,
    tail conv to ``channels * scale**2``, pixel shuffle — the topology
    mobile NPU compilers fuse into a single fully-pipelined graph.
    Residual learning is moved from the architecture into the
    *initialization*: every conv starts as (scaled-down random noise +
    an identity delta kernel), and the tail starts as a
    nearest-neighbour channel repeat, so an untrained net approximates
    nearest-neighbour upsampling and training learns the correction.
    Activations stay near the [0, 1] pixel range where PReLU is the
    identity, so the init survives the nonlinearities.
    """

    #: Scale applied to the random init before the identity delta is
    #: added — keeps symmetry-breaking noise for training without
    #: drowning the identity path.
    NOISE_SCALE = 0.05

    def __init__(
        self,
        scale: int = 2,
        n_convs: int = 4,
        feats: int = 32,
        channels: int = 3,
        seed: int = 0,
    ) -> None:
        super().__init__()
        if scale < 1:
            raise ValueError(f"scale must be >= 1, got {scale}")
        if n_convs < 1 or feats < channels:
            raise ValueError(
                "n_convs must be positive and feats must be >= channels"
            )
        rng = np.random.default_rng(seed)
        self.scale = scale
        self.channels = channels
        self.head = Conv2d(channels, feats, 3, rng=rng)
        body = []
        for _ in range(n_convs):
            body.append(Conv2d(feats, feats, 3, rng=rng))
            body.append(PReLU())
        self.act_head = PReLU()
        self.body = Sequential(*body)
        self.tail = Conv2d(feats, channels * scale * scale, 3, rng=rng)
        self.shuffle = PixelShuffle(scale)
        self._identity_init()

    def _identity_init(self) -> None:
        k = self.head.weight.data.shape[-1]
        centre = k // 2
        feats = self.head.out_channels
        # Head: feature channel o carries image channel o % channels.
        self.head.weight.data *= self.NOISE_SCALE
        for o in range(feats):
            self.head.weight.data[o, o % self.channels, centre, centre] += 1.0
        # Body: each conv starts as a per-channel identity ("residual
        # repeat" — the block behaves like x + eps*f(x) without a skip).
        for conv in conv_modules(self.body):
            conv.weight.data *= self.NOISE_SCALE
            for o in range(feats):
                conv.weight.data[o, o, centre, centre] += 1.0
        # Tail: output channel o = c*r^2 + dy*r + dx reads feature
        # channel c, so after the pixel shuffle every HR pixel in a
        # block repeats the LR pixel: nearest-neighbour upsampling.
        r2 = self.scale * self.scale
        self.tail.weight.data *= self.NOISE_SCALE * 0.01
        for o in range(self.channels * r2):
            self.tail.weight.data[o, o // r2, centre, centre] += 1.0

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 4:
            raise ValueError(f"expected (N, C, H, W) input, got {x.shape}")
        if x.shape[1] != self.channels:
            raise ValueError(
                f"expected {self.channels} channels, got {x.shape[1]}"
            )
        y = self.act_head(self.head(x))
        y = self.body(y)
        return self.shuffle(self.tail(y))


class QuantizedEDSR(EDSR):
    """EDSR with simulated-int8 per-channel weight quantization.

    State-dict compatible with :class:`EDSR` (no extra parameters), so
    the zoo loads trained float EDSR weights and calls
    :meth:`quantize` — the NAWQ-SR hybrid-precision regime where
    weights ride the int8 datapath and activations stay float.
    """

    def __init__(self, *args, weight_bits: int = 8, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.weight_bits = weight_bits
        self.quantized = False

    def quantize(self) -> "QuantizedEDSR":
        """Fake-quantize every conv weight in place (idempotent)."""
        for conv in conv_modules(self):
            quantize_conv_per_channel(conv, self.weight_bits)
        self.quantized = True
        return self

    def load_state_dict(self, state) -> None:
        super().load_state_dict(state)
        self.quantized = False
