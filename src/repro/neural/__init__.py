"""From-scratch numpy neural framework (autograd, CNN layers, SR models).

This package substitutes for the PyTorch / TensorFlow-Lite stack the paper
runs its EDSR super-resolution model on. See DESIGN.md for the substitution
rationale.
"""

from .alloc import tune_malloc_for_large_arrays
from .functional import conv2d, pixel_shuffle
from .layers import (
    Conv2d,
    Module,
    PixelShuffle,
    PReLU,
    ResidualBlock,
    Sequential,
    Upsampler,
)
from .loss import l1_loss
from .models import EDSR, FSRCNNLite
from .optim import Adam, clip_grad_norm
from .serialization import load_state, load_weights, save_weights
from .tensor import (
    Tensor,
    as_tensor,
    get_inference_dtype,
    is_grad_enabled,
    no_grad,
    set_inference_dtype,
)

__all__ = [
    "Adam",
    "Conv2d",
    "EDSR",
    "FSRCNNLite",
    "Module",
    "PReLU",
    "PixelShuffle",
    "ResidualBlock",
    "Sequential",
    "Tensor",
    "Upsampler",
    "as_tensor",
    "get_inference_dtype",
    "set_inference_dtype",
    "clip_grad_norm",
    "conv2d",
    "is_grad_enabled",
    "l1_loss",
    "load_state",
    "load_weights",
    "no_grad",
    "pixel_shuffle",
    "save_weights",
    "tune_malloc_for_large_arrays",
]

# Large-array allocator tuning is part of the fast inference path: without
# it every multi-MB conv temporary is a fresh mmap + page-fault storm.
# Honours REPRO_NO_MALLOC_TUNING=1; no-op on non-glibc platforms.
tune_malloc_for_large_arrays()
