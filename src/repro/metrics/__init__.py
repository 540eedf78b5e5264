"""Full-reference image/video quality metrics (PSNR, LPIPS surrogate)."""

from .lpips import PERCEPTIBLE_LPIPS_DIFFERENCE, lpips
from .psnr import ACCEPTABLE_PSNR_DB, mse, psnr

__all__ = [
    "ACCEPTABLE_PSNR_DB",
    "PERCEPTIBLE_LPIPS_DIFFERENCE",
    "lpips",
    "mse",
    "psnr",
]
