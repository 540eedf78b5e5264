"""Process-level allocator tuning for large-array workloads.

The SR forward pass churns through multi-megabyte temporaries (im2col
buffers, GEMM outputs, padded activations). With glibc's default malloc
thresholds every one of those comes from a fresh ``mmap`` and is returned
to the kernel on free, so each conv pays first-touch page faults on tens
of megabytes — on a single core that costs more than the GEMM itself
(measured ~40% of the whole EDSR forward on the bench machine).

:func:`tune_malloc_for_large_arrays` raises ``M_MMAP_THRESHOLD`` and
``M_TRIM_THRESHOLD`` so big blocks are served from the heap and reused
across ops. It is called once from :mod:`repro.neural` at import; set
``REPRO_NO_MALLOC_TUNING=1`` to keep the platform defaults (the hotpath
bench times its untuned baseline in a subprocess that sets it).

No-ops gracefully on non-glibc platforms.
"""

from __future__ import annotations

import ctypes
import os

__all__ = ["tune_malloc_for_large_arrays"]

# glibc mallopt parameter codes (malloc.h).
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _mallopt(param: int, value: int) -> bool:
    try:
        libc = ctypes.CDLL("libc.so.6", use_errno=True)
        return bool(libc.mallopt(param, value))
    except (OSError, AttributeError):
        return False


def tune_malloc_for_large_arrays(threshold: int = 1 << 30) -> bool:
    """Keep blocks below ``threshold`` on the heap instead of mmap.

    Returns True if the tuning took effect. Idempotent; honours
    ``REPRO_NO_MALLOC_TUNING``.
    """
    if os.environ.get("REPRO_NO_MALLOC_TUNING", "").strip() in ("1", "true", "yes"):
        return False
    return _mallopt(_M_MMAP_THRESHOLD, threshold) and _mallopt(
        _M_TRIM_THRESHOLD, threshold
    )
