"""Content-addressed artifact cache for experiments and trained weights.

Trained SR weights, session results and experiment tables are expensive
to rebuild in pure numpy, so they are cached under ``.cache/`` at the
repository root (override with ``REPRO_CACHE_DIR``), keyed by a hash of
the generating configuration. Deleting the directory is always safe.

Set ``REPRO_CACHE_DISABLE=1`` to bypass the cache entirely (neither read
nor written) — the escape hatch the hotpath benchmarks use to time cold
builds.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import pickle
from pathlib import Path
from typing import Any, Callable

_logger = logging.getLogger(__name__)

__all__ = [
    "cache_dir",
    "cache_disabled",
    "config_key",
    "artifact_path",
    "load_or_build",
]


def cache_dir() -> Path:
    """The cache root (created on demand)."""
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        root = Path(override)
    else:
        # src/repro/cache.py -> repo root is three levels up.
        root = Path(__file__).resolve().parents[2] / ".cache"
    root.mkdir(parents=True, exist_ok=True)
    return root


def cache_disabled() -> bool:
    """Whether ``REPRO_CACHE_DISABLE`` requests a cache bypass."""
    return os.environ.get("REPRO_CACHE_DISABLE", "").strip() in ("1", "true", "yes")


def config_key(config: Any) -> str:
    """Stable short hash of a JSON-serializable configuration."""
    blob = json.dumps(config, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def artifact_path(name: str, config: Any, subdir: str = "artifacts") -> Path:
    """Where :func:`load_or_build` stores the artifact for (name, config)."""
    return cache_dir() / subdir / f"{name}-{config_key(config)}.pkl"


def load_or_build(
    name: str, config: Any, builder: Callable[[], Any], subdir: str = "artifacts"
) -> Any:
    """Return the cached artifact for (name, config), building if absent."""
    if cache_disabled():
        return builder()
    path = artifact_path(name, config, subdir=subdir)
    path.parent.mkdir(parents=True, exist_ok=True)
    if path.exists():
        try:
            with path.open("rb") as fh:
                return pickle.load(fh)
        except (pickle.UnpicklingError, EOFError, AttributeError, OSError) as exc:
            # Truncated/corrupt artifact (e.g. an interrupted writer before
            # writes went through atomic os.replace): rebuild it.
            _logger.warning(
                "corrupt cache artifact %s (%s: %s); rebuilding",
                path,
                type(exc).__name__,
                exc,
            )
            path.unlink(missing_ok=True)
    artifact = builder()
    # Unique temp name per process: parallel session workers write through
    # this cache concurrently and must never interleave into one file.
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    with tmp.open("wb") as fh:
        pickle.dump(artifact, fh)
    tmp.replace(path)
    return artifact
