"""Parallel fan-out of the (game, design) session matrix.

:func:`run_session_matrix` takes the list of session tasks an experiment
driver wants materialized and builds the ones missing from the artifact
cache across a :class:`~concurrent.futures.ProcessPoolExecutor`. Workers
write through :func:`repro.cache.load_or_build` with exactly the same
``(name, config)`` keys the serial path uses, so the cached artifacts are
byte-identical regardless of how (or in what order) they were produced —
the parent then reads every result back from the cache.

Scheduling is cache-aware: tasks whose artifact already exists are never
dispatched, and the remaining ones are ordered most-expensive-first
(quality sessions before perf sessions, longer sessions before shorter)
so the pool drains without a long straggler tail.

Worker count resolution: an explicit ``workers=`` argument wins, then the
``REPRO_SESSION_WORKERS`` environment variable, then ``os.cpu_count()``
capped at 8. ``workers <= 1`` (or a single pending task) runs serially
in-process — the default on single-core machines.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Dict, List, Sequence, Tuple

from ..cache import artifact_path, cache_disabled

__all__ = [
    "SESSION_CACHE_SCHEMA",
    "SessionTask",
    "default_worker_count",
    "run_session_matrix",
    "session_cache_key",
]

#: (kind, kwargs) pair identifying one cached session — ``kind`` selects
#: the geometry/quality mode ("perf" or "quality"), ``kwargs`` are the
#: exact keyword arguments of ``repro.analysis.experiments._cached_session``.
SessionTask = Tuple[str, Dict[str, Any]]

#: Version of the cached-session artifact layout. Bumped whenever the
#: pickled ``SessionResult`` schema changes shape in ways old readers
#: would mis-handle (v2: staged pipeline — per-frame traces + metrics
#: registry attached). Part of the cache key, so stale seed-era pickles
#: are never loaded into the new code.
SESSION_CACHE_SCHEMA = 2

_MAX_DEFAULT_WORKERS = 8


def session_cache_key(kind: str, kwargs: Dict[str, Any]) -> Dict[str, Any]:
    """The one place the session artifact cache key is assembled.

    Both the serial path (``experiments._cached_session``) and the
    parallel scheduler's existence probe must use this exact dict, or the
    fan-out would rebuild sessions the serial path considers cached.
    """
    return {"kind": kind, "schema": SESSION_CACHE_SCHEMA, **kwargs}


def default_worker_count() -> int:
    """Worker count from ``REPRO_SESSION_WORKERS`` or the CPU count."""
    env = os.environ.get("REPRO_SESSION_WORKERS", "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(
                f"REPRO_SESSION_WORKERS must be an integer, got {env!r}"
            ) from None
    return max(1, min(_MAX_DEFAULT_WORKERS, os.cpu_count() or 1))


def _task_cached(task: SessionTask) -> bool:
    kind, kwargs = task
    return artifact_path(
        f"session-{kind}", session_cache_key(kind, kwargs), subdir="sessions"
    ).exists()


def _task_cost(task: SessionTask) -> Tuple[int, int]:
    """Sort key putting the most expensive sessions first."""
    kind, kwargs = task
    return (1 if kind == "quality" else 0, int(kwargs.get("n_frames", 0)))


def _build_session(task: SessionTask) -> None:
    """Worker entry point: build one session, write-through to the cache."""
    # Imported here (not at module top): experiments imports this module.
    from .experiments import _cached_session

    kind, kwargs = task
    _cached_session(kind, **kwargs)


def run_session_matrix(
    tasks: Sequence[SessionTask],
    workers: int | None = None,
) -> None:
    """Ensure every task's session artifact exists, fanning out if needed.

    Safe to call with an arbitrary mix of cached and uncached tasks; the
    function returns once all artifacts are on disk. Results are *not*
    returned — callers read them through ``_cached_session`` afterwards,
    which is then a pure cache hit.
    """
    if workers is None:
        workers = default_worker_count()
    if cache_disabled():
        # No artifact store to fan out over: build everything in-process.
        for task in tasks:
            _build_session(task)
        return
    pending = [t for t in tasks if not _task_cached(t)]
    if not pending:
        return
    pending.sort(key=_task_cost, reverse=True)
    if workers <= 1 or len(pending) == 1:
        for task in pending:
            _build_session(task)
        return

    # Train/load the shared SR weights once before forking, so workers
    # don't race to train the same model from scratch.
    from ..sr.pretrained import default_sr_model

    default_sr_model()
    with ProcessPoolExecutor(max_workers=min(workers, len(pending))) as pool:
        # list() propagates the first worker exception, if any.
        list(pool.map(_build_session, pending))
