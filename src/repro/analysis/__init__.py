"""Experiment drivers, session-matrix fan-out, and report formatting."""

from .experiments import (
    ALL_GAME_IDS,
    DEVICE_NAMES,
    bandwidth_comparison,
    default_runner,
    input_resolution_sweep,
    perf_geometry,
    performance_sessions,
    quality_geometry,
    quality_sessions,
    roi_sizing_table,
    sota_timeline,
    upscale_factor_tradeoff,
)
from .parallel import default_worker_count, run_session_matrix
from .tables import fmt, format_paper_vs_measured, format_table

__all__ = [
    "ALL_GAME_IDS",
    "DEVICE_NAMES",
    "bandwidth_comparison",
    "default_runner",
    "default_worker_count",
    "fmt",
    "format_paper_vs_measured",
    "format_table",
    "input_resolution_sweep",
    "perf_geometry",
    "performance_sessions",
    "quality_geometry",
    "quality_sessions",
    "roi_sizing_table",
    "run_session_matrix",
    "sota_timeline",
    "upscale_factor_tradeoff",
]
