"""Batched float64 LPIPS == the frozen scipy surrogate, to 1e-9.

:func:`repro.metrics.lpips` scores both images' channel planes with one
float64 correlation per scale; the scipy implementation it replaced is
frozen verbatim in ``_legacy_lpips.py``. The pairs include game renders
and a frame with large flat patches: there the zero-mean bank's
responses are rounding noise that the unit normalization amplifies, so
a float32 kernel moves LPIPS by 1e-2 or more and fails this suite.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.metrics import lpips
from repro.neural import no_grad
from repro.render.games import build_game

from . import _legacy_lpips as legacy

TOLERANCE = 1e-9


def _down_up(image: np.ndarray) -> np.ndarray:
    """2x area-average down, nearest up: a blurred copy of ``image``."""
    h, w = image.shape[:2]
    small = image.reshape(h // 2, 2, w // 2, 2, -1).mean(axis=(1, 3))
    return small.repeat(2, axis=0).repeat(2, axis=1).reshape(image.shape)


@pytest.fixture(scope="module")
def renders():
    return {gid: build_game(gid).render_frame(5, 448, 256).color for gid in ("G1", "G3", "G5")}


def _assert_matches(reference: np.ndarray, test: np.ndarray) -> float:
    value = lpips(reference, test)
    assert abs(value - legacy.lpips(reference, test)) <= TOLERANCE
    return value


@pytest.mark.parametrize("game_id", ["G1", "G3", "G5"])
def test_game_render_vs_blur(renders, game_id):
    frame = renders[game_id]
    assert _assert_matches(frame, _down_up(frame)) > 0.0


def test_large_flat_patches(renders):
    frame = renders["G3"].copy()
    frame[:, :224] = (0.2, 0.4, 0.6)
    frame[160:, 224:] = 0.5
    blurred = _down_up(frame)
    # The flat regions stay flat (to rounding) in the blurred copy.
    assert np.allclose(blurred[:, :224], (0.2, 0.4, 0.6))
    assert _assert_matches(frame, blurred) > 0.0


def test_grayscale_pair(renders):
    gray = renders["G5"].mean(axis=2)
    _assert_matches(gray, _down_up(gray))


def test_odd_size_pair():
    """57x91 exercises the odd-row/column trim of every downsample."""
    rng = np.random.default_rng(3)
    a = rng.uniform(size=(57, 91, 3))
    b = np.clip(a + rng.normal(scale=0.05, size=a.shape), 0.0, 1.0)
    _assert_matches(a, b)


def test_identical_images_score_exactly_zero(renders):
    frame = renders["G1"]
    assert lpips(frame, frame.copy()) == 0.0


def test_value_does_not_depend_on_no_grad(renders):
    """``no_grad()`` sets the float32 inference dtype for Tensor ops; the
    metric must not pick it up."""
    frame = renders["G3"]
    blurred = _down_up(frame)
    outside = lpips(frame, blurred)
    with no_grad():
        inside = lpips(frame, blurred)
    assert inside == outside
