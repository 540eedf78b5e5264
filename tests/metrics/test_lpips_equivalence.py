"""Banded float64 LPIPS == the frozen kernels it replaced.

:func:`repro.metrics.lpips` scores both images' channel planes with
float64 correlations, one row band at a time; ``_legacy_lpips.py``
freezes the scipy implementation (matched to 1e-9) and the whole-map
batched kernel (matched exactly). The pairs include game renders and a
frame with large flat patches: there the zero-mean bank's responses are
rounding noise that the unit normalization amplifies, so a float32
kernel moves LPIPS by 1e-2 or more and fails this suite.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

import repro.neural.functional as F
from repro.metrics import lpips
from repro.metrics.lpips import _downsample2
from repro.neural import no_grad
from repro.render.games import all_games, build_game

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
    assert value == legacy.batched_lpips(reference, test)
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


#: (width, height) of the e2ebench stream, the quality LR and the HR renders.
GEOMETRIES = ((112, 64), (224, 128), (448, 256))


@pytest.mark.parametrize("width,height", GEOMETRIES)
def test_bands_equal_whole_map_kernel_on_every_game(width, height):
    """Bit-identical to the whole-map kernel on frames 3 vs 4 of every game.

    At 112x64, scale 2 (28x16) runs as conv chunks of 15 + 1 rows; bands
    that ignore the chunking (8 + 8) move G10 by ~3.5e-18, since dgemm's
    rounding depends on the GEMM's N.
    """
    for game in all_games():
        a = game.render_frame(3, width, height).color
        b = game.render_frame(4, width, height).color
        assert lpips(a, b) == legacy.batched_lpips(a, b), game.game_id


@pytest.mark.parametrize("width,height", [(112, 64), (448, 256)])
def test_bands_spanning_many_chunks_equal_whole_map_kernel(width, height, monkeypatch):
    """A 64 KiB budget: one-row chunks, and at 112x64 scale 2 (28x16)
    four bands of four chunks each."""
    monkeypatch.setattr(F, "_CONV_CHUNK_BYTES", 64 << 10)
    rows = F.chunk_rows(6 * 49 * 28 * 8)
    assert (rows, F.chunk_rows(6 * 10 * 28 * 8, multiple=rows)) == (1, 4)
    game = build_game("G10")
    a = game.render_frame(3, width, height).color
    b = game.render_frame(4, width, height).color
    assert lpips(a, b) == legacy.batched_lpips(a, b)


def test_peak_memory_of_hr_call_stays_banded(renders):
    """One 448x256 call peaks at ~14 MiB; the whole-map kernel took 69 MiB."""
    frame = renders["G3"]
    other = _down_up(frame)
    lpips(frame, other)
    tracemalloc.start()
    try:
        lpips(frame, other)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2**20


def test_downsample_sums_blocks_in_the_mean_order():
    """Three strided adds == the frozen ``mean(axis=(2, 4))`` bit for bit,
    on odd sizes and values spanning ten decades."""
    rng = np.random.default_rng(7)
    for step in range(8):
        planes = rng.normal(size=(6, 57 + step, 91 + 3 * step)) * 10.0 ** rng.uniform(-5, 5)
        assert np.array_equal(_downsample2(planes), legacy._downsample2(planes))
