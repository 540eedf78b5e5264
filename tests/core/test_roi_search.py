"""Algorithm 1 RoI search and the RoIBox type."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.roi_search import (
    RoIBox,
    search_roi_scored,
    warm_search_roi,
    window_sums,
)


def brute_force_best(values, win_h, win_w):
    """Exhaustive max-sum window (the oracle Algorithm 1 approximates)."""
    best, best_pos = -np.inf, (0, 0)
    h, w = values.shape
    for y in range(h - win_h + 1):
        for x in range(w - win_w + 1):
            s = values[y : y + win_h, x : x + win_w].sum()
            if s > best + 1e-12:
                best, best_pos = s, (y, x)
    return best, best_pos


def dense_oracle_box(values, win_h, win_w):
    """Dense SAT argmax with the same exact-tie center-bias rule: the
    ground truth a stride-1 coarse+fine search must reproduce exactly."""
    h, w = values.shape
    ys = np.arange(h - win_h + 1)
    xs = np.arange(w - win_w + 1)
    sums = window_sums(values, win_h, win_w, ys, xs)
    best = sums.max()
    tie_r, tie_c = np.nonzero(sums == best)
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    d2 = (tie_r + win_h / 2.0 - cy) ** 2 + (tie_c + win_w / 2.0 - cx) ** 2
    pick = int(np.argmin(d2))
    return RoIBox(x=int(tie_c[pick]), y=int(tie_r[pick]), width=win_w, height=win_h)


class TestWindowSums:
    def test_matches_brute_force(self, rng):
        values = rng.uniform(size=(20, 30))
        ys = np.arange(0, 13, 3)
        xs = np.arange(0, 23, 4)
        sums = window_sums(values, 8, 8, ys, xs)
        for i, y in enumerate(ys):
            for j, x in enumerate(xs):
                assert sums[i, j] == pytest.approx(values[y : y + 8, x : x + 8].sum())

    @given(st.integers(1, 5), st.integers(1, 5))
    @settings(max_examples=20, deadline=None)
    def test_property_full_grid(self, win_h, win_w):
        rng = np.random.default_rng(win_h * 10 + win_w)
        values = rng.uniform(size=(12, 14))
        ys = np.arange(0, 12 - win_h + 1)
        xs = np.arange(0, 14 - win_w + 1)
        sums = window_sums(values, win_h, win_w, ys, xs)
        best_exh, pos = brute_force_best(values, win_h, win_w)
        assert sums.max() == pytest.approx(best_exh)


class TestSearch:
    def test_finds_planted_blob(self):
        values = np.zeros((60, 80))
        values[34:44, 50:60] = 1.0
        box = search_roi_scored(values, 10, 10, fine_stride=1).box
        assert (box.y, box.x) == (34, 50)

    def test_fine_stride_one_matches_bruteforce(self, rng):
        values = rng.uniform(size=(40, 50)) ** 4  # peaky field
        box = search_roi_scored(values, 12, 12, fine_stride=1).box
        best, _ = brute_force_best(values, 12, 12)
        found = values[box.y : box.y_end, box.x : box.x_end].sum()
        # Coarse+fine is a heuristic; it must come close to the optimum.
        assert found >= 0.85 * best

    def test_center_tiebreak(self):
        """On a uniform map every window ties; the centre must win."""
        values = np.ones((40, 60))
        box = search_roi_scored(values, 10, 10, fine_stride=1).box
        cx, cy = box.center
        assert abs(cx - 30) <= 5 and abs(cy - 20) <= 5

    def test_full_size_window(self):
        values = np.ones((16, 16))
        box = search_roi_scored(values, 16, 16).box
        assert (box.x, box.y) == (0, 0)

    def test_stride_defaults_follow_paper(self, rng):
        """Coarse stride defaults to max(h, w)/2 and must still find a
        strong blob after fine refinement."""
        values = np.zeros((64, 64))
        values[20:36, 28:44] = 1.0
        box = search_roi_scored(values, 16, 16).box  # default strides
        overlap = box.intersection_area(RoIBox(28, 20, 16, 16))
        assert overlap >= 0.5 * 16 * 16

    def test_validation(self):
        values = np.ones((10, 10))
        with pytest.raises(ValueError, match="larger than map"):
            search_roi_scored(values, 20, 20).box
        with pytest.raises(ValueError, match="strides"):
            search_roi_scored(values, 4, 4, coarse_stride=0).box
        with pytest.raises(ValueError, match="fine stride"):
            search_roi_scored(values, 4, 4, coarse_stride=2, fine_stride=3).box
        # Message differs by mode: the function's own "2-D" check, or the
        # @shaped rank contract when REPRO_CONTRACTS=1.
        with pytest.raises(ValueError, match="2-D|rank 3"):
            search_roi_scored(np.ones((4, 4, 3)), 2, 2).box

    def test_exact_tie_regression(self):
        """A window whose sum falls within 1e-9 of the max but below it
        must NOT enter the tie set. The seed's absolute epsilon let this
        center-closer near-miss window steal the win from the true
        maximum at the corner."""
        values = np.zeros((8, 8))
        values[0:2, 0:2] = 0.25  # corner window: sum exactly 1.0
        values[3:5, 3:5] = 0.25
        values[4, 4] = 0.25 - 1e-10  # center window: sum 1.0 - 1e-10
        box = search_roi_scored(values, 2, 2, coarse_stride=1, fine_stride=1).box
        assert (box.y, box.x) == (0, 0)

    def test_uniform_map_still_ties_to_center(self):
        """Exact ties (uniform map) must still break toward the centre —
        the epsilon fix may only shrink the tie set, never the rule."""
        values = np.full((12, 16), 0.125)
        box = search_roi_scored(values, 4, 4, coarse_stride=1, fine_stride=1).box
        # Both (3, 5) and (4, 6) anchors are equidistant from the centre;
        # scan order resolves to the first.
        assert (box.y, box.x) == (3, 5)


class TestDenseOracle:
    """Stride-1 coarse+fine must equal the dense argmax *exactly* —
    including tie-breaking — with and without the bbox fast path."""

    @pytest.mark.parametrize("seed", range(8))
    def test_random_maps(self, seed):
        rng = np.random.default_rng(seed)
        values = rng.random((30, 40)) ** 3
        oracle = dense_oracle_box(values, 8, 8)
        assert search_roi_scored(values, 8, 8, coarse_stride=1, fine_stride=1).box == oracle
        rows, cols = np.nonzero(values > 0.5)
        if rows.size:
            bbox = (rows.min(), rows.max(), cols.min(), cols.max())
            sparse = np.where(values > 0.5, values, 0.0)
            assert (
                search_roi_scored(
                    sparse, 8, 8, coarse_stride=1, fine_stride=1, bbox=bbox
                ).box
                == dense_oracle_box(sparse, 8, 8)
            )

    def test_all_background(self):
        values = np.zeros((20, 24))
        oracle = dense_oracle_box(values, 6, 6)
        assert search_roi_scored(values, 6, 6, coarse_stride=1, fine_stride=1).box == oracle

    def test_single_plane(self):
        values = np.full((20, 24), 0.7)
        oracle = dense_oracle_box(values, 6, 6)
        assert search_roi_scored(values, 6, 6, coarse_stride=1, fine_stride=1).box == oracle

    def test_window_equals_frame(self):
        values = np.random.default_rng(3).random((16, 16))
        assert search_roi_scored(values, 16, 16).box == RoIBox(0, 0, 16, 16)
        assert warm_search_roi(
            values, 16, 16, prev=RoIBox(0, 0, 16, 16)
        ).box == RoIBox(0, 0, 16, 16)

    @pytest.mark.parametrize("seed", range(4))
    def test_warm_with_dense_boundary_matches_oracle(self, seed):
        """A warm search whose boundary covers the whole valid range at
        stride 1 sees every window, so it must also match the oracle."""
        rng = np.random.default_rng(100 + seed)
        values = rng.random((24, 30))
        oracle = dense_oracle_box(values, 6, 6)
        local = warm_search_roi(
            values, 6, 6, prev=RoIBox(10, 8, 6, 6), fine_stride=1, boundary=30
        )
        assert local.box == oracle


class TestRoIBox:
    def test_geometry(self):
        box = RoIBox(4, 6, 10, 8)
        assert box.x_end == 14 and box.y_end == 14
        assert box.area == 80
        assert box.center == (9.0, 10.0)

    def test_scaled(self):
        assert RoIBox(2, 3, 4, 5).scaled(2) == RoIBox(4, 6, 8, 10)
        with pytest.raises(ValueError):
            RoIBox(0, 0, 2, 2).scaled(0)

    def test_clamped(self):
        assert RoIBox(18, 0, 8, 8).clamped(20, 20) == RoIBox(12, 0, 8, 8)
        with pytest.raises(ValueError):
            RoIBox(0, 0, 30, 30).clamped(20, 20)

    def test_extract(self, rng):
        frame = rng.uniform(size=(20, 30, 3))
        box = RoIBox(5, 2, 10, 6)
        np.testing.assert_array_equal(box.extract(frame), frame[2:8, 5:15])

    def test_contains_and_intersection(self):
        a = RoIBox(0, 0, 10, 10)
        b = RoIBox(5, 5, 10, 10)
        assert a.contains_point(9, 9) and not a.contains_point(10, 10)
        assert a.intersection_area(b) == 25
        assert a.intersection_area(RoIBox(20, 20, 5, 5)) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            RoIBox(0, 0, 0, 5)
        with pytest.raises(ValueError):
            RoIBox(-1, 0, 5, 5)

    @given(st.integers(0, 20), st.integers(0, 20), st.integers(1, 10), st.integers(1, 10), st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_scaling_preserves_area_ratio(self, x, y, w, h, s):
        box = RoIBox(x, y, w, h)
        assert box.scaled(s).area == box.area * s * s
