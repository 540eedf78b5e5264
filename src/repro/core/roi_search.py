"""RoI area search on the processed depth map (paper Algorithm 1).

A two-phase windowed max-sum search: a coarse pass strides the search
window by ``S = max(h, w) / 2`` across the whole map, then a fine pass
with stride ``s < S`` refines within a boundary ``b`` around the coarse
winner. Window sums are evaluated in O(1) via a summed-area table — the
numpy analogue of the parallel reduction the paper runs on GPU shader
cores. Ties break toward the frame centre (the paper's center-bias rule).

Fast-path structure (see DESIGN.md "Performance notes"):

- one summed-area table per frame, shared by the coarse and the fine
  pass (:func:`window_sums` accepts a precomputed ``sat``);
- when the caller knows a bounding box containing every nonzero value
  (the detector passes the selected depth layer's extent), the coarse
  grid is pruned to windows that can overlap it, coarse sums come from
  per-row-band prefix sums, and the table is built over just the fine
  pass's local neighbourhood;
- :func:`warm_search_roi` is the opt-in temporal warm start: a single
  local pass around the previous frame's box over a small regional
  table, with the accept/fall-back decision left to the caller
  (:class:`~repro.core.detector.RoIDetector`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..contracts import shaped

__all__ = [
    "RoIBox",
    "RoISearchResult",
    "search_roi_scored",
    "warm_search_roi",
    "window_sums",
]


@dataclass(frozen=True)
class RoIBox:
    """An axis-aligned RoI in pixel coordinates (top-left inclusive)."""

    x: int
    y: int
    width: int
    height: int

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ValueError(f"RoI must have positive size, got {self}")
        if self.x < 0 or self.y < 0:
            raise ValueError(f"RoI origin must be non-negative, got {self}")

    @property
    def x_end(self) -> int:
        return self.x + self.width

    @property
    def y_end(self) -> int:
        return self.y + self.height

    @property
    def area(self) -> int:
        return self.width * self.height

    @property
    def center(self) -> tuple[float, float]:
        return (self.x + self.width / 2.0, self.y + self.height / 2.0)

    def scaled(self, factor: int) -> "RoIBox":
        """The same box on a ``factor``-x upscaled frame."""
        if factor < 1:
            raise ValueError(f"factor must be >= 1, got {factor}")
        return RoIBox(
            self.x * factor, self.y * factor, self.width * factor, self.height * factor
        )

    def clamped(self, frame_height: int, frame_width: int) -> "RoIBox":
        """Shift the box (preserving size) to fit inside the frame."""
        if self.width > frame_width or self.height > frame_height:
            raise ValueError(
                f"RoI {self.width}x{self.height} larger than frame "
                f"{frame_width}x{frame_height}"
            )
        x = min(max(self.x, 0), frame_width - self.width)
        y = min(max(self.y, 0), frame_height - self.height)
        return RoIBox(x, y, self.width, self.height)

    def extract(self, frame: np.ndarray) -> np.ndarray:
        """Crop this box out of an (H, W[, C]) frame."""
        return frame[self.y : self.y_end, self.x : self.x_end]

    def contains_point(self, x: float, y: float) -> bool:
        return self.x <= x < self.x_end and self.y <= y < self.y_end

    def intersection_area(self, other: "RoIBox") -> int:
        dx = min(self.x_end, other.x_end) - max(self.x, other.x)
        dy = min(self.y_end, other.y_end) - max(self.y, other.y)
        return max(dx, 0) * max(dy, 0)


@dataclass(frozen=True)
class RoISearchResult:
    """A search outcome: the box, its window sum, and which path found it."""

    box: RoIBox
    score: float  # summed importance inside the winning window
    mode: str  # "full" (Algorithm 1) or "warm" (temporal local search)


def _integral_image(values: np.ndarray) -> np.ndarray:
    """Summed-area table with a zero top/left border.

    Row-then-column ``cumsum`` (the same accumulation order, and therefore
    the same float values, as the original ``zeros`` + double-``cumsum``
    construction), built in place in a single (H+1, W+1) allocation.
    Accumulates in float64.
    """
    h, w = values.shape
    sat = np.empty((h + 1, w + 1), dtype=np.float64)
    sat[0, :] = 0.0
    sat[1:, 0] = 0.0
    inner = sat[1:, 1:]
    np.cumsum(values, axis=0, out=inner)
    np.cumsum(inner, axis=1, out=inner)
    return sat


def window_sums(
    values: np.ndarray | None,
    win_h: int,
    win_w: int,
    ys: np.ndarray,
    xs: np.ndarray,
    sat: np.ndarray | None = None,
) -> np.ndarray:
    """Sum of each (win_h, win_w) window anchored at (ys x xs) grid points.

    Returns an array of shape (len(ys), len(xs)). Pass a precomputed
    ``sat`` (from the same values) to amortize the table across grids —
    Algorithm 1's coarse and fine passes share one table per frame; the
    anchors are then interpreted in the table's coordinate frame.
    """
    if sat is None:
        sat = _integral_image(np.asarray(values, dtype=np.float64))
    ys = np.asarray(ys)
    xs = np.asarray(xs)
    y0 = ys[:, None]
    x0 = xs[None, :]
    y1 = y0 + win_h
    x1 = x0 + win_w
    return sat[y1, x1] - sat[y0, x1] - sat[y1, x0] + sat[y0, x0]


def _best_position(
    sums: np.ndarray,
    ys: np.ndarray,
    xs: np.ndarray,
    frame_center: tuple[float, float],
    win: tuple[int, int],
) -> tuple[int, int, float]:
    """Arg-max with center-distance tie-breaking (Algorithm 1 note).

    The tie set is the windows whose sums compare *exactly* equal to the
    maximum. (An earlier absolute 1e-9 epsilon was scale-blind: window
    sums grow with window area, so it silently widened the tie set for
    small windows and vanished for large ones.)
    """
    best = sums.max()
    tie_rows, tie_cols = np.nonzero(sums == best)
    cy, cx = frame_center
    win_h, win_w = win
    centers_y = ys[tie_rows] + win_h / 2.0
    centers_x = xs[tie_cols] + win_w / 2.0
    dist2 = (centers_y - cy) ** 2 + (centers_x - cx) ** 2
    pick = int(np.argmin(dist2))
    return int(ys[tie_rows[pick]]), int(xs[tie_cols[pick]]), float(best)


_NEAR_TIE_RTOL = 1e-9


def _near_tie(sums: np.ndarray) -> bool:
    """True when the two largest window sums are not clearly separated.

    The banded/regional evaluation schemes agree with the full-frame
    summed-area table to ~1e-13 relative, but an *exact* float tie under
    one scheme can split by an ulp under another — and then the
    center-bias tie-break resolves differently (mirror-symmetric scenes
    hit this in practice). A 1e-9 relative gap is orders of magnitude
    above the cross-scheme noise, so a winner this clear is the same
    winner under the full table; anything closer re-runs on the full
    table, which is bit-identical to the reference implementation.
    """
    flat = sums.ravel()
    if flat.size < 2:
        return False
    top2 = np.partition(flat, flat.size - 2)[flat.size - 2 :]
    gap = float(top2[1]) - float(top2[0])
    return gap <= _NEAR_TIE_RTOL * max(abs(float(top2[1])), 1.0)


def _grid(start: int, stop: int, stride: int) -> np.ndarray:
    """Stride grid over [start, stop] that always includes both endpoints."""
    start = max(start, 0)
    stop = max(stop, start)
    points = np.arange(start, stop + 1, stride, dtype=np.int64)
    if points[-1] != stop:
        points = np.append(points, stop)
    return points


def _grid_around(center: int, lo: int, hi: int, stride: int) -> np.ndarray:
    """Stride grid over [lo, hi] guaranteed to contain ``center``.

    The warm-start pass anchors the grid on the previous frame's position
    so a static scene re-finds exactly the previous box; both endpoints
    are always included (``lo <= center <= hi`` is the caller's job).
    """
    below = np.arange(center, lo - 1, -stride, dtype=np.int64)[::-1]
    above = np.arange(center + stride, hi + 1, stride, dtype=np.int64)
    points = np.concatenate((below, above))
    if points[0] != lo:
        points = np.concatenate(([lo], points))
    if points[-1] != hi:
        points = np.append(points, hi)
    return points


def _validate(
    processed: np.ndarray, win_h: int, win_w: int, fine_stride: int
) -> tuple[int, int]:
    if processed.ndim != 2:
        raise ValueError(f"expected 2-D map, got shape {processed.shape}")
    height, width = processed.shape
    if win_h > height or win_w > width:
        raise ValueError(f"window {win_h}x{win_w} larger than map {height}x{width}")
    if fine_stride < 1:
        raise ValueError("strides must be >= 1")
    return height, width


@shaped(processed="H W:n")
def search_roi_scored(
    processed: np.ndarray,
    win_h: int,
    win_w: int,
    coarse_stride: int | None = None,
    fine_stride: int = 2,
    boundary: int | None = None,
    bbox: tuple[int, int, int, int] | None = None,
) -> RoISearchResult:
    """Algorithm 1 with one summed-area table shared by both passes.

    Parameters mirror the paper: ``coarse_stride`` defaults to
    ``max(win_h, win_w) // 2``; ``boundary`` defaults to the coarse stride
    (the fine pass re-examines everything the coarse pass could have
    skipped over).

    Without ``bbox`` the two passes share one full-frame summed-area
    table (the seed rebuilt it per pass), keeping the float values — and
    therefore the exact tie sets — of the original implementation.

    ``bbox`` — optional ``(row0, row1, col0, col1)`` (inclusive) known to
    contain every nonzero value of ``processed`` (the detector passes the
    selected depth layer's extent). The coarse grid then drops windows
    that cannot overlap that region and its sums come from per-row-band
    column prefix sums (a handful of windows doesn't amortize a full
    table), while the fine pass builds a summed-area table over just its
    ``+-boundary`` neighbourhood. The winner is unaffected: a window with
    positive sum must overlap the nonzero region, exact ties among such
    windows all lie on the kept grid, and a map with no positive window
    ignores the hint entirely (full-table path). When either pruned pass
    cannot separate its top two windows by a clear relative gap
    (:func:`_near_tie`), the whole search re-runs on the shared
    full-frame table so exact ties break identically to the reference —
    the pruning is a pure evaluation-order optimization, never a
    different function.
    """
    processed = np.asarray(processed, dtype=np.float64)
    height, width = _validate(processed, win_h, win_w, fine_stride)
    if coarse_stride is None:
        coarse_stride = max(max(win_h, win_w) // 2, 1)
    if coarse_stride < 1:
        raise ValueError("strides must be >= 1")
    if fine_stride > coarse_stride:
        raise ValueError(
            f"fine stride ({fine_stride}) must not exceed coarse ({coarse_stride})"
        )
    if boundary is None:
        boundary = coarse_stride

    frame_center = ((height - 1) / 2.0, (width - 1) / 2.0)

    def full_table_search() -> tuple[int, int, float]:
        # One full-frame table shared by both passes — the float values
        # (and therefore the exact tie sets) of the reference path.
        sat = _integral_image(processed)
        cys = _grid(0, height - win_h, coarse_stride)
        cxs = _grid(0, width - win_w, coarse_stride)
        csums = window_sums(None, win_h, win_w, cys, cxs, sat=sat)
        cy, cx, _ = _best_position(csums, cys, cxs, frame_center, (win_h, win_w))
        fys = _grid(cy - boundary, min(cy + boundary, height - win_h), fine_stride)
        fxs = _grid(cx - boundary, min(cx + boundary, width - win_w), fine_stride)
        fsums = window_sums(None, win_h, win_w, fys, fxs, sat=sat)
        return _best_position(fsums, fys, fxs, frame_center, (win_h, win_w))

    ys = _grid(0, height - win_h, coarse_stride)
    xs = _grid(0, width - win_w, coarse_stride)

    banded = False
    if bbox is not None:
        br0, br1, bc0, bc1 = bbox
        keep_y = (ys + win_h > br0) & (ys <= br1)
        keep_x = (xs + win_w > bc0) & (xs <= bc1)
        if keep_y.any() and keep_x.any():
            ys = ys[keep_y]
            xs = xs[keep_x]
            banded = True

    if banded:
        # Coarse: per-row-band column prefix sums over the kept columns.
        cc0 = int(xs[0])
        cc1 = min(int(xs[-1]) + win_w, width)
        xoff = xs - cc0
        sums = np.empty((len(ys), len(xs)), dtype=np.float64)
        prefix = np.empty(cc1 - cc0 + 1, dtype=np.float64)
        prefix[0] = 0.0
        for i, y in enumerate(ys):
            band = processed[y : y + win_h, cc0:cc1].sum(axis=0)
            np.cumsum(band, out=prefix[1:])
            sums[i] = prefix[xoff + win_w] - prefix[xoff]
        if _near_tie(sums):
            fine_y, fine_x, score = full_table_search()
        else:
            coarse_y, coarse_x, _ = _best_position(
                sums, ys, xs, frame_center, (win_h, win_w)
            )
            # Fine: a table over just the +-boundary neighbourhood.
            ys = _grid(coarse_y - boundary, min(coarse_y + boundary, height - win_h), fine_stride)
            xs = _grid(coarse_x - boundary, min(coarse_x + boundary, width - win_w), fine_stride)
            r0, c0 = int(ys[0]), int(xs[0])
            r1 = min(int(ys[-1]) + win_h, height)
            c1 = min(int(xs[-1]) + win_w, width)
            sat = _integral_image(processed[r0:r1, c0:c1])
            sums = window_sums(None, win_h, win_w, ys - r0, xs - c0, sat=sat)
            if _near_tie(sums):
                fine_y, fine_x, score = full_table_search()
            else:
                fine_y, fine_x, score = _best_position(
                    sums, ys, xs, frame_center, (win_h, win_w)
                )
    else:
        fine_y, fine_x, score = full_table_search()

    return RoISearchResult(
        box=RoIBox(x=fine_x, y=fine_y, width=win_w, height=win_h),
        score=score,
        mode="full",
    )


@shaped(processed="H W:n")
def warm_search_roi(
    processed: np.ndarray,
    win_h: int,
    win_w: int,
    prev: RoIBox,
    fine_stride: int = 2,
    boundary: int | None = None,
) -> RoISearchResult:
    """Temporal warm start: one local pass around the previous frame's box.

    Searches a ``fine_stride`` grid within ``+-boundary`` of ``prev``'s
    anchor over a regional summed-area table (``boundary`` defaults to the
    Algorithm-1 coarse stride). The grid always contains the previous
    anchor, so a static scene reproduces the previous box exactly. This
    function only reports the local winner and its sum; accepting it vs
    falling back to the full search is the caller's decision
    (:class:`~repro.core.detector.RoIDetector` compares ``score`` against
    its running full-search reference).
    """
    processed = np.asarray(processed, dtype=np.float64)
    height, width = _validate(processed, win_h, win_w, fine_stride)
    if boundary is None:
        boundary = max(max(win_h, win_w) // 2, 1)
    if boundary < 1:
        raise ValueError(f"boundary must be >= 1, got {boundary}")

    prev_y = min(max(prev.y, 0), height - win_h)
    prev_x = min(max(prev.x, 0), width - win_w)
    ys = _grid_around(prev_y, max(prev_y - boundary, 0), min(prev_y + boundary, height - win_h), fine_stride)
    xs = _grid_around(prev_x, max(prev_x - boundary, 0), min(prev_x + boundary, width - win_w), fine_stride)

    r0, c0 = int(ys[0]), int(xs[0])
    r1 = min(int(ys[-1]) + win_h, height)
    c1 = min(int(xs[-1]) + win_w, width)
    sat = _integral_image(processed[r0:r1, c0:c1])
    sums = window_sums(None, win_h, win_w, ys - r0, xs - c0, sat=sat)
    frame_center = ((height - 1) / 2.0, (width - 1) / 2.0)
    y, x, score = _best_position(sums, ys, xs, frame_center, (win_h, win_w))
    return RoISearchResult(
        box=RoIBox(x=x, y=y, width=win_w, height=win_h), score=score, mode="warm"
    )
