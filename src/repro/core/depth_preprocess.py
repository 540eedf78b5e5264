"""Depth-map preprocessing (paper Fig. 8, Sec. IV-B2).

Transforms the raw server-side depth buffer into a single "importance"
map on which Algorithm 1 searches for the RoI. The four paper stages:

1. **Foreground extraction** — a coarse histogram analysis finds the
   valley between the foreground and background depth clusters and masks
   the background out.
2. **Spatial weighting** — a Gaussian center-bias matrix is added
   pixel-wise (players look at the screen centre).
3. **Depth-map layering** — the weighted map is evenly divided into
   layers by value range.
4. **Depth-layer selection** — the layer with the maximum total value is
   kept; all other pixels are zeroed.

Depth convention: input depth is the renderer's linearized Z in [0, 1]
with 0 = near. Since the paper's "darkness intensity represents nearness"
and its search maximizes summed values, we first convert depth to
*nearness* (``1 - depth``) so larger = more important.

Fast-path structure (see DESIGN.md "Performance notes"): the depth
buffer is validated once per :func:`preprocess_depth` call instead of
once per helper; the center-bias matrix is memoized on (H, W, config);
the histogram and the layer quantiles run through exact single-pass
replicas of ``np.histogram``/``np.quantile`` (same arithmetic, no
general-purpose dispatch); weighting/layering/selection operate on the
gathered foreground values only; and the per-layer sums are one
``np.bincount`` pass. ``weighted`` and ``layer_index`` full-frame
intermediates are materialized lazily — the detector never touches them.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from ..contracts import shaped
from .config import DEFAULT_ROI_CONFIG, RoIConfig

__all__ = [
    "center_weight_matrix",
    "layer_bounds",
    "DepthPreprocessResult",
    "DepthPreprocessStats",
    "preprocess_depth",
]


class DepthPreprocessStats(NamedTuple):
    """The frame-global statistics Fig. 8 derives before its per-pixel work.

    Everything in the preprocessing pipeline is per-pixel *except* these
    three: the foreground threshold (histogram analysis), the layer value
    bounds (quantiles of the foreground values), and the selected layer
    (arg-max of the per-layer sums). The warm-start path reuses the
    previous full frame's stats (see :func:`preprocess_depth`'s ``reuse``)
    — the expensive global reductions are exactly what temporal coherence
    makes redundant — and the detector's score-fraction fallback is what
    bounds how stale they can get.
    """

    foreground_threshold: float
    layer_bounds: np.ndarray
    selected_layer: int


#: Slack accepted on the [0, 1] depth-range validation: renderers and
#: resamplers may overshoot the unit range by a few ulp-scale rounding
#: errors without the data being wrong.
_DEPTH_RANGE_SLACK = 1e-9

#: A foreground depth spread below this is a single depth plane.
_DEGENERATE_DEPTH_SPREAD = 1e-9


def _check_depth(depth: np.ndarray) -> np.ndarray:
    depth = np.asarray(depth, dtype=np.float64)
    if depth.ndim != 2:
        raise ValueError(f"expected a 2-D depth map, got shape {depth.shape}")
    if depth.size == 0:
        raise ValueError("depth map is empty")
    dmin, dmax = depth.min(), depth.max()
    if dmin < -_DEPTH_RANGE_SLACK or dmax > 1 + _DEPTH_RANGE_SLACK:
        raise ValueError("depth values must lie in [0, 1]")
    if dmin >= 0.0 and dmax <= 1.0:
        return depth  # already in range: the clip would be a no-op copy
    return np.clip(depth, 0.0, 1.0)


def _uniform_histogram(
    values: np.ndarray, n_bins: int, lo: float, hi: float
) -> tuple[np.ndarray, np.ndarray]:
    """Exact replica of ``np.histogram(values, bins=n_bins, range=(lo, hi))``
    for 1-D float64 ``values`` already inside [lo, hi] with ``hi > lo``.

    Performs numpy's uniform-bin arithmetic (bin index from the normalized
    position, then the two boundary fix-ups against the edge array) in one
    vectorized pass instead of numpy's 64Ki-element block loop — the counts
    are bit-identical (verified against ``np.histogram`` in the test
    suite), just cheaper on ~1M-pixel frames.
    """
    edges = np.linspace(lo, hi, n_bins + 1, dtype=np.float64)
    indices = ((values - lo) / (hi - lo) * n_bins).astype(np.intp)
    np.subtract(indices, indices == n_bins, out=indices, casting="unsafe")
    # Values whose computed bin lies right of the edge they belong to...
    np.subtract(indices, values < edges[indices], out=indices, casting="unsafe")
    # ...and left of it (never moving past the last bin).
    np.add(
        indices,
        (values >= edges[indices + 1]) & (indices != n_bins - 1),
        out=indices,
        casting="unsafe",
    )
    counts = np.bincount(indices, minlength=n_bins)
    return counts, edges


def _quantile_linear(values: np.ndarray, quantiles: np.ndarray) -> np.ndarray:
    """Exact replica of ``np.quantile(values, quantiles)`` (linear method)
    for 1-D float64 data: same virtual indexes, same partition points, and
    the same two-sided ``_lerp`` rule, without the general-method dispatch.
    """
    n = values.size
    virtual = (n - 1) * quantiles
    previous = np.floor(virtual)
    nxt = previous + 1.0
    above = virtual >= n - 1
    previous[above] = -1
    nxt[above] = -1
    prev_i = previous.astype(np.intp)
    next_i = nxt.astype(np.intp)

    arr = values.copy()
    arr.partition(np.unique(np.concatenate(([0, -1], prev_i, next_i))))
    a = arr[prev_i]
    b = arr[next_i]
    gamma = virtual - previous
    diff = b - a
    result = a + diff * gamma
    high = gamma >= 0.5
    result[high] = b[high] - diff[high] * (1.0 - gamma[high])
    return result


def _foreground_threshold(depth: np.ndarray, config: RoIConfig) -> float:
    """Depth value separating foreground from background (Fig. 8 step 1).

    Takes an already-validated depth map. Builds the depth histogram
    (pixels at depth 1.0 — sky/background with nothing rendered — are
    excluded up front), smooths it, and walks it near-to-far looking for
    the first *significant gap*: a local minimum whose count drops below
    ``valley_dip_ratio`` of the tallest peak seen so far, after at least
    ``valley_min_mass`` of the pixel mass has been covered (the paper's
    "noticeable gap between foreground and background depth values").
    Falls back to Otsu's threshold when no gap exists (smooth unimodal
    distributions). Returns a threshold in (0, 1]; pixels with
    ``depth <= threshold`` are foreground.
    """
    finite = depth[depth < 1.0]
    if finite.size == 0:
        return 1.0  # everything is background; keep all (degenerate frame)
    lo, hi = float(finite.min()), float(finite.max())
    if hi - lo < _DEGENERATE_DEPTH_SPREAD:
        return hi  # single depth plane
    hist, edges = _uniform_histogram(finite, config.histogram_bins, lo, hi)
    kernel = np.ones(config.valley_smoothing, dtype=np.float64) / config.valley_smoothing
    smooth = np.convolve(hist.astype(np.float64), kernel, mode="same")  # exact int counts
    cumulative = np.cumsum(hist)

    peak_seen = smooth[0]
    for i in range(1, len(smooth) - 1):
        peak_seen = max(peak_seen, smooth[i])
        is_local_min = smooth[i] <= smooth[i - 1] and smooth[i] <= smooth[i + 1]
        mass_before = cumulative[i]
        mass_after = finite.size - cumulative[i]
        # A genuine fg/bg gap separates two *substantial* clusters.
        if (
            is_local_min
            and mass_before > config.valley_min_mass * finite.size
            and mass_after > config.valley_min_mass * finite.size
            and smooth[i] < config.valley_dip_ratio * peak_seen
        ):
            return float(edges[i + 1])

    # Otsu fallback on the histogram.
    probs = hist.astype(np.float64) / hist.sum()  # exact int counts
    centers = (edges[:-1] + edges[1:]) / 2.0
    omega = np.cumsum(probs)
    mu = np.cumsum(probs * centers)
    mu_total = mu[-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        sigma_b = (mu_total * omega - mu) ** 2 / (omega * (1.0 - omega))
    sigma_b[~np.isfinite(sigma_b)] = -1.0
    # An argmax on the last bin would return ``hi`` itself, classifying
    # every finite pixel as foreground and defeating the masking step;
    # clamp the split strictly inside the histogram.
    split = min(int(np.argmax(sigma_b)), len(hist) - 2)
    return float(edges[split + 1])


@lru_cache(maxsize=16)
def _center_weights_cached(
    height: int, width: int, sigma_frac: float, weight: float
) -> np.ndarray:
    ys = np.arange(height, dtype=np.float64) - (height - 1) / 2.0
    xs = np.arange(width, dtype=np.float64) - (width - 1) / 2.0
    sigma = sigma_frac * np.hypot(height, width)
    gauss = np.exp(-(ys[:, None] ** 2 + xs[None, :] ** 2) / (2.0 * sigma**2))
    out = weight * gauss
    out.flags.writeable = False
    return out


def center_weight_matrix(
    height: int, width: int, config: RoIConfig = DEFAULT_ROI_CONFIG
) -> np.ndarray:
    """Gaussian center-bias weights in [0, center_weight] (Fig. 8 step-2).

    Memoized on (height, width, sigma, amplitude) — the detector asks for
    the same matrix every frame. The returned array is read-only; copy it
    before mutating.
    """
    if height < 1 or width < 1:
        raise ValueError(f"invalid shape ({height}, {width})")
    return _center_weights_cached(
        height, width, config.center_sigma_frac, config.center_weight
    )


def layer_bounds(
    weighted: np.ndarray, n_layers: int, mode: str = "quantile"
) -> np.ndarray:
    """Value boundaries dividing ``weighted`` into ``n_layers`` layers.

    ``mode="range"`` is the paper's literal even division of the value
    range; ``mode="quantile"`` (the default here) forms equal-population
    layers, which keeps the max-sum layer selection meaningful when depth
    is a continuum (ground planes) rather than discrete object clusters —
    see the RoIConfig docstring and the A1 ablation.
    """
    values = np.asarray(weighted, dtype=np.float64).reshape(-1)
    if values.size == 0:
        raise ValueError("cannot layer an empty value set")
    if mode == "range":
        lo = float(values.min())
        hi = float(values.max())
        return _strictly_increasing(np.linspace(lo, hi, n_layers + 1))
    if mode == "quantile":
        bounds = _quantile_linear(values, np.linspace(0.0, 1.0, n_layers + 1))
        return _strictly_increasing(bounds)
    raise ValueError(f"unknown layer mode {mode!r}")


def _strictly_increasing(bounds: np.ndarray) -> np.ndarray:
    """Bump duplicate bin edges so layer assignment stays sane.

    A fixed +1e-12 bump rounds away once bounds exceed ~1e4 in magnitude
    (ulp > 1e-12), leaving non-increasing bounds and collapsing layers;
    nextafter always moves. When the span is narrower than n_layers ulps
    (constant input) even linspace cannot separate the edges, so the
    walk is needed in both modes.
    """
    for i in range(1, len(bounds)):
        if bounds[i] <= bounds[i - 1]:
            bounds[i] = np.nextafter(bounds[i - 1], np.inf)
    return bounds


class DepthPreprocessResult:
    """All intermediates of the Fig. 8 pipeline (useful for ablations).

    ``weighted`` and ``layer_index`` (full-frame views of steps 2-3) are
    materialized lazily on first access — the detection hot path only
    consumes ``processed`` and ``processed_bbox``.
    """

    __slots__ = (
        "foreground_mask",
        "foreground_threshold",
        "weight_matrix",
        "layer_value_bounds",
        "selected_layer",
        "processed",
        "processed_bbox",
        "_weighted",
        "_layer_index",
        "_fg_flat",
        "_fg_values",
        "_fg_layer",
    )

    def __init__(
        self,
        *,
        foreground_mask: np.ndarray,
        foreground_threshold: float,
        weight_matrix: np.ndarray,
        selected_layer: int,
        processed: np.ndarray,
        processed_bbox: tuple[int, int, int, int] | None,
        layer_value_bounds: np.ndarray | None = None,
        weighted: np.ndarray | None = None,
        layer_index: np.ndarray | None = None,
        fg_flat: np.ndarray | None = None,
        fg_values: np.ndarray | None = None,
        fg_layer: np.ndarray | None = None,
    ) -> None:
        self.foreground_mask = foreground_mask
        self.foreground_threshold = foreground_threshold
        self.weight_matrix = weight_matrix
        # Value boundaries used for layering (None on degenerate frames).
        self.layer_value_bounds = layer_value_bounds
        self.selected_layer = selected_layer
        self.processed = processed  # the map Algorithm 1 searches on
        # (row0, row1, col0, col1), inclusive, bounding the selected layer
        # (a superset of processed's nonzero extent); None when the whole
        # frame is in play (degenerate all-background frames).
        self.processed_bbox = processed_bbox
        self._weighted = weighted
        self._layer_index = layer_index
        self._fg_flat = fg_flat
        self._fg_values = fg_values
        self._fg_layer = fg_layer

    @property
    def stats(self) -> DepthPreprocessStats | None:
        """The frame-global statistics, reusable via ``reuse=`` (or None
        for degenerate frames, which have no layering)."""
        if self.layer_value_bounds is None:
            return None
        return DepthPreprocessStats(
            foreground_threshold=self.foreground_threshold,
            layer_bounds=self.layer_value_bounds,
            selected_layer=self.selected_layer,
        )

    @property
    def weighted(self) -> np.ndarray:
        """Center-weighted foreground importance (0 outside the mask)."""
        if self._weighted is None:
            out = np.zeros(self.processed.shape, dtype=np.float64)
            out.ravel()[self._fg_flat] = self._fg_values
            self._weighted = out
        return self._weighted

    @property
    def layer_index(self) -> np.ndarray:
        """Per-pixel layer id; -1 = background."""
        if self._layer_index is None:
            out = np.full(self.processed.shape, -1, dtype=np.int64)
            out.ravel()[self._fg_flat] = self._fg_layer
            self._layer_index = out
        return self._layer_index


@shaped(depth="H W:n")
def preprocess_depth(
    depth: np.ndarray,
    config: RoIConfig = DEFAULT_ROI_CONFIG,
    *,
    reuse: DepthPreprocessStats | None = None,
) -> DepthPreprocessResult | None:
    """Run the full Fig. 8 preprocessing pipeline on a depth buffer.

    The depth buffer is validated exactly once; steps 2-4 then run on the
    gathered foreground values (elementwise-identical to the full-frame
    formulation, since every per-pixel op is independent).

    ``reuse`` — optional :class:`DepthPreprocessStats` from a previous
    frame (the warm-start path): the histogram threshold, quantile
    bounds, and layer arg-max are *reused* instead of recomputed, leaving
    only the per-pixel passes. The result is then the Fig. 8 output the
    previous frame's statistics would produce on this depth buffer — an
    approximation whose staleness the detector bounds through its
    score-fraction fallback. Returns ``None`` when the stale statistics
    no longer apply at all (no foreground pixel under the old threshold,
    or none in the old selected layer); the caller must fall back to a
    full (``reuse=None``) run, which never returns None.
    """
    depth = _check_depth(depth)
    height, width = depth.shape

    if reuse is not None:
        threshold = reuse.foreground_threshold
    else:
        threshold = _foreground_threshold(depth, config)
    mask = depth <= threshold
    weights = center_weight_matrix(height, width, config=config)

    flat = np.flatnonzero(mask.ravel())
    if flat.size == 0:
        if reuse is not None:
            return None
        # Degenerate frame (all background): keep the weighted map as-is so
        # the search still resolves to the frame centre via the weights.
        weighted_all = (1.0 - depth) + weights
        return DepthPreprocessResult(
            foreground_mask=mask,
            foreground_threshold=threshold,
            weight_matrix=weights,
            selected_layer=0,
            processed=weighted_all,
            processed_bbox=None,
            weighted=weighted_all,
            layer_index=np.zeros(depth.shape, dtype=np.int64),
        )

    # Steps 2-3 on the foreground subset only (identical values to the
    # full-frame `np.where(mask, importance + weights, 0.0)`).
    fg_values = (1.0 - depth.ravel()[flat]) + weights.ravel()[flat]

    if reuse is not None:
        bounds = reuse.layer_bounds
    else:
        bounds = layer_bounds(fg_values, config.n_layers, mode=config.layer_mode)
    n_layers = config.n_layers
    if n_layers == 1:
        fg_layer = np.zeros(fg_values.size, dtype=np.int64)
    else:
        # Equivalent to clip(searchsorted(bounds, v, "right") - 1, 0, n-1)
        # for non-decreasing bounds with v >= bounds[0] (when the bounds
        # come from this frame, bounds[0] is the subset minimum; stale
        # bounds clip values outside their range into the edge layers):
        # count the interior bounds at or below v.
        fg_layer = (fg_values >= bounds[1]).astype(np.int64)
        for i in range(2, n_layers):
            fg_layer += fg_values >= bounds[i]

    if reuse is not None:
        selected = reuse.selected_layer
    else:
        sums = np.bincount(fg_layer, weights=fg_values, minlength=n_layers)
        selected = int(np.argmax(sums))

    keep = fg_layer == selected
    sel_flat = flat[keep]
    if sel_flat.size == 0:
        # Only reachable with stale stats: this frame has no pixel left in
        # the previously selected layer.
        return None
    processed = np.zeros(depth.shape, dtype=np.float64)
    processed.ravel()[sel_flat] = fg_values[keep]

    # flat indices are sorted, so the row extent is free; columns need one
    # modulo pass over the selected subset.
    row0 = int(sel_flat[0]) // width
    row1 = int(sel_flat[-1]) // width
    cols = sel_flat % width
    bbox = (row0, row1, int(cols.min()), int(cols.max()))

    return DepthPreprocessResult(
        foreground_mask=mask,
        foreground_threshold=threshold,
        weight_matrix=weights,
        layer_value_bounds=bounds,
        selected_layer=selected,
        processed=processed,
        processed_bbox=bbox,
        fg_flat=flat,
        fg_values=fg_values,
        fg_layer=fg_layer,
    )
