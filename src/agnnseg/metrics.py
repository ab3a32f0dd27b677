"""Region and boundary agreement between binary masks."""

from __future__ import annotations

import numpy as np


def region_similarity(pred, gt):
    """Intersection over union; two empty masks count as a perfect match."""
    p = np.asarray(pred).astype(bool)
    g = np.asarray(gt).astype(bool)
    if p.shape != g.shape:
        raise ValueError(f"mask shapes differ: {p.shape} vs {g.shape}")
    union = np.logical_or(p, g).sum()
    if union == 0:
        return 1.0
    return float(np.logical_and(p, g).sum() / union)


def boundary_pixels(mask):
    """Foreground pixels with a 4-neighbor background pixel or on the border."""
    m = np.asarray(mask).astype(bool)
    padded = np.pad(m, 1, constant_values=False)
    all_neighbors_fg = (
        padded[:-2, 1:-1] & padded[2:, 1:-1] & padded[1:-1, :-2] & padded[1:-1, 2:]
    )
    return m & ~all_neighbors_fg


def dilate(mask, radius):
    """Pixels within Chebyshev distance ``radius`` of the mask: a separable max
    filter that ORs shifted rows, then shifted columns, padded with background."""
    h, w = mask.shape
    padded = np.pad(mask, radius, constant_values=False)
    rows = np.logical_or.reduce([padded[d : d + h] for d in range(2 * radius + 1)])
    return np.logical_or.reduce([rows[:, d : d + w] for d in range(2 * radius + 1)])


def default_boundary_tolerance(shape):
    """DAVIS-style tolerance: 0.75% of the image diagonal, at least 1 pixel."""
    diag = float(np.hypot(*shape))
    return max(1, int(round(0.0075 * diag)))


def boundary_f(pred, gt, tolerance=None):
    """F-measure of boundary precision/recall under a Chebyshev tolerance.

    A boundary pixel matches if any opposing boundary pixel lies within
    Chebyshev distance ``tolerance``.  Two empty boundaries score 1, exactly
    one empty scores 0.
    """
    p = np.asarray(pred).astype(bool)
    g = np.asarray(gt).astype(bool)
    if p.shape != g.shape:
        raise ValueError(f"mask shapes differ: {p.shape} vs {g.shape}")
    if tolerance is None:
        tolerance = default_boundary_tolerance(p.shape)
    pb = boundary_pixels(p)
    gb = boundary_pixels(g)
    np_, ng = pb.sum(), gb.sum()
    if np_ == 0 and ng == 0:
        return 1.0
    if np_ == 0 or ng == 0:
        return 0.0
    precision = np.logical_and(pb, dilate(gb, tolerance)).sum() / np_
    recall = np.logical_and(gb, dilate(pb, tolerance)).sum() / ng
    if precision + recall == 0:
        return 0.0
    return float(2.0 * precision * recall / (precision + recall))
