"""Closed-form cases and a brute-force distance check for the metrics."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from agnnseg import metrics
from agnnseg.metrics import (
    boundary_f,
    boundary_pixels,
    default_boundary_tolerance,
    dilate,
    region_similarity,
)

import oracles


def square_mask(h, w, top, left, size):
    m = np.zeros((h, w), dtype=bool)
    m[top : top + size, left : left + size] = True
    return m


class TestRegionSimilarity:
    def test_identical(self):
        m = square_mask(10, 10, 2, 2, 5)
        assert region_similarity(m, m) == 1.0

    def test_disjoint(self):
        a = square_mask(10, 10, 0, 0, 3)
        b = square_mask(10, 10, 6, 6, 3)
        assert region_similarity(a, b) == 0.0

    def test_half_overlap(self):
        gt = np.ones((8, 8), dtype=bool)
        pred = np.zeros((8, 8), dtype=bool)
        pred[:, :4] = True
        assert region_similarity(pred, gt) == 0.5

    def test_both_empty(self):
        z = np.zeros((5, 5), dtype=bool)
        assert region_similarity(z, z) == 1.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="differ"):
            region_similarity(np.zeros((2, 2)), np.zeros((3, 3)))


class TestBoundaryPixels:
    def test_filled_square_boundary(self):
        m = square_mask(10, 10, 3, 3, 4)
        b = boundary_pixels(m)
        assert b.sum() == 12  # 4x4 square: perimeter ring of its own pixels
        assert not b[4, 4]

    def test_border_touching_counts(self):
        m = np.ones((3, 3), dtype=bool)
        assert boundary_pixels(m).sum() == 8  # centre pixel is interior


class TestBoundaryF:
    def test_identical(self):
        m = square_mask(12, 12, 3, 3, 5)
        assert boundary_f(m, m, tolerance=1) == 1.0

    def test_one_empty(self):
        m = square_mask(12, 12, 3, 3, 5)
        z = np.zeros((12, 12), dtype=bool)
        assert boundary_f(m, z, tolerance=1) == 0.0
        assert boundary_f(z, m, tolerance=1) == 0.0

    def test_both_empty(self):
        z = np.zeros((6, 6), dtype=bool)
        assert boundary_f(z, z, tolerance=1) == 1.0

    def test_one_pixel_shift_within_tolerance(self):
        a = square_mask(16, 16, 4, 4, 6)
        b = square_mask(16, 16, 4, 5, 6)
        assert boundary_f(a, b, tolerance=1) == 1.0

    def test_shift_beyond_tolerance_penalized(self):
        a = square_mask(24, 24, 4, 4, 6)
        b = square_mask(24, 24, 4, 9, 6)
        assert boundary_f(a, b, tolerance=1) < 1.0

    def test_matches_brute_force_distance_check(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            a = rng.uniform(size=(12, 12)) > 0.6
            b = rng.uniform(size=(12, 12)) > 0.6
            for tol in (1, 2):
                got = boundary_f(a, b, tolerance=tol)
                want = _brute_force_f(a, b, tol)
                assert got == pytest.approx(want, abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(
        st.data(),
        arrays(np.bool_, array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=12)),
        st.integers(0, 4),
    )
    def test_dilation_and_f_match_chebyshev_oracle(self, data, a, radius):
        b = data.draw(arrays(np.bool_, a.shape))
        np.testing.assert_array_equal(dilate(a, radius), oracles.chebyshev_dilate_loops(a, radius))
        with mock.patch.object(metrics, "dilate", oracles.chebyshev_dilate_loops):
            want = boundary_f(a, b, tolerance=radius)
        assert boundary_f(a, b, tolerance=radius) == want

    def test_default_tolerance(self):
        assert default_boundary_tolerance((64, 64)) == 1
        assert default_boundary_tolerance((473, 473)) == 5


def _brute_force_f(a, b, tol):
    ab = np.argwhere(boundary_pixels(a))
    bb = np.argwhere(boundary_pixels(b))
    if len(ab) == 0 and len(bb) == 0:
        return 1.0
    if len(ab) == 0 or len(bb) == 0:
        return 0.0

    def matched(points, targets):
        hits = 0
        for y, x in points:
            if any(max(abs(y - ty), abs(x - tx)) <= tol for ty, tx in targets):
                hits += 1
        return hits / len(points)

    p = matched(ab, bb)
    r = matched(bb, ab)
    if p + r == 0:
        return 0.0
    return 2 * p * r / (p + r)
