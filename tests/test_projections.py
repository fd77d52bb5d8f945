"""Euclidean projection primitives checked against brute-force references."""

import numpy as np
import pytest

from evchargelab.projections import (
    project_capped_simplex,
    project_cols_box_capped,
    project_rows_capped_simplex,
)


def brute_force_capped_simplex(v, upper, total, grid=200):
    """Reference projection by dual bisection on a very fine lambda grid."""
    lo = float(v.min() - total - 1.0)
    hi = float(v.max() + total + 1.0)
    for _ in range(200):
        lam = 0.5 * (lo + hi)
        x = np.clip(v - lam, 0.0, upper)
        if x.sum() > total:
            lo = lam
        else:
            hi = lam
    return np.clip(v - 0.5 * (lo + hi), 0.0, upper)


class TestCappedSimplex:
    def test_already_feasible_point_on_sum(self):
        v = np.array([1.0, 2.0, 1.0])
        x = project_capped_simplex(v, np.full(3, 5.0), 4.0)
        assert x.sum() == pytest.approx(4.0)

    def test_symmetric_split(self):
        x = project_capped_simplex(np.zeros(2), np.full(2, 5.0), 4.0)
        assert x == pytest.approx([2.0, 2.0])

    def test_upper_bounds_bind(self):
        x = project_capped_simplex(np.array([10.0, 0.0]), np.array([3.0, 5.0]), 6.0)
        assert x == pytest.approx([3.0, 3.0])

    def test_matches_reference(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 7))
            v = rng.normal(0, 3, n)
            upper = rng.uniform(0.5, 4, n)
            total = float(rng.uniform(0, upper.sum()))
            x = project_capped_simplex(v, upper, total)
            ref = brute_force_capped_simplex(v, upper, total)
            assert x == pytest.approx(ref, abs=1e-7)
            assert x.sum() == pytest.approx(total, abs=1e-9)
            assert np.all(x >= -1e-12) and np.all(x <= upper + 1e-12)

    def test_projection_optimality(self, rng):
        # The projection must be no farther from v than any feasible point.
        for _ in range(20):
            v = rng.normal(0, 2, 4)
            upper = rng.uniform(1, 3, 4)
            total = float(rng.uniform(0, upper.sum()))
            x = project_capped_simplex(v, upper, total)
            for _ in range(50):
                y = rng.uniform(0, upper)
                y *= total / y.sum()
                if np.all(y <= upper):
                    assert np.sum((x - v) ** 2) <= np.sum((y - v) ** 2) + 1e-9


class TestBatchedVariants:
    def test_rows_match_single_row_calls(self, rng):
        n, t = 4, 6
        v = rng.normal(0, 2, (n, t))
        upper = rng.uniform(0.5, 3, n)
        totals = rng.uniform(0.5, 2.5, n)
        mask = rng.random((n, t)) < 0.7
        mask[:, 0] = True  # keep every row feasible
        out = project_rows_capped_simplex(v, upper, totals, mask)
        for i in range(n):
            cols = mask[i]
            ref = project_capped_simplex(v[i, cols], np.full(cols.sum(), upper[i]), totals[i])
            assert out[i, cols] == pytest.approx(ref, abs=1e-8)
            assert out[i, ~cols] == pytest.approx(np.zeros((~cols).sum()))

    def test_cols_match_single_col_calls(self, rng):
        n, t = 5, 3
        v = rng.normal(0, 2, (n, t))
        upper = rng.uniform(0.5, 3, n)
        mask = np.ones((n, t), dtype=bool)
        caps = np.array([2.0, 4.0, 1.0])
        out = project_cols_box_capped(v, upper, mask, caps)
        for c in range(t):
            ref = np.clip(v[:, c], 0.0, upper)
            if ref.sum() > caps[c]:
                ref = project_capped_simplex(v[:, c], upper, caps[c])
            assert out[:, c] == pytest.approx(ref, abs=1e-8)
