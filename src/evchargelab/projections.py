"""Euclidean projections onto box-constrained sum sets.

The workhorse is the projection onto {x : 0 <= x <= upper, sum(x) = total},
which is clip(v - tau, 0, upper) for the shift tau that meets the total.
The sum is piecewise linear in tau with breakpoints at v and v - upper, so
tau is found exactly by sorting the breakpoints and interpolating on the
segment that brackets the total (Kiwiel 2008); all rows are solved at once.
"""

from __future__ import annotations

import numpy as np


def _row_shifts(V: np.ndarray, U: np.ndarray, totals: np.ndarray) -> np.ndarray:
    """Per-row tau with sum(clip(V - tau, 0, U)) = total, for 0 <= total <= sum(U)."""
    n, m = V.shape
    points = np.concatenate([V, V - U], axis=1)
    steps = np.concatenate([np.ones((n, m)), -np.ones((n, m))], axis=1)
    order = np.argsort(-points, axis=1, kind="stable")
    points = np.take_along_axis(points, order, axis=1)
    # Entries active (strictly between their two breakpoints) just below each point.
    active = np.cumsum(np.take_along_axis(steps, order, axis=1), axis=1)
    sums = np.zeros((n, 2 * m))
    sums[:, 1:] = np.cumsum(active[:, :-1] * (points[:, :-1] - points[:, 1:]), axis=1)
    k = np.clip((sums < totals[:, None]).sum(axis=1), 1, 2 * m - 1)
    rows = np.arange(n)
    below = k - 1
    slope = np.maximum(active[rows, below], 1.0)
    tau = points[rows, below] - (totals - sums[rows, below]) / slope
    tau = np.where(totals <= 0.0, points[:, 0], tau)
    return np.where(totals >= sums[:, -1], points[:, -1], tau)


def project_capped_simplex(v: np.ndarray, upper: np.ndarray, total: float) -> np.ndarray:
    """Project v onto {x : 0 <= x <= upper, sum(x) = total}.

    Requires 0 <= total <= sum(upper); raises otherwise.
    """
    v = np.asarray(v, dtype=float)
    upper = np.broadcast_to(np.asarray(upper, dtype=float), v.shape)
    if total < -1e-12 or total > upper.sum() + 1e-9:
        raise ValueError(f"total {total} outside [0, {upper.sum()}]")
    total = min(max(total, 0.0), float(upper.sum()))
    if v.size == 0:
        return v.copy()
    tau = _row_shifts(v.reshape(1, -1), upper.reshape(1, -1), np.array([total]))[0]
    return np.clip(v - tau, 0.0, upper)


def project_rows_capped_simplex(
    V: np.ndarray, upper_rows: np.ndarray, totals: np.ndarray, mask: np.ndarray
) -> np.ndarray:
    """Row-wise projection onto {0 <= x <= upper, sum over mask = total}.

    Entries outside each row's mask are fixed at zero. upper_rows and
    totals are per-row scalars.
    """
    V = np.asarray(V, dtype=float)
    upper = np.where(mask, upper_rows[:, None], 0.0)
    row_capacity = upper.sum(axis=1)
    if np.any(totals > row_capacity + 1e-9) or np.any(totals < -1e-12):
        bad = int(np.argmax(totals > row_capacity + 1e-9))
        raise ValueError(f"row {bad}: total {totals[bad]} outside [0, {row_capacity[bad]}]")
    t = np.clip(totals, 0.0, row_capacity)
    Vm = np.where(mask, V, 0.0)
    return np.clip(Vm - _row_shifts(Vm, upper, t)[:, None], 0.0, upper)


def project_cols_capped_simplex(V: np.ndarray, upper: np.ndarray, totals: np.ndarray) -> np.ndarray:
    """Column-wise projection onto {x : 0 <= x <= upper[:, t], sum(x) = totals[t]}.

    upper is a full matrix of per-entry bounds. Totals are clipped into
    [0, column capacity].
    """
    V = np.asarray(V, dtype=float)
    upper = np.asarray(upper, dtype=float)
    capacity = upper.sum(axis=0)
    if np.any(totals > capacity + 1e-9) or np.any(totals < -1e-12):
        bad = int(np.argmax((totals > capacity + 1e-9) | (totals < -1e-12)))
        raise ValueError(f"column {bad}: total {totals[bad]} outside [0, {capacity[bad]}]")
    t = np.clip(totals, 0.0, capacity)
    return np.clip(V - _row_shifts(V.T, upper.T, t)[None, :], 0.0, upper)


def project_cols_box_capped(
    V: np.ndarray, upper_rows: np.ndarray, mask: np.ndarray, caps: np.ndarray
) -> np.ndarray:
    """Column-wise projection onto {0 <= x <= upper, sum(x) <= cap_t}."""
    V = np.asarray(V, dtype=float)
    upper = np.where(mask, upper_rows[:, None], 0.0)
    X = np.clip(np.where(mask, V, 0.0), 0.0, upper)
    sums = X.sum(axis=0)
    over = sums > caps
    if not np.any(over):
        return X
    for col in np.nonzero(over)[0]:
        X[:, col] = project_capped_simplex(V[:, col] * mask[:, col], upper[:, col], caps[col])
    return X
