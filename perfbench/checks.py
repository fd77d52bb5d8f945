"""Output checks made apart from the program.

Every check here reads only plain arrays (windows, demands, rate limits,
base load, prices) and recomputes what it needs with NumPy or SciPy; none
calls into `evchargelab`. Each returns a list of human-readable faults,
empty when the output passes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# A schedule entry or column sum may be off by this much (kWh); the
# program's own tolerance is 1e-6 kWh.
KWH_TOL = 1e-6
# Two costs agree when they differ by at most this share of their size.
COST_RTOL = 1e-7
# The oracle stops at a KKT residual of 1e-6, which leaves its peak this
# close to the exact one (worst seen over 328 fleets: 4.7e-5 kWh).
PEAK_KWH = 1e-4
# The KKT check treats an amount within this of a bound as at the bound,
# and allows marginal prices to differ by this much (currency per kWh).
KKT_KWH = 1e-5
KKT_PRICE = 1e-5


@dataclass(frozen=True)
class Fleet:
    """A fleet as plain arrays; windows are 1-based and inclusive."""

    t_arr: np.ndarray
    t_dep: np.ndarray
    demand: np.ndarray
    b_max: np.ndarray
    base: np.ndarray
    k0: float
    k1: float
    cap: float = float("inf")

    @property
    def mask(self) -> np.ndarray:
        slots = np.arange(1, self.base.size + 1)
        return (self.t_arr[:, None] <= slots) & (slots <= self.t_dep[:, None])


def fleet_of(scenario) -> Fleet:
    """Copy a scenario's data into plain arrays (the only read of program objects)."""
    evs = scenario.evs
    return Fleet(
        t_arr=np.array([ev.t_arr for ev in evs], dtype=int),
        t_dep=np.array([ev.t_dep for ev in evs], dtype=int),
        demand=np.array([ev.demand_kwh for ev in evs], dtype=float),
        b_max=np.array([ev.b_max for ev in evs], dtype=float),
        base=np.array(scenario.base_load, dtype=float),
        k0=float(scenario.price.k0),
        k1=float(scenario.price.k1),
        cap=float(scenario.load_cap),
    )


def bill(fleet: Fleet, ev_load: np.ndarray) -> float:
    """The fleet's bill: the price k0 + 2*k1*load integrated from the base load up by the EV load."""
    s = np.asarray(ev_load, dtype=float)
    return float(np.sum(fleet.k0 * s + fleet.k1 * (s + fleet.base) ** 2 - fleet.k1 * fleet.base**2))


def feasibility(fleet: Fleet, x: np.ndarray) -> list[str]:
    """Demand met, 0 <= x <= b_max in each window, 0 outside it, slot totals plus base within the cap."""
    x = np.asarray(x, dtype=float)
    if x.shape != fleet.mask.shape:
        return [f"schedule shape {x.shape}, expected {fleet.mask.shape}"]
    faults = []
    gap = np.abs(x.sum(axis=1) - fleet.demand)
    if gap.max(initial=0.0) > KWH_TOL:
        faults.append(f"demand missed by {gap.max():.3g} kWh (EV row {int(gap.argmax())})")
    outside = np.abs(np.where(fleet.mask, 0.0, x)).max(initial=0.0)
    if outside > KWH_TOL:
        faults.append(f"{outside:.3g} kWh charged outside a window")
    below = -x.min(initial=0.0)
    if below > KWH_TOL:
        faults.append(f"negative charge {-below:.3g} kWh")
    above = (x - fleet.b_max[:, None]).max(initial=-np.inf)
    if above > KWH_TOL:
        faults.append(f"rate limit exceeded by {above:.3g} kWh")
    over = (x.sum(axis=0) + fleet.base - fleet.cap).max(initial=-np.inf)
    if over > KWH_TOL:
        faults.append(f"load cap exceeded by {over:.3g} kWh")
    return faults


def kkt(fleet: Fleet, x: np.ndarray) -> list[str]:
    """Optimality of an uncapped schedule: in each EV's window no slot that
    charges costs more at the margin than a slot that could charge more.

    The marginal price of slot t is k0 + 2*k1*(base_t + EV load_t). An
    amount counts as charging above KKT_KWH and as below the rate limit
    below b_max - KKT_KWH.
    """
    x = np.asarray(x, dtype=float)
    price = fleet.k0 + 2.0 * fleet.k1 * (fleet.base + x.sum(axis=0))
    mask = fleet.mask
    charging = mask & (x > KKT_KWH)
    room = mask & (x < fleet.b_max[:, None] - KKT_KWH)
    dearest = np.where(charging, price, -np.inf).max(axis=1)
    cheapest = np.where(room, price, np.inf).min(axis=1)
    gap = dearest - cheapest
    if gap.max(initial=-np.inf) > KKT_PRICE:
        row = int(gap.argmax())
        return [f"EV row {row} charges at price {dearest[row]:.6g} while a slot at {cheapest[row]:.6g} has room"]
    return []


def dominance(oracle_cost: float, online: dict[str, float]) -> list[str]:
    """Every online cost is at least the oracle's."""
    slack = COST_RTOL * max(abs(oracle_cost), 1.0)
    return [f"{name} cost {cost:.9g} below the oracle's {oracle_cost:.9g}"
            for name, cost in online.items() if cost < oracle_cost - slack]


def same_cost(name: str, cost: float, reference: float) -> list[str]:
    if abs(cost - reference) > COST_RTOL * max(abs(reference), 1.0):
        return [f"{name}: cost {cost:.12g}, expected {reference:.12g}"]
    return []


def _lp(fleet: Fleet, cap: float | None):
    """LP over the in-window cells (and a peak variable when cap is None)."""
    from scipy.optimize import linprog
    from scipy.sparse import coo_matrix

    rows, cols = np.nonzero(fleet.mask)
    n_cells = rows.size
    n_evs, horizon = fleet.mask.shape
    peak = cap is None
    n_vars = n_cells + int(peak)
    a_eq = coo_matrix((np.ones(n_cells), (rows, np.arange(n_cells))), shape=(n_evs, n_vars))
    ub_rows = [cols]
    ub_cols = [np.arange(n_cells)]
    ub_vals = [np.ones(n_cells)]
    if peak:
        ub_rows.append(np.arange(horizon))
        ub_cols.append(np.full(horizon, n_cells))
        ub_vals.append(-np.ones(horizon))
        b_ub = -fleet.base
    else:
        b_ub = cap - fleet.base
    a_ub = coo_matrix((np.concatenate(ub_vals), (np.concatenate(ub_rows), np.concatenate(ub_cols))),
                      shape=(horizon, n_vars))
    c = np.zeros(n_vars)
    if peak:
        c[-1] = 1.0
    bounds = [(0.0, fleet.b_max[r]) for r in rows] + [(None, None)] * int(peak)
    return linprog(c, A_ub=a_ub.tocsr(), b_ub=b_ub, A_eq=a_eq.tocsr(), b_eq=fleet.demand,
                   bounds=bounds, method="highs")


def min_peak(fleet: Fleet) -> float:
    """Smallest achievable peak of base plus EV load, by LP."""
    result = _lp(fleet, None)
    if result.status != 0:
        raise RuntimeError(f"minimum-peak LP failed: {result.message}")
    return float(result.fun)


def cap_feasible(fleet: Fleet, cap: float) -> bool:
    """Whether some schedule meets every demand under the per-slot cap, by LP."""
    result = _lp(fleet, cap)
    if result.status not in (0, 2):
        raise RuntimeError(f"feasibility LP failed: {result.message}")
    return result.status == 0
