"""Shared fixtures: small hand-built scenarios used across the suite.

SciPy serves only as a reference here (the LP least peak).
"""

from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import linprog

from evchargelab.model import EVProfile, PriceModel, Scenario


def make_ev(ev_id=0, t_arr=1, t_dep=2, demand=4.0, b_max=4.0, capacity=36.0, soc=0.0):
    return EVProfile(
        id=ev_id,
        t_arr=t_arr,
        t_dep=t_dep,
        demand_kwh=demand,
        b_max=b_max,
        capacity_kwh=capacity,
        soc_init=soc,
    )


def make_scenario(evs, horizon, base_load=None, k0=0.1, k1=0.001, load_cap=float("inf")):
    if base_load is None:
        base_load = np.zeros(horizon)
    return Scenario(
        horizon=horizon,
        base_load=np.asarray(base_load, dtype=float),
        evs=tuple(evs),
        price=PriceModel(k0=k0, k1=k1),
        load_cap=load_cap,
    )


def random_feasible_scenario(rng, n_max=5, t_max=12, with_cap=False):
    """A random small scenario that always admits a feasible schedule."""
    horizon = int(rng.integers(2, t_max + 1))
    n_evs = int(rng.integers(1, n_max + 1))
    base = rng.uniform(0.0, 5.0, size=horizon)
    evs = []
    for i in range(n_evs):
        t_arr = int(rng.integers(1, horizon + 1))
        t_dep = int(rng.integers(t_arr, horizon + 1))
        b_max = float(rng.uniform(1.0, 4.0))
        dwell = t_dep - t_arr + 1
        demand = float(rng.uniform(0.0, 0.9 * b_max * dwell))
        evs.append(make_ev(i, t_arr, t_dep, demand, b_max, capacity=40.0, soc=0.0))
    load_cap = float("inf")
    if with_cap:
        # Leave generous headroom so demand equalities stay satisfiable.
        load_cap = float(base.max() + sum(ev.b_max for ev in evs) * 0.9 + 1.0)
    return make_scenario(evs, horizon, base, load_cap=load_cap)


def random_binding_cap_scenario(rng, n_max=5, t_max=12):
    """A random small scenario whose load cap sits 1e-3 kWh above its least achievable peak.

    Every EV stays at least two slots and the base load varies by at most
    1 kWh, so the peak is EV load that can move, and the cap holds it back.
    The cap of `random_feasible_scenario(with_cap=True)` never does.
    """
    horizon = int(rng.integers(3, t_max + 1))
    base = rng.uniform(0.0, 1.0, size=horizon)
    evs = []
    for i in range(int(rng.integers(1, n_max + 1))):
        t_arr = int(rng.integers(1, horizon))
        t_dep = int(rng.integers(t_arr + 1, horizon + 1))
        b_max = float(rng.uniform(1.0, 4.0))
        demand = float(rng.uniform(0.0, 0.9 * b_max * (t_dep - t_arr + 1)))
        evs.append(make_ev(i, t_arr, t_dep, demand, b_max, capacity=40.0, soc=0.0))
    scn = make_scenario(evs, horizon, base)
    return replace(scn, load_cap=lp_min_peak(scn) + 1e-3)


def lp_min_peak(scn):
    """Least achievable peak of base plus EV load (LP reference)."""
    mask = scn.mask
    rows, cols = np.nonzero(mask)
    m = rows.size
    a_eq = np.zeros((scn.n_evs, m + 1))
    a_eq[rows, np.arange(m)] = 1.0
    a_ub = np.zeros((scn.horizon, m + 1))
    a_ub[cols, np.arange(m)] = 1.0
    a_ub[:, -1] = -1.0
    bounds = [(0.0, scn.b_max[i]) for i in rows] + [(None, None)]
    cost = np.zeros(m + 1)
    cost[-1] = 1.0
    res = linprog(cost, A_ub=a_ub, b_ub=-scn.base_load, A_eq=a_eq, b_eq=scn.demand,
                  bounds=bounds, method="highs")
    assert res.status == 0
    return float(res.fun)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
