"""Charging environments for the learning schedulers.

Two views of the same scenario dynamics. Each state is the array the policy
reads, and `step` returns `(amounts committed, reward)`:

- ChargingEnv: full state (each EV's SOC, zero for an EV not parked, then
  the normalized price), per-EV continuous actions.
- AggregateEnv: reduced two-dimensional state, a single scalar action (the
  fleet's energy this slot) for the whole fleet. The state's two entries:
  - soc_ev: the parked fleet's SOC gap per remaining slot, i.e. the sum over
    parked EVs of residual demand / slots left (kWh per slot), in action
    units. It is the fleet energy that finishes every EV at a flat rate, and
    it tells a burst whose departures the horizon cuts short from one with
    long dwells, which the summed SOC could not.
  - l_b: this slot's base load over the scenario's peak base load.

Both clamp actions to a feasibility corridor: the upper end is
min(b_max, residual demand) and the lower end is the laxity minimum (the
charge needed now so the rest still fits before departure). The clamp
makes every rollout demand-feasible regardless of policy quality.

Rows: an env built on one Scenario runs one episode, and its arrays have
that scenario's shapes. An env built on a sequence of scenarios runs one
episode per scenario side by side: every array gains a leading row axis,
every per-episode scalar (slot, reward, done, scales) becomes one entry
per row, and `reset(rows, scenarios)` starts new episodes in some rows
while the others run on. The scenarios of one env share their fleet size,
horizon and price model.

Reward modes: the exact slot bill; and, for the aggregate env,
flat-regret: the exact bill plus the change it makes to the bill of
finishing the parked EVs at their flat rates, which is 0 for a step that
charges the flat rates on a flat base load.
"""

from __future__ import annotations

import numpy as np

from ..model import Scenario, allocate_aggregate, bills, flat_completion_change, laxity_corridor, masked_sum

REWARD_EXACT = "exact-cost"
# Minus the extra bill a step causes over finishing the parked EVs at their
# flat rates: the exact cost plus the change in their flat-completion bill.
REWARD_REGRET = "flat-regret"
REWARD_MODES = (REWARD_EXACT, REWARD_REGRET)


# The formulas of what a policy reads and of the corridor its action is clipped into. The envs
# and the greedy rollouts of `rl.train` both call them; with a leading row axis each answers per row.
def price_scale(price, load_cap, base_load, b_max):
    """The per-EV state's price unit: the unit price at the load cap (twice the peak base load
    without one), or at the fleet's top rate where that is 0 (k0 = 0 on a zero base load)."""
    cap = np.where(np.isfinite(load_cap), load_cap, 2.0 * base_load.max(axis=-1))
    scale = price.unit_price(cap)
    return np.maximum(np.where(scale > 0, scale, price.unit_price(b_max.sum(-1))), 1e-9)


def charging_state(soc_init, charged, capacity, parked, price, load, scale) -> np.ndarray:
    """The per-EV state: each parked EV's SOC (0 for the rest), then the unit price at `load` over `scale`."""
    soc = np.minimum(soc_init + charged / capacity, 1.0)
    unit = price.unit_price(load) / scale
    return np.concatenate((np.where(parked, soc, 0.0), np.asarray(unit)[..., None]), axis=-1)


def charging_bounds(residuals, b_max, slots_after, live):
    """The per-EV corridor [lo, hi]: each `live` EV's `laxity_corridor`, with lo at most hi; 0 for the rest."""
    lo, hi = laxity_corridor(residuals, b_max, slots_after)
    return np.where(live, np.minimum(lo, hi), 0.0), np.where(live, hi, 0.0)


def aggregate_corridor(residuals, b_max, slots_after, live):
    """Each EV's `laxity_corridor`, then its sums over the `live` EVs: the laxity minima (at most
    the headroom), the headroom, and the gap (each residual over its slots left, this one included)."""
    corridor = laxity_corridor(residuals, b_max, slots_after)
    gap = np.divide(residuals, slots_after + 1, out=np.zeros(residuals.shape), where=live)
    lo, hi, gap = masked_sum(np.array((*corridor, gap)), live)
    return corridor, np.minimum(lo, hi), hi, gap


def action_scale(demand, horizon: int):
    """The aggregate action's unit, the mean fleet energy per slot: the policy acts on O(1) values."""
    return np.maximum(demand.sum(axis=-1) / max(horizon, 1), 1e-9)


def lb_scale(base_load):
    """The reduced state's base-load unit: the peak base load."""
    return np.maximum(base_load.max(axis=-1), 1e-9)


def aggregate_state(gap, load, a_scale, l_scale) -> np.ndarray:
    """The reduced state (soc_ev, l_b), C-contiguous with rows first for the policy's forward pass."""
    return np.array((gap / a_scale, load / l_scale)).T.copy()


# Per-row scenario data that a reset replaces.
_ROW_DATA = ("t_arr", "t_dep", "demand", "b_max", "capacity", "soc_init", "mask", "base_load", "load_cap")


class _Episodes:
    """Episode bookkeeping that both envs share: the rows' scenario data, slots and residuals."""

    def __init__(self, scenario, reward_mode: str):
        self.reward_mode = reward_mode
        self.batched = not isinstance(scenario, Scenario)
        scenarios = list(scenario) if self.batched else [scenario]
        first = scenarios[0]
        self.horizon, self.n_evs, self.price = first.horizon, first.n_evs, first.price
        for sc in scenarios:
            self._check(sc)
        if self.batched:
            self._rows = (np.arange(len(scenarios)),)
            for name in _ROW_DATA:
                setattr(self, name, np.stack([np.asarray(getattr(sc, name)) for sc in scenarios]))
        else:
            self.scenario = scenario
            self._rows = ()
            for name in _ROW_DATA:
                setattr(self, name, getattr(scenario, name))
        self._mask_by_slot = self.mask.swapaxes(-1, -2)  # a view: row resets show through
        self.reset()

    def _check(self, sc: Scenario):
        if (sc.horizon, sc.n_evs, sc.price) != (self.horizon, self.n_evs, self.price):
            raise ValueError("the scenarios of one env must share fleet size, horizon and price model")

    def reset(self, rows=None, scenarios=()):
        """Start new episodes: in every row, or in `rows` on their new `scenarios`."""
        if rows is None:
            self.t = np.ones(len(self.demand), dtype=int) if self.batched else 1
            self.residuals = self.demand.copy()
        else:
            for row, sc in zip(rows, scenarios):
                self._check(sc)
                for name in _ROW_DATA:
                    getattr(self, name)[row] = getattr(sc, name)
            self.t = self.t.copy()
            self.t[rows] = 1
            self.residuals[rows] = self.demand[rows]
        self._start(rows)
        self.done = np.asarray(self.t > self.horizon)
        self.state = self._observe()
        return self.state

    def _start(self, rows):
        """Reset the subclass's own per-episode data of `rows` (None: every row)."""

    def _advance(self, amounts, reward):
        """Move every row past its slot and observe the next one; returns (amounts, reward)."""
        self.t = self.t + 1
        self.done = (self.t > self.horizon) | (self.n_evs > 0) & (self.residuals <= 1e-9).all(axis=-1)
        self.state = self._observe()
        return amounts, reward

    def _at_slot(self, series: np.ndarray, t) -> np.ndarray:
        """Each row's entry of a per-slot series (slots on the axis after the rows) at its slot t."""
        return series[(*self._rows, t - 1)]

    def _parked(self, slot):
        """Which EVs each row parks in its `slot`."""
        return self._at_slot(self._mask_by_slot, slot)


class ChargingEnv(_Episodes):
    """Per-EV continuous-action environment over scenario episodes."""

    def __init__(self, scenario, reward_mode: str = REWARD_EXACT):
        if reward_mode != REWARD_EXACT:
            raise ValueError(f"reward mode {reward_mode!r} not available for the per-EV env")
        super().__init__(scenario, reward_mode)
        self.state_dim = self.n_evs + 1
        self.action_dim = self.n_evs

    def _start(self, rows):
        if rows is None:
            self.charged = np.zeros_like(self.demand)
            self._last_ev_load = np.zeros(np.shape(self.t))
        else:
            self.charged[rows] = 0.0
            self._last_ev_load[rows] = 0.0
        self.price_scale = price_scale(self.price, self.load_cap, self.base_load, self.b_max)

    def _observe(self) -> np.ndarray:
        """State of slot t (SOC entries, then price); also caches the slot's corridor, which `bounds` returns."""
        t = np.asarray(self.t)[..., None]
        slot = np.minimum(self.t, self.horizon)
        parked = self._parked(slot)
        live = parked & (self.residuals > 0) & (t <= self.horizon)
        self._bounds = charging_bounds(self.residuals, self.b_max, self.t_dep - t, live)
        # Known information at decision time: this slot's base load plus the
        # EV load just realized in the previous slot.
        load = self._at_slot(self.base_load, slot) + self._last_ev_load
        return charging_state(self.soc_init, self.charged, self.capacity, parked, self.price, load, self.price_scale)

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Feasibility corridor [lo, hi] for each EV in the current slot."""
        return self._bounds

    def step(self, action: np.ndarray):
        if self.done.any():
            raise RuntimeError("episode finished; call reset()")
        lo, hi = self._bounds
        # The corridor's floor is non-negative, so the clipped amounts are too.
        amounts = np.asarray(action, dtype=float).clip(lo, hi)
        ev_load = amounts.sum(axis=-1)
        reward = -bills(ev_load, self._at_slot(self.base_load, self.t), self.price)
        self.residuals -= amounts
        self.charged += amounts
        self._last_ev_load = ev_load
        return self._advance(amounts, reward)


class AggregateEnv(_Episodes):
    """Scalar-action environment on the reduced state for two-stage learning."""

    state_dim = 2
    action_dim = 1

    def __init__(self, scenario, reward_mode: str = REWARD_EXACT):
        if reward_mode not in REWARD_MODES:
            raise ValueError(f"unknown reward mode {reward_mode!r}")
        super().__init__(scenario, reward_mode)

    def _start(self, rows):
        self._order = np.ravel_multi_index((*(row[:, None] for row in self._rows),
                                            self.t_dep.argsort(axis=-1, kind="stable")), self.t_dep.shape)
        self.lb_scale = lb_scale(self.base_load)
        self.action_scale = action_scale(self.demand, self.horizon)

    def _observe(self) -> np.ndarray:
        """Reduced state (soc_ev, l_b) of slot t; also caches the slot's parked
        EVs (`_live`), their corridor, and the corridor's sums (kWh)."""
        t = np.minimum(self.t, self.horizon)
        live = self._live = self._parked(t) & (self.residuals > 1e-9)
        self._corridor, self._lo, self._hi, gap = aggregate_corridor(self.residuals, self.b_max,
                                                                     self.t_dep - t[..., None], live)
        return aggregate_state(gap, self._at_slot(self.base_load, t), self.action_scale, self.lb_scale)

    def bounds(self) -> tuple[float, float]:
        """Aggregate corridor (in action units): laxity minima up to headroom."""
        return self._lo / self.action_scale, self._hi / self.action_scale

    def step(self, action):
        if self.done.any():
            raise RuntimeError("episode finished; call reset()")
        action = np.asarray(action, dtype=float).reshape(self.action_scale.shape)
        budget = np.minimum(np.maximum(self.action_scale * action, self._lo), self._hi)
        live = self._live
        amounts = allocate_aggregate(live, self._corridor, self._order, budget)
        committed = amounts.sum(axis=-1)
        reward = -bills(committed, self._at_slot(self.base_load, self.t), self.price)
        self.residuals -= amounts
        if self.reward_mode == REWARD_REGRET:
            after = np.where(live, self.residuals, 0.0)
            reward -= flat_completion_change(after + amounts, after, self.t_dep, self.t, self.base_load, self.price)
        return self._advance(committed[..., None], reward)
