"""Charging environments for the learning schedulers.

Two views of the same scenario dynamics:

- ChargingEnv: full state (per-EV SOC vector, normalized price), per-EV
  continuous actions.
- AggregateEnv: reduced two-dimensional state, a single scalar action (the
  fleet's energy this slot) for the whole fleet. The state's two fields:
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

Reward modes: the exact slot bill; and, for the aggregate env,
flat-regret: the exact bill plus the change it makes to the bill of
finishing the parked EVs at their flat rates, which is 0 for a step that
charges the flat rates on a flat base load.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..baselines import _allocate_aggregate
from ..model import Scenario, bill, flat_completion_change, laxity_corridor

REWARD_EXACT = "exact-cost"
# Minus the extra bill a step causes over finishing the parked EVs at their
# flat rates: the exact cost plus the change in their flat-completion bill.
REWARD_REGRET = "flat-regret"
REWARD_MODES = (REWARD_EXACT, REWARD_REGRET)


@dataclass(frozen=True)
class RlState:
    """Full state: fixed-length SOC vector (zero for absent EVs) plus price."""

    soc: np.ndarray
    price: float

    def vector(self) -> np.ndarray:
        return np.concatenate([self.soc, [self.price]])


@dataclass(frozen=True)
class ReducedState:
    """Aggregate state: the parked fleet's SOC gap per remaining slot and the base load."""

    soc_ev: float
    l_b: float

    def vector(self) -> np.ndarray:
        return np.array([self.soc_ev, self.l_b])


@dataclass(frozen=True)
class EnvTransition:
    state: object
    action: np.ndarray
    reward: float
    next_state: object
    terminal: bool


class ChargingEnv:
    """Per-EV continuous-action environment over one scenario episode."""

    def __init__(self, scenario: Scenario, reward_mode: str = REWARD_EXACT):
        if reward_mode != REWARD_EXACT:
            raise ValueError(f"reward mode {reward_mode!r} not available for the per-EV env")
        self.scenario = scenario
        self.reward_mode = reward_mode
        self.price_scale = max(scenario.price.k0 + 2.0 * scenario.price.k1 * (
            scenario.load_cap if np.isfinite(scenario.load_cap) else 2.0 * scenario.base_load.max()
        ), 1e-9)
        self.state_dim = scenario.n_evs + 1
        self.action_dim = scenario.n_evs
        self.reset()

    def reset(self) -> RlState:
        self.t = 1
        self.residuals = self.scenario.demand.copy()
        self.charged = np.zeros(self.scenario.n_evs)
        self._last_ev_load = 0.0
        self.done = self.t > self.scenario.horizon
        self.state = self._observe()
        return self.state

    def _price(self) -> float:
        # Known information at decision time: this slot's base load plus the
        # EV load just realized in the previous slot.
        lb = self.scenario.base_load[min(self.t, self.scenario.horizon) - 1]
        return (self.scenario.price.k0 + 2.0 * self.scenario.price.k1 * (lb + self._last_ev_load)) / self.price_scale

    def _observe(self) -> RlState:
        """State of slot t; also caches the slot's corridor, which `bounds` returns."""
        sc = self.scenario
        parked = sc.mask[:, min(self.t, sc.horizon) - 1]
        lo, hi = laxity_corridor(self.residuals, sc.b_max, sc.t_dep - self.t)
        live = parked & (self.residuals > 0) & (self.t <= sc.horizon)
        self._bounds = np.where(live, np.minimum(lo, hi), 0.0), np.where(live, hi, 0.0)
        soc = np.minimum(sc.soc_init + self.charged / sc.capacity, 1.0)
        return RlState(soc=np.where(parked, soc, 0.0), price=self._price())

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Feasibility corridor [lo, hi] for each EV in the current slot."""
        return self._bounds

    def step(self, action: np.ndarray) -> EnvTransition:
        if self.done:
            raise RuntimeError("episode finished; call reset()")
        lo, hi = self._bounds
        # The corridor's floor is non-negative, so the clipped amounts are too.
        amounts = np.asarray(action, dtype=float).clip(lo, hi)
        ev_load = float(amounts.sum())
        reward = -bill(ev_load, self.scenario.base_load[self.t - 1], self.scenario.price)
        self.residuals -= amounts
        self.charged += amounts
        self._last_ev_load = ev_load
        prev_state = self.state
        self.t += 1
        self.done = self.t > self.scenario.horizon or (
            self.residuals.size > 0 and bool((self.residuals <= 1e-9).all())
        )
        self.state = self._observe()
        transition = EnvTransition(prev_state, amounts, reward, self.state, self.done)
        return transition


class AggregateEnv:
    """Scalar-action environment on the reduced state for two-stage learning."""

    state_dim = 2
    action_dim = 1

    def __init__(self, scenario: Scenario, reward_mode: str = REWARD_EXACT):
        if reward_mode not in REWARD_MODES:
            raise ValueError(f"unknown reward mode {reward_mode!r}")
        self.scenario = scenario
        self.reward_mode = reward_mode
        self.lb_scale = max(scenario.base_load.max(), 1e-9)
        # Actions are expressed in units of the mean fleet energy per slot so
        # the policy operates on O(1) values regardless of fleet size.
        self.action_scale = max(float(scenario.demand.sum()) / max(scenario.horizon, 1), 1e-9)
        self.reset()

    def reset(self) -> ReducedState:
        self.t = 1
        self.residuals = self.scenario.demand.copy()
        self.done = self.t > self.scenario.horizon
        self.state = self._observe()
        return self.state

    def _observe(self) -> ReducedState:
        """Reduced state of slot t; also caches the slot's parked rows, their
        departures and corridor, and the corridor's sums (kWh)."""
        sc = self.scenario
        t = min(self.t, sc.horizon)
        rows = (sc.mask[:, t - 1] & (self.residuals > 1e-9)).nonzero()[0]
        residuals = self.residuals[rows]
        t_dep = sc.t_dep[rows]
        slots_after = t_dep - t
        lo, hi = self._corridor = laxity_corridor(residuals, sc.b_max[rows], slots_after)
        self._rows = rows
        self._t_dep = t_dep
        self._hi = float(hi.sum())
        self._lo = min(float(lo.sum()), self._hi)
        return ReducedState(
            soc_ev=float((residuals / (slots_after + 1)).sum()) / self.action_scale,
            l_b=self.scenario.base_load[t - 1] / self.lb_scale,
        )

    def bounds(self) -> tuple[float, float]:
        """Aggregate corridor (in action units): laxity minima up to headroom."""
        return self._lo / self.action_scale, self._hi / self.action_scale

    def step(self, action: float) -> EnvTransition:
        if self.done:
            raise RuntimeError("episode finished; call reset()")
        budget = min(max(self.action_scale * float(np.asarray(action, dtype=float).reshape(())), self._lo), self._hi)
        rows = self._rows
        amounts = _allocate_aggregate(rows, self._corridor, self._t_dep, self.residuals.size, budget)
        committed = float(amounts.sum())
        reward = -bill(committed, self.scenario.base_load[self.t - 1], self.scenario.price)
        self.residuals -= amounts
        if self.reward_mode == REWARD_REGRET:
            after = self.residuals[rows]
            reward -= flat_completion_change(after + amounts[rows], after, self._t_dep, self.t, self.scenario)
        prev_state = self.state
        self.t += 1
        self.done = self.t > self.scenario.horizon or (
            self.residuals.size > 0 and bool((self.residuals <= 1e-9).all())
        )
        self.state = self._observe()
        return EnvTransition(prev_state, np.array([committed]), reward, self.state, self.done)
