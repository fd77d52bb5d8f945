"""Comparison algorithms: eager charging, rolling online control, tabular Q-learning.

The Q-learning baseline (AEM) acts on an aggregate per-EV charge level drawn
from an evenly spaced grid of `levels` values in [0, b_max]; the aggregate
budget is allocated to vehicles earliest-deadline-first. A laxity clamp
forces the minimum charge an EV needs to stay on schedule, so greedy rollouts
always meet demand: in its last slot an EV is forced its whole residual.

Its state is the fleet's delivered fraction of demand and the base load over
the training scenario's peak base load (the scale is stored with the table),
in `AEM_SOC_BINS` x `AEM_LOAD_BINS` cells. The update rule:

- Reward: minus the extra bill a slot's charging causes over finishing the
  parked EVs at their flat rates (`model.flat_completion_change`), so the
  cost of deferring shows in the step that defers. A step that charges
  the flat rates on a flat base load, or only what the laxity clamp
  forces, scores 0. The rewards are computed once per episode, after the
  rollout, in one kernel call: no action depends on them.
- Target: reward + discount * (best informed value of the next state), one
  step, with discount 0.5 by default.
- Neighbours: the target also moves every level within 0.05 kWh (per EV)
  of the taken one, so the band is fixed in kWh, not in levels. That is
  below the 0.1 kWh spacing of the shipped 33-level grid, where an update
  still touches one cell.
- Step size: max(learning_rate, 1/n) for an entry's n-th update, so the first
  update replaces the initial 0.
- Greedy choice and bootstrap use informed entries (updated at least once)
  only. A state with none explores in training and, in the greedy rollout,
  charges what the laxity clamp forces.
- Greedy choice ranks a level by the visit-weighted mean value over its
  0.05 kWh band, so a fine grid chooses at its own resolution but with the
  pooled evidence of a coarse cell, not the level whose few updates happened
  to run highest. The bootstrap takes the chosen level's own value. On the
  33-level grid the band is one level and this is the plain argmax.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .model import (
    DEFAULT_TOL,
    ChargingSchedule,
    Scenario,
    allocate_aggregate,
    bills,
    flat_completion_bills,
    laxity_corridor,
)
from .solvers import check_evs_can_finish, solve_rolling_step

_Q_CLAMP = 1e9
# Half-width (per-EV kWh) of the band of levels one Q-learning update moves;
# below the 0.1 kWh spacing of the shipped 33-level grid.
_NEIGHBOUR_KWH = 0.05
AEM_SOC_BINS, AEM_LOAD_BINS = 20, 10  # state cells of a table that `aem_train` builds
EPSILON_START, EPSILON_END = 1.0, 0.05  # exploration rate at the first episode and from half-way on


def ec_schedule(scenario: Scenario) -> ChargingSchedule:
    """Eager charging: every parked EV draws min(b_max, residual) each slot."""
    check_evs_can_finish(scenario)
    # Slot-by-slot subtraction, which rounds differently from demand - k * b_max.
    B = np.zeros((scenario.n_evs, scenario.horizon))
    columns = (scenario.demand, scenario.b_max, scenario.t_arr, scenario.t_dep)
    for row, (residual, b_max, t_arr, t_dep) in enumerate(zip(*(column.tolist() for column in columns))):
        for t in range(t_arr, t_dep + 1):
            if residual <= 0:
                break
            amount = min(b_max, residual)
            B[row, t - 1] = amount
            residual -= amount
    return ChargingSchedule(B)


def oa_schedule(scenario: Scenario) -> ChargingSchedule:
    """Rolling online control: re-solve the window problem at each arrival event.

    At a slot where an EV arrives (or where no plan covers the slot) the
    parked EVs' residual demands are re-solved over the window to their
    last departure; between arrivals the plan is committed slot by slot.
    Departures and base-load changes bring nothing new: the base load is
    known across the window, and the rest of an optimal plan is an optimal
    plan for the residuals it leaves, so a re-solve there could move the
    cost by rounding only. Among tied optimal splits, the per-EV rows are
    those of the re-solve that made the plan.
    """
    B = np.zeros((scenario.n_evs, scenario.horizon))
    residuals = scenario.demand.copy()
    plan = None
    for t in range(1, scenario.horizon + 1):
        active = scenario.mask[:, t - 1] & (residuals > DEFAULT_TOL)
        if not active.any():
            plan = None
            continue
        if plan is None or t not in plan.window or np.any(scenario.t_arr == t):
            plan_rows = np.flatnonzero(active)
            plan = solve_rolling_step(scenario, t, dict(zip(scenario.ids[plan_rows].tolist(), residuals[plan_rows])))
        keep = active[plan_rows]
        rows = plan_rows[keep]
        committed = np.minimum(plan.amounts[keep, t - plan.window.start], residuals[rows])
        B[rows, t - 1] = committed
        residuals[rows] -= committed
    return ChargingSchedule(B)


@dataclass
class QTable:
    """Discretized state-action values for the aggregate charging policy.

    `load_scale` is the base load (kWh) that maps to the top load bin; it is
    fixed at training time so evaluation indexes the bins training filled.
    An entry is informed once an update has reached it (`visit_counts > 0`);
    until then its value is only the initial zero and carries no information.
    """

    soc_bins: int
    load_bins: int
    levels: int
    b_max: float
    load_scale: float = 1.0
    values: np.ndarray = None  # (soc_bins * load_bins, levels)
    visit_counts: np.ndarray = None

    def __post_init__(self):
        if self.levels < 2:
            raise ValueError(f"levels {self.levels}: at least 2 action levels required")
        if not self.load_scale > 0:
            raise ValueError(f"load_scale {self.load_scale} must be positive")
        n_states = self.soc_bins * self.load_bins
        if self.values is None:
            self.values = np.zeros((n_states, self.levels))
        if self.visit_counts is None:
            self.visit_counts = np.zeros((n_states, self.levels), dtype=np.int64)

    @property
    def quantum(self) -> float:
        return self.b_max / (self.levels - 1)

    def state_index(self, soc_fraction: float, load_fraction: float) -> int:
        s = min(int(min(max(soc_fraction, 0.0), 1.0) * self.soc_bins), self.soc_bins - 1)
        l = min(int(min(max(load_fraction, 0.0), 1.0) * self.load_bins), self.load_bins - 1)
        return s * self.load_bins + l

    @property
    def half_width(self) -> int:
        """Levels on each side of the taken one that an update also moves: those within 0.05 kWh."""
        return math.floor(_NEIGHBOUR_KWH / self.quantum + 1e-9)

    def greedy_level(self, state: int) -> int | None:
        """Best informed level of a state; None when no level is informed.

        Levels are ranked by the visit-weighted mean value over their update
        band (`half_width` levels on each side), which pools the updates the
        band's levels share. Where the band is one level, as on the shipped
        33-level grid, that is the level's own value.
        """
        counts = self.visit_counts[state]
        informed = counts > 0
        if not informed.any():
            return None
        score = self.values[state]
        h = self.half_width
        if h:
            weights = np.concatenate(([0], np.cumsum(counts)))
            sums = np.concatenate(([0.0], np.cumsum(counts * score)))
            level = np.arange(self.levels)
            lo, hi = np.maximum(level - h, 0), np.minimum(level + h + 1, self.levels)
            score = (sums[hi] - sums[lo]) / np.maximum(weights[hi] - weights[lo], 1)
        return int(np.where(informed, score, -np.inf).argmax())

    def greedy_value(self, state: int) -> float:
        """Value of the best informed level (the initial 0 when none is)."""
        level = self.greedy_level(state)
        return 0.0 if level is None else float(self.values[state, level])

    def save(self, path):
        lines = [
            f"# soc_bins={self.soc_bins} load_bins={self.load_bins} levels={self.levels} "
            f"b_max={self.b_max!r} load_scale={self.load_scale!r}"
        ]
        for s in range(self.values.shape[0]):
            for a in range(self.levels):
                lines.append(f"{s} {a} {float(self.values[s, a])!r} {int(self.visit_counts[s, a])}")
        Path(path).write_text("\n".join(lines) + "\n")

    @classmethod
    def load(cls, path) -> "QTable":
        text = Path(path).read_text().strip().split("\n")
        header = dict(kv.split("=") for kv in text[0].lstrip("# ").split())
        table = cls(
            soc_bins=int(header["soc_bins"]),
            load_bins=int(header["load_bins"]),
            levels=int(header["levels"]),
            b_max=float(header["b_max"]),
            load_scale=float(header["load_scale"]),
        )
        for line in text[1:]:
            s, a, v, n = line.split()
            table.values[int(s), int(a)] = float(v)
            table.visit_counts[int(s), int(a)] = int(n)
        return table


@dataclass(frozen=True)
class QLearnConfig:
    learning_rate: float = 0.1
    discount: float = 0.5
    episodes: int = 400
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.learning_rate <= 1.0:
            raise ValueError(f"learning_rate {self.learning_rate} outside (0, 1]")
        if not 0.0 <= self.discount < 1.0:
            raise ValueError(f"discount {self.discount} outside [0, 1)")
        if self.episodes < 1:
            raise ValueError(f"episodes {self.episodes} must be at least 1")

    def epsilon(self, episode: int) -> float:
        # linear decay over the first half of the episodes
        half = max(self.episodes // 2, 1)
        frac = min(episode / half, 1.0)
        return EPSILON_START + frac * (EPSILON_END - EPSILON_START)


def _aem_rollout(table: QTable, scenario: Scenario, pick_action, transitions: list | None = None) -> ChargingSchedule:
    """Roll one episode and return its schedule.

    With a `transitions` list, each step's (state, action, reward,
    next_state, done) is appended to it after the rollout. A step's reward
    is minus the extra bill it causes: this slot's bill plus finishing the
    parked EVs at their flat rates from the next slot, less finishing them
    at their flat rates from this slot. One kernel call bills every step's
    flat rates; each step sums its own slots, as `flat_completion_change` does.
    """
    T = scenario.horizon
    B = np.zeros((scenario.n_evs, T))
    residuals = scenario.demand.copy()
    total_demand = max(residuals.sum(), 1e-12)
    load_fraction = scenario.base_load / table.load_scale
    order = scenario.t_dep.argsort(kind="stable")
    steps, charged = [], []  # per step: (state, action, t, next_state); the slot's total charge
    residual_pairs = np.zeros((2, T, scenario.n_evs))  # per step: the parked residuals before and after the slot
    state = None  # slot t's state, where the step before carried it
    for t in range(1, T + 1):
        parked = scenario.mask[:, t - 1] & (residuals > 1e-9)
        n_parked = np.count_nonzero(parked)
        if not n_parked:
            state = None
            continue
        if state is None:
            state = table.state_index(1.0 - np.add.reduce(residuals) / total_demand, load_fraction[t - 1])
        action = pick_action(state)
        corridor = laxity_corridor(residuals, scenario.b_max, scenario.t_dep - t)
        amounts = allocate_aggregate(parked, corridor, order, action * table.quantum * n_parked)
        B[:, t - 1] = amounts
        residuals -= amounts
        # Before the last slot, this is the next slot's state: the same residuals and its load bin.
        next_state = table.state_index(1.0 - np.add.reduce(residuals) / total_demand, load_fraction[min(t, T - 1)])
        if transitions is not None:
            np.add(residuals, amounts, out=residual_pairs[0, len(steps)], where=parked)
            np.copyto(residual_pairs[1, len(steps)], residuals, where=parked)
            charged.append(np.add.reduce(amounts.compress(amounts > 0)))  # as `slot_cost` sums
            steps.append((state, action, t, next_state))
        state = next_state
    if steps:
        slots = np.array([step[2] for step in steps])
        cost = flat_completion_bills(*residual_pairs[:, :len(steps)], scenario.t_dep, slots, scenario.base_load,
                                     scenario.price)
        slot_bills = bills(np.array(charged), scenario.base_load[slots - 1], scenario.price).tolist()
        for (state, action, t, next_state), bill, (bills_before, bills_after) in zip(steps, slot_bills, cost):
            change = np.add.reduce(bills_after[t:]) - np.add.reduce(bills_before[t - 1:])
            transitions.append((state, action, -bill - change, next_state, t == T))
    return ChargingSchedule(B)


def _aem_update(table: QTable, transitions, cfg: QLearnConfig) -> None:
    """Apply one episode's transitions in order; each moves its action's band of levels, on Python floats.

    A next state's greedy value is kept until an update writes that state's row.
    """
    half_width, lr = table.half_width, cfg.learning_rate
    bootstrap = {}
    for state, action, reward, next_state, done in transitions:
        if not done and next_state not in bootstrap:
            bootstrap[next_state] = table.greedy_value(next_state)
        target = reward if done else reward + cfg.discount * bootstrap[next_state]
        band = slice(max(action - half_width, 0), action + half_width + 1)
        counts = [c + 1 for c in table.visit_counts[state, band].tolist()]
        updated = [v + max(lr, 1.0 / c) * (target - v) for v, c in zip(table.values[state, band].tolist(), counts)]
        if not all(math.isfinite(u) and abs(u) <= _Q_CLAMP for u in updated):
            warnings.warn("Q-value clamped to finite bounds; check learning rate")
            updated = np.clip(np.nan_to_num(updated), -_Q_CLAMP, _Q_CLAMP)
        table.values[state, band] = updated
        table.visit_counts[state, band] = counts
        bootstrap.pop(state, None)


def aem_train(scenario_sampler, cfg: QLearnConfig, levels: int) -> QTable:
    """One-step Q-learning over episodes drawn from the sampler (rule in the module docstring).

    Each update moves every level within 0.05 kWh of the taken level toward
    the same TD target, so a fine grid learns at the pace of a coarse one.
    """
    rng = np.random.default_rng(cfg.seed)
    probe = scenario_sampler(0)
    b_max = probe.b_max.max() if probe.n_evs else 1.0
    table = QTable(
        soc_bins=AEM_SOC_BINS,
        load_bins=AEM_LOAD_BINS,
        levels=levels,
        b_max=float(b_max),
        load_scale=max(float(probe.base_load.max()), 1e-9),
    )
    for episode in range(cfg.episodes):
        scenario = scenario_sampler(episode)
        eps = cfg.epsilon(episode)
        greedy = functools.cache(table.greedy_level)  # the table changes only after the rollout

        def pick(state):
            level = None if rng.random() < eps else greedy(state)
            return int(rng.integers(table.levels)) if level is None else level

        transitions = []
        _aem_rollout(table, scenario, pick, transitions)
        _aem_update(table, transitions, cfg)
    return table


def aem_schedule(table: QTable, scenario: Scenario) -> ChargingSchedule:
    """Greedy rollout of a trained table over its informed levels.

    A state with no informed level charges only what the laxity clamp forces.
    """
    check_evs_can_finish(scenario)

    def pick(state):
        level = table.greedy_level(state)
        return 0 if level is None else level

    return _aem_rollout(table, scenario, pick)
