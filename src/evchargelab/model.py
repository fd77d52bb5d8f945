"""Physical and economic core: price model, EV profiles, scenarios, schedules.

A scenario lays its fleet out once as read-only arrays, one entry per EV
in `evs` order, and this module holds the two kernels the algorithms share:
the slot bill and the laxity corridor of one slot.

All charging amounts are stored as kWh per slot. With the default slot
duration of 1 hour, kW and kWh-per-slot are numerically identical, which
keeps every other module free of unit conversions.

Slots are 1-based (t in 1..T) at the API surface; schedule matrices use
0-based columns internally, so column t-1 holds slot t.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

DEFAULT_K0 = 0.1  # currency per kWh
DEFAULT_K1 = 0.001  # currency per kWh^2
DEFAULT_TOL = 1e-6  # kWh


class ModelError(ValueError):
    """Invalid model data or mismatched dimensions."""


@dataclass(frozen=True)
class PriceModel:
    """Linear unit-price model p = k0 + 2*k1*load (quadratic slot cost)."""

    k0: float = DEFAULT_K0
    k1: float = DEFAULT_K1

    def __post_init__(self):
        if not (0 <= self.k0 < math.inf and 0 <= self.k1 < math.inf):
            raise ModelError(f"price coefficients must be finite and non-negative, got k0={self.k0}, k1={self.k1}")

    def unit_price(self, load):
        """The unit price k0 + 2*k1*load at a total load (or an array of them)."""
        return self.k0 + 2.0 * self.k1 * load


@dataclass(frozen=True)
class EVProfile:
    """One vehicle: parking window, demand, and battery limits.

    demand_kwh is the energy the station must deliver; it may not exceed
    the battery headroom capacity*(1 - soc_init) by more than a tolerance.
    """

    id: int
    t_arr: int
    t_dep: int
    demand_kwh: float
    b_max: float  # kWh per slot
    capacity_kwh: float
    soc_init: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.demand_kwh, self.b_max, self.capacity_kwh, self.soc_init))):
            raise ModelError(f"EV {self.id}: demand, b_max, capacity and soc_init must be finite")
        if self.t_arr > self.t_dep:
            raise ModelError(f"EV {self.id}: arrival {self.t_arr} after departure {self.t_dep}")
        if self.demand_kwh < 0:
            raise ModelError(f"EV {self.id}: negative demand {self.demand_kwh}")
        if self.b_max <= 0 or self.capacity_kwh <= 0:
            raise ModelError(f"EV {self.id}: b_max and capacity must be positive")
        if not 0.0 <= self.soc_init <= 1.0:
            raise ModelError(f"EV {self.id}: soc_init {self.soc_init} outside [0, 1]")
        headroom = self.capacity_kwh * (1.0 - self.soc_init)
        if self.demand_kwh > headroom + 1e-6:
            raise ModelError(
                f"EV {self.id}: demand {self.demand_kwh} exceeds battery headroom {headroom}"
            )


class EVArrays(Sequence):
    """A fleet as arrays, one entry per EV, that reads as a sequence of
    `EVProfile`s (entry i has id i + 1); the profiles are built on first use.

    `Scenario` takes the arrays as they are, so a fleet drawn as arrays
    builds no profile unless something reads one.
    """

    _COLUMNS = ("t_arr", "t_dep", "demand", "b_max", "capacity", "soc_init")

    def __init__(self, t_arr, t_dep, demand, b_max, capacity, soc_init):
        columns = dict(zip(self._COLUMNS, (t_arr, t_dep, demand, b_max, capacity, soc_init)))
        self.columns = {name: np.array(value, dtype=int if name.startswith("t_") else float)
                        for name, value in columns.items()}
        for array in self.columns.values():
            array.setflags(write=False)
        self._profiles = None
        c = self.columns
        # EVProfile's checks, entry by entry: the first entry that fails one raises its ModelError.
        finite = np.isfinite(c["demand"]) & np.isfinite(c["b_max"]) & np.isfinite(c["capacity"])
        bad = (~finite | (c["t_arr"] > c["t_dep"]) | (c["demand"] < 0) | (c["b_max"] <= 0) | (c["capacity"] <= 0)
               | ~((0 <= c["soc_init"]) & (c["soc_init"] <= 1))
               | (c["demand"] > c["capacity"] * (1.0 - c["soc_init"]) + 1e-6))
        if bad.any():
            self._profile(int(bad.argmax()))

    def _profile(self, i: int) -> EVProfile:
        c = self.columns
        return EVProfile(id=i + 1, t_arr=int(c["t_arr"][i]), t_dep=int(c["t_dep"][i]),
                         demand_kwh=float(c["demand"][i]), b_max=float(c["b_max"][i]),
                         capacity_kwh=float(c["capacity"][i]), soc_init=float(c["soc_init"][i]))

    def __len__(self) -> int:
        return self.columns["t_arr"].size

    def __getitem__(self, index):
        if self._profiles is None:
            self._profiles = tuple(self._profile(i) for i in range(len(self)))
        return self._profiles[index]

    def __eq__(self, other) -> bool:
        return isinstance(other, Sequence) and tuple(self) == tuple(other)


@dataclass(frozen=True)
class Scenario:
    """A charging-station instance: horizon, base load, fleet, price, cap.

    Each EV is a row of the read-only fleet arrays built once here (`ids`,
    `t_arr`, `t_dep`, `demand`, `b_max`, `capacity`, `soc_init`, and the
    (n_evs, horizon) window `mask`, True where the EV is parked). `evs` is a
    sequence of profiles, or an `EVArrays`, whose arrays are used as they are.
    """

    horizon: int
    base_load: np.ndarray  # kWh per slot, length horizon
    evs: Sequence[EVProfile]
    price: PriceModel = field(default_factory=PriceModel)
    load_cap: float = float("inf")  # kWh per slot, total load bound

    def __post_init__(self):
        base = np.asarray(self.base_load, dtype=float)
        object.__setattr__(self, "base_load", base)
        if self.horizon < 1:
            raise ModelError(f"horizon must be >= 1, got {self.horizon}")
        if base.shape != (self.horizon,):
            raise ModelError(f"base_load length {base.shape} does not match horizon {self.horizon}")
        if not np.all((base >= 0) & np.isfinite(base)):
            raise ModelError("base_load entries must be finite and non-negative")
        if math.isnan(self.load_cap):
            raise ModelError("load_cap must be a number (inf: no cap)")
        if base.size and self.load_cap < base.max():
            raise ModelError(f"load_cap {self.load_cap} below peak base load {base.max()}")
        if isinstance(self.evs, EVArrays):
            fleet = dict(self.evs.columns, ids=np.arange(1, len(self.evs) + 1))
        else:
            object.__setattr__(self, "evs", tuple(self.evs))

            def column(attr, dtype=float):
                return np.array([getattr(ev, attr) for ev in self.evs], dtype=dtype)

            fleet = {"ids": column("id", int), "t_arr": column("t_arr", int), "t_dep": column("t_dep", int),
                     "demand": column("demand_kwh"), "b_max": column("b_max"), "capacity": column("capacity_kwh"),
                     "soc_init": column("soc_init")}
            ids = fleet["ids"]
            _, first = np.unique(ids, return_index=True)  # each id's first row
            if first.size < ids.size:
                raise ModelError(f"duplicate EV id {ids[np.setdiff1d(np.arange(ids.size), first)[0]]}")
        outside = np.flatnonzero((fleet["t_arr"] < 1) | (fleet["t_dep"] > self.horizon))
        if outside.size:
            i = outside[0]
            raise ModelError(f"EV {fleet['ids'][i]}: window [{fleet['t_arr'][i]}, {fleet['t_dep'][i]}] "
                             f"outside [1, {self.horizon}]")
        slots = np.arange(1, self.horizon + 1)
        fleet["mask"] = (fleet["t_arr"][:, None] <= slots) & (slots <= fleet["t_dep"][:, None])
        for name, array in fleet.items():
            array.setflags(write=False)
            object.__setattr__(self, name, array)

    @property
    def n_evs(self) -> int:
        return self.t_arr.size

    @property
    def upper(self) -> np.ndarray:
        """Per-slot rate bound: b_max where the EV is parked, 0 elsewhere, (n_evs, horizon)."""
        return np.where(self.mask, self.b_max[:, None], 0.0)


class ChargingSchedule:
    """Per-EV per-slot charging amounts, row order matching Scenario.evs."""

    def __init__(self, amounts: np.ndarray):
        self.amounts = np.asarray(amounts, dtype=float)
        if self.amounts.ndim != 2:
            raise ModelError(f"amounts must be 2-D, got shape {self.amounts.shape}")

    @property
    def n_evs(self) -> int:
        return self.amounts.shape[0]

    @property
    def horizon(self) -> int:
        return self.amounts.shape[1]

    def slot_totals(self) -> np.ndarray:
        return self.amounts.sum(axis=0)

    def __repr__(self) -> str:
        return f"ChargingSchedule(n_evs={self.n_evs}, horizon={self.horizon})"


def bills(S, l_b, pm: PriceModel):
    """Bill of charging S on top of base load l_b: the integral of the unit
    price k0 + 2*k1*load from l_b to l_b + S, i.e. k0*S + k1*S^2 + 2*k1*l_b*S.

    S and l_b may be arrays (slots, or the rows of a batched env); the
    bills are then elementwise.
    """
    return pm.k0 * S + pm.k1 * S * S + 2.0 * pm.k1 * l_b * S


def bill(S, l_b, pm: PriceModel) -> float:
    """`bills`, summed over slots where S and l_b are per-slot arrays."""
    cost = bills(S, l_b, pm)
    return float(cost.sum() if isinstance(cost, np.ndarray) else cost)


def masked_sum(values: np.ndarray, mask: np.ndarray):
    """Sum over the last axis of the entries where `mask` holds.

    With a one-row mask the masked entries are gathered and summed, as
    every single-scenario rollout always has. The rows of a batch sum in
    place, with zeros elsewhere, which can round differently in the last bit.
    """
    if mask.ndim == 1:
        return np.add.reduce(values.compress(mask, axis=-1), axis=-1)
    return np.add.reduce(np.where(mask, values, 0.0), axis=-1)


def laxity_corridor(residuals, b_max, slots_after):
    """Unclipped charging corridor of each EV in one slot: (laxity minimum, headroom).

    The laxity minimum max(r - b_max * slots_after, 0) is the charge needed
    now so that the rest still fits in the `slots_after` slots before
    departure; the headroom min(b_max, r) is the most the EV can take.
    """
    return np.maximum(residuals - b_max * slots_after, 0.0), np.minimum(b_max, residuals)


def allocate_aggregate(live, corridor, order, budget) -> np.ndarray:
    """Split an aggregate budget over the parked (`live`) EVs in one slot.

    `corridor` is the EVs' `laxity_corridor` in the slot and `order` the
    index that lists them by departure (a stable argsort). Every parked EV
    first gets its laxity minimum; what is left of the budget then fills
    them up to their headroom, earliest departure first. With a leading row
    axis, each row splits its own budget, and `order` indexes the flattened
    rows: row * n_evs + the row's argsort.
    """
    lo, cap = corridor
    forced = np.where(live, np.minimum(lo, cap), 0.0)
    # The EVs that are not parked have no room, so they add 0 to the running sum.
    room = np.where(live, cap - forced, 0.0).reshape(-1)[order]
    left = np.asarray(budget - masked_sum(forced, live))[..., None]
    forced.reshape(-1)[order] += (left - (room.cumsum(axis=-1) - room)).clip(0.0, room)
    return forced


def slot_cost(b_vec, l_b: float, pm: PriceModel) -> float:
    """Electricity bill of one slot in which the EVs charge b_vec (`bill` of their sum)."""
    b = np.asarray(b_vec, dtype=float)
    if (b < 0).any():
        raise ModelError("charging amounts must be non-negative")
    return bill(float(b.sum()), l_b, pm)


def horizon_cost(schedule: ChargingSchedule, scenario: Scenario) -> float:
    """Total charging cost of the schedule over the scenario horizon."""
    if schedule.n_evs != scenario.n_evs or schedule.horizon != scenario.horizon:
        raise ModelError(
            f"schedule shape {schedule.amounts.shape} does not match scenario "
            f"({scenario.n_evs}, {scenario.horizon})"
        )
    return bill(schedule.slot_totals(), scenario.base_load, scenario.price)


def flat_completion_bills(before: np.ndarray, after: np.ndarray, t_dep: np.ndarray, t,
                          base_load: np.ndarray, pm: PriceModel) -> np.ndarray:
    """The per-slot bills (..., 2, horizon) of finishing the EVs at flat rates, with the
    arguments and parts of `flat_completion_change`; part 1 bills slots t+1..T only."""
    # Each slot's bill is load * (k0 + k1 * load + 2 * k1 * base load).
    horizon = base_load.shape[-1]
    lead = before.shape[:-1]
    slots_after = t_dep - np.asarray(t)[..., None]
    rates = np.zeros(lead + (2, before.shape[-1]))
    np.divide(before, slots_after + 1, out=rates[..., 0, :], where=slots_after >= 0)
    np.divide(after, slots_after, out=rates[..., 1, :], where=slots_after > 0)
    parts = 2 * math.prod(lead)
    bins = t_dep[..., None, :] - 1 + horizon * np.arange(parts).reshape(lead + (2, 1))
    load = np.bincount(bins.ravel(), rates.ravel(), parts * horizon).reshape(lead + (2, horizon))
    load = load[..., ::-1].cumsum(axis=-1)[..., ::-1]
    return load * (pm.k0 + pm.k1 * load + 2.0 * pm.k1 * base_load[..., None, :])


def flat_completion_change(before: np.ndarray, after: np.ndarray, t_dep: np.ndarray, t,
                           base_load: np.ndarray, pm: PriceModel):
    """Change across slot t in the bill of finishing the given EVs at flat rates.

    The EVs are those parked in slot t, with residual demands `before` and
    `after` the slot and departures `t_dep`. An EV's flat rate is its residual
    over its slots left, charged in every slot up to its departure. Slot t's
    own bill plus this change is the extra bill the slot's charging causes
    over finishing at flat rates, on `base_load` at the prices of `pm`.
    Part 0 of `flat_completion_bills` holds the bills before slot t's
    charging, part 1 those after it.

    With a leading row axis (the rows of a batched env), `t` holds each
    row's slot, `base_load` each row's series, an EV a row does not park in
    its slot has `before` and `after` 0, and the result holds one change
    per row.
    """
    cost = flat_completion_bills(before, after, t_dep, t, base_load, pm)
    slots, t = np.arange(1, base_load.shape[-1] + 1), np.asarray(t)[..., None]
    return masked_sum(cost[..., 1, :], slots > t) - masked_sum(cost[..., 0, :], slots >= t)


@dataclass(frozen=True)
class Violation:
    """One constraint violation found during schedule validation."""

    kind: str  # "demand" | "bound" | "window" | "load_cap"
    ev_id: int | None
    slot: int | None
    magnitude: float

    def __str__(self) -> str:
        where = []
        if self.ev_id is not None:
            where.append(f"ev={self.ev_id}")
        if self.slot is not None:
            where.append(f"slot={self.slot}")
        return f"{self.kind}({', '.join(where)}, magnitude={self.magnitude:.6g})"


@dataclass(frozen=True)
class ValidationReport:
    passed: bool
    violations: tuple[Violation, ...]

    def max_demand_gap(self) -> float:
        gaps = [v.magnitude for v in self.violations if v.kind == "demand"]
        return max(gaps, default=0.0)


def validate_schedule(schedule: ChargingSchedule, scenario: Scenario, tol: float = DEFAULT_TOL) -> ValidationReport:
    """Check demand satisfaction, per-slot bounds, window containment, load cap.

    Violations are data, not errors; infeasible schedules yield a failed
    report. A non-finite amount is a violation. Each EV's demand gap comes
    first, then its cells slot by slot; the load cap's come last.
    """
    if schedule.n_evs != scenario.n_evs or schedule.horizon != scenario.horizon:
        raise ModelError("schedule dimensions do not match scenario")
    violations: list[Violation] = []
    b = schedule.amounts
    b_max = scenario.b_max[:, None]
    gaps = np.abs(b.sum(axis=1) - scenario.demand)
    # Negated comparisons, so that NaN amounts are flagged too.
    window = ~scenario.mask & ~(np.abs(b) <= tol)
    low = scenario.mask & (b < -tol)
    bound = low | (scenario.mask & ~(b <= b_max + tol))
    magnitude = np.where(window, np.abs(b), np.where(low, -b, b - b_max))
    for row in np.flatnonzero(~(gaps <= tol) | (window | bound).any(axis=1)):
        ev_id = int(scenario.ids[row])
        if not gaps[row] <= tol:
            violations.append(Violation("demand", ev_id, None, gaps[row]))
        for col in np.flatnonzero(window[row] | bound[row]):
            kind = "window" if window[row, col] else "bound"
            violations.append(Violation(kind, ev_id, int(col) + 1, magnitude[row, col]))
    if np.isfinite(scenario.load_cap):  # inf - inf would be NaN for an infinite amount
        excess = schedule.slot_totals() + scenario.base_load - scenario.load_cap
        for col in np.flatnonzero(excess > tol):
            violations.append(Violation("load_cap", None, int(col) + 1, excess[col]))
    return ValidationReport(passed=not violations, violations=tuple(violations))
