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
        if self.k0 < 0 or self.k1 < 0:
            raise ModelError(f"price coefficients must be non-negative, got k0={self.k0}, k1={self.k1}")


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


@dataclass(frozen=True)
class Scenario:
    """A charging-station instance: horizon, base load, fleet, price, cap.

    The fleet arrays (`t_arr`, `t_dep`, `demand`, `b_max`, `capacity`,
    `soc_init`, and the (n_evs, horizon) window `mask`, True where the EV is
    parked) are built once here and are read-only.
    """

    horizon: int
    base_load: np.ndarray  # kWh per slot, length horizon
    evs: tuple[EVProfile, ...]
    price: PriceModel = field(default_factory=PriceModel)
    load_cap: float = float("inf")  # kWh per slot, total load bound
    slot_hours: float = 1.0

    def __post_init__(self):
        base = np.asarray(self.base_load, dtype=float)
        object.__setattr__(self, "base_load", base)
        object.__setattr__(self, "evs", tuple(self.evs))
        if self.horizon < 1:
            raise ModelError(f"horizon must be >= 1, got {self.horizon}")
        if base.shape != (self.horizon,):
            raise ModelError(f"base_load length {base.shape} does not match horizon {self.horizon}")
        if np.any(base < 0):
            raise ModelError("base_load entries must be non-negative")
        if base.size and self.load_cap < base.max():
            raise ModelError(f"load_cap {self.load_cap} below peak base load {base.max()}")
        ids = set()
        for ev in self.evs:
            if ev.t_arr < 1 or ev.t_dep > self.horizon:
                raise ModelError(f"EV {ev.id}: window [{ev.t_arr}, {ev.t_dep}] outside [1, {self.horizon}]")
            if ev.id in ids:
                raise ModelError(f"duplicate EV id {ev.id}")
            ids.add(ev.id)

        def column(attr, dtype=float):
            return np.array([getattr(ev, attr) for ev in self.evs], dtype=dtype)

        fleet = {"t_arr": column("t_arr", int), "t_dep": column("t_dep", int), "demand": column("demand_kwh"),
                 "b_max": column("b_max"), "capacity": column("capacity_kwh"), "soc_init": column("soc_init")}
        slots = np.arange(1, self.horizon + 1)
        fleet["mask"] = (fleet["t_arr"][:, None] <= slots) & (slots <= fleet["t_dep"][:, None])
        for name, array in fleet.items():
            array.setflags(write=False)
            object.__setattr__(self, name, array)

    @property
    def n_evs(self) -> int:
        return len(self.evs)


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


def bill(S, l_b, pm: PriceModel) -> float:
    """Bill of charging S on top of base load l_b: the integral of the unit
    price k0 + 2*k1*load from l_b to l_b + S, i.e. k0*S + k1*S^2 + 2*k1*l_b*S.

    S and l_b may be per-slot arrays; the bill is then summed over slots.
    """
    return float(np.sum(pm.k0 * S + pm.k1 * S * S + 2.0 * pm.k1 * l_b * S))


def laxity_corridor(residuals, b_max, slots_after):
    """Unclipped charging corridor of each EV in one slot: (laxity minimum, headroom).

    The laxity minimum max(r - b_max * slots_after, 0) is the charge needed
    now so that the rest still fits in the `slots_after` slots before
    departure; the headroom min(b_max, r) is the most the EV can take.
    """
    return np.maximum(residuals - b_max * slots_after, 0.0), np.minimum(b_max, residuals)


def slot_cost(b_vec, l_b: float, pm: PriceModel) -> float:
    """Electricity bill of one slot in which the EVs charge b_vec (`bill` of their sum)."""
    b = np.asarray(b_vec, dtype=float)
    if np.any(b < 0):
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


def _flat_bill(residuals: np.ndarray, slots_left: np.ndarray, first: int, t: int, scenario: Scenario) -> float:
    """Bill of slots t + first .. T when each EV draws residual / slots_left up to its departure."""
    width = scenario.horizon - t + 1
    rates = np.bincount(first + slots_left - 1, weights=residuals / slots_left, minlength=width)
    load = rates[::-1].cumsum()[::-1][first:]
    pm = scenario.price
    return float((load * (pm.k0 + pm.k1 * load + 2.0 * pm.k1 * scenario.base_load[t - 1 + first :])).sum())


def flat_completion_change(before: np.ndarray, after: np.ndarray, t_dep: np.ndarray, t: int,
                           scenario: Scenario) -> float:
    """Change across slot t in the bill of finishing the given EVs at flat rates.

    The EVs are those parked in slot t, with residual demands `before` and
    `after` the slot and departures `t_dep`. An EV's flat rate is its residual
    over its slots left, charged in every slot up to its departure. Slot t's
    own bill plus this change is the extra bill the slot's charging causes
    over finishing at flat rates.
    """
    later = t_dep > t
    finish_after = _flat_bill(after[later], t_dep[later] - t, 1, t, scenario)
    return finish_after - _flat_bill(before, t_dep - t + 1, 0, t, scenario)


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
        ev_id = scenario.evs[row].id
        if not gaps[row] <= tol:
            violations.append(Violation("demand", ev_id, None, gaps[row]))
        for col in np.flatnonzero(window[row] | bound[row]):
            kind = "window" if window[row, col] else "bound"
            violations.append(Violation(kind, ev_id, int(col) + 1, magnitude[row, col]))
    excess = schedule.slot_totals() + scenario.base_load - scenario.load_cap
    for col in np.flatnonzero(excess > tol):
        violations.append(Violation("load_cap", None, int(col) + 1, excess[col]))
    return ValidationReport(passed=not violations, violations=tuple(violations))
