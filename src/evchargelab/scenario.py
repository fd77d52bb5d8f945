"""Stochastic fleet generation and base-load ingestion."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .model import EVArrays

# Named EV types: (b_max kWh/slot, capacity kWh).
EV_TYPES = {
    "type1": (3.2, 36.0),
    "type2": (1.4, 16.0),
}

_MASS_TOL = 1e-9


def _cdf(p: np.ndarray) -> np.ndarray:
    """The normalized running mass of `Generator.choice(..., p=p)`: `searchsorted(rng.random(size),
    side="right")` on it draws the indices that `choice` draws, bit for bit."""
    cdf = p.cumsum()
    return cdf / cdf[-1]


class ScenarioError(ValueError):
    """Invalid fleet or distribution configuration."""


class BaseLoadError(ValueError):
    """Base class for base-load file problems."""


class BaseLoadLengthError(BaseLoadError):
    pass


class BaseLoadValueError(BaseLoadError):
    pass


class BaseLoadParseError(BaseLoadError):
    pass


@dataclass(frozen=True)
class ArrivalDistribution:
    """Probability mass over arrival slots 1..T."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", w)
        if w.size == 0 or np.any(w < 0):
            raise ScenarioError("arrival weights must be non-empty and non-negative")
        if abs(w.sum() - 1.0) > _MASS_TOL:
            raise ScenarioError(f"arrival weights sum to {w.sum()}, expected 1")
        object.__setattr__(self, "_cdf", _cdf(w))

    @classmethod
    def evening_peak(cls, horizon: int, peak_slot: int = 18, spread: float = 3.0) -> "ArrivalDistribution":
        """Default stand-in: arrival mass peaking around an evening slot.

        For a two-day horizon the peak repeats every 24 slots.
        """
        slots = np.arange(1, horizon + 1)
        w = np.zeros(horizon)
        for day_start in range(0, horizon, 24):
            center = day_start + peak_slot
            w += np.exp(-0.5 * ((slots - center) / spread) ** 2)
        w /= w.sum()
        return cls(w)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return self._cdf.searchsorted(rng.random(size), side="right") + 1


@dataclass(frozen=True)
class SocDistribution:
    """Histogram over initial SOC fractions; samples uniformly within a bin."""

    bin_edges: np.ndarray  # ascending, within [0, 1], length n_bins + 1
    bin_mass: np.ndarray

    def __post_init__(self):
        edges = np.asarray(self.bin_edges, dtype=float)
        mass = np.asarray(self.bin_mass, dtype=float)
        object.__setattr__(self, "bin_edges", edges)
        object.__setattr__(self, "bin_mass", mass)
        if edges.size < 2 or np.any(np.diff(edges) <= 0):
            raise ScenarioError("SOC bin edges must be strictly increasing")
        if edges[0] < 0 or edges[-1] > 1:
            raise ScenarioError("SOC bin edges must lie within [0, 1]")
        if mass.size != edges.size - 1:
            raise ScenarioError("one mass per bin required")
        if np.any(mass < 0) or abs(mass.sum() - 1.0) > _MASS_TOL:
            raise ScenarioError("SOC bin masses must be non-negative and sum to 1")
        object.__setattr__(self, "_cdf", _cdf(mass))

    @classmethod
    def midrange(cls) -> "SocDistribution":
        """Default stand-in: mass centered near SOC 0.4-0.6."""
        edges = np.array([0.0, 0.2, 0.4, 0.6, 0.8, 1.0])
        mass = np.array([0.1, 0.25, 0.4, 0.2, 0.05])
        return cls(edges, mass)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        bins = self._cdf.searchsorted(rng.random(size), side="right")
        lo = self.bin_edges[bins]
        hi = self.bin_edges[bins + 1]
        return lo + rng.random(size) * (hi - lo)


@dataclass(frozen=True)
class DwellDistribution:
    """Discrete distribution over parking durations in slots."""

    durations: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.durations, dtype=int)
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "durations", d)
        object.__setattr__(self, "weights", w)
        if d.size == 0 or np.any(d < 1):
            raise ScenarioError("dwell durations must be positive slot counts")
        if w.shape != d.shape or np.any(w < 0) or abs(w.sum() - 1.0) > _MASS_TOL:
            raise ScenarioError("dwell weights must match durations and sum to 1")
        object.__setattr__(self, "_cdf", _cdf(w))

    @classmethod
    def uniform(cls, lo: int = 4, hi: int = 12) -> "DwellDistribution":
        d = np.arange(lo, hi + 1)
        return cls(d, np.full(d.size, 1.0 / d.size))

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return self.durations[self._cdf.searchsorted(rng.random(size), side="right")]


@dataclass(frozen=True)
class FleetConfig:
    n_evs: int
    horizon: int
    ev_type: str = "type1"
    arrival: ArrivalDistribution | None = None
    soc: SocDistribution | None = None
    dwell: DwellDistribution | None = None

    def __post_init__(self):
        if self.n_evs < 0:
            raise ScenarioError("n_evs must be non-negative")
        if self.ev_type not in EV_TYPES:
            raise ScenarioError(f"unknown EV type {self.ev_type!r}, expected one of {sorted(EV_TYPES)}")

    def resolved(self) -> tuple[ArrivalDistribution, SocDistribution, DwellDistribution]:
        arrival = self.arrival or ArrivalDistribution.evening_peak(self.horizon)
        if arrival.weights.size != self.horizon:
            raise ScenarioError("arrival distribution length must equal horizon")
        return arrival, self.soc or SocDistribution.midrange(), self.dwell or DwellDistribution.uniform()


@dataclass(frozen=True)
class FleetSample:
    evs: EVArrays
    truncation_count: int  # demands cut down to what the dwell can deliver


def sample_fleet(cfg: FleetConfig, seed: int) -> FleetSample:
    """Monte Carlo fleet draw; demand derived from SOC then truncated to dwell.

    Truncation guarantees demand_i <= b_max * n_parked_slots, so every
    sampled fleet admits a feasible schedule (given enough load headroom).
    """
    arrival, soc_dist, dwell_dist = cfg.resolved()
    rng = np.random.default_rng(seed)
    b_max, capacity = EV_TYPES[cfg.ev_type]
    arrivals = arrival.sample(rng, cfg.n_evs)
    socs = soc_dist.sample(rng, cfg.n_evs)
    dwells = dwell_dist.sample(rng, cfg.n_evs)

    t_dep = np.minimum(arrivals + dwells - 1, cfg.horizon)
    demand = capacity * (1.0 - socs)
    deliverable = b_max * (t_dep - arrivals + 1)
    truncated = demand > deliverable
    evs = EVArrays(arrivals, t_dep, np.where(truncated, deliverable, demand), np.full(cfg.n_evs, b_max),
                   np.full(cfg.n_evs, capacity), socs)
    return FleetSample(evs=evs, truncation_count=int(truncated.sum()))


def load_base_series(path, expected_horizon: int) -> np.ndarray:
    """Read a base-load file: one non-negative decimal per line, one per slot; blank lines are skipped."""
    lines = [(n, line.strip()) for n, line in enumerate(Path(path).read_text().splitlines(), 1) if line.strip()]
    values = []
    for n, token in lines:
        try:
            values.append(float(token))
        except ValueError as exc:
            raise BaseLoadParseError(f"line {n}: cannot parse {token!r}") from exc
    if len(values) != expected_horizon:
        raise BaseLoadLengthError(f"expected {expected_horizon} entries, found {len(values)}")
    series = np.array(values)
    bad = ~((series >= 0) & np.isfinite(series))
    if bad.any():
        i = int(bad.argmax())
        raise BaseLoadValueError(f"base load {series[i]} at line {lines[i][0]} is not finite and non-negative")
    return series


def synthetic_base_load(horizon: int, low: float = 20.0, high: float = 45.0, peak_slot: int = 20) -> np.ndarray:
    """Smooth stand-in for a residential base-load profile with an evening peak."""
    slots = np.arange(1, horizon + 1)
    phase = 2.0 * np.pi * (slots - peak_slot) / 24.0
    mid = 0.5 * (low + high)
    amp = 0.5 * (high - low)
    return mid + amp * np.cos(phase)

