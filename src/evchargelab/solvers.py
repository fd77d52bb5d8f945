"""Deterministic optimization: offline oracle, rolling step, target split.

The offline problem is a convex QP whose bill depends only on the slot
totals. The oracle and the rolling step solve it exactly by a decomposition
into max-flows (`_decompose`). Whether a finite load cap admits the demands
at all is decided once per solve by a max-flow, whose minimum cut is the
infeasibility certificate. The optimality certificate (`kkt_residual`) is
exact and needs no projection: the largest per-EV gap between the unit
prices of a slot that charges and a slot with room. The split of an
aggregate target (`project_allocation`) is exact too: the same
decomposition, with the target in place of the price offset and the load
cap's room as a per-slot bound, returns the schedule whose slot totals miss
the target least in squares.

Every max-flow (`_max_flow`) runs Dinic's method on a residual graph built
from arrays (edge 2k forward, 2k + 1 its reverse). Each node's edges are a
range of one flat edge list and one flat head list, from one stable argsort
of the edge tails, so edges are visited in a fixed order and flows and cuts
are reproducible bit for bit. Dinic's first phase is a greedy fill: from
zero flow every augmenting path is source -> EV -> slot -> sink, and the
phase's walk takes the EVs in row order and each EV's slots in column order,
pushing min(supply left, rate, room left) wherever all three exceed eps. The
fill makes those tests and pushes in that order, so the later phases start
from the same residual graph and every flow, cut and schedule keeps its bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import DEFAULT_TOL, ChargingSchedule, Scenario, bill, validate_schedule

_ACTIVE_TOL = 1e-9  # kWh: an amount above it charges, one below b_max by more has room


class SolverError(RuntimeError):
    pass


class InfeasibleScenarioError(SolverError):
    """No schedule can satisfy the demands within the bounds and load cap."""


@dataclass(frozen=True)
class QpSolution:
    schedule: ChargingSchedule
    objective: float
    iterations: int
    kkt_residual: float


@dataclass(frozen=True)
class RollingStepResult:
    """Window plan of one online re-solve; the caller commits only slot t."""

    ev_ids: tuple[int, ...]
    window: range
    amounts: np.ndarray  # (n_active, len(window)), rows in `ev_ids` order


@dataclass(frozen=True)
class ProjectionResult:
    schedule: ChargingSchedule
    distance: float  # squared slot-total miss, sum_t (S_t - clipped_t)^2
    clipped_target: np.ndarray
    clip_magnitude: float  # total kWh removed from the raw target
    iterations: int  # max-flows spent; 0 when one max-flow met the target exactly


def _check_per_ev_feasibility(ids, upper, demands):
    """Raise InfeasibleScenarioError for the first EV whose demand its window cannot deliver."""
    deliverable = upper.sum(axis=1)
    over = np.flatnonzero(demands > deliverable + DEFAULT_TOL)
    if over.size:
        i = over[0]
        raise InfeasibleScenarioError(f"EV {ids[i]}: demand {demands[i]} exceeds deliverable {float(deliverable[i])}")


def check_evs_can_finish(scenario: Scenario) -> None:
    """Raise InfeasibleScenarioError naming the first EV whose window cannot deliver its demand.

    Every schedule function runs it first, as the solvers do, so a fleet
    that no schedule can serve fails before any rollout.
    """
    _check_per_ev_feasibility(scenario.ids, scenario.upper, scenario.demand)


def _max_flow(supply, upper, room):
    """Max-flow source -> EV i (supply[i]) -> slot t (upper[i, t]) -> sink (room[t]).

    Dinic's blocking-flow method (Dinic 1970) on the residual graph. Returns
    the flow value, the source side of a minimum cut as boolean masks over
    EVs and slots, and the EV -> slot flows as an (n, T) matrix. The first
    phase is a greedy fill that pushes what Dinic's walk would (module docstring).
    The fill skips the reverse edges into the source and out of the sink: no
    search or walk reads them, since the search never relabels the source or
    expands the sink, and the walk only steps up a level and leaves the sink at once.
    """
    n, T = upper.shape
    sink = n + T + 1
    rows, cols = np.nonzero(upper > 0.0)
    m = rows.size
    # Edges source -> EV, EV -> slot (row-major), slot -> sink; edge 2k is
    # the k-th of them and 2k + 1 its reverse, with no capacity. Edge e runs
    # from node ends[e] to node ends[e ^ 1].
    ends = np.empty(2 * (n + m + T), dtype=np.intp)
    ends[::2] = np.concatenate([np.zeros(n, dtype=np.intp), rows + 1, np.arange(n + 1, sink)])
    ends[1::2] = np.concatenate([np.arange(1, n + 1), cols + (n + 1), np.full(T, sink)])
    cap = np.zeros(ends.size)
    cap[::2] = np.concatenate([supply, upper[rows, cols], room])
    cap = cap.tolist()
    # Node u's edges in edge order are edges[bounds[u] : bounds[u + 1]], leading
    # to the nodes in the same places of `to`: one stable sort of the edge tails.
    order = np.argsort(ends, kind="stable")
    edges, to, tail = order.tolist(), ends[order ^ 1].tolist(), ends.tolist()
    bounds = [0] + np.bincount(ends, minlength=sink + 1).cumsum().tolist()
    eps = 1e-12 * max(1.0, float(np.sum(supply)))
    flow = 0.0
    # The first phase. EV i (node i + 1) lists the reverse of its source edge
    # 2i first, then its slot edges; slot node v's edge to the sink is 2(m + v - 1).
    for i in range(n):
        left = cap[2 * i]
        for p in range(bounds[i + 1] + 1, bounds[i + 2]):
            if not left > eps:
                break
            e, r = edges[p], 2 * (m + to[p] - 1)
            if cap[e] > eps and cap[r] > eps:
                pushed = min(left, cap[e], cap[r])
                left -= pushed
                cap[e] -= pushed
                cap[e + 1] += pushed
                cap[r] -= pushed
                flow += pushed
        cap[2 * i] = left
    while True:
        level = [-1] * (sink + 1)
        level[0] = 0
        queue = [0]
        # Breadth-first levels, up to the sink's: a node past it is a dead end.
        for u in queue:
            below = level[u] + 1
            for i in range(bounds[u], bounds[u + 1]):
                v = to[i]
                if level[v] < 0 and cap[edges[i]] > eps:
                    level[v] = below
                    queue.append(v)
            if level[sink] >= 0:
                break
        if level[sink] < 0:
            break
        # Blocking flow: advance along level edges, retreat from dead ends.
        # After a push the walk resumes at the tail of the first edge the push
        # left without capacity: a restart from the source would walk the same
        # edges up to there.
        nxt = bounds[:-1]
        path, u = [], 0
        while True:
            i, k, below = nxt[u], bounds[u + 1], level[u] + 1
            while i < k:
                if level[to[i]] == below and cap[edges[i]] > eps:
                    break
                i += 1
            nxt[u] = i
            if i == k:
                if not path:
                    break
                u = tail[path.pop()]
                nxt[u] += 1
                continue
            path.append(edges[i])
            u = to[i]
            if u == sink:
                pushed = min([cap[e] for e in path])
                for e in path:
                    cap[e] -= pushed
                    cap[e ^ 1] += pushed
                flow += pushed
                j = 0
                while cap[path[j]] > eps:
                    j += 1
                u = tail[path[j]]
                del path[j:]
    side = np.array(level) >= 0
    # An edge's flow is the capacity its reverse edge has gained.
    flows = np.zeros((n, T))
    flows[rows, cols] = cap[2 * n + 1 : 2 * (n + m) : 2]
    return flow, side[1 : n + 1], side[n + 1 : sink], flows


def _check_cap_feasibility(ids, upper, demands, window: range, scenario: Scenario):
    """Raise InfeasibleScenarioError, with a minimum cut, unless the load cap admits every demand.

    Row i of `upper` and `demands` belongs to the EV with id ids[i], and
    column j to slot window[j].
    """
    caps = scenario.load_cap - scenario.base_load[window.start - 1 : window.stop - 1]
    flow, evs, slots, _ = _max_flow(demands, upper, caps)
    if flow >= demands.sum() - DEFAULT_TOL:
        return
    need = float(demands[evs].sum())
    through = float(upper[evs][:, ~slots].sum() + caps[slots].sum())
    names = ", ".join(str(ev_id) for ev_id, cut in zip(ids, evs) if cut)
    cut_slots = ", ".join(str(window[j]) for j in np.nonzero(slots)[0])
    raise InfeasibleScenarioError(
        f"aggregate load cap {scenario.load_cap} unreachable: EVs {names} need {need:.3f} kWh, "
        f"but the cap at slots {cut_slots} and the EVs' rate limits in their other slots "
        f"let through only {through:.3f} kWh"
    )


def _least_bill(ids, upper, demands, window: range, scenario: Scenario):
    """Exact least-bill schedule over the slots of `window` with 0 <= X <= upper and row sums =
    demands, and its max-flow count.

    The bill depends only on the slot totals S, as sum k1*(S_t + c_t)^2 plus a
    constant, with c = base + k0/(2*k1), so `_decompose` finds the optimum.
    It also has the least peak of base plus EV load, so a load cap that
    admits the demands (a max-flow decides, with a minimum cut as
    certificate) never binds it, and the decomposition runs uncapped. With
    k1 = 0 every feasible schedule costs the same, and one max-flow returns
    one.
    """
    _check_per_ev_feasibility(ids, upper, demands)
    pm, base = scenario.price, scenario.base_load[window.start - 1 : window.stop - 1]
    if np.isfinite(scenario.load_cap):
        _check_cap_feasibility(ids, upper, demands, window, scenario)
    if pm.k1 == 0.0:
        return _max_flow(demands, upper, np.minimum(scenario.load_cap - base, upper.sum(axis=0)))[3], 1
    return _decompose(upper, demands, base + pm.k0 / (2.0 * pm.k1), np.full(len(window), np.inf))


def _row_shifts(V: np.ndarray, U: np.ndarray, totals: np.ndarray) -> np.ndarray:
    """Per-row tau with sum(clip(V - tau, 0, U)) = total, for 0 <= total <= sum(U).

    The sum is piecewise linear in tau with breakpoints at V and V - U, so tau
    is found exactly by sorting the breakpoints and interpolating on the
    segment that brackets the total (Kiwiel 2008); all rows are solved at once.
    """
    n, m = V.shape
    rows = np.arange(n)
    points = np.concatenate([V, V - U], axis=1)
    order = np.argsort(-points, axis=1, kind="stable")
    points = points[rows[:, None], order]
    # Entries active (strictly between their two breakpoints) just below each
    # point: an entry enters at its upper breakpoint v and leaves at v - u.
    active = np.where(order < m, 1.0, -1.0).cumsum(axis=1)
    sums = np.zeros((n, 2 * m))
    sums[:, 1:] = np.cumsum(active[:, :-1] * (points[:, :-1] - points[:, 1:]), axis=1)
    k = np.clip((sums < totals[:, None]).sum(axis=1), 1, 2 * m - 1)
    below = k - 1
    slope = np.maximum(active[rows, below], 1.0)
    tau = points[rows, below] - (totals - sums[rows, below]) / slope
    tau = np.where(totals <= 0.0, points[:, 0], tau)
    return np.where(totals >= sums[:, -1], points[:, -1], tau)


def _decompose(upper, demands, c, cap_room):
    """Schedule with 0 <= X <= upper and row sums = demands whose slot totals S minimise
    sum (S_t + c_t)^2 subject to S_t <= cap_room_t, and its max-flow count.

    The achievable S form a polymatroid base, so the decomposition algorithm
    finds the optimum with a few max-flows (Fujishige 1980). On a block of
    EVs and slots it routes the water level S_t = clip(lam - c_t, 0, room_t)
    that meets the demand, room_t being the lesser of the block's column room
    and its cap room. If the flow carries every demand, it is the block's
    schedule. Otherwise the minimum cut splits the block: the source-side
    EVs charge at full rate on the sink-side slots and keep the rest of their
    demand for the source-side slots (a high block); the other EVs take the
    sink-side slots, with that full-rate load added to c and taken from the
    cap room (a low block). The caller must have checked that the demands
    fit. Identical EVs get identical rows.
    """
    X = np.zeros(upper.shape)
    flows = 0
    stack = [(np.arange(upper.shape[0]), np.arange(upper.shape[1]), demands, c, cap_room)]
    while stack:
        rows, cols, d, c, cap = stack.pop()
        U = upper[np.ix_(rows, cols)]
        room = np.minimum(U.sum(axis=0), cap)
        level = np.clip(-c - _row_shifts(-c[None, :], room[None, :], np.array([d.sum()])), 0.0, room)
        _, evs, slots, F = _max_flow(d, U, level)
        flows += 1
        # No source-side EV: every demand is met. All slots on the source
        # side: the flow is short by rounding only.
        if not evs.any() or slots.all():
            X[np.ix_(rows, cols)] = F
            continue
        full = U[evs][:, ~slots]
        load = full.sum(axis=0)
        X[np.ix_(rows[evs], cols[~slots])] = full
        for block in ((rows[evs], cols[slots], np.maximum(d[evs] - full.sum(axis=1), 0.0), c[slots], cap[slots]),
                      (rows[~evs], cols[~slots], d[~evs], c[~slots] + load, np.maximum(cap[~slots] - load, 0.0))):
            if block[0].size and block[1].size:
                stack.append(block)
    # Identical EVs (equal rows of upper and demands; + 0.0 maps -0.0 to 0.0)
    # share their mean row. Where no two are identical, each row is its own mean.
    keys = {}
    group = np.array([keys.setdefault(row.tobytes(), len(keys)) for row in np.column_stack([upper, demands]) + 0.0])
    if len(keys) == group.size:
        return X, flows
    sums = np.zeros((len(keys), upper.shape[1]))
    np.add.at(sums, group, X)
    return sums[group] / np.bincount(group)[group, None], flows


def solve_offline(scenario: Scenario) -> QpSolution:
    """Minimize total charging cost with full knowledge of the fleet.

    The schedule is exact (`_least_bill`); `iterations` counts its max-flows
    and `kkt_residual` is the schedule's price gap, as `kkt_residual`
    computes it but without the feasibility checks the construction makes
    redundant.
    """
    if scenario.n_evs == 0:
        return QpSolution(ChargingSchedule(np.zeros((0, scenario.horizon))), 0.0, 0, 0.0)
    B, flows = _least_bill(scenario.ids, scenario.upper, scenario.demand, range(1, scenario.horizon + 1), scenario)
    return QpSolution(ChargingSchedule(B), bill(B.sum(axis=0), scenario.base_load, scenario.price), flows,
                      _price_gap(B, scenario))


def _price_gap(B, scenario: Scenario) -> float:
    """Largest per-EV gap: the unit price of its dearest slot with charge less that of its cheapest
    window slot with room, clipped at 0."""
    mask = scenario.mask
    price = scenario.price.unit_price(scenario.base_load + B.sum(axis=0))
    dearest = np.where(mask & (B > _ACTIVE_TOL), price, -np.inf).max(axis=1, initial=-np.inf)
    cheapest = np.where(mask & (B < scenario.b_max[:, None] - _ACTIVE_TOL), price, np.inf).min(axis=1, initial=np.inf)
    return float(np.max(dearest - cheapest, initial=0.0))


def kkt_residual(B, scenario: Scenario) -> float:
    """Exact optimality certificate of schedule B: 0 at the least-bill schedule, positive elsewhere.

    It is the largest per-EV price gap (`_price_gap`). The bill is convex
    in B, so B is optimal without a cap exactly where no EV could move
    charge to a cheaper slot, that is where every gap is 0; and a cap that
    admits the demands never binds that optimum (`_decompose`). A B that
    misses a demand, a bound, a window or the cap by more than DEFAULT_TOL
    reads inf. Refuses an unreachable cap.
    """
    if np.isfinite(scenario.load_cap):
        _check_cap_feasibility(scenario.ids, scenario.upper, scenario.demand, range(1, scenario.horizon + 1), scenario)
    if not validate_schedule(ChargingSchedule(B), scenario).passed:
        return float("inf")
    return _price_gap(B, scenario)


def solve_rolling_step(scenario: Scenario, t: int, residuals: dict[int, float]) -> RollingStepResult:
    """Re-solve the window problem at slot t for the currently parked EVs.

    residuals maps parked EV ids to their remaining demand; negative
    residuals are rejected. The window runs from t to the last departure.
    """
    if any(r < -DEFAULT_TOL for r in residuals.values()):
        raise SolverError("residual demands must be non-negative")
    rows = np.flatnonzero(np.isin(scenario.ids, list(residuals)) & scenario.mask[:, t - 1])
    if not rows.size:
        raise SolverError(f"no EV parked at slot {t}")
    ids = tuple(scenario.ids[rows].tolist())
    t_end = int(scenario.t_dep[rows].max())
    upper = scenario.upper[rows, t - 1 : t_end]
    demands = np.maximum([residuals[i] for i in ids], 0.0)
    window = range(t, t_end + 1)
    amounts, _ = _least_bill(ids, upper, demands, window, scenario)
    return RollingStepResult(ev_ids=ids, window=window, amounts=amounts)


def project_allocation(aggregate_target, scenario: Scenario) -> ProjectionResult:
    """Split a per-slot aggregate charging target into the demand-feasible schedule that tracks it best.

    The target is first clipped to what the parked fleet and the load cap can
    absorb per slot; the clipped amount is reported, never raised. A clipped
    target that some schedule meets is split exactly by a max-flow, with
    distance 0. Otherwise the schedule is the one whose slot totals S
    minimise sum_t (S_t - clipped_t)^2 under the demands, rates, windows and
    load cap, found exactly by the oracle's decomposition with c = -clipped
    and the cap room (`_decompose`).
    """
    ids, upper, demands = scenario.ids, scenario.upper, scenario.demand
    _check_per_ev_feasibility(ids, upper, demands)
    target = np.asarray(aggregate_target, dtype=float)
    if target.shape != (scenario.horizon,):
        raise SolverError(f"target length {target.shape} does not match horizon {scenario.horizon}")
    if not np.isfinite(target).all():
        raise SolverError("target must be finite")
    cap_room = np.maximum(scenario.load_cap - scenario.base_load, 0.0)
    if np.isfinite(scenario.load_cap):
        _check_cap_feasibility(ids, upper, demands, range(1, scenario.horizon + 1), scenario)
    clipped = np.clip(target, 0.0, np.minimum(upper.sum(axis=0), cap_room))
    clip_magnitude = float(np.sum(np.abs(target - clipped)))

    tried = 0
    if abs(clipped.sum() - demands.sum()) <= DEFAULT_TOL:
        flow, _, _, X = _max_flow(demands, upper, clipped)
        if flow >= demands.sum() - DEFAULT_TOL:
            return ProjectionResult(ChargingSchedule(X), 0.0, clipped, clip_magnitude, 0)
        tried = 1
    X, flows = _decompose(upper, demands, -clipped, cap_room)
    distance = float(np.sum((X.sum(axis=0) - clipped) ** 2))
    return ProjectionResult(ChargingSchedule(X), distance, clipped, clip_magnitude, tried + flows)
