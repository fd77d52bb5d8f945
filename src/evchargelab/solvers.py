"""Deterministic optimization: offline oracle, rolling step, projection allocator.

The offline problem is a convex QP (strictly convex in the per-slot
aggregates when k1 > 0). It is solved with accelerated projected gradient
descent. The feasible-set projection is exact: a row-wise capped-simplex
projection when the load cap is slack, and projected Newton on the slot
multipliers of the cap when it binds. Whether a finite load cap admits the
demands at all is decided once per solve by a max-flow, whose minimum cut
is the infeasibility certificate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ChargingSchedule, EVProfile, Scenario
from .projections import _row_shifts, project_cols_capped_simplex, project_rows_capped_simplex

DEFAULT_TOL = 1e-6
DEFAULT_MAX_ITER = 50000
_ALTERNATING_MAX_ITER = 2000  # rounds of project_allocation's alternating projections
_NEWTON_MAX_ITER = 100
_NEWTON_TOL = 1e-12  # dual residual, relative to the largest slot room
_ARMIJO_MAX_HALVINGS = 40


class SolverError(RuntimeError):
    pass


class InfeasibleScenarioError(SolverError):
    """No schedule can satisfy the demands within the bounds and load cap."""


class ConvergenceError(SolverError):
    pass


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
    amounts: np.ndarray  # (n_active, len(window))

    def column(self, t: int) -> dict[int, float]:
        col = t - self.window.start
        return {ev_id: float(self.amounts[row, col]) for row, ev_id in enumerate(self.ev_ids)}


@dataclass(frozen=True)
class ProjectionResult:
    schedule: ChargingSchedule
    surrogate: ChargingSchedule  # column sums equal the clipped aggregate target
    distance: float  # squared-norm gap between the two
    clipped_target: np.ndarray
    clip_magnitude: float  # total kWh removed from the raw target


def _check_per_ev_feasibility(scenario: Scenario, tol: float):
    for ev in scenario.evs:
        deliverable = ev.b_max * ev.n_slots
        if ev.demand_kwh > deliverable + tol:
            raise InfeasibleScenarioError(
                f"EV {ev.id}: demand {ev.demand_kwh} exceeds deliverable {deliverable}"
            )


def _max_flow(supply, upper, room):
    """Max-flow source -> EV i (supply[i]) -> slot t (upper[i, t]) -> sink (room[t]).

    Dinic's blocking-flow method (Dinic 1970) on the residual graph. Returns
    the flow value and the source side of a minimum cut as boolean masks
    over EVs and slots.
    """
    n, T = upper.shape
    sink = n + T + 1
    head, cap, adj = [], [], [[] for _ in range(sink + 1)]

    def add(u, v, c):
        adj[u].append(len(head))
        head.append(v)
        cap.append(float(c))
        adj[v].append(len(head))
        head.append(u)
        cap.append(0.0)

    for i in range(n):
        add(0, 1 + i, supply[i])
    for i, t in zip(*np.nonzero(upper > 0.0)):
        add(1 + i, 1 + n + t, upper[i, t])
    for t in range(T):
        add(1 + n + t, sink, room[t])
    eps = 1e-12 * max(1.0, float(np.sum(supply)))
    flow = 0.0
    while True:
        level = [-1] * (sink + 1)
        level[0] = 0
        queue = [0]
        for u in queue:
            for e in adj[u]:
                if cap[e] > eps and level[head[e]] < 0:
                    level[head[e]] = level[u] + 1
                    queue.append(head[e])
        if level[sink] < 0:
            break
        # Blocking flow: advance along level edges, retreat from dead ends.
        nxt = [0] * (sink + 1)
        path, u = [], 0
        while True:
            if u == sink:
                pushed = min(cap[e] for e in path)
                for e in path:
                    cap[e] -= pushed
                    cap[e ^ 1] += pushed
                flow += pushed
                path, u = [], 0
                continue
            edges = adj[u]
            while nxt[u] < len(edges):
                e = edges[nxt[u]]
                if cap[e] > eps and level[head[e]] == level[u] + 1:
                    break
                nxt[u] += 1
            else:
                if not path:
                    break
                u = head[path.pop() ^ 1]
                nxt[u] += 1
                continue
            path.append(e)
            u = head[e]
    side = np.array(level) >= 0
    return flow, side[1 : n + 1], side[n + 1 : sink]


def _check_cap_feasibility(scenario: Scenario, mask, b_max, demands, caps, tol: float):
    """Raise InfeasibleScenarioError, with a minimum cut, unless the load cap admits every demand."""
    upper = np.where(mask, b_max[:, None], 0.0)
    flow, evs, slots = _max_flow(demands, upper, caps)
    if flow >= demands.sum() - tol:
        return
    need = float(demands[evs].sum())
    through = float(upper[evs][:, ~slots].sum() + caps[slots].sum())
    ids = ", ".join(str(ev.id) for ev, cut in zip(scenario.evs, evs) if cut)
    cut_slots = ", ".join(str(t + 1) for t in np.nonzero(slots)[0])
    raise InfeasibleScenarioError(
        f"aggregate load cap {scenario.load_cap} unreachable: EVs {ids} need {need:.3f} kWh, "
        f"but the cap at slots {cut_slots} and the EVs' rate limits in their other slots "
        f"let through only {through:.3f} kWh"
    )


def _feasible_projector(mask, b_max, demands, caps, tol: float):
    """Euclidean projection onto {row sums = demands, 0 <= x <= b_max in window, column sums <= caps}.

    Without a binding cap this is the row-wise capped-simplex projection.
    Otherwise it maximizes the concave dual over the slot multipliers
    mu >= 0, where x(mu) is the row projection of B - mu and the dual
    gradient is colsum(x(mu)) - caps, by projected Newton (Bertsekas 1982).
    The generalized Hessian is diag(f) - F' diag(1/|F_i|) F, F marking the
    entries strictly inside their bounds; rows with no free entry add
    nothing. mu is kept between calls as the next call's warm start. The
    caller must have checked that the capped set is not empty.
    """
    upper = np.where(mask, b_max[:, None], 0.0)
    totals = np.clip(demands, 0.0, upper.sum(axis=1))
    # A cap above what a slot can ever take never binds; this keeps room finite.
    room = np.minimum(caps, upper.sum(axis=0) + 1.0)
    scale = max(1.0, float(np.max(room)))
    mu = np.zeros(len(caps))

    def dual(V, m):
        """x(m), the gradient room - colsum(x(m)) of the negated dual, and its value."""
        W = V - m
        X = np.clip(W - _row_shifts(W, upper, totals)[:, None], 0.0, upper)
        grad = room - X.sum(axis=0)
        return X, grad, float(m @ grad - 0.5 * np.sum((X - V) ** 2))

    def stationarity(m, grad):
        """Largest violation of mu >= 0, grad >= 0, mu * grad = 0."""
        return float(np.abs(m - np.maximum(m - grad, 0.0)).max())

    def project(B):
        nonlocal mu
        X = project_rows_capped_simplex(B, b_max, demands, mask)
        if np.all(X.sum(axis=0) <= caps):
            return X
        V = np.where(mask, B, 0.0)
        X, grad, value = dual(V, mu)
        residual = stationarity(mu, grad)
        for _iteration in range(_NEWTON_MAX_ITER):
            if residual <= _NEWTON_TOL * scale:
                break
            # The residual sets both the band of multipliers held at 0 and
            # the regularization, so both vanish as the iterates converge.
            eps = min(residual, 1.0)
            held = (mu <= eps) & (grad > 0.0)
            free = ~held
            F = ((X > 0.0) & (X < upper)).astype(float)
            counts = F.sum(axis=1)
            weights = np.where(counts > 0.0, 1.0 / np.maximum(counts, 1.0), 0.0)
            H = np.diag(F.sum(axis=0)) - (F * weights[:, None]).T @ F
            H = H[np.ix_(free, free)] + eps * np.eye(int(free.sum()))
            step = np.where(held, -grad, 0.0)
            step[free] = -np.linalg.solve(H, grad[free])
            alpha = 1.0
            for _halving in range(_ARMIJO_MAX_HALVINGS):
                trial = np.maximum(mu + alpha * step, 0.0)
                X_t, grad_t, value_t = dual(V, trial)
                residual_t = stationarity(trial, grad_t)
                gain = -alpha * (grad[free] @ step[free]) + grad[held] @ (mu[held] - trial[held])
                if value - value_t >= 1e-4 * gain:
                    break
                # Near the optimum the dual moves by less than its rounding
                # error; a step that halves the residual is then taken as is.
                if abs(value - value_t) <= 1e-12 * (1.0 + abs(value)) and residual_t <= 0.5 * residual:
                    break
                alpha *= 0.5
            else:
                break
            mu, X, grad, value, residual = trial, X_t, grad_t, value_t, residual_t
        if np.any(X.sum(axis=0) > caps + tol):
            raise ConvergenceError(
                f"capped projection stalled: column excess {np.max(X.sum(axis=0) - caps):.3g} kWh"
            )
        return X

    return project


def _objective(S, lb, pm):
    return float(np.sum(pm.k0 * S + pm.k1 * S * S + 2.0 * pm.k1 * lb * S))


def solve_offline(scenario: Scenario, tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER) -> QpSolution:
    """Minimize total charging cost with full knowledge of the fleet.

    Returns a solution whose KKT residual (projected-gradient fixed-point
    residual) is at most tol; raises ConvergenceError otherwise.
    """
    _check_per_ev_feasibility(scenario, tol)
    n, T = scenario.n_evs, scenario.horizon
    pm = scenario.price
    lb = scenario.base_load
    if n == 0:
        return QpSolution(ChargingSchedule(np.zeros((0, T))), 0.0, 0, 0.0)
    mask = scenario.window_mask()
    b_max = scenario.b_max_vector
    demands = scenario.demand_vector
    caps = np.full(T, scenario.load_cap) - lb
    if np.isfinite(scenario.load_cap):
        _check_cap_feasibility(scenario, mask, b_max, demands, caps, tol)
    project = _feasible_projector(mask, b_max, demands, caps, tol)

    if pm.k1 == 0.0:
        # Linear objective with fixed per-EV totals: every feasible point is
        # optimal; return the minimum-norm one for determinism.
        B = project(np.zeros((n, T)))
        return QpSolution(ChargingSchedule(B), _objective(B.sum(axis=0), lb, pm), 0, 0.0)

    L = 2.0 * pm.k1 * n
    eta = 1.0 / L
    B = project(np.tile((demands / np.maximum(mask.sum(axis=1), 1))[:, None], (1, T)) * mask)
    Y = B.copy()
    t_mom = 1.0
    f_prev = np.inf
    residual = np.inf
    iterations = 0
    for iterations in range(1, max_iter + 1):
        S = Y.sum(axis=0)
        grad_slot = pm.k0 + 2.0 * pm.k1 * (S + lb)
        G = np.where(mask, grad_slot[None, :], 0.0)
        B_new = project(Y - eta * G)
        f_new = _objective(B_new.sum(axis=0), lb, pm)
        if f_new > f_prev:  # restart momentum on objective increase
            t_mom = 1.0
            Y = B.copy()
            f_prev = np.inf
        else:
            t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_mom * t_mom))
            Y = B_new + ((t_mom - 1.0) / t_next) * (B_new - B)
            B, t_mom, f_prev = B_new, t_next, f_new
        # The check must also run on restart iterations: an iterate parked at
        # the optimum can oscillate by one float epsilon and restart forever.
        if iterations % 10 == 0 or iterations == max_iter:
            residual = _kkt_residual(B, scenario, mask, project)
            if residual <= tol:
                break
    else:  # pragma: no cover - loop always breaks or exhausts via range
        pass
    if residual > tol:
        raise ConvergenceError(f"no convergence after {iterations} iterations, residual {residual:.3g}")
    return QpSolution(ChargingSchedule(B), _objective(B.sum(axis=0), lb, pm), iterations, residual)


def kkt_residual(B, scenario: Scenario, mask=None, b_max=None, demands=None, caps=None, tol=DEFAULT_TOL) -> float:
    """Fixed-point residual of the projected-gradient map (0 at a KKT point)."""
    if mask is None:
        mask = scenario.window_mask()
        b_max = scenario.b_max_vector
        demands = scenario.demand_vector
        caps = np.full(scenario.horizon, scenario.load_cap) - scenario.base_load
    return _kkt_residual(B, scenario, mask, _feasible_projector(mask, b_max, demands, caps, tol))


def _kkt_residual(B, scenario: Scenario, mask, project) -> float:
    pm = scenario.price
    S = B.sum(axis=0)
    grad_slot = pm.k0 + 2.0 * pm.k1 * (S + scenario.base_load)
    G = np.where(mask, grad_slot[None, :], 0.0)
    step = 1.0 / (2.0 * pm.k1 * max(scenario.n_evs, 1)) if pm.k1 > 0 else 1.0
    moved = project(B - step * G)
    return float(np.max(np.abs(B - moved)) / step)


def _window_subscenario(scenario: Scenario, t: int, residuals: dict[int, float]):
    """Reduced scenario over W(t) for the EVs parked at t with their residuals."""
    parked = [ev for ev in scenario.evs if ev.t_arr <= t <= ev.t_dep and ev.id in residuals]
    if not parked:
        return None, None, None
    t_end = max(ev.t_dep for ev in parked)
    window = range(t, t_end + 1)
    sub_evs = [
        EVProfile(
            id=ev.id,
            t_arr=1,
            t_dep=ev.t_dep - t + 1,
            demand_kwh=max(residuals[ev.id], 0.0),
            b_max=ev.b_max,
            capacity_kwh=ev.capacity_kwh,
            soc_init=0.0,
        )
        for ev in parked
    ]
    sub = Scenario(
        horizon=len(window),
        base_load=scenario.base_load[t - 1 : t_end],
        evs=sub_evs,
        price=scenario.price,
        load_cap=scenario.load_cap,
        slot_hours=scenario.slot_hours,
    )
    return sub, window, tuple(ev.id for ev in parked)


def solve_rolling_step(scenario: Scenario, t: int, residuals: dict[int, float], tol: float = DEFAULT_TOL) -> RollingStepResult:
    """Re-solve the window problem at slot t for the currently parked EVs.

    residuals maps parked EV ids to their remaining demand; negative
    residuals are rejected.
    """
    if any(r < -tol for r in residuals.values()):
        raise SolverError("residual demands must be non-negative")
    sub, window, ids = _window_subscenario(scenario, t, residuals)
    if sub is None:
        raise SolverError(f"no EV parked at slot {t}")
    solution = solve_offline(sub, tol=tol)
    return RollingStepResult(ev_ids=ids, window=window, amounts=solution.schedule.amounts)


def project_allocation(aggregate_target, scenario: Scenario, tol: float = DEFAULT_TOL) -> ProjectionResult:
    """Split a per-slot aggregate charging target into a demand-feasible schedule.

    The target is first clipped to what the parked fleet and the load cap can
    absorb per slot; the clipped amount is reported, never raised. Alternating
    projections between the target-matching set and the demand-feasible set
    converge to the closest pair, so distance is 0 exactly when the clipped
    target is achievable.
    """
    _check_per_ev_feasibility(scenario, tol)
    target = np.asarray(aggregate_target, dtype=float)
    if target.shape != (scenario.horizon,):
        raise SolverError(f"target length {target.shape} does not match horizon {scenario.horizon}")
    mask = scenario.window_mask()
    b_max = scenario.b_max_vector
    demands = scenario.demand_vector
    caps = np.full(scenario.horizon, scenario.load_cap) - scenario.base_load
    if np.isfinite(scenario.load_cap):
        _check_cap_feasibility(scenario, mask, b_max, demands, caps, tol)
    slot_capacity = np.minimum((np.where(mask, b_max[:, None], 0.0)).sum(axis=0), caps)
    clipped = np.clip(target, 0.0, slot_capacity)
    clip_magnitude = float(np.sum(np.abs(target - clipped)))

    n = scenario.n_evs
    if n == 0:
        empty = ChargingSchedule(np.zeros((0, scenario.horizon)))
        return ProjectionResult(empty, empty, 0.0, clipped, clip_magnitude)

    upper = np.where(mask, b_max[:, None], 0.0)

    def project_target(V):
        return project_cols_capped_simplex(np.where(mask, V, 0.0), upper, clipped)

    project = _feasible_projector(mask, b_max, demands, caps, tol)
    B = project(project_target(np.zeros((n, scenario.horizon))))
    B_star = project_target(B)
    for _ in range(_ALTERNATING_MAX_ITER):
        B_new = project(B_star)
        B_star_new = project_target(B_new)
        delta = max(np.max(np.abs(B_new - B)), np.max(np.abs(B_star_new - B_star)))
        B, B_star = B_new, B_star_new
        if delta < 0.1 * tol:
            break
    distance = float(np.sum((B - B_star) ** 2))
    if distance < tol * tol:
        distance = 0.0 if np.allclose(B, B_star, atol=tol) else distance
    return ProjectionResult(
        schedule=ChargingSchedule(B),
        surrogate=ChargingSchedule(B_star),
        distance=distance,
        clipped_target=clipped,
        clip_magnitude=clip_magnitude,
    )
