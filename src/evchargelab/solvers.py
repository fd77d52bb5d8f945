"""Deterministic optimization: offline oracle, rolling step, projection allocator.

The offline problem is a convex QP whose bill depends only on the slot
totals. The oracle and the rolling step solve it exactly by a decomposition
into max-flows (`_decompose`). Whether a finite load cap admits the demands
at all is decided once per solve by a max-flow, whose minimum cut is the
infeasibility certificate. The feasible-set projection (for the KKT residual
and the allocator) is exact: a row-wise capped-simplex projection when the
load cap is slack, and projected Newton on the slot multipliers of the cap
when it binds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ChargingSchedule, Scenario, bill
from .projections import _row_shifts, project_cols_capped_simplex, project_rows_capped_simplex

DEFAULT_TOL = 1e-6
DEFAULT_MAX_ITER = 50000
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
    amounts: np.ndarray  # (n_active, len(window)), rows in `ev_ids` order


@dataclass(frozen=True)
class ProjectionResult:
    schedule: ChargingSchedule
    surrogate: ChargingSchedule  # column sums equal the clipped aggregate target
    distance: float  # squared-norm gap between the two
    clipped_target: np.ndarray
    clip_magnitude: float  # total kWh removed from the raw target
    iterations: int  # descent rounds; 0 when a max-flow met the target exactly


def _check_per_ev_feasibility(ids, upper, demands, tol: float):
    """Raise InfeasibleScenarioError for the first EV whose demand its window cannot deliver."""
    deliverable = upper.sum(axis=1)
    over = np.flatnonzero(demands > deliverable + tol)
    if over.size:
        i = over[0]
        raise InfeasibleScenarioError(f"EV {ids[i]}: demand {demands[i]} exceeds deliverable {float(deliverable[i])}")


def _max_flow(supply, upper, room):
    """Max-flow source -> EV i (supply[i]) -> slot t (upper[i, t]) -> sink (room[t]).

    Dinic's blocking-flow method (Dinic 1970) on the residual graph. Returns
    the flow value, the source side of a minimum cut as boolean masks over
    EVs and slots, and the EV -> slot flows as an (n, T) matrix.
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
    rows, cols = np.nonzero(upper > 0.0)
    for i, t in zip(rows, cols):
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
    # An edge's flow is the capacity its reverse edge has gained.
    flows = np.zeros((n, T))
    flows[rows, cols] = cap[2 * n + 1 : 2 * (n + rows.size) : 2]
    return flow, side[1 : n + 1], side[n + 1 : sink], flows


def _check_cap_feasibility(ids, upper, demands, window: range, scenario: Scenario, tol: float):
    """Raise InfeasibleScenarioError, with a minimum cut, unless the load cap admits every demand.

    Row i of `upper` and `demands` belongs to the EV with id ids[i], and
    column j to slot window[j].
    """
    caps = scenario.load_cap - scenario.base_load[window.start - 1 : window.stop - 1]
    flow, evs, slots, _ = _max_flow(demands, upper, caps)
    if flow >= demands.sum() - tol:
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


def _decompose(ids, upper, demands, window: range, scenario: Scenario, tol: float):
    """Exact least-bill schedule over the slots of `window` with 0 <= X <= upper and row sums =
    demands, and its max-flow count.

    The bill depends only on the slot totals S, as sum k1*(S_t + c_t)^2 plus a
    constant, with c = base + k0/(2*k1), and the achievable S form a
    polymatroid base, so the decomposition algorithm finds the optimum with a
    few max-flows (Fujishige 1980). On a block of EVs and slots it routes the
    water level S_t = clip(lam - c_t, 0, slot room) that meets the demand. If
    the flow carries every demand, it is the block's schedule. Otherwise the
    minimum cut splits the block: the source-side EVs charge at full rate on
    the sink-side slots and keep the rest of their demand for the
    source-side slots (a high block); the other EVs take the sink-side slots,
    with that full-rate load added to c (a low block). The optimum also has
    the least peak of base plus EV load, so a load cap that admits the
    demands (a max-flow decides, with a minimum cut as certificate) never
    binds it. With k1 = 0 every feasible schedule costs the same, and one
    max-flow returns one; otherwise identical EVs get identical rows.
    """
    _check_per_ev_feasibility(ids, upper, demands, tol)
    pm, base = scenario.price, scenario.base_load[window.start - 1 : window.stop - 1]
    if np.isfinite(scenario.load_cap):
        _check_cap_feasibility(ids, upper, demands, window, scenario, tol)
    if pm.k1 == 0.0:
        return _max_flow(demands, upper, np.minimum(scenario.load_cap - base, upper.sum(axis=0)))[3], 1
    X = np.zeros(upper.shape)
    flows = 0
    stack = [(np.arange(upper.shape[0]), np.arange(upper.shape[1]), demands, base + pm.k0 / (2.0 * pm.k1))]
    while stack:
        rows, cols, d, c = stack.pop()
        U = upper[np.ix_(rows, cols)]
        room = U.sum(axis=0)
        level = np.clip(-c - _row_shifts(-c[None, :], room[None, :], np.array([d.sum()])), 0.0, room)
        _, evs, slots, F = _max_flow(d, U, level)
        flows += 1
        # No source-side EV: every demand is met. All slots on the source
        # side: the flow is short by rounding only.
        if not evs.any() or slots.all():
            X[np.ix_(rows, cols)] = F
            continue
        full = U[evs][:, ~slots]
        X[np.ix_(rows[evs], cols[~slots])] = full
        for block in ((rows[evs], cols[slots], np.maximum(d[evs] - full.sum(axis=1), 0.0), c[slots]),
                      (rows[~evs], cols[~slots], d[~evs], c[~slots] + full.sum(axis=0))):
            if block[0].size and block[1].size:
                stack.append(block)
    group = np.unique(np.column_stack([upper, demands]), axis=0, return_inverse=True)[1].reshape(-1)
    sums = np.zeros((group.max() + 1, upper.shape[1]))
    np.add.at(sums, group, X)
    return sums[group] / np.bincount(group)[group, None], flows


def solve_offline(scenario: Scenario, tol: float = DEFAULT_TOL) -> QpSolution:
    """Minimize total charging cost with full knowledge of the fleet.

    The schedule is exact (`_decompose`); `iterations` counts its max-flows
    and `kkt_residual` is the schedule's projected-gradient residual.
    """
    if scenario.n_evs == 0:
        return QpSolution(ChargingSchedule(np.zeros((0, scenario.horizon))), 0.0, 0, 0.0)
    ids = [ev.id for ev in scenario.evs]
    upper = np.where(scenario.mask, scenario.b_max[:, None], 0.0)
    B, flows = _decompose(ids, upper, scenario.demand, range(1, scenario.horizon + 1), scenario, tol)
    return QpSolution(ChargingSchedule(B), bill(B.sum(axis=0), scenario.base_load, scenario.price), flows,
                      kkt_residual(B, scenario, tol))


def kkt_residual(B, scenario: Scenario, tol=DEFAULT_TOL) -> float:
    """Fixed-point residual of the projected-gradient map (0 at a KKT point); refuses an unreachable cap."""
    pm, mask, demands = scenario.price, scenario.mask, scenario.demand
    caps = scenario.load_cap - scenario.base_load
    if np.isfinite(scenario.load_cap):
        _check_cap_feasibility([ev.id for ev in scenario.evs], np.where(mask, scenario.b_max[:, None], 0.0),
                               demands, range(1, scenario.horizon + 1), scenario, tol)
    project = _feasible_projector(mask, scenario.b_max, demands, caps, tol)
    grad_slot = pm.k0 + 2.0 * pm.k1 * (B.sum(axis=0) + scenario.base_load)
    step = 1.0 / (2.0 * pm.k1 * max(scenario.n_evs, 1)) if pm.k1 > 0 else 1.0
    moved = project(B - step * np.where(mask, grad_slot[None, :], 0.0))
    return float(np.max(np.abs(B - moved), initial=0.0) / step)


def solve_rolling_step(scenario: Scenario, t: int, residuals: dict[int, float], tol: float = DEFAULT_TOL) -> RollingStepResult:
    """Re-solve the window problem at slot t for the currently parked EVs.

    residuals maps parked EV ids to their remaining demand; negative
    residuals are rejected. The window runs from t to the last departure.
    """
    if any(r < -tol for r in residuals.values()):
        raise SolverError("residual demands must be non-negative")
    rows = [row for row, ev in enumerate(scenario.evs) if ev.id in residuals and scenario.mask[row, t - 1]]
    if not rows:
        raise SolverError(f"no EV parked at slot {t}")
    ids = tuple(scenario.evs[row].id for row in rows)
    t_end = int(scenario.t_dep[rows].max())
    upper = np.where(scenario.mask[rows, t - 1 : t_end], scenario.b_max[rows, None], 0.0)
    demands = np.maximum([residuals[i] for i in ids], 0.0)
    window = range(t, t_end + 1)
    amounts, _ = _decompose(ids, upper, demands, window, scenario, tol)
    return RollingStepResult(ev_ids=ids, window=window, amounts=amounts)


def project_allocation(aggregate_target, scenario: Scenario, tol: float = DEFAULT_TOL) -> ProjectionResult:
    """Split a per-slot aggregate charging target into a demand-feasible schedule.

    The target is first clipped to what the parked fleet and the load cap can
    absorb per slot; the clipped amount is reported, never raised. A clipped
    target that some schedule meets is split exactly by a max-flow, with
    distance 0. Otherwise accelerated projected gradient with step 1 on
    f(B) = 0.5 |B - P(B)|^2 over the feasible set, P the projection onto the
    target-matching set, finds the closest pair (B, P(B)); its momentum
    restarts when the step goes against the gradient at the extrapolated
    point (Beck & Teboulle 2009; O'Donoghue & Candes 2015).
    """
    mask, b_max, demands = scenario.mask, scenario.b_max, scenario.demand
    ids = [ev.id for ev in scenario.evs]
    upper = np.where(mask, b_max[:, None], 0.0)
    _check_per_ev_feasibility(ids, upper, demands, tol)
    target = np.asarray(aggregate_target, dtype=float)
    if target.shape != (scenario.horizon,):
        raise SolverError(f"target length {target.shape} does not match horizon {scenario.horizon}")
    caps = scenario.load_cap - scenario.base_load
    if np.isfinite(scenario.load_cap):
        _check_cap_feasibility(ids, upper, demands, range(1, scenario.horizon + 1), scenario, tol)
    clipped = np.clip(target, 0.0, np.minimum(upper.sum(axis=0), caps))
    clip_magnitude = float(np.sum(np.abs(target - clipped)))

    if abs(clipped.sum() - demands.sum()) <= tol:
        flow, _, _, X = _max_flow(demands, upper, clipped)
        if flow >= demands.sum() - tol:
            return ProjectionResult(ChargingSchedule(X), ChargingSchedule(X.copy()), 0.0, clipped, clip_magnitude, 0)
    project = _feasible_projector(mask, b_max, demands, caps, tol)
    B = Y = project(project_cols_capped_simplex(np.zeros(upper.shape), upper, clipped))
    t_mom = 1.0
    for iterations in range(1, DEFAULT_MAX_ITER + 1):
        B_new = project(project_cols_capped_simplex(Y, upper, clipped))
        step = B_new - B
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_mom * t_mom))
        if np.sum((Y - B_new) * step) > 0.0:
            t_next, Y = 1.0, B_new
        else:
            Y = B_new + ((t_mom - 1.0) / t_next) * step
        B, t_mom = B_new, t_next
        if np.max(np.abs(step)) < 0.1 * tol:
            break
    B_star = project_cols_capped_simplex(B, upper, clipped)
    return ProjectionResult(ChargingSchedule(B), ChargingSchedule(B_star), float(np.sum((B - B_star) ** 2)),
                            clipped, clip_magnitude, iterations)
