"""Offline oracle, rolling step, and projection allocator tests.

SciPy (QP and LP references) and networkx (max-flow) serve only as
oracles here; the library itself is NumPy-only.
"""

from dataclasses import replace
from functools import lru_cache

import networkx as nx
import numpy as np
import pytest
from scipy.optimize import linprog, minimize

from evchargelab.baselines import ec_schedule
from evchargelab.harness import benchmark_spec, build_scenario
from evchargelab.model import ChargingSchedule, horizon_cost, validate_schedule
from evchargelab.projections import project_rows_capped_simplex
from evchargelab.solvers import (
    InfeasibleScenarioError,
    _feasible_projector,
    _max_flow,
    kkt_residual,
    project_allocation,
    solve_offline,
    solve_rolling_step,
)

from conftest import make_ev, make_scenario, random_feasible_scenario
from test_scenario import five_ev_fleet


def grid_best_cost(scenario, step=0.1):
    """Exhaustive search over per-EV grid schedules; tiny instances only."""
    from itertools import product

    n, t = scenario.n_evs, scenario.horizon
    mask = scenario.mask
    best = np.inf
    per_ev_options = []
    for i, ev in enumerate(scenario.evs):
        slots = np.nonzero(mask[i])[0]
        levels = np.round(np.arange(0.0, ev.b_max + step / 2, step), 10)
        rows = []
        for combo in product(levels, repeat=len(slots)):
            if abs(sum(combo) - ev.demand_kwh) < step / 2:
                row = np.zeros(t)
                row[slots] = combo
                rows.append(row)
        per_ev_options.append(rows)
    for rows in product(*per_ev_options):
        sched = ChargingSchedule(np.stack(rows))
        totals = sched.slot_totals() + scenario.base_load
        if np.any(totals > scenario.load_cap + 1e-9):
            continue
        best = min(best, horizon_cost(sched, scenario))
    return best


class TestSolveOffline:
    def test_symmetric_split(self):
        scn = make_scenario([make_ev(demand=4.0)], horizon=2, base_load=[1.0, 1.0], k1=0.5)
        sol = solve_offline(scn)
        assert sol.schedule.amounts[0] == pytest.approx([2.0, 2.0], abs=1e-5)

    def test_asymmetric_base_load(self):
        # Stationarity with l_b = (0, 2), k0 = 0, k1 = 0.5: b1 - (4 - b1) - 2 = 0.
        scn = make_scenario([make_ev(demand=4.0)], horizon=2, base_load=[0.0, 2.0], k0=0.0, k1=0.5)
        sol = solve_offline(scn)
        assert sol.schedule.amounts[0] == pytest.approx([3.0, 1.0], abs=1e-5)

    def test_linear_price_objective(self):
        # k1 = 0: every demand-feasible schedule has the same cost k0 * sum(D).
        evs = [make_ev(0, 1, 3, demand=4.0, b_max=2.0), make_ev(1, 2, 4, demand=3.0, b_max=2.0)]
        scn = make_scenario(evs, horizon=4, base_load=[1.0] * 4, k0=0.25, k1=0.0)
        sol = solve_offline(scn)
        assert sol.objective == pytest.approx(0.25 * 7.0, abs=1e-6)
        assert validate_schedule(sol.schedule, scn).passed

    def test_certificate_and_validation(self, rng):
        for k in range(10):
            scn = random_feasible_scenario(np.random.default_rng(k), with_cap=(k % 2 == 0))
            sol = solve_offline(scn)
            assert validate_schedule(sol.schedule, scn, tol=1e-5).passed
            assert sol.kkt_residual <= 1e-5

    def test_matches_grid_search(self):
        rng = np.random.default_rng(5)
        for k in range(5):
            n = int(rng.integers(1, 3))
            horizon = int(rng.integers(2, 4))
            evs = []
            for i in range(n):
                t_arr = int(rng.integers(1, horizon))
                t_dep = int(rng.integers(t_arr + 1, horizon + 1))
                demand = round(float(rng.uniform(0.2, 1.2)), 1)
                evs.append(make_ev(i, t_arr, t_dep, demand, b_max=1.0))
            scn = make_scenario(evs, horizon, rng.uniform(0, 3, horizon), k1=0.05)
            sol = solve_offline(scn)
            brute = grid_best_cost(scn, step=0.1)
            # Grid answers are only as fine as the step; allow Lipschitz slack.
            lipschitz = max(
                scn.price.k0 + 2 * scn.price.k1 * (scn.base_load.max() + sum(e.b_max for e in evs))
                for e in evs
            )
            slack = lipschitz * 0.1 * n * horizon
            assert sol.objective <= brute + 1e-6
            assert sol.objective >= brute - slack

    def test_infeasible_demand_detected(self):
        ev = make_ev(demand=4.0, b_max=1.0, t_arr=1, t_dep=2)
        scn = make_scenario([ev], horizon=2)
        with pytest.raises(InfeasibleScenarioError):
            solve_offline(scn)

    def test_infeasible_cap_detected(self):
        # 12 kWh of demand against 4 kWh of room in each of slots 1 and 2:
        # the minimum cut holds all three EVs and both slots.
        evs = [make_ev(i, 1, 2, demand=4.0, b_max=2.0) for i in range(3)]
        scn = make_scenario(evs, horizon=2, base_load=[4.0, 4.0], load_cap=8.0)
        with pytest.raises(InfeasibleScenarioError, match=r"EVs 0, 1, 2 need 12\.000 kWh.*slots 1, 2 .*8\.000 kWh"):
            solve_offline(scn)

    def test_infeasible_cap_refused_by_allocation(self):
        evs = [make_ev(i, 1, 2, demand=4.0, b_max=2.0) for i in range(3)]
        scn = make_scenario(evs, horizon=2, base_load=[4.0, 4.0], load_cap=8.0)
        with pytest.raises(InfeasibleScenarioError, match="slots 1, 2 "):
            project_allocation(np.array([6.0, 6.0]), scn)

    def test_tight_cap_solves_at_uncapped_cost(self):
        # Regression (fault F2): 1.001x the least achievable peak of fleet 104
        # was reported infeasible. The exact uncapped optimum also has the
        # least peak, on fleet 104's flat base load and on non-flat ones, so
        # a cap just above that peak must leave the cost as it is.
        scn, peak = fleet_104()
        instances = [(scn, 1.001 * peak)]
        for k in range(30):
            rng = np.random.default_rng(400 + k)
            scn = random_feasible_scenario(rng)
            scn = replace(scn, base_load=rng.uniform(0.0, 6.0, scn.horizon))
            instances.append((scn, lp_min_peak(scn) + 1e-6))
        for scn, cap in instances:
            uncapped = solve_offline(scn)
            capped = replace(scn, load_cap=cap)
            sol = solve_offline(capped)
            assert validate_schedule(sol.schedule, capped, tol=1e-6).passed
            assert sol.objective == pytest.approx(uncapped.objective, rel=1e-9)

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_exact_on_benchmark_fleets(self, seed):
        # No EV charges in a slot dearer than one where it has room.
        scn = build_scenario(benchmark_spec(), seed)[0]
        assert price_gap(scn, solve_offline(scn).schedule.amounts).max() <= 1e-9

    def test_load_cap_respected(self):
        evs = [make_ev(i, 1, 4, demand=6.0, b_max=3.0) for i in range(2)]
        scn = make_scenario(evs, horizon=4, base_load=[1.0] * 4, load_cap=5.0)
        sol = solve_offline(scn)
        report = validate_schedule(sol.schedule, scn, tol=1e-5)
        assert report.passed
        assert np.all(sol.schedule.slot_totals() + scn.base_load <= 5.0 + 1e-5)

    def test_epsilon_oscillation_at_optimum_converges(self):
        # Regression: an iterate parked at the optimum can flip its objective
        # by one float epsilon, triggering a momentum restart on exactly the
        # iterations that carry the convergence check; this instance used to
        # spin for the full iteration budget and raise.
        evs = [
            make_ev(0, 1, 2, demand=6.017815107008625, b_max=3.62184061204899, capacity=40.0),
            make_ev(2, 1, 2, demand=0.4560825295308928, b_max=1.879455530703803, capacity=40.0),
        ]
        scn = make_scenario(evs, horizon=2, base_load=[4.6650511604379945, 4.596971254147205])
        sol = solve_offline(scn)
        assert sol.iterations < 1000
        assert sol.objective == pytest.approx(0.72830450654, abs=1e-8)


def price_gap(scn, X):
    """Per EV: the price of its dearest charging slot less that of its cheapest slot with room."""
    price = scn.price.k0 + 2.0 * scn.price.k1 * (scn.base_load + X.sum(axis=0))
    charging = scn.mask & (X > 1e-9)
    room = scn.mask & (X < scn.b_max[:, None] - 1e-9)
    return np.where(charging, price, -np.inf).max(axis=1) - np.where(room, price, np.inf).min(axis=1)


@lru_cache(maxsize=None)
def fleet_104():
    """Shipped-distribution fleet 104 and its least achievable peak."""
    scn = build_scenario(benchmark_spec(), 104)[0]
    return scn, lp_min_peak(scn)


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


def qp_projection(V, mask, b_max, demands, caps):
    """Reference projection onto the capped set by SciPy's SLSQP."""
    rows, cols = np.nonzero(mask)
    m = rows.size
    a_eq = np.zeros((mask.shape[0], m))
    a_eq[rows, np.arange(m)] = 1.0
    a_ub = np.zeros((mask.shape[1], m))
    a_ub[cols, np.arange(m)] = 1.0
    v = V[mask]
    constraints = [
        {"type": "eq", "fun": lambda x: a_eq @ x - demands, "jac": lambda x: a_eq},
        {"type": "ineq", "fun": lambda x: caps - a_ub @ x, "jac": lambda x: -a_ub},
    ]
    start = project_rows_capped_simplex(V, b_max, demands, mask)[mask]
    res = minimize(lambda x: 0.5 * np.sum((x - v) ** 2), start, jac=lambda x: x - v, method="SLSQP",
                   bounds=[(0.0, b_max[i]) for i in rows], constraints=constraints,
                   options={"ftol": 1e-16, "maxiter": 500})
    X = np.zeros(mask.shape)
    X[mask] = res.x
    return X


def random_capped_instance(rng):
    """Windows, rates, demands and binding caps that some schedule meets.

    About a quarter of the EVs need their full rate in every slot, which
    leaves their rows with no entry strictly inside its bounds.
    """
    n, horizon = int(rng.integers(2, 9)), int(rng.integers(2, 10))
    mask = np.zeros((n, horizon), dtype=bool)
    b_max = rng.uniform(1.0, 4.0, n)
    for i in range(n):
        start = int(rng.integers(0, horizon))
        mask[i, start : int(rng.integers(start, horizon)) + 1] = True
    full = rng.random(n) < 0.25
    demands = np.where(full, b_max * mask.sum(axis=1), rng.uniform(0.0, 1.0, n) * b_max * mask.sum(axis=1))
    feasible = project_rows_capped_simplex(rng.normal(1.0, 2.0, (n, horizon)), b_max, demands, mask)
    caps = feasible.sum(axis=0) + rng.uniform(0.0, 0.5, horizon)
    return mask, b_max, demands, caps


def networkx_max_flow(mask, b_max, demands, caps):
    graph = nx.DiGraph()
    for i, d in enumerate(demands):
        graph.add_edge("source", ("ev", i), capacity=float(d))
    for i, t in zip(*np.nonzero(mask)):
        graph.add_edge(("ev", i), ("slot", t), capacity=float(b_max[i]))
    for t, c in enumerate(caps):
        graph.add_edge(("slot", t), "sink", capacity=float(c))
    return nx.maximum_flow_value(graph, "source", "sink")


class TestCappedProjection:
    def test_matches_qp_reference(self):
        # The last instance is fleet 104 at 1.02x its least peak, where
        # Dykstra started from the row projection of V instead of from V
        # misses the projection: 0.5*|X - V|^2 = 652.23 against 635.10.
        rng = np.random.default_rng(2024)
        instances = [random_capped_instance(rng) for _ in range(19)]
        scn, peak = fleet_104()
        scn = replace(scn, load_cap=1.02 * peak)
        instances.append((scn.mask, scn.b_max, scn.demand, scn.load_cap - scn.base_load))
        for k, (mask, b_max, demands, caps) in enumerate(instances):
            V = (np.random.default_rng(0).normal(2.0, 2.0, mask.shape) if k == 19
                 else rng.normal(1.0, 3.0, mask.shape))
            X = _feasible_projector(mask, b_max, demands, caps, 1e-6)(V)
            assert np.max(np.abs(X - qp_projection(V, mask, b_max, demands, caps))) <= 1e-9

    def test_warm_start_keeps_the_answer(self):
        rng = np.random.default_rng(7)
        mask, b_max, demands, caps = random_capped_instance(rng)
        warm = _feasible_projector(mask, b_max, demands, caps, 1e-6)
        for _ in range(5):
            V = rng.normal(1.0, 3.0, mask.shape)
            cold = _feasible_projector(mask, b_max, demands, caps, 1e-6)(V)
            assert warm(V) == pytest.approx(cold, abs=1e-10)


class TestCapFeasibility:
    def test_flow_matches_networkx(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            mask, b_max, demands, caps = random_capped_instance(rng)
            caps = caps * rng.uniform(0.5, 1.2, caps.size)  # some unreachable
            upper = np.where(mask, b_max[:, None], 0.0)
            flow, evs, slots, X = _max_flow(demands, upper, caps)
            reference = networkx_max_flow(mask, b_max, demands, caps)
            assert flow == pytest.approx(reference, abs=1e-9)
            # The flow matrix is a feasible flow of that value.
            assert X.min() >= 0.0 and np.all(X <= upper)
            assert np.all(X.sum(axis=1) <= demands + 1e-9) and np.all(X.sum(axis=0) <= caps + 1e-9)
            assert X.sum() == pytest.approx(reference, abs=1e-9)
            # The source side is a minimum cut: its capacity is the flow.
            cut = demands[~evs].sum() + upper[evs][:, ~slots].sum() + caps[slots].sum()
            assert cut == pytest.approx(flow, abs=1e-9)

    @pytest.mark.parametrize("factor, feasible", [(0.97, False), (1.001, True)])
    def test_fleet_104_verdict(self, factor, feasible):
        scn, peak = fleet_104()
        scn = replace(scn, load_cap=factor * peak)
        mask, b_max, demands = scn.mask, scn.b_max, scn.demand
        caps = scn.load_cap - scn.base_load
        reference = networkx_max_flow(mask, b_max, demands, caps)
        flow, _, _, _ = _max_flow(demands, np.where(mask, b_max[:, None], 0.0), caps)
        assert flow == pytest.approx(reference, abs=1e-9)
        assert bool(reference >= demands.sum() - 1e-6) == feasible
        if feasible:
            solve_offline(scn)
        else:
            with pytest.raises(InfeasibleScenarioError, match="unreachable"):
                solve_offline(scn)


class TestKktResidual:
    def test_zero_at_optimum(self):
        scn = make_scenario([make_ev(demand=4.0)], horizon=2, base_load=[1.0, 1.0], k1=0.5)
        sol = solve_offline(scn, tol=1e-8)
        assert kkt_residual(sol.schedule.amounts, scn) <= 1e-7

    def test_unreachable_cap_refused(self):
        # The instance of test_infeasible_cap_detected, checked without a solve.
        evs = [make_ev(i, 1, 2, demand=4.0, b_max=2.0) for i in range(3)]
        scn = make_scenario(evs, horizon=2, base_load=[4.0, 4.0], load_cap=8.0)
        with pytest.raises(InfeasibleScenarioError, match=r"EVs 0, 1, 2 need 12\.000 kWh"):
            kkt_residual(np.full((3, 2), 2.0), scn)

    def test_zero_for_empty_fleet(self):
        assert kkt_residual(np.zeros((0, 3)), make_scenario([], horizon=3)) == 0.0

    def test_positive_off_optimum(self):
        scn = make_scenario([make_ev(demand=4.0)], horizon=2, base_load=[1.0, 1.0], k1=0.5)
        bad = np.array([[4.0, 0.0]])
        assert kkt_residual(bad, scn) > 1e-3


class TestRollingStep:
    def test_forced_single_slot(self):
        ev = make_ev(1, t_arr=3, t_dep=3, demand=2.0, b_max=3.0)
        scn = make_scenario([ev], horizon=4, base_load=[1.0] * 4)
        step = solve_rolling_step(scn, 3, {1: 2.0})
        assert step.ev_ids == (1,) and step.window == range(3, 4)
        assert step.amounts[:, 0] == pytest.approx([2.0])

    def test_window_spans_fig1_instance(self):
        scn = make_scenario(five_ev_fleet(), horizon=10, base_load=[1.0] * 10)
        residuals = {ev.id: ev.demand_kwh for ev, parked in zip(scn.evs, scn.mask[:, 3]) if parked}
        step = solve_rolling_step(scn, 4, residuals)
        assert sorted(step.ev_ids) == [2, 3, 4, 5]
        assert list(step.window) == [4, 5, 6, 7, 8, 9]

    def test_identical_evs_split_equally(self):
        evs = [make_ev(i, 1, 3, demand=3.0, b_max=2.0) for i in range(2)]
        scn = make_scenario(evs, horizon=3, base_load=[2.0] * 3, k1=0.1)
        step = solve_rolling_step(scn, 1, {0: 3.0, 1: 3.0})
        assert step.amounts[0, 0] == pytest.approx(step.amounts[1, 0], abs=1e-5)

    def test_unreachable_cap_names_parked_evs(self):
        # Rows 1 and 2 are parked at slot 2; their ids are not their rows.
        evs = [make_ev(7, 1, 1, demand=0.5), make_ev(3, 2, 3, demand=2.0, b_max=2.0),
               make_ev(5, 2, 3, demand=2.0, b_max=2.0)]
        scn = make_scenario(evs, horizon=3, base_load=[4.0] * 3, load_cap=5.0)
        with pytest.raises(InfeasibleScenarioError, match=r"EVs 3, 5 need 4\.000 kWh.*slots 2, 3 "):
            solve_rolling_step(scn, 2, {3: 2.0, 5: 2.0})

    def test_residual_exceeding_window_rejected(self):
        ev = make_ev(1, t_arr=2, t_dep=3, demand=2.0, b_max=1.0)
        scn = make_scenario([ev], horizon=3)
        with pytest.raises(InfeasibleScenarioError):
            solve_rolling_step(scn, 3, {1: 2.0})


class TestProjectAllocation:
    def test_equalities_force_allocation(self):
        evs = [make_ev(0, 1, 1, demand=3.0, b_max=4.0), make_ev(1, 1, 1, demand=1.0, b_max=4.0)]
        scn = make_scenario(evs, horizon=1, base_load=[0.0])
        res = project_allocation(np.array([4.0]), scn)
        assert res.schedule.amounts[:, 0] == pytest.approx([3.0, 1.0], abs=1e-6)
        assert res.distance == pytest.approx(0.0, abs=1e-9)

    def test_symmetric_demands(self):
        evs = [make_ev(i, 1, 1, demand=2.0, b_max=4.0) for i in range(2)]
        scn = make_scenario(evs, horizon=1, base_load=[0.0])
        res = project_allocation(np.array([4.0]), scn)
        assert res.schedule.amounts[:, 0] == pytest.approx([2.0, 2.0], abs=1e-6)

    def test_target_clipped_to_box(self):
        scn = make_scenario([make_ev(0, 1, 2, demand=4.0, b_max=4.0)], horizon=2)
        res = project_allocation(np.array([5.0, 0.0]), scn)
        assert res.clipped_target == pytest.approx([4.0, 0.0])
        assert res.clip_magnitude == pytest.approx(1.0)
        assert res.schedule.amounts[0] == pytest.approx([4.0, 0.0], abs=1e-6)
        assert res.distance == pytest.approx(0.0, abs=1e-8)

    def test_idempotent_on_feasible_sums(self, rng):
        for k in range(5):
            scn = random_feasible_scenario(np.random.default_rng(100 + k))
            base = solve_offline(scn).schedule
            res = project_allocation(base.slot_totals(), scn)
            assert res.schedule.slot_totals() == pytest.approx(base.slot_totals(), abs=1e-5)
            assert res.distance == pytest.approx(0.0, abs=1e-6)
            assert validate_schedule(res.schedule, scn, tol=1e-5).passed

    def test_schedule_always_demand_feasible(self, rng):
        # Even wildly infeasible targets must come back as valid schedules.
        for k in range(5):
            scn = random_feasible_scenario(np.random.default_rng(200 + k))
            target = rng.uniform(0, 20, scn.horizon)
            res = project_allocation(target, scn)
            assert validate_schedule(res.schedule, scn, tol=1e-5).passed

    @pytest.mark.parametrize("seed", [100, 101, 102, 103, 104])
    def test_achievable_split_is_exact(self, seed):
        # Regression (fault F1): EC's own slot totals were missed by up to
        # 0.02 kWh after 2000 rounds of alternating projections.
        scn = build_scenario(benchmark_spec(), seed)[0]
        target = ec_schedule(scn).slot_totals()
        res = project_allocation(target, scn)
        assert res.distance == 0.0 and res.iterations == 0
        assert np.max(np.abs(res.schedule.slot_totals() - target)) <= 1e-9
        assert validate_schedule(res.schedule, scn).passed

    @pytest.mark.parametrize("capped", [False, True])
    def test_unachievable_distance_matches_qp(self, capped):
        rng = np.random.default_rng(31 + capped)
        for k in range(10):
            scn = random_feasible_scenario(np.random.default_rng(300 + k), n_max=6, t_max=8)
            if capped:
                scn = replace(scn, load_cap=lp_min_peak(scn) + 0.1)
            target = rng.uniform(0.0, 2.0, scn.horizon) * scn.demand.sum() / scn.horizon
            res = project_allocation(target, scn)
            assert res.iterations > 0
            assert validate_schedule(res.schedule, scn, tol=1e-6).passed
            assert res.distance == pytest.approx(qp_closest_pair(scn, res.clipped_target), abs=1e-7)


def qp_closest_pair(scn, clipped):
    """min |B - B*|^2 over demand-feasible B and B* with column sums = clipped, by SLSQP."""
    mask = scn.mask
    rows, cols = np.nonzero(mask)
    m = rows.size
    ones = np.zeros((scn.n_evs, m))
    ones[rows, np.arange(m)] = 1.0
    by_slot = np.zeros((scn.horizon, m))
    by_slot[cols, np.arange(m)] = 1.0
    zero = np.zeros_like(by_slot)
    used = mask.any(axis=0)  # an empty slot's equation 0 = 0 would make the system singular
    a_eq = np.block([[ones, np.zeros_like(ones)], [zero[used], by_slot[used]]])
    b_eq = np.concatenate([scn.demand, clipped[used]])
    a_ub = np.hstack([by_slot, zero])
    room = np.minimum(scn.load_cap - scn.base_load, 1e6)
    diff = np.hstack([np.eye(m), -np.eye(m)])
    constraints = [
        {"type": "eq", "fun": lambda x: a_eq @ x - b_eq, "jac": lambda x: a_eq},
        {"type": "ineq", "fun": lambda x: room - a_ub @ x, "jac": lambda x: -a_ub},
    ]
    start = np.concatenate([project_rows_capped_simplex(np.zeros(mask.shape), scn.b_max,
                                                        scn.demand, mask)[mask], np.zeros(m)])
    bounds = [(0.0, scn.b_max[i]) for i in rows] * 2
    res = minimize(lambda x: np.sum((diff @ x) ** 2), start, jac=lambda x: 2.0 * diff.T @ (diff @ x),
                   method="SLSQP", bounds=bounds, constraints=constraints,
                   options={"ftol": 1e-16, "maxiter": 1000})
    return float(res.fun)
