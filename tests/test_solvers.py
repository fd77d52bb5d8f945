"""Offline oracle, rolling step, and target split tests.

SciPy (QP and LP references) and networkx (max-flow) serve only as
oracles here; the library itself is NumPy-only.
"""

import hashlib
from dataclasses import replace
from functools import lru_cache
from pathlib import Path

import networkx as nx
import numpy as np
import pytest
from scipy.optimize import minimize

from evchargelab.baselines import ec_schedule
from evchargelab.harness import benchmark_spec, benchmark_train_config, build_scenario
from evchargelab.model import ChargingSchedule, horizon_cost, validate_schedule
from evchargelab.projections import project_rows_capped_simplex
from evchargelab.rl import calc_schedule, load_policy
from evchargelab.rl.nets import policy_forward
from evchargelab.scenario import synthetic_base_load
from evchargelab.solvers import (
    InfeasibleScenarioError,
    SolverError,
    _max_flow,
    kkt_residual,
    project_allocation,
    solve_offline,
    solve_rolling_step,
)

from conftest import lp_min_peak, make_ev, make_scenario, random_binding_cap_scenario, random_feasible_scenario
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

    @pytest.mark.parametrize("base, digest", ids=["flat", "synthetic"], argvalues=[
        ("flat", "ed9230d6077db4c4c5adfa1317f61c36bc38b7f215e9039ec99f9933d7a9e861"),
        ("synthetic", "14607aa061c2e77b6ea9bfd5ff04ed17a3fd83b358d743a756ac9d0dfb22d8c4"),
    ])
    def test_schedules_bit_exact_on_benchmark_fleets(self, base, digest):
        # SHA-256 of the oracle's schedules on benchmark fleets 1-20, as recorded when
        # `_max_flow` built its graph edge by edge: the array-built graph keeps every
        # edge's place, so every flow, cut and schedule keeps its bits.
        sha = hashlib.sha256()
        for seed in range(1, 21):
            scn = build_scenario(benchmark_spec(), seed)[0]
            if base == "synthetic":
                scn = replace(scn, base_load=synthetic_base_load(scn.horizon))
            sha.update(solve_offline(scn).schedule.amounts.tobytes())
        assert sha.hexdigest() == digest

    @pytest.mark.parametrize("factor, digest", ids=["1.02", "1.001"], argvalues=[
        (1.02, "ebd9d2aaf525abb509766c75e1f5e1f216cf6685f4164aaf35f3b0765b1d0344"),
        (1.001, "ebd9d2aaf525abb509766c75e1f5e1f216cf6685f4164aaf35f3b0765b1d0344"),
    ])
    def test_capped_schedule_bit_exact_on_fleet_104(self, factor, digest):
        # SHA-256 of the oracle's schedule on fleet 104 under a cap just above its least
        # peak, recorded when the first max-flow phase ran as the level-graph walk. Both
        # are the uncapped schedule's: a cap the demands fit never binds the least bill.
        scn, peak = fleet_104()
        amounts = solve_offline(replace(scn, load_cap=factor * peak)).schedule.amounts
        assert hashlib.sha256(amounts.tobytes()).hexdigest() == digest

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


def reference_max_flow(supply, upper, room):
    """`_max_flow` as it was before its first phase became a greedy fill: Dinic's method with
    every phase, the first too, walking the level graph over per-node lists of (edge, head) pairs."""
    n, T = upper.shape
    sink = n + T + 1
    rows, cols = np.nonzero(upper > 0.0)
    # Edges source -> EV, EV -> slot (row-major), slot -> sink; edge 2k is
    # the k-th of them and 2k + 1 its reverse, with no capacity.
    tails = np.concatenate([np.zeros(n, dtype=np.intp), 1 + rows, 1 + n + np.arange(T)])
    heads = np.concatenate([1 + np.arange(n), 1 + n + cols, np.full(T, sink)])
    ends = np.column_stack([tails, heads]).reshape(-1)
    heads = np.column_stack([heads, tails]).reshape(-1)
    head = heads.tolist()
    cap = np.zeros(ends.size)
    cap[::2] = np.concatenate([supply, upper[rows, cols], room])
    cap = cap.tolist()
    # Each node's (edge, head) pairs in edge order: one stable sort of the edge tails.
    order = np.argsort(ends, kind="stable")
    pairs = list(zip(order.tolist(), heads[order].tolist()))
    bounds = np.concatenate([[0], np.bincount(ends, minlength=sink + 1).cumsum()]).tolist()
    adj = [pairs[bounds[u] : bounds[u + 1]] for u in range(sink + 1)]
    eps = 1e-12 * max(1.0, float(np.sum(supply)))
    flow = 0.0
    while True:
        level = [-1] * (sink + 1)
        level[0] = 0
        queue = [0]
        # Breadth-first levels, up to the sink's: a node past it is a dead end.
        for u in queue:
            below = level[u] + 1
            for e, v in adj[u]:
                if cap[e] > eps and level[v] < 0:
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
        nxt = [0] * (sink + 1)
        path, u = [], 0
        while True:
            if u == sink:
                pushed = min([cap[e] for e in path])
                for e in path:
                    cap[e] -= pushed
                    cap[e ^ 1] += pushed
                flow += pushed
                j = 0
                while cap[path[j]] > eps:
                    j += 1
                u = head[path[j] ^ 1]
                del path[j:]
                continue
            edges, i, below = adj[u], nxt[u], level[u] + 1
            k = len(edges)
            while i < k:
                e, v = edges[i]
                if cap[e] > eps and level[v] == below:
                    break
                i += 1
            nxt[u] = i
            if i == k:
                if not path:
                    break
                u = head[path.pop() ^ 1]
                nxt[u] += 1
                continue
            path.append(e)
            u = v
    side = np.array(level) >= 0
    # An edge's flow is the capacity its reverse edge has gained.
    flows = np.zeros((n, T))
    flows[rows, cols] = cap[2 * n + 1 : 2 * (n + rows.size) : 2]
    return flow, side[1 : n + 1], side[n + 1 : sink], flows


def max_flow_instance(rng):
    """Supplies, rates and rooms of a random EV -> slot graph (one EV or one slot included).

    It has zero supplies, EVs without a window and slots without room, and
    capacities at, just above and just below the flow threshold eps. In
    about a third of the draws the supplies sum below 1 kWh, so eps is
    1e-12 exactly and supplies sit at it too; in half of them the amounts
    are whole quarters, so pushes tie and leave residuals of exactly 0.
    """
    n, T = int(rng.integers(1, 7)), int(rng.integers(1, 9))
    small = rng.random() < 0.35
    supply = rng.uniform(0.0, 0.15 if small else 6.0, n)
    upper = np.where(rng.random((n, T)) < 0.6, rng.uniform(0.0, 3.0, (n, T)), 0.0)
    room = rng.uniform(0.0, 0.2 if small else 5.0, T)
    if rng.random() < 0.5:
        supply, upper, room = (np.round(4.0 * a) / 4.0 for a in (supply, upper, room))
    supply[rng.random(n) < 0.15] = 0.0
    upper[rng.random(n) < 0.15] = 0.0
    room[rng.random(T) < 0.15] = 0.0
    eps = 1e-12 * max(1.0, float(np.sum(supply)))
    near = np.array([eps, np.nextafter(eps, 0.0), np.nextafter(eps, 1.0)])
    for a in (upper, room) + ((supply,) if small else ()):
        flat = a.reshape(-1)
        hit = rng.random(flat.size) < 0.15
        flat[hit] = rng.choice(near, hit.sum())
    return supply, upper, room


def assert_max_flow_matches_networkx(mask, b_max, demands, caps):
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


class TestCapFeasibility:
    def test_flow_matches_networkx(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            mask, b_max, demands, caps = random_capped_instance(rng)
            caps = caps * rng.uniform(0.5, 1.2, caps.size)  # some unreachable
            assert_max_flow_matches_networkx(mask, b_max, demands, caps)

    def test_flow_matches_networkx_at_binding_caps(self):
        filled = 0
        for k in range(40):
            scn = random_binding_cap_scenario(np.random.default_rng(900 + k))
            caps = scn.load_cap - scn.base_load
            assert_max_flow_matches_networkx(scn.mask, scn.b_max, scn.demand, caps)
            _, _, _, X = _max_flow(scn.demand, np.where(scn.mask, scn.b_max[:, None], 0.0), caps)
            filled += np.any(X.sum(axis=0) >= caps - 1e-9)
        # The cap holds the flow back: some slot is filled to it in most draws.
        assert filled > 20

    def test_matches_the_level_graph_walk_bit_for_bit(self):
        # The greedy first phase makes the walk's pushes in the walk's order, so the flow
        # value, the cut and every byte of the flow matrix are the reference's.
        rng = np.random.default_rng(61)
        for _ in range(300):
            args = max_flow_instance(rng)
            flow, evs, slots, X = _max_flow(*args)
            ref_flow, ref_evs, ref_slots, ref_X = reference_max_flow(*args)
            assert np.float64(flow).tobytes() == np.float64(ref_flow).tobytes()
            assert np.array_equal(evs, ref_evs) and np.array_equal(slots, ref_slots)
            assert X.tobytes() == ref_X.tobytes()

    @pytest.mark.parametrize("case", ["zero supply", "EV without a window", "slot without room", "one EV, one slot"])
    def test_flow_matches_networkx_at_the_edges(self, case):
        mask = np.array([[True, True, False], [False, True, True], [True, False, True]])
        b_max, demands, caps = np.array([2.0, 1.5, 3.0]), np.array([3.0, 2.0, 4.0]), np.array([2.5, 3.0, 4.0])
        if case == "zero supply":
            demands = np.zeros(3)
        elif case == "EV without a window":
            mask[1] = False
        elif case == "slot without room":
            caps[1] = 0.0
        else:
            mask, b_max, demands, caps = np.array([[True]]), np.array([2.0]), np.array([3.0]), np.array([2.5])
        assert_max_flow_matches_networkx(mask, b_max, demands, caps)

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
        sol = solve_offline(scn)
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

    @pytest.mark.parametrize("row, load_cap", ids=["demand", "bound", "window", "load_cap", "non-finite"], argvalues=[
        ([2.0, 1.9, 0.0], np.inf),
        ([3.5, 0.5, 0.0], np.inf),
        ([2.0, 1.9, 0.1], np.inf),
        ([3.0, 1.0, 0.0], 3.5),
        ([np.nan, 4.0, 0.0], np.inf),
    ])
    def test_infeasible_schedule_reads_inf(self, row, load_cap):
        # One EV parked in slots 1-2 needs 4 kWh at up to 3 kWh a slot; its optimum is (2, 2, 0).
        scn = make_scenario([make_ev(0, 1, 2, demand=4.0, b_max=3.0)], horizon=3, base_load=[1.0] * 3, k1=0.5,
                            load_cap=load_cap)
        assert kkt_residual(solve_offline(scn).schedule.amounts, scn) == 0.0
        assert kkt_residual(np.array([row]), scn) == np.inf

    @pytest.mark.parametrize("factor", [1.02, 1.001])
    def test_zero_at_capped_optimum_of_fleet_104(self, factor):
        scn, peak = fleet_104()
        scn = replace(scn, load_cap=factor * peak)
        sol = solve_offline(scn)
        assert sol.kkt_residual <= 1e-12
        assert kkt_residual(sol.schedule.amounts, scn) == sol.kkt_residual


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


def test_profile_ids_that_are_not_consecutive_name_their_evs():
    # Row i is not EV i + 1 here: every text and every id tuple must carry the profiles' ids.
    evs = [make_ev(10, 1, 2, demand=3.6, b_max=2.0), make_ev(3, 3, 4, demand=0.5, b_max=2.0),
           make_ev(42, 1, 4, demand=0.5, b_max=2.0)]
    scn = make_scenario(evs, horizon=4)
    assert scn.ids.tolist() == [10, 3, 42]
    assert solve_rolling_step(scn, 1, {10: 3.6, 3: 0.5, 42: 0.5}).ev_ids == (10, 42)
    assert solve_rolling_step(scn, 3, {3: 0.5, 42: 0.5}).ev_ids == (3, 42)
    report = validate_schedule(ChargingSchedule(np.zeros((3, 4))), scn)
    assert [str(v) for v in report.violations] == [
        "demand(ev=10, magnitude=3.6)", "demand(ev=3, magnitude=0.5)", "demand(ev=42, magnitude=0.5)"]
    with pytest.raises(InfeasibleScenarioError, match=r"^EV 42: demand 9\.0 exceeds deliverable 8\.0$"):
        solve_offline(make_scenario(evs[:2] + [make_ev(42, 1, 4, demand=9.0, b_max=2.0)], horizon=4))
    capped = replace(scn, load_cap=1.5)
    for solve in (solve_offline, lambda sc: kkt_residual(np.zeros((3, 4)), sc),
                  lambda sc: project_allocation(np.zeros(4), sc)):
        with pytest.raises(InfeasibleScenarioError, match=r"EVs 10 need 3\.600 kWh.*slots 1, 2 "):
            solve(capped)


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_target_refused(self, bad):
        # A NaN target used to come back with a NaN distance, and an infinite one with an
        # infinite clip, as a wrong shape never did.
        scn = make_scenario([make_ev(0, 1, 2, demand=4.0, b_max=4.0)], horizon=2)
        with pytest.raises(SolverError, match="finite"):
            project_allocation(np.array([bad, 1.0]), scn)

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
            reference = qp_slot_totals(scn, res.clipped_target)
            assert res.distance == pytest.approx(np.sum((reference - res.clipped_target) ** 2), abs=1e-7)

    @pytest.mark.parametrize("cap", ["uncapped", "with_cap", "least peak + 0.1", "binding"])
    def test_split_matches_slot_total_qp(self, cap):
        rng = np.random.default_rng(41)
        reached = 0
        for k in range(10):
            scn = random_feasible_scenario(np.random.default_rng(500 + k), with_cap=cap == "with_cap")
            if cap == "least peak + 0.1":
                scn = replace(scn, load_cap=lp_min_peak(scn) + 0.1)
            if cap == "binding":
                scn = random_binding_cap_scenario(np.random.default_rng(500 + k))
            target = rng.uniform(0.0, 2.0, scn.horizon) * scn.demand.sum() / scn.horizon
            res = project_allocation(target, scn)
            assert validate_schedule(res.schedule, scn).passed
            reference = qp_slot_totals(scn, res.clipped_target)
            assert np.max(np.abs(res.schedule.slot_totals() - reference)) <= 1e-7
            reached += np.max(res.schedule.slot_totals() + scn.base_load) >= scn.load_cap - 1e-9
        if cap == "binding":
            # The cap holds the split back: some slot sits at it in most draws.
            assert reached > 5

    @pytest.mark.parametrize("factor, digest", ids=["1.02", "1.001"], argvalues=[
        (1.02, "f0979135f50cd533a097de8c5eecf40335ac2953defa4687f3f029290a0d60a3"),
        (1.001, "ca42fd3b25cfccc11e3bd8e8a34fbebccaf1bfbea90368db0ef86b053567c999"),
    ])
    def test_stored_calc_policy_bit_exact_on_capped_fleet_104(self, factor, digest):
        # SHA-256 of the stored CALC policy's schedule on fleet 104 under a cap just above
        # its least peak, recorded when the first max-flow phase ran as the level-graph walk.
        # Like the stored-policy digests of test_rl_train.py, it holds only under the BLAS
        # that recorded it, which the digest of one fixed forward pass identifies.
        policy = load_policy(Path(__file__).resolve().parent.parent / "perfbench" / "inputs" / "calc_policy.txt")
        _, mu, _ = policy_forward(policy, np.linspace(0.0, 1.0, policy.w_hidden.shape[0]))
        if hashlib.sha256(mu.tobytes()).hexdigest() != "8f159831312351063a8e060d6435f119a0124b7462ec5714f1024492096370c2":
            pytest.skip("this BLAS rounds the policy's forward pass differently from the one that recorded the digest")
        scn, peak = fleet_104()
        schedule = calc_schedule(policy, replace(scn, load_cap=factor * peak),
                                 reward_mode=benchmark_train_config("CALC").reward_mode)
        assert hashlib.sha256(schedule.amounts.tobytes()).hexdigest() == digest

    def test_low_block_takes_cap_room_net_of_full_rate_load(self):
        # EVs 0 and 2 must charge 5 kWh in slot 2, which leaves EV 1 only
        # 1 kWh of the 6 kWh cap there, so EV 1 puts its other kWh in slot 1.
        # Counting only EV 1's own load against the cap put 1.5 kWh in slot 2
        # and broke the cap by 0.5 kWh.
        evs = [make_ev(0, 2, 3, demand=6.0, b_max=3.0), make_ev(1, 1, 3, demand=2.0, b_max=3.0),
               make_ev(2, 2, 2, demand=2.0, b_max=3.0)]
        scn = make_scenario(evs, horizon=3, load_cap=6.0)
        res = project_allocation(np.array([0.0, 6.0, 1.0]), scn)
        assert res.schedule.amounts == pytest.approx(np.array([[0.0, 3.0, 3.0], [1.0, 1.0, 0.0], [0.0, 2.0, 0.0]]),
                                                     abs=1e-12)
        assert res.distance == pytest.approx(5.0, abs=1e-12)
        assert validate_schedule(res.schedule, scn).passed


def qp_slot_totals(scn, clipped):
    """Slot totals S of a demand-, rate-, window- and cap-feasible schedule that minimise
    sum_t (S_t - clipped_t)^2, by SLSQP."""
    mask = scn.mask
    rows, cols = np.nonzero(mask)
    m = rows.size
    ones = np.zeros((scn.n_evs, m))
    ones[rows, np.arange(m)] = 1.0
    by_slot = np.zeros((scn.horizon, m))
    by_slot[cols, np.arange(m)] = 1.0
    room = np.minimum(scn.load_cap - scn.base_load, 1e6)
    constraints = [
        {"type": "eq", "fun": lambda x: ones @ x - scn.demand, "jac": lambda x: ones},
        {"type": "ineq", "fun": lambda x: room - by_slot @ x, "jac": lambda x: -by_slot},
    ]
    start = project_rows_capped_simplex(np.zeros(mask.shape), scn.b_max, scn.demand, mask)[mask]
    res = minimize(lambda x: np.sum((by_slot @ x - clipped) ** 2), start,
                   jac=lambda x: 2.0 * by_slot.T @ (by_slot @ x - clipped), method="SLSQP",
                   bounds=[(0.0, scn.b_max[i]) for i in rows], constraints=constraints,
                   options={"ftol": 1e-16, "maxiter": 1000})
    return by_slot @ res.x
