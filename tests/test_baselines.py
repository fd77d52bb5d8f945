"""Eager charging, rolling online control, and Q-learning baseline tests."""

import hashlib
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest

from evchargelab import baselines
from evchargelab.baselines import (
    QLearnConfig,
    QTable,
    _aem_rollout,
    _aem_update,
    aem_schedule,
    aem_train,
    ec_schedule,
    oa_schedule,
)
from evchargelab.harness import benchmark_spec, build_scenario, make_sampler
from evchargelab.model import (
    DEFAULT_TOL,
    ChargingSchedule,
    EVArrays,
    flat_completion_change,
    horizon_cost,
    laxity_corridor,
    slot_cost,
    validate_schedule,
)
from evchargelab.rl import AggregateEnv, calc_schedule, init_policy, sca_schedule
from evchargelab.scenario import synthetic_base_load
from evchargelab.solvers import (
    InfeasibleScenarioError,
    kkt_residual,
    project_allocation,
    solve_offline,
    solve_rolling_step,
)

from conftest import make_ev, make_scenario, random_feasible_scenario
from test_scenario import five_ev_fleet


class TestLaxityMinimum:
    """The (laxity minimum, headroom) pair of `laxity_corridor`."""

    def test_no_urgency(self):
        assert laxity_corridor(2.0, 3.0, slots_after=3) == (0.0, 2.0)

    def test_last_slot_forces_residual(self):
        assert laxity_corridor(2.0, 3.0, slots_after=0) == (2.0, 2.0)

    def test_partial_forcing(self):
        # 5 kWh left, 1 slot after this one at 3 kWh/slot: must charge >= 2 now.
        assert laxity_corridor(5.0, 3.0, slots_after=1) == (2.0, 3.0)


class TestEcSchedule:
    def test_greedy_saturation(self):
        scn = make_scenario([make_ev(0, 1, 2, demand=5.0, b_max=3.2)], horizon=2)
        sched = ec_schedule(scn)
        assert sched.amounts[0] == pytest.approx([3.2, 1.8])

    def test_zero_demand(self):
        scn = make_scenario([make_ev(0, 1, 3, demand=0.0)], horizon=3)
        assert np.all(ec_schedule(scn).amounts == 0.0)

    def test_saturate_then_stop(self):
        scn = make_scenario([make_ev(0, 1, 3, demand=6.4, b_max=3.2)], horizon=3)
        assert ec_schedule(scn).amounts[0] == pytest.approx([3.2, 3.2, 0.0])

    def test_always_feasible(self):
        for k in range(10):
            scn = random_feasible_scenario(np.random.default_rng(k))
            assert validate_schedule(ec_schedule(scn), scn).passed


class TestOaSchedule:
    def test_single_ev_matches_offline(self):
        ev = make_ev(0, 2, 6, demand=8.0, b_max=3.0)
        scn = make_scenario([ev], horizon=8, base_load=[1, 4, 2, 5, 1, 3, 2, 2], k1=0.05)
        oa = oa_schedule(scn)
        off = solve_offline(scn)
        assert horizon_cost(oa, scn) == pytest.approx(off.objective, abs=1e-5)

    def test_no_evs(self):
        scn = make_scenario([], horizon=4, base_load=[1.0] * 4)
        sched = oa_schedule(scn)
        assert sched.amounts.shape == (0, 4)
        assert horizon_cost(sched, scn) == 0.0

    def test_feasible_and_between_bounds(self):
        # OA is never better than offline and, on these instances, at least
        # matches eager charging (checked as an oracle sandwich).
        for k in range(8):
            scn = random_feasible_scenario(np.random.default_rng(300 + k))
            oa = oa_schedule(scn)
            assert validate_schedule(oa, scn, tol=1e-5).passed
            assert horizon_cost(oa, scn) >= solve_offline(scn).objective - 1e-5

    def test_fig1_fleet_feasible(self):
        scn = make_scenario(five_ev_fleet(), horizon=10, base_load=[1.0] * 10)
        assert validate_schedule(oa_schedule(scn), scn, tol=1e-5).passed

    @pytest.mark.parametrize("base, digest", ids=["flat", "synthetic"], argvalues=[
        ("flat", "cabbc8a3631c0e934b1930b59d0a87f4ee4782e1ddacab425d543fdbe8acfd8a"),
        ("synthetic", "d39d908f1e64751b4c990bc531af31af3729e16da4b95893352f68fdbe6c2556"),
    ])
    def test_schedules_bit_exact_on_benchmark_fleets(self, base, digest):
        # SHA-256 of OA's schedules on benchmark fleets 1-20, as recorded when every
        # max-flow ran Dinic's first phase through the level-graph walk: the greedy fill
        # pushes the same amounts in the same order, so every re-solve keeps its bits.
        sha = hashlib.sha256()
        for scn in benchmark_fleets(base):
            sha.update(oa_schedule(scn).amounts.tobytes())
        assert sha.hexdigest() == digest


@lru_cache(maxsize=None)
def benchmark_fleets(base: str) -> tuple:
    """Benchmark fleets 1-20, on the shipped flat base load or on `synthetic_base_load`."""
    fleets = tuple(build_scenario(benchmark_spec(), seed)[0] for seed in range(1, 21))
    if base == "flat":
        return fleets
    return tuple(replace(sc, base_load=synthetic_base_load(sc.horizon)) for sc in fleets)


def every_event_oa(scenario):
    """Reference OA that re-solves at every event: arrival, departure, base-load change, stale plan."""
    B = np.zeros((scenario.n_evs, scenario.horizon))
    residuals = scenario.demand.copy()
    plan, lb = None, scenario.base_load
    for t in range(1, scenario.horizon + 1):
        active = scenario.mask[:, t - 1] & (residuals > DEFAULT_TOL)
        if not active.any():
            plan = None
            continue
        event = np.any(scenario.t_arr == t) or np.any(scenario.t_dep == t - 1) or (t > 1 and lb[t - 1] != lb[t - 2])
        if event or plan is None or t not in plan.window:
            plan_rows = np.flatnonzero(active)
            plan = solve_rolling_step(scenario, t, {scenario.evs[r].id: residuals[r] for r in plan_rows})
        keep = active[plan_rows]
        committed = np.minimum(plan.amounts[keep, t - plan.window.start], residuals[plan_rows[keep]])
        B[plan_rows[keep], t - 1] = committed
        residuals[plan_rows[keep]] -= committed
    return ChargingSchedule(B)


def _outcome(schedule, scenario):
    try:
        return schedule(scenario)
    except InfeasibleScenarioError:
        return None


class TestOaResolveRule:
    """OA re-solves only at arrivals; the rest of an optimal plan stays optimal until one."""

    @pytest.mark.parametrize("fleets", ["flat", "synthetic", "random-capped"])
    def test_agrees_with_every_event_loop(self, fleets):
        if fleets == "random-capped":
            scenarios = [random_feasible_scenario(np.random.default_rng(700 + k), with_cap=True) for k in range(40)]
        else:
            scenarios = benchmark_fleets(fleets)
        for scn in scenarios:
            old, new = _outcome(every_event_oa, scn), _outcome(oa_schedule, scn)
            assert (old is None) == (new is None)
            if old is None:
                continue
            assert validate_schedule(old, scn, tol=1e-5).passed and validate_schedule(new, scn, tol=1e-5).passed
            assert horizon_cost(new, scn) == pytest.approx(horizon_cost(old, scn), rel=1e-12)
            assert np.abs(new.slot_totals() - old.slot_totals()).max() <= 1e-9

    @pytest.mark.parametrize("base", ["flat", "synthetic"])
    def test_one_resolve_per_arrival_with_parked_demand(self, base, monkeypatch):
        slots = []

        def counting(scenario, t, residuals):
            slots.append(t)
            return solve_rolling_step(scenario, t, residuals)

        monkeypatch.setattr(baselines, "solve_rolling_step", counting)
        for scn in benchmark_fleets(base):
            slots.clear()
            B = oa_schedule(scn).amounts
            expected, residuals = [], scn.demand.copy()
            for t in range(1, scn.horizon + 1):
                if np.any(scn.t_arr == t) and np.any(scn.mask[:, t - 1] & (residuals > DEFAULT_TOL)):
                    expected.append(t)
                residuals = residuals - B[:, t - 1]
            assert slots == expected


def test_every_schedule_function_refuses_an_ev_that_cannot_finish():
    # EV 0 needs 10 kWh in slots 1-2 at 2 kWh/slot; EV 1 needs 2 kWh in slots 1-4.
    evs = [make_ev(0, 1, 2, demand=10.0, b_max=2.0), make_ev(1, 1, 4, demand=2.0, b_max=2.0)]
    scn = make_scenario(evs, horizon=4, base_load=[1.0] * 4)
    sca = init_policy(scn.n_evs + 1, scn.n_evs, np.random.default_rng(3))
    calc = init_policy(AggregateEnv.state_dim, AggregateEnv.action_dim, np.random.default_rng(3))
    table = QTable(soc_bins=2, load_bins=2, levels=3, b_max=2.0)
    for schedule in (ec_schedule, oa_schedule, solve_offline, lambda sc: aem_schedule(table, sc),
                     lambda sc: sca_schedule(sca, sc), lambda sc: calc_schedule(calc, sc)):
        with pytest.raises(InfeasibleScenarioError, match=r"^EV 0: demand 10\.0 exceeds deliverable 4\.0"):
            schedule(scn)


def test_no_product_path_builds_a_profile(monkeypatch):
    # A sampled fleet reads as a sequence of EVProfiles, but the program reads its rows only.
    built = []
    profile = EVArrays._profile
    monkeypatch.setattr(EVArrays, "_profile", lambda evs, i: built.append(i) or profile(evs, i))

    def fleet_7():
        return build_scenario(benchmark_spec(), 7)[0]  # a fresh fleet: its profiles are not cached yet

    scn = fleet_7()
    n = scn.n_evs
    assert isinstance(scn.evs, EVArrays) and scn.ids.tolist() == [ev.id for ev in scn.evs] == list(range(1, n + 1))
    assert len(built) == n
    B = solve_offline(scn).schedule
    cap = 1.02 * float((B.slot_totals() + scn.base_load).max())  # one the oracle's schedule meets
    sca = init_policy(n + 1, n, np.random.default_rng(3))
    calc = init_policy(AggregateEnv.state_dim, AggregateEnv.action_dim, np.random.default_rng(3))
    table = QTable(soc_bins=2, load_bins=2, levels=3, b_max=float(scn.b_max.max()))
    paths = {
        "EC": ec_schedule, "OA": oa_schedule, "AEM": lambda sc: aem_schedule(table, sc),
        "SCA": lambda sc: sca_schedule(sca, sc), "CALC": lambda sc: calc_schedule(calc, sc), "oracle": solve_offline,
        "kkt_residual": lambda sc: kkt_residual(B.amounts, replace(sc, load_cap=cap)),
        "project_allocation": lambda sc: project_allocation(B.slot_totals(), sc),
        "validate_schedule": lambda sc: validate_schedule(B, sc),
        "validate_schedule, failing": lambda sc: validate_schedule(ChargingSchedule(np.zeros(B.amounts.shape)), sc),
    }
    counts = {}
    for name, path in paths.items():
        scn = fleet_7()
        built.clear()
        path(scn)
        counts[name] = len(built)
    assert counts == dict.fromkeys(paths, 0)


class TestQTable:
    def test_quantum(self):
        table = QTable(soc_bins=4, load_bins=2, levels=33, b_max=3.2)
        assert table.quantum == pytest.approx(0.1)

    def test_state_index_corners(self):
        table = QTable(soc_bins=4, load_bins=2, levels=3, b_max=1.0)
        assert table.state_index(0.0, 0.0) == 0
        assert table.state_index(1.0, 1.0) == 4 * 2 - 1
        assert table.state_index(0.5, 0.0) == 2 * 2

    def test_levels_validated(self):
        with pytest.raises(ValueError):
            QTable(soc_bins=2, load_bins=2, levels=1, b_max=1.0)

    def test_save_load_roundtrip(self, tmp_path):
        table = QTable(soc_bins=3, load_bins=2, levels=4, b_max=3.2)
        table.values[:] = np.arange(table.values.size).reshape(table.values.shape) * 0.125
        path = tmp_path / "qtable.txt"
        table.save(path)
        loaded = QTable.load(path)
        assert loaded.levels == 4 and loaded.b_max == 3.2
        np.testing.assert_array_equal(loaded.values, table.values)

    def test_save_load_keeps_load_scale_and_counts(self, tmp_path):
        table = QTable(soc_bins=3, load_bins=2, levels=4, b_max=3.2, load_scale=45.5)
        table.visit_counts[:] = np.arange(table.visit_counts.size).reshape(table.visit_counts.shape)
        path = tmp_path / "qtable.txt"
        table.save(path)
        loaded = QTable.load(path)
        assert loaded.load_scale == 45.5
        np.testing.assert_array_equal(loaded.visit_counts, table.visit_counts)

    def test_greedy_skips_uninformed_levels(self):
        table = QTable(soc_bins=1, load_bins=2, levels=4, b_max=3.0)
        table.values[0] = [-5.0, 0.0, -2.0, 0.0]
        table.visit_counts[0] = [3, 0, 1, 0]
        assert table.greedy_level(0) == 2  # the zeros at levels 1 and 3 are only the initial value
        assert table.greedy_value(0) == -2.0
        assert table.greedy_level(1) is None and table.greedy_value(1) == 0.0

    def test_greedy_pools_the_update_band(self):
        # 0.01 kWh levels, bands of 5 on each side. Level 20 ran high once,
        # amid a well-visited band at -5; levels 60-70 are -2 throughout.
        # The band means rank the plateau first, the plain values level 20.
        table = QTable(soc_bins=1, load_bins=1, levels=101, b_max=1.0)
        assert table.half_width == 5
        table.values[0, 15:26], table.visit_counts[0, 15:26] = -5.0, 10
        table.values[0, 20], table.visit_counts[0, 20] = -1.0, 1
        table.values[0, 60:71], table.visit_counts[0, 60:71] = -2.0, 10
        assert 60 <= table.greedy_level(0) <= 70
        assert table.greedy_value(0) == -2.0


class TestQLearnConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            QLearnConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            QLearnConfig(discount=1.0)
        with pytest.raises(ValueError, match="episodes 0"):
            QLearnConfig(episodes=0)

    def test_epsilon_decays_linearly_over_first_half(self):
        cfg = QLearnConfig(episodes=100)
        assert cfg.epsilon(0) == pytest.approx(1.0)
        assert cfg.epsilon(25) == pytest.approx(0.525)
        assert cfg.epsilon(50) == pytest.approx(0.05)
        assert cfg.epsilon(99) == pytest.approx(0.05)


class TestAemTraining:
    def _forced_scenario(self):
        # Single slot: the laxity clamp forces the full demand regardless of
        # the chosen level, so every visited entry learns the same reward.
        ev = make_ev(0, 1, 1, demand=2.0, b_max=3.2)
        return make_scenario([ev], horizon=1, base_load=[1.0], k0=1.0, k1=0.1)

    def test_forced_action_value_fixed_point(self):
        # The update step's fixed point: every level it moves (5 on each side
        # of the taken one, 0.01 kWh apart) converges to a terminal
        # transition's reward, here the plain bill of the forced charge,
        # whatever level was taken.
        scn = self._forced_scenario()
        table = QTable(soc_bins=20, load_bins=10, levels=101, b_max=1.0)
        assert table.half_width == 5
        rng = np.random.default_rng(1)
        transitions = []
        _aem_rollout(table, scn, lambda s: int(rng.integers(101)), transitions)
        ((state, _, _, next_state, done),) = transitions
        reward = -(1.0 * 2.0 + 0.1 * 4.0 + 2 * 0.1 * 1.0 * 2.0)
        cfg = QLearnConfig(learning_rate=0.5, discount=0.9)
        for _ in range(200):
            _aem_update(table, [(state, int(rng.integers(table.levels)), reward, next_state, done)], cfg)
        visited = table.visit_counts > 0
        assert done and visited.any()
        assert table.values[visited] == pytest.approx(reward, rel=1e-6)

    def test_forced_step_has_no_flat_regret(self):
        # Training's reward is the extra bill over finishing at the flat
        # rate; a forced step's flat rate is the forced charge, so it is 0.
        table = aem_train(lambda seed: self._forced_scenario(), QLearnConfig(episodes=20, seed=1), levels=5)
        visited = table.visit_counts > 0
        assert visited.any()
        assert table.values[visited] == pytest.approx(0.0, abs=1e-12)

    def test_update_informs_a_band_fixed_in_kwh(self):
        # One exploratory update: at 33 levels (0.1 kWh apart) the 0.05 kWh
        # band holds the taken level only; at 3300 levels it spans 51 levels
        # on each side.
        scn = self._forced_scenario()
        cfg = QLearnConfig(episodes=1, seed=4)
        for levels, half in ((33, 0), (3300, 51)):
            table = aem_train(lambda seed: scn, cfg, levels=levels)
            (state,) = np.flatnonzero(table.visit_counts.sum(axis=1))
            informed = np.flatnonzero(table.visit_counts[state])
            assert np.all(table.visit_counts[state, informed] == 1)
            assert np.all(np.diff(informed) == 1)  # one contiguous band
            assert half + 1 <= informed.size <= 2 * half + 1  # clipped at most on one side

    @pytest.mark.parametrize("episodes, levels, seed, digest", ids=["train-workload", "band"], argvalues=[
        (60, 33, 1, "416f4ae11c64468f606d9383a3b7cc72daf9fb4a6092db85595b221fa236aa7f"),
        (40, 101, 2, "925b197ca305e061dee971ae5658540b104ca44902e8e8c31d9c19db274128a8"),
    ])
    def test_trained_table_bit_exact_on_benchmark(self, episodes, levels, seed, digest):
        # SHA-256 of the values and visit counts of a table trained on the benchmark
        # sampler, as recorded when every step's reward was its own kernel call: the
        # train workload's AEM, and a 101-level grid whose updates move a band of 3.
        table = aem_train(make_sampler(benchmark_spec()), QLearnConfig(episodes=episodes, seed=seed), levels)
        assert table.half_width == (levels == 101)
        assert hashlib.sha256(table.values.tobytes() + table.visit_counts.tobytes()).hexdigest() == digest

    def test_episode_rewards_match_one_kernel_call_per_step(self):
        # The rollout bills every step's flat rates in one kernel call; each reward
        # keeps the bits of its own step's one-row `flat_completion_change`.
        scn = benchmark_fleets("flat")[0]
        table = QTable(soc_bins=20, load_bins=10, levels=33, b_max=float(scn.b_max.max()))
        rng = np.random.default_rng(5)
        transitions = []
        amounts = _aem_rollout(table, scn, lambda state: int(rng.integers(33)), transitions).amounts.T
        residuals, want = scn.demand.copy(), []
        for t, amount in enumerate(amounts, start=1):
            rows = np.flatnonzero(scn.mask[:, t - 1] & (residuals > 1e-9))
            residuals -= amount
            if rows.size:
                reward = -slot_cost(amount[amount > 0], scn.base_load[t - 1], scn.price)
                want.append(reward - flat_completion_change(residuals[rows] + amount[rows], residuals[rows],
                                                            scn.t_dep[rows], t, scn.base_load, scn.price))
        assert len(want) > 10 and [reward for _, _, reward, _, _ in transitions] == want

    def test_schedule_uses_training_load_scale(self):
        # Bins come from the table's load scale, not the evaluated scenario's
        # own peak: base load 1.0 on a scale of 4.0 is the low-load bin.
        table = QTable(soc_bins=1, load_bins=2, levels=2, b_max=2.0, load_scale=4.0)
        table.values[:] = [[-1.0, -0.5], [-0.5, -1.0]]  # low load: charge; high load: wait
        table.visit_counts[:] = 1
        ev = make_ev(0, 1, 2, demand=2.0, b_max=2.0)
        scn = make_scenario([ev], horizon=2, base_load=[1.0, 1.0])
        assert aem_schedule(table, scn).amounts[0] == pytest.approx([2.0, 0.0])

    def test_train_records_probe_load_scale(self):
        ev = make_ev(0, 1, 2, demand=2.0, b_max=2.0)
        scn = make_scenario([ev], horizon=2, base_load=[3.0, 7.5])
        table = aem_train(lambda seed: scn, QLearnConfig(episodes=2), levels=3)
        assert table.load_scale == 7.5

    def test_greedy_prefers_cheap_slot(self):
        # Two slots, demand of one full b_max; slot 1 is much cheaper, so the
        # greedy policy should learn to charge immediately.
        ev = make_ev(0, 1, 2, demand=3.0, b_max=3.0)
        scn = make_scenario([ev], horizon=2, base_load=[0.0, 30.0], k0=0.1, k1=0.05)
        cfg = QLearnConfig(episodes=600, learning_rate=0.3, discount=0.9, seed=2)
        table = aem_train(lambda seed: scn, cfg, levels=4)
        sched = aem_schedule(table, scn)
        assert sched.amounts[0, 0] == pytest.approx(3.0)

    def test_schedule_meets_demand(self):
        # The laxity clamp forces each EV's residual in its last slot, so
        # quantized amounts meet every demand to DEFAULT_TOL, even on 2 levels.
        cases = [(random_feasible_scenario(np.random.default_rng(400 + k)), 9, 30, k) for k in range(5)]
        cases += [(benchmark_fleets("flat")[k], levels, 10, k) for levels in (2, 9) for k in range(3)]
        for scn, levels, episodes, k in cases:
            cfg = QLearnConfig(episodes=episodes, seed=k)
            table = aem_train(lambda seed, scn=scn: scn, cfg, levels=levels)
            sched = aem_schedule(table, scn)
            report = validate_schedule(sched, scn, tol=DEFAULT_TOL)
            assert report.passed, (levels, report.violations[:3])

    def test_amounts_quantized_except_forced(self):
        ev = make_ev(0, 1, 4, demand=2.0, b_max=3.2)
        scn = make_scenario([ev], horizon=4, base_load=[1.0] * 4)
        table = aem_train(lambda seed: scn, QLearnConfig(episodes=20, seed=3), levels=33)
        sched = aem_schedule(table, scn)
        q = table.quantum
        amounts = sched.amounts[sched.amounts > 1e-12]
        # The final committed amount may be a forced top-up; all earlier ones
        # are multiples of the quantum.
        for a in amounts[:-1]:
            assert abs(a / q - round(a / q)) < 1e-9

    def test_zero_demand_fleet(self):
        ev = make_ev(0, 1, 3, demand=0.0)
        scn = make_scenario([ev], horizon=3, base_load=[1.0] * 3)
        table = aem_train(lambda seed: scn, QLearnConfig(episodes=5), levels=3)
        assert np.all(aem_schedule(table, scn).amounts == 0.0)

    def test_quantization_trend(self):
        # Finer action grids can only help on a fixed scenario set.
        rng = np.random.default_rng(77)
        scns = [random_feasible_scenario(np.random.default_rng(500 + k)) for k in range(3)]
        costs = []
        for levels in (3, 17):
            total = 0.0
            for k, scn in enumerate(scns):
                cfg = QLearnConfig(episodes=150, seed=k)
                table = aem_train(lambda seed, s=scn: s, cfg, levels=levels)
                total += horizon_cost(aem_schedule(table, scn), scn)
            costs.append(total)
        assert costs[1] <= costs[0] + 1e-6
