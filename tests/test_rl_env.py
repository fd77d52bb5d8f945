"""Environment dynamics tests: per-EV and aggregate views."""

from dataclasses import replace

import numpy as np
import pytest

from evchargelab.harness import benchmark_spec, build_scenario, make_sampler
from evchargelab.model import laxity_corridor, slot_cost
from evchargelab.rl.env import (
    REWARD_EXACT,
    REWARD_MODES,
    REWARD_REGRET,
    AggregateEnv,
    ChargingEnv,
)

from conftest import make_ev, make_scenario, random_feasible_scenario


class TestStates:
    def test_full_state_vector(self):
        # The SOC entries, then the price of the base load over the price at twice its peak.
        evs = [make_ev(0, 1, 3, demand=2.0, capacity=10.0, soc=0.2), make_ev(1, 1, 3, demand=2.0, soc=0.5)]
        env = ChargingEnv(make_scenario(evs, horizon=3, base_load=[1.0, 2.0, 2.0], k0=0.0, k1=0.001))
        np.testing.assert_allclose(env.state, [0.2, 0.5, 0.25])
        env.step(np.array([1.0, 0.0]))
        np.testing.assert_allclose(env.state, [0.3, 0.5, 0.75])

    def test_reduced_state_vector(self):
        # (soc_ev, l_b): 4 kWh over 2 slots in units of 2 kWh per slot, and 3 of a peak base load of 4.
        scn = make_scenario([make_ev(0, 1, 2, demand=4.0)], horizon=2, base_load=[3.0, 4.0])
        env = AggregateEnv(scn)
        np.testing.assert_allclose(env.state, [1.0, 0.75])
        # The rows of a batched env stack their states, C-contiguous for the policy's forward pass.
        rows = AggregateEnv([scn, make_scenario([make_ev(0, 1, 2, demand=2.0)], horizon=2, base_load=[2.0, 4.0])])
        np.testing.assert_allclose(rows.state, [[1.0, 0.75], [1.0, 0.5]])
        assert rows.state.flags.c_contiguous


class TestChargingEnv:
    def _slack_scenario(self):
        # Long dwell relative to demand, so the laxity floor stays at zero early.
        ev = make_ev(0, 1, 6, demand=4.0, b_max=2.0, capacity=36.0, soc=0.0)
        return make_scenario([ev], horizon=6, base_load=[1.0] * 6)

    def test_state_dimension(self):
        env = ChargingEnv(self._slack_scenario())
        assert env.state_dim == 2 and env.action_dim == 1
        assert env.state.shape == (2,)

    def test_zero_action_keeps_soc_and_costs_nothing(self):
        env = ChargingEnv(self._slack_scenario())
        soc_before = env.state[:-1].copy()
        _, reward = env.step(np.zeros(1))
        assert reward == 0.0
        np.testing.assert_allclose(env.state[:-1], soc_before)

    def test_soc_increment(self):
        env = ChargingEnv(self._slack_scenario())
        env.step(np.array([2.0]))
        assert env.state[0] == pytest.approx(1.0 / 18.0)

    def test_exact_cost_reward(self):
        scn = self._slack_scenario()
        env = ChargingEnv(scn, REWARD_EXACT)
        _, reward = env.step(np.array([1.5]))
        assert reward == pytest.approx(-slot_cost([1.5], 1.0, scn.price))

    def test_unknown_reward_mode(self):
        with pytest.raises(ValueError):
            ChargingEnv(self._slack_scenario(), "bonus-points")

    def test_flat_regret_is_aggregate_only(self):
        with pytest.raises(ValueError):
            ChargingEnv(self._slack_scenario(), REWARD_REGRET)

    def test_bounds_corridor(self):
        ev = make_ev(0, 1, 2, demand=3.0, b_max=2.0)
        env = ChargingEnv(make_scenario([ev], horizon=2))
        lo, hi = env.bounds()
        # 3 kWh over 2 slots at 2 kWh/slot: at least 1 now, at most 2.
        assert lo == pytest.approx([1.0]) and hi == pytest.approx([2.0])

    def test_clipping_keeps_rollout_feasible(self, rng):
        for k in range(10):
            scn = random_feasible_scenario(np.random.default_rng(600 + k))
            env = ChargingEnv(scn)
            while not env.done:
                t = env.t
                action = rng.uniform(-1, 5, size=scn.n_evs)
                amounts, _ = env.step(action)
                for row, ev in enumerate(scn.evs):
                    assert -1e-12 <= amounts[row] <= ev.b_max + 1e-12
                    if not scn.mask[row, t - 1]:
                        assert amounts[row] == 0.0
            assert np.all(env.residuals <= 1e-6)

    def test_reward_sum_is_negative_horizon_cost(self, rng):
        from evchargelab.model import ChargingSchedule, horizon_cost

        scn = random_feasible_scenario(np.random.default_rng(9))
        env = ChargingEnv(scn, REWARD_EXACT)
        B = np.zeros((scn.n_evs, scn.horizon))
        total_reward = 0.0
        while not env.done:
            t = env.t
            B[:, t - 1], reward = env.step(rng.uniform(0, 3, size=scn.n_evs))
            total_reward += reward
        assert total_reward == pytest.approx(-horizon_cost(ChargingSchedule(B), scn), abs=1e-9)

    def test_absent_ev_has_zero_soc_entry(self):
        evs = [make_ev(0, 1, 2, demand=1.0, soc=0.5), make_ev(1, 4, 6, demand=1.0, soc=0.3)]
        scn = make_scenario(evs, horizon=6, base_load=[1.0] * 6)
        env = ChargingEnv(scn)
        assert env.state[0] == pytest.approx(0.5)
        assert env.state[1] == 0.0  # not yet arrived

    def test_price_normalized_to_unit_interval(self):
        scn = make_scenario([make_ev(0, 1, 4, demand=2.0)], horizon=4,
                            base_load=[10.0, 20.0, 30.0, 40.0], load_cap=100.0)
        env = ChargingEnv(scn)
        while not env.done:
            assert 0.0 < env.state[-1] <= 1.0
            env.step(np.zeros(1))

    def test_price_scale_floored(self):
        # k0 = 0 on a zero base load with no cap: the scale would be 0 and the price 0/0.
        env = ChargingEnv(make_scenario([make_ev(0, 1, 4, demand=2.0)], horizon=4, k0=0.0, k1=0.001))
        assert env.price_scale > 0.0 and np.isfinite(env.state[-1])
        # The shipped benchmark's scale is unchanged: k0 + 2 * k1 * (2 * peak base load).
        bench = ChargingEnv(build_scenario(benchmark_spec(), 1)[0])
        assert bench.price_scale == 0.01 + 2.0 * 0.01 * 2.0

    def test_price_feature_bounded_when_price_at_cap_is_zero(self):
        # k0 = 0 on a zero base load: the price at the cap is 0, so the fleet's top rate scales the price.
        evs = [make_ev(i, 1, 24, demand=10.0, b_max=2.4) for i in range(4)]
        env = ChargingEnv(make_scenario(evs, horizon=24, k0=0.0, k1=0.001))
        env.step(np.full(4, 2.4))
        assert env.state[-1] == pytest.approx(1.0)

    def test_done_after_horizon_without_evs(self):
        scn = make_scenario([], horizon=3, base_load=[1.0] * 3)
        env = ChargingEnv(scn)
        steps = 0
        while not env.done:
            _, reward = env.step(np.zeros(0))
            assert reward == 0.0
            steps += 1
        assert steps == 3
        with pytest.raises(RuntimeError):
            env.step(np.zeros(0))


class TestAggregateEnv:
    def _scenario(self):
        evs = [make_ev(i, 1, 4, demand=3.0, b_max=2.0, capacity=36.0) for i in range(3)]
        return make_scenario(evs, horizon=4, base_load=[2.0, 4.0, 3.0, 2.0])

    def test_state_dim_independent_of_fleet(self):
        env = AggregateEnv(self._scenario())
        assert AggregateEnv.state_dim == 2
        assert env.state.shape == (2,)

    def test_action_scale_is_mean_energy_per_slot(self):
        env = AggregateEnv(self._scenario())
        assert env.action_scale == pytest.approx(9.0 / 4.0)  # 3 EVs x 3 kWh over 4 slots

    def test_bounds_aggregate_headroom(self):
        env = AggregateEnv(self._scenario())
        lo, hi = env.bounds()
        assert lo == pytest.approx(0.0)  # plenty of slack early on
        # 3 EVs x min(b_max, residual) = 6 kWh, expressed in action units
        assert hi == pytest.approx(6.0 / env.action_scale)

    def test_budget_split_respects_caps(self):
        env = AggregateEnv(self._scenario())
        amounts, _ = env.step(5.0 / env.action_scale)
        assert amounts[0] == pytest.approx(5.0)
        assert np.all(env.scenario.demand - env.residuals <= 2.0 + 1e-12)

    def test_rollout_meets_demand(self, rng):
        for k in range(5):
            scn = random_feasible_scenario(np.random.default_rng(700 + k))
            env = AggregateEnv(scn)
            while not env.done:
                env.step(float(rng.uniform(0, 10)))
            assert np.all(env.residuals <= 1e-6)

    def test_soc_ev_is_fleet_soc_gap_rate(self):
        # 3 EVs with 3 kWh left over 4 slots each need 0.75 kWh per slot.
        env = AggregateEnv(self._scenario())
        assert env.state[0] == pytest.approx(3 * 0.75 / env.action_scale)
        env.step(6.0 / env.action_scale)  # 2 kWh each, 1 kWh left over 3 slots
        assert env.state[0] == pytest.approx(3 * (1.0 / 3.0) / env.action_scale)

    def test_flat_regret_reward(self):
        # On a flat base load the flat rate (1 kWh/slot here) adds no bill
        # over flat completion; deferring or rushing does.
        scn = make_scenario([make_ev(0, 1, 4, demand=4.0, b_max=4.0)], horizon=4, base_load=[2.0] * 4)
        rewards = {}
        for amount in (0.0, 1.0, 3.0):
            env = AggregateEnv(scn, REWARD_REGRET)
            rewards[amount] = env.step(amount / env.action_scale)[1]
        assert rewards[1.0] == pytest.approx(0.0, abs=1e-12)
        assert rewards[0.0] < 0.0 and rewards[3.0] < 0.0

    def test_reward_matches_allocated_amounts(self):
        scn = self._scenario()
        env = AggregateEnv(scn, REWARD_EXACT)
        _, reward = env.step(4.0 / env.action_scale)
        assert reward == pytest.approx(-slot_cost([4.0], 2.0, scn.price))


def per_ev_bounds(env):
    """ChargingEnv's corridor computed EV by EV, as the per-EV loop did."""
    lo, hi = np.zeros(env.scenario.n_evs), np.zeros(env.scenario.n_evs)
    for row, ev in enumerate(env.scenario.evs):
        residual = env.residuals[row]
        if not ev.t_arr <= env.t <= ev.t_dep or residual <= 0:
            continue
        hi[row] = min(ev.b_max, residual)
        lo[row] = min(max(0.0, residual - ev.b_max * max(ev.t_dep - env.t, 0)), hi[row])
    return lo, hi


def per_ev_soc(env):
    """ChargingEnv's SOC feature computed EV by EV."""
    t = min(env.t, env.scenario.horizon)
    return np.array([min(ev.soc_init + env.charged[row] / ev.capacity_kwh, 1.0) if ev.t_arr <= t <= ev.t_dep else 0.0
                     for row, ev in enumerate(env.scenario.evs)])


def per_ev_aggregate_bounds(env):
    """AggregateEnv's corridor (in action units): per-EV laxity minima and headrooms, summed."""
    lo, hi = per_ev_aggregate_corridor(env)
    return lo / env.action_scale, hi / env.action_scale


def per_ev_aggregate_corridor(env):
    """AggregateEnv's corridor in kWh."""
    t = min(env.t, env.scenario.horizon)
    lo, hi = [], []
    for row, ev in enumerate(env.scenario.evs):
        residual = env.residuals[row]
        if ev.t_arr <= t <= ev.t_dep and residual > 1e-9:
            hi.append(min(ev.b_max, residual))
            lo.append(max(residual - ev.b_max * (ev.t_dep - t), 0.0))
    top = float(np.sum(hi))
    return min(float(np.sum(lo)), top), top


def reference_allocation(env, budget):
    """AggregateEnv's split of a budget, with the corridor recomputed from the residuals."""
    sc, t = env.scenario, env.t
    rows = np.flatnonzero(sc.mask[:, t - 1] & (env.residuals > 1e-9))
    t_dep = sc.t_dep[rows]
    forced, cap = laxity_corridor(env.residuals[rows], sc.b_max[rows], t_dep - t)
    forced = np.minimum(forced, cap)
    order = np.argsort(t_dep, kind="stable")
    room = (cap - forced)[order]
    amounts = np.zeros(sc.n_evs)
    amounts[rows] = forced
    amounts[rows[order]] += np.clip(budget - forced.sum() - (np.cumsum(room) - room), 0.0, room)
    return amounts


class TestCorridorMatchesPerEvFormulas:
    """The array kernels give exactly what the per-EV formulas give, along random rollouts."""

    def test_charging_env(self, rng):
        for k in range(20):
            scn = random_feasible_scenario(np.random.default_rng(1000 + k), n_max=12, t_max=24)
            env = ChargingEnv(scn)
            while True:
                np.testing.assert_array_equal(env.state[:-1], per_ev_soc(env))
                if env.done:
                    break
                lo, hi = env.bounds()
                ref_lo, ref_hi = per_ev_bounds(env)
                np.testing.assert_array_equal(lo, ref_lo)
                np.testing.assert_array_equal(hi, ref_hi)
                action = rng.uniform(-1.0, 5.0, size=scn.n_evs)
                action[rng.random(scn.n_evs) < 0.3] = rng.choice([-0.0, 0.0])
                amounts, _ = env.step(action)
                # The step clips into the cached corridor exactly as np.clip does, signed zeros included.
                assert amounts.tobytes() == np.clip(action, ref_lo, ref_hi).tobytes()

    def test_aggregate_env(self, rng):
        for k in range(20):
            scn = random_feasible_scenario(np.random.default_rng(2000 + k), n_max=12, t_max=24)
            env = AggregateEnv(scn, REWARD_REGRET)
            while not env.done:
                assert env.bounds() == per_ev_aggregate_bounds(env)
                action = float(rng.uniform(-1.0, 3.0))
                lo, hi = per_ev_aggregate_corridor(env)
                budget = min(max(env.action_scale * action, lo), hi)
                want = env.residuals - reference_allocation(env, budget)
                env.step(action)
                assert env.residuals.tobytes() == want.tobytes()


class TestRowsMatchSingleEnvs:
    """An env on k scenarios steps as k one-scenario envs given the same actions and resets."""

    ROWS = 3

    def run(self, env_cls, reward_mode, actions_of, rng):
        sampler = make_sampler(replace(benchmark_spec(), n_evs=8))
        seeds = iter(range(1, 1000))
        scenarios = [sampler(next(seeds)) for _ in range(self.ROWS)]
        batch = env_cls(scenarios, reward_mode)
        singles = [env_cls(sc, reward_mode) for sc in scenarios]
        resets = 0
        for _ in range(150):
            lo, hi = batch.bounds()
            for row, one in enumerate(singles):
                np.testing.assert_allclose(batch.state[row], one.state, rtol=1e-12, atol=1e-12)
                np.testing.assert_allclose(lo[row], one.bounds()[0], rtol=1e-12, atol=1e-12)
                np.testing.assert_allclose(hi[row], one.bounds()[1], rtol=1e-12, atol=1e-12)
                np.testing.assert_allclose(batch.residuals[row], one.residuals, rtol=1e-12, atol=1e-12)
                assert batch.t[row] == one.t
            actions = actions_of(rng)
            amounts, rewards = batch.step(actions)
            for row, one in enumerate(singles):
                want_amounts, want_reward = one.step(actions[row])
                np.testing.assert_allclose(amounts[row], want_amounts, rtol=1e-12, atol=1e-12)
                assert rewards[row] == pytest.approx(want_reward, rel=1e-12, abs=1e-12)
                assert batch.done[row] == one.done
            ended = np.flatnonzero(batch.done)
            if ended.size:
                new = [sampler(next(seeds)) for _ in ended]
                batch.reset(ended, new)
                for row, sc in zip(ended, new):
                    singles[row] = env_cls(sc, reward_mode)
                resets += ended.size
        assert resets >= self.ROWS  # every row ran into a new episode

    def test_charging_env(self, rng):
        self.run(ChargingEnv, REWARD_EXACT, lambda rng: rng.uniform(-1.0, 4.0, size=(self.ROWS, 8)), rng)

    def test_aggregate_env(self, rng):
        for mode in REWARD_MODES:
            self.run(AggregateEnv, mode, lambda rng: rng.uniform(-0.5, 3.0, size=self.ROWS), rng)

    def test_scenarios_must_share_fleet_size_horizon_and_price(self):
        sampler = make_sampler(replace(benchmark_spec(), n_evs=8))
        other = make_sampler(replace(benchmark_spec(), n_evs=9))
        with pytest.raises(ValueError, match="share"):
            ChargingEnv([sampler(1), other(2)])
        env = AggregateEnv([sampler(1), sampler(2)])
        with pytest.raises(ValueError, match="share"):
            env.reset(np.array([0]), [other(3)])
