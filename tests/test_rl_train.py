"""Actor-critic training loop tests: updates, schedules, replay, divergence."""

import numpy as np
import pytest

from evchargelab.model import horizon_cost, validate_schedule
from evchargelab.rl.nets import CriticParams, PolicyParams, init_critic, init_policy
from evchargelab.rl.serialize import (
    config_hash,
    load_critic,
    load_policy,
    save_critic,
    save_policy,
)
from evchargelab.rl.train import (
    ADVANTAGE_MODES,
    ParameterStore,
    TrainConfig,
    TrainingDiverged,
    TrainResult,
    _run_training,
    accumulate_return,
    calc_aggregate_series,
    calc_schedule,
    critic_update,
    replay_training,
    sca_schedule,
    td_error,
    train_calc_stage1,
    train_sca,
)
from evchargelab.solvers import solve_offline

from conftest import make_ev, make_scenario, random_feasible_scenario


def scalar_policy(theta=0.0):
    return PolicyParams(
        w_hidden=np.zeros((1, 1)), b_hidden=np.zeros(1),
        w_mu=np.array([[theta]]), b_mu=np.zeros(1), log_sigma=np.zeros(1),
    )


def scalar_critic(theta=1.0):
    return CriticParams(
        w_hidden=np.zeros((2, 1)), b_hidden=np.zeros(1),
        w_value=np.array([theta]), b_value=0.0,
    )


class TestScalarUpdates:
    def test_td_error_hand_value(self):
        assert td_error(1.0, 0.5, 0.5, 0.01) == pytest.approx(0.505)
        assert td_error(1.0, 0.0, 0.5, 0.01) == pytest.approx(0.5)

    def test_td_error_self_consistency(self):
        q = 3.0
        assert td_error(0.0, q, q, 1.0) == 0.0
        assert td_error(0.0, q, q, 0.5) == pytest.approx(-0.5 * q)

    def test_td_error_zeros(self):
        assert td_error(0.0, 0.0, 0.0, 0.9) == 0.0

    def test_accumulate_return(self):
        assert accumulate_return(1.0, 0.0, 0.77) == 1.0
        assert accumulate_return(0.0, 5.0, 0.01) == pytest.approx(0.05)

    def test_accumulate_return_geometric_limit(self):
        running = 0.0
        for _ in range(200):
            running = accumulate_return(1.0, running, 0.5)
        assert running == pytest.approx(2.0)

    def test_critic_update_scalar(self):
        params = scalar_critic(theta=1.0)
        grad = scalar_critic(theta=3.0)
        grad.b_value = 0.0
        critic_update(params, delta=2.0, grad_q=grad, beta_c=0.1)
        assert params.w_value[0] == pytest.approx(1.6)

    def test_critic_update_noops(self):
        params = scalar_critic(theta=1.0)
        critic_update(params, 0.0, scalar_critic(theta=3.0), beta_c=0.5)
        assert params.w_value[0] == 1.0
        critic_update(params, 2.0, scalar_critic(theta=3.0), beta_c=0.0)
        assert params.w_value[0] == 1.0

    # The actor step is the store's push: policy += beta_a * accumulated score.
    def test_actor_update_scalar(self):
        store = ParameterStore(scalar_policy(theta=0.0), scalar_critic(), TrainConfig(beta_a=0.5))
        store.push(0, scalar_policy(theta=2.0), scalar_critic(theta=0.0), steps=1)
        assert store.policy.w_mu[0, 0] == pytest.approx(1.0)

    def test_actor_update_noop_on_zero_delta(self):
        store = ParameterStore(scalar_policy(theta=0.3), scalar_critic(), TrainConfig(beta_a=0.5))
        store.push(0, scalar_policy(theta=0.0), scalar_critic(theta=0.0), steps=1)
        assert store.policy.w_mu[0, 0] == 0.3

    def test_non_finite_delta_skipped_with_warning(self):
        params = scalar_critic(theta=0.3)
        with pytest.warns(UserWarning):
            critic_update(params, float("nan"), scalar_critic(theta=2.0), beta_c=0.5)
        assert params.w_value[0] == 0.3


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.beta_a == 1e-4 and cfg.beta_c == 1e-3
        assert cfg.discount == 0.01 and cfg.k_max == 200_000
        assert cfg.n_workers == 4 and cfg.update_period == 20

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(beta_a=0.0)
        with pytest.raises(ValueError):
            TrainConfig(discount=1.0)
        with pytest.raises(ValueError):
            TrainConfig(n_workers=0)
        with pytest.raises(ValueError):
            TrainConfig(reward_mode="gold-stars")

    def test_grad_clip_must_be_positive(self):
        # 0 would zero every TD error and advantage, a negative bound would
        # flip the sign of every clipped gradient; inf means no clipping.
        for bad in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError, match="grad_clip"):
                TrainConfig(grad_clip=bad)
        assert TrainConfig(grad_clip=float("inf")).grad_clip == float("inf")


def tiny_cfg(**kw):
    defaults = dict(k_max=600, n_workers=1, seed=0, discount=0.9,
                    policy_hidden=16, critic_hidden=8)
    defaults.update(kw)
    return TrainConfig(**defaults)


class TestTraining:
    def test_zero_ev_scenario_rewards_zero(self):
        scn = make_scenario([], horizon=4, base_load=[1.0] * 4)
        result = train_sca(lambda seed: scn, tiny_cfg(k_max=200))
        assert all(e.total_reward == 0.0 for e in result.episodes)
        for arr in result.policy.arrays():
            assert np.all(np.isfinite(arr))

    def test_single_slot_forced_optimum(self):
        # One slot, demand below b_max: the corridor forces the exact demand,
        # so the rollout hits the offline optimum regardless of learning.
        ev = make_ev(0, 1, 1, demand=2.0, b_max=3.2)
        scn = make_scenario([ev], horizon=1, base_load=[1.0])
        result = train_sca(lambda seed: scn, tiny_cfg(k_max=100))
        sched = sca_schedule(result.policy, scn)
        assert sched.amounts[0, 0] == pytest.approx(2.0)
        assert horizon_cost(sched, scn) == pytest.approx(solve_offline(scn).objective, abs=1e-6)

    def test_schedules_validate_on_random_scenarios(self):
        for k in range(3):
            scn = random_feasible_scenario(np.random.default_rng(800 + k))
            result = train_sca(lambda seed, s=scn: s, tiny_cfg(k_max=300, seed=k))
            assert validate_schedule(sca_schedule(result.policy, scn), scn, tol=1e-6).passed

    def test_every_advantage_mode_trains_finite(self):
        scn = random_feasible_scenario(np.random.default_rng(77))
        for mode in ADVANTAGE_MODES:
            result = train_sca(lambda seed: scn, tiny_cfg(k_max=200, advantage=mode))
            for arr in result.policy.arrays():
                assert np.all(np.isfinite(arr)), mode

    def test_unknown_advantage_mode_rejected(self):
        for mode in ("monte-carlo", "td"):
            with pytest.raises(ValueError):
                TrainConfig(advantage=mode)

    def test_negative_critic_warmup_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(critic_warmup=-1)

    def test_critic_warmup_freezes_policy(self):
        from evchargelab.rl.nets import init_policy as fresh_policy

        scn = random_feasible_scenario(np.random.default_rng(78))
        cfg = tiny_cfg(k_max=200, critic_warmup=10**9)
        result = train_sca(lambda seed: scn, cfg)
        init_rng = np.random.default_rng([cfg.seed, 0x1D])
        untouched = fresh_policy(scn.n_evs + 1, scn.n_evs, init_rng, hidden=cfg.policy_hidden)
        for got, init in zip(result.policy.arrays(), untouched.arrays()):
            assert np.array_equal(got, init)

    def test_clip_counts(self):
        scn = random_feasible_scenario(np.random.default_rng(45))
        unclipped = train_sca(lambda seed: scn, tiny_cfg(k_max=200, grad_clip=float("inf")))
        assert (unclipped.policy_clips, unclipped.critic_clips) == (0, 0)
        # Every critic gradient holds d Q / d b_value = 1, so a bound below 1 clips each one.
        clipped = train_sca(lambda seed: scn, tiny_cfg(k_max=200, grad_clip=1e-9))
        assert clipped.critic_clips >= clipped.global_steps
        assert clipped.policy_clips == clipped.critic_clips

    def test_b_value_stays_a_float(self):
        scn = random_feasible_scenario(np.random.default_rng(46))
        for train in (train_sca, train_calc_stage1):
            result = train(lambda seed: scn, tiny_cfg(k_max=100, grad_clip=1e-3))
            assert result.critic_clips > 0 and type(result.critic.b_value) is float

    def test_training_log_fields(self, tmp_path):
        scn = random_feasible_scenario(np.random.default_rng(42))
        result = train_sca(lambda seed: scn, tiny_cfg(k_max=300))
        assert result.global_steps > 300  # runs past the budget by <= one period
        assert len(result.episodes) > 0
        path = tmp_path / "log.csv"
        result.write_log(path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "episode,steps,moving_reward,wall_ms"
        assert len(lines) == len(result.episodes) + 1

    def test_single_worker_deterministic(self):
        scn = random_feasible_scenario(np.random.default_rng(43))
        r1 = train_sca(lambda seed: scn, tiny_cfg(k_max=300, seed=5))
        r2 = train_sca(lambda seed: scn, tiny_cfg(k_max=300, seed=5))
        for a, b in zip(r1.policy.arrays(), r2.policy.arrays()):
            np.testing.assert_array_equal(a, b)
        assert r1.moving_rewards() == pytest.approx(r2.moving_rewards())

    def test_multi_worker_replay_bit_exact(self):
        spec_rng = np.random.default_rng(44)
        scn = random_feasible_scenario(spec_rng)
        sampler = lambda seed: scn
        cfg = tiny_cfg(k_max=800, n_workers=3, seed=9)
        result = train_sca(sampler, cfg)
        assert {op for op, _ in result.interleaving} == {"sync", "push"}
        assert len({wid for _, wid in result.interleaving}) == 3
        replayed = replay_training(sampler, scn.n_evs + 1, scn.n_evs, cfg, result.interleaving)
        for a, b in zip(result.policy.arrays(), replayed.policy.arrays()):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(result.critic.arrays(), replayed.critic.arrays()):
            np.testing.assert_array_equal(a, b)
        assert result.critic.b_value == replayed.critic.b_value

    def test_untrained_policy_on_zero_price_scale_scenario(self):
        # k0 = 0, a zero base load and no cap give the per-EV env no price scale.
        evs = [make_ev(i, 1 + i, 6 + i, demand=5.0, b_max=2.0) for i in range(3)]
        scn = make_scenario(evs, horizon=10, k0=0.0, k1=0.001)
        policy = init_policy(scn.n_evs + 1, scn.n_evs, np.random.default_rng(0), hidden=16)
        sched = sca_schedule(policy, scn)
        assert np.all(np.isfinite(sched.amounts))
        assert validate_schedule(sched, scn).passed

    def test_calc_stage1_and_projection(self):
        for k in range(2):
            scn = random_feasible_scenario(np.random.default_rng(900 + k))
            result = train_calc_stage1(lambda seed, s=scn: s, tiny_cfg(k_max=300, seed=k))
            sched = calc_schedule(result.policy, scn)
            assert validate_schedule(sched, scn, tol=1e-5).passed

    def test_calc_projects_policy_targets_not_committed_series(self):
        # A policy asking for nothing: the aggregate env's laxity clamp would
        # commit [0, 0, 0, 4], and projecting that series reproduces it. Stage
        # 2 gets the policy's own (zero) targets instead, and the closest
        # demand-feasible schedule to them charges flat.
        ev = make_ev(0, 1, 4, demand=4.0, b_max=4.0)
        scn = make_scenario([ev], horizon=4, base_load=[1.0] * 4)
        policy = init_policy(2, 1, np.random.default_rng(0), hidden=4)
        policy.w_mu[:] = 0.0
        np.testing.assert_array_equal(calc_aggregate_series(policy, scn), np.zeros(4))
        assert calc_schedule(policy, scn).amounts[0] == pytest.approx([1.0, 1.0, 1.0, 1.0], abs=1e-6)

    def test_calc_targets_follow_policy_mean(self):
        # Asking 3 kWh a slot (3x the 1 kWh mean): the env commits 3 then the
        # last 1 kWh and stops, but the targets stay what the policy asked.
        ev = make_ev(0, 1, 4, demand=4.0, b_max=4.0)
        scn = make_scenario([ev], horizon=4, base_load=[1.0] * 4)
        policy = init_policy(2, 1, np.random.default_rng(0), hidden=4)
        policy.w_mu[:] = 0.0
        policy.b_mu[:] = 3.0
        assert calc_aggregate_series(policy, scn) == pytest.approx([3.0, 3.0, 0.0, 0.0])

    def test_calc_state_dimension_fixed(self):
        # The aggregate policy's input is 2-dimensional no matter the fleet.
        for n in (1, 4):
            evs = [make_ev(i, 1, 4, demand=2.0, b_max=2.0) for i in range(n)]
            scn = make_scenario(evs, horizon=4, base_load=[1.0] * 4)
            result = train_calc_stage1(lambda seed, s=scn: s, tiny_cfg(k_max=100))
            assert result.policy.w_hidden.shape[0] == 2


class _DegradingEnv:
    """One-step episodes whose reward collapses after a warm start."""

    count = 0
    state_dim = 1
    action_dim = 1

    def __init__(self):
        self.t = 1
        self.done = False
        self.state = self

    def vector(self):
        return np.zeros(1)

    def bounds(self):
        return np.zeros(1), np.ones(1)

    def reward(self, episode: int) -> float:
        return -1.0 if episode <= 25 else -1000.0

    def step(self, action):
        from evchargelab.rl.env import EnvTransition

        type(self).count += 1
        self.done = True
        return EnvTransition(self, np.atleast_1d(action), self.reward(type(self).count), self, True)


class _NearZeroEnv(_DegradingEnv):
    """Rewards of spread 0.5 around a mean near 0 (as flat-regret gives) that
    later sits `drop` lower."""

    drop = 0.0

    def reward(self, episode: int) -> float:
        return 0.5 * (-1.0) ** episode - (self.drop if episode > 25 else 0.0)


class TestDivergenceDetector:
    def test_collapsing_reward_aborts(self):
        _DegradingEnv.count = 0
        cfg = tiny_cfg(k_max=100_000, update_period=1)
        with pytest.raises(TrainingDiverged):
            _run_training(lambda seed: _DegradingEnv(), 1, 1, cfg)

    def test_noise_near_zero_does_not_abort(self):
        # The first window's mean is -0.02 and its spread 0.5; windows 0.5
        # lower drop by 25 times the best mean but by one spread: noise.
        _NearZeroEnv.count, _NearZeroEnv.drop = 0, 0.5
        result = _run_training(lambda seed: _NearZeroEnv(), 1, 1, tiny_cfg(k_max=300, update_period=1))
        assert len(result.episodes) >= 8 * 25

    def test_collapse_near_zero_aborts(self):
        _NearZeroEnv.count, _NearZeroEnv.drop = 0, 100.0
        with pytest.raises(TrainingDiverged):
            _run_training(lambda seed: _NearZeroEnv(), 1, 1, tiny_cfg(k_max=300, update_period=1))


class TestSerialization:
    def test_policy_roundtrip(self, tmp_path, rng):
        params = init_policy(4, 2, rng, hidden=6)
        params.log_sigma[:] = rng.normal(size=2)
        path = tmp_path / "policy.txt"
        save_policy(params, path, seed=3, cfg_hash=config_hash(TrainConfig()))
        loaded = load_policy(path)
        for a, b in zip(params.arrays(), loaded.arrays()):
            np.testing.assert_array_equal(a, b)

    def test_critic_roundtrip(self, tmp_path, rng):
        params = init_critic(5, rng, hidden=7)
        params.b_value = 0.123456789
        path = tmp_path / "critic.txt"
        save_critic(params, path)
        loaded = load_critic(path)
        for a, b in zip(params.arrays(), loaded.arrays()):
            np.testing.assert_array_equal(a, b)
        assert loaded.b_value == params.b_value

    def test_kind_mismatch_rejected(self, tmp_path, rng):
        path = tmp_path / "p.txt"
        save_policy(init_policy(2, 1, rng, hidden=3), path)
        with pytest.raises(ValueError):
            load_critic(path)

    def test_header_versioned(self, tmp_path, rng):
        path = tmp_path / "p.txt"
        save_policy(init_policy(2, 1, rng, hidden=3), path)
        first = path.read_text().splitlines()[0]
        assert first.startswith("evchargelab-params v")

    def test_config_hash_stable(self):
        assert config_hash(TrainConfig()) == config_hash(TrainConfig())
        assert config_hash(TrainConfig()) != config_hash(TrainConfig(seed=1))
