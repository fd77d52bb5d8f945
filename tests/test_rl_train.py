"""Actor-critic training loop tests: updates, schedules, replay, divergence."""

from pathlib import Path

import numpy as np
import pytest

from evchargelab.model import horizon_cost, validate_schedule
from evchargelab.rl.nets import (
    CriticParams,
    PolicyParams,
    critic_gradient,
    critic_value,
    init_critic,
    init_policy,
    log_policy_gradient,
)
from evchargelab.rl.serialize import (
    config_hash,
    load_policy,
    save_policy,
)
from evchargelab.rl.train import (
    ADVANTAGE_MODES,
    ParameterStore,
    TrainConfig,
    TrainingDiverged,
    TrainResult,
    _RowCritics,
    _run_training,
    accumulate_return,
    calc_aggregate_series,
    calc_schedule,
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


def row_critics(theta=1.0):
    """One row critic on the scalar critic, evaluated once (an update moves its last point)."""
    critics = _RowCritics(1, 2, scalar_critic(theta))
    critics.factors(np.zeros((1, 1)), np.zeros((1, 1)))
    return critics


def scalar_factors(h):
    """Gradient factors (x, h, d_z) of the scalar critic whose w_value part is h."""
    return np.zeros((1, 2)), np.array([[h]]), np.zeros((1, 1))


class TestRowCritics:
    def test_match_the_critics_written_out(self, rng):
        # Each row's critic, kept as the synced one plus its steps' factors, evaluates as the
        # critic with every step applied to its arrays.
        for state_dim, action_dim, hidden, period in ((41, 40, 100, 10), (2, 1, 100, 20), (3, 2, 5, 3)):
            critic = init_critic(state_dim + action_dim, rng, hidden=hidden)
            critic.b_hidden[:] = rng.normal(size=hidden)
            critics = _RowCritics(4, period, critic)
            written = [critic.copy() for _ in range(4)]
            for _ in range(period):
                states, actions = rng.normal(size=(4, state_dim)), np.abs(rng.normal(size=(4, action_dim)))
                q, x, h, d_z = critics.factors(states, actions)
                for row, one in enumerate(written):
                    want_q, grad = critic_gradient(one, states[row], actions[row])
                    assert q[row] == pytest.approx(want_q, rel=1e-10, abs=1e-12)
                    np.testing.assert_allclose(np.outer(x[row], d_z[row]), grad.w_hidden, rtol=1e-10, atol=1e-12)
                    np.testing.assert_allclose(h[row], grad.w_value, rtol=1e-10, atol=1e-12)
                delta = rng.normal(size=4)
                critics.update(delta, x, h, d_z, 0.05)
                for row, one in enumerate(written):
                    _, grad = critic_gradient(one, states[row], actions[row])
                    one.add_scaled(grad, 0.05 * delta[row])
                # After the update, `last` is the updated critics at the same point.
                q, _, h, _ = critics.last()
                for row, one in enumerate(written):
                    assert q[row] == pytest.approx(critic_value(one, states[row], actions[row]), rel=1e-10, abs=1e-12)


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

    # A row critic's step: its w_value moves by beta_c * delta * h (h = 3 here).
    def test_critic_update_scalar(self):
        critics = row_critics(theta=1.0)
        critics.update(np.array([2.0]), *scalar_factors(h=3.0), beta_c=0.1)
        assert critics.w_value[0, 0] == pytest.approx(1.6)

    def test_critic_update_noops(self):
        critics = row_critics(theta=1.0)
        critics.update(np.array([0.0]), *scalar_factors(h=3.0), beta_c=0.5)
        assert critics.w_value[0, 0] == 1.0
        critics.update(np.array([2.0]), *scalar_factors(h=3.0), beta_c=0.0)
        assert critics.w_value[0, 0] == 1.0

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
        critics = row_critics(theta=0.3)
        with pytest.warns(UserWarning):
            critics.update(np.array([float("nan")]), *scalar_factors(h=2.0), beta_c=0.5)
        assert critics.w_value[0, 0] == 0.3 and critics.b_value[0] == 0.0


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

    @pytest.mark.parametrize("field", ["beta_a", "beta_c"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_learning_rates_must_be_finite(self, field, value):
        with pytest.raises(ValueError, match="learning rates"):
            TrainConfig(**{field: value})

    def test_grad_clip_must_be_positive(self):
        # 0 would zero every TD error and advantage, a negative bound would
        # flip the sign of every clipped gradient; inf means no clipping.
        for bad in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError, match="grad_clip"):
                TrainConfig(grad_clip=bad)
        assert TrainConfig(grad_clip=float("inf")).grad_clip == float("inf")


def tiny_cfg(**kw):
    defaults = dict(k_max=600, n_workers=1, seed=0, discount=0.9)
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
        untouched = fresh_policy(scn.n_evs + 1, scn.n_evs, init_rng)
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
        # Every field is a number (wall_ms was written as "np.float64(...)").
        for line in lines[1:]:
            fields = line.split(",")
            assert len(fields) == 4 and all(np.isfinite(float(field)) for field in fields), line

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


class TestLockstep:
    def test_interleaving_is_a_fixed_round_robin(self):
        # Every window, all rows sync and then push in row order; the first push past k_max ends it.
        scn = random_feasible_scenario(np.random.default_rng(47))
        for n_workers, period, k_max in ((3, 4, 250), (3, 4, 252), (1, 20, 250)):
            result = train_sca(lambda seed: scn, tiny_cfg(k_max=k_max, n_workers=n_workers, update_period=period))
            assert k_max < result.global_steps <= k_max + period
            pushes = result.global_steps // period
            windows, last = divmod(pushes - 1, n_workers)
            rows = range(n_workers)
            rounds = ([("sync", r) for r in rows] + [("push", r) for r in rows]) * windows
            assert result.interleaving == rounds + [("sync", r) for r in rows] + [("push", r) for r in range(last + 1)]

    def test_replay_checks_the_log(self):
        scn = random_feasible_scenario(np.random.default_rng(48))
        cfg = tiny_cfg(k_max=100, n_workers=2)
        result = train_sca(lambda seed: scn, cfg)
        with pytest.raises(ValueError, match="interleaving"):
            replay_training(lambda seed: scn, scn.n_evs + 1, scn.n_evs, cfg, result.interleaving[:-1])
        with pytest.raises(ValueError, match="dimensions"):
            replay_training(lambda seed: scn, scn.n_evs + 2, scn.n_evs, cfg, result.interleaving)

    def test_every_score_is_taken_under_the_policy_that_drew(self, monkeypatch):
        # Each push carries its row's score (times its advantage weight) at a draw that the
        # policy synced at the window's start made: with update_period = 1, the score of the
        # first draw after the syncs, under the parameters that made that draw.
        import evchargelab.rl.train as train

        events = []
        draw, sync, push = train.policy_draw, ParameterStore.sync, ParameterStore.push

        def record_draw(params, states, rng, forward=None):
            draws = draw(params, states, rng, forward)
            events.append(("draw", params.copy(), states.copy(), draws.copy()))
            return draws

        def record_sync(store, worker_ids):  # once per window, for every row
            events.append(("sync", store.policy.copy()))
            return sync(store, worker_ids)

        def record_push(store, worker_id, d_policy, d_critic, steps):
            events.append(("push", worker_id, d_policy.flat.copy()))
            return push(store, worker_id, d_policy, d_critic, steps)

        monkeypatch.setattr(train, "policy_draw", record_draw)
        monkeypatch.setattr(ParameterStore, "sync", record_sync)
        monkeypatch.setattr(ParameterStore, "push", record_push)
        scn = random_feasible_scenario(np.random.default_rng(49))
        train_sca(lambda seed: scn, tiny_cfg(k_max=120, n_workers=2, update_period=1))

        checked = 0
        synced = scored = None
        for event in events:
            if event[0] == "sync":
                synced, scored = event[1], None
            elif event[0] == "draw" and scored is None:
                scored = event
                assert scored[1].flat.tobytes() == synced.flat.tobytes()
            elif event[0] == "push":
                _, params, states, draws = scored
                row, pushed = event[1], event[2]
                score = log_policy_gradient(params, states[row], draws[row]).flat
                weight = pushed @ score / (score @ score)
                np.testing.assert_allclose(pushed, weight * score, rtol=1e-9, atol=1e-12 * np.abs(pushed).max())
                checked += weight != 0.0
        assert checked >= 50

    def test_stored_policy_schedules_unchanged(self):
        # SHA-256 of the schedules the stored benchmark policies give on benchmark fleets 1-20,
        # as the one-scenario envs gave them before the envs took rows.
        import hashlib

        from evchargelab.harness import benchmark_spec, build_scenario

        skip_unless_recording_blas()
        want = {
            "sca": (sca_schedule, "1dc39d73e5bf65657dab94b5cd407fea8d74850571b8ff8d9abe650bec66f933"),
            "calc": (calc_schedule, "e2eb2771af0f9cd649f05f456c6276a73d50edd5f63fe0eac988f42851c08f02"),
        }
        for name, (schedule, digest) in want.items():
            policy = load_policy(STORED_POLICIES / f"{name}_policy.txt")
            sha = hashlib.sha256()
            for seed in range(1, 21):
                sha.update(schedule(policy, build_scenario(benchmark_spec(), seed)[0]).amounts.tobytes())
            assert sha.hexdigest() == digest, name

    @pytest.mark.parametrize("algorithm, trainer, digest", ids=["SCA", "CALC"], argvalues=[
        ("SCA", train_sca, "eba25d2c0a563353a2f1649b2a638cd380d78d0d6b371ba809bdc77d59dc6e7b"),
        ("CALC", train_calc_stage1, "2a9d7a6333bac801742d040f9c1f67546527cbb7df0f1af7036f0f6f43a5dff1"),
    ])
    def test_trained_bits_exact_on_benchmark(self, algorithm, trainer, digest):
        # SHA-256 of the policy and critic buffers, the episode totals and the interleaving
        # log of a training at the train workload's budget (6k steps, the warm-up scaled
        # with it), seed 1, as recorded when every row synced its own copy of both nets.
        import hashlib
        from dataclasses import replace

        from evchargelab.harness import benchmark_spec, benchmark_train_config, make_sampler

        skip_unless_recording_blas()
        cfg = benchmark_train_config(algorithm)
        cfg = replace(cfg, k_max=6_000, critic_warmup=cfg.critic_warmup * 6_000 // cfg.k_max, seed=1)
        result = trainer(make_sampler(benchmark_spec()), cfg)
        sha = hashlib.sha256(result.policy.flat.tobytes() + result.critic.flat.tobytes())
        sha.update(np.array([e.total_reward for e in result.episodes]).tobytes())
        sha.update(repr(result.interleaving).encode())
        assert sha.hexdigest() == digest


STORED_POLICIES = Path(__file__).resolve().parent.parent / "perfbench" / "inputs"


def skip_unless_recording_blas():
    """Skip a digest test where this BLAS rounds differently from the one that recorded it.

    Matrix-vector sums round in the BLAS's own order; the digest of one fixed
    forward pass per stored benchmark policy identifies the recording one.
    """
    import hashlib

    from evchargelab.rl.nets import policy_forward

    probes = {"sca": "9fee8f59319c6ab48beb62946a44ee86d1a72855db7fd33564657aa63d9797aa",
              "calc": "8f159831312351063a8e060d6435f119a0124b7462ec5714f1024492096370c2"}
    for name, probe in probes.items():
        policy = load_policy(STORED_POLICIES / f"{name}_policy.txt")
        _, mu, _ = policy_forward(policy, np.linspace(0.0, 1.0, policy.w_hidden.shape[0]))
        if hashlib.sha256(mu.tobytes()).hexdigest() != probe:
            pytest.skip("this BLAS rounds the policy's forward pass differently from the one that recorded the digests")


class _DegradingEnv:
    """Rows of one-step episodes whose reward collapses after a warm start."""

    count = 0
    state_dim = 1
    action_dim = 1

    def __init__(self, scenarios, reward_mode):
        self.rows = len(scenarios)
        self.state = np.zeros((self.rows, 1))
        self.done = np.ones(self.rows, dtype=bool)

    def bounds(self):
        return np.zeros((self.rows, 1)), np.ones((self.rows, 1))

    def reset(self, rows, scenarios):
        pass

    def reward(self, episode: int) -> float:
        return -1.0 if episode <= 25 else -1000.0

    def step(self, actions):
        rewards = []
        for _ in range(self.rows):
            type(self).count += 1
            rewards.append(self.reward(type(self).count))
        return actions, np.array(rewards)


class _NearZeroEnv(_DegradingEnv):
    """Rewards of spread 0.5 around a mean near 0 (as flat-regret gives) that
    later sits `drop` lower."""

    drop = 0.0

    def reward(self, episode: int) -> float:
        return 0.5 * (-1.0) ** episode - (self.drop if episode > 25 else 0.0)


def no_scenario(seed):
    return None


class TestDivergenceDetector:
    def test_collapsing_reward_aborts(self):
        _DegradingEnv.count = 0
        cfg = tiny_cfg(k_max=100_000, update_period=1)
        with pytest.raises(TrainingDiverged):
            _run_training(_DegradingEnv, no_scenario, cfg)

    def test_noise_near_zero_does_not_abort(self):
        # The first window's mean is -0.02 and its spread 0.5; windows 0.5
        # lower drop by 25 times the best mean but by one spread: noise.
        _NearZeroEnv.count, _NearZeroEnv.drop = 0, 0.5
        result = _run_training(_NearZeroEnv, no_scenario, tiny_cfg(k_max=300, update_period=1))
        assert len(result.episodes) >= 8 * 25

    def test_collapse_near_zero_aborts(self):
        _NearZeroEnv.count, _NearZeroEnv.drop = 0, 100.0
        with pytest.raises(TrainingDiverged):
            _run_training(_NearZeroEnv, no_scenario, tiny_cfg(k_max=300, update_period=1))


class TestSerialization:
    def test_policy_roundtrip(self, tmp_path, rng):
        params = init_policy(4, 2, rng, hidden=6)
        params.log_sigma[:] = rng.normal(size=2)
        path = tmp_path / "policy.txt"
        save_policy(params, path, seed=3, cfg_hash=config_hash(TrainConfig()))
        loaded = load_policy(path)
        for a, b in zip(params.arrays(), loaded.arrays()):
            np.testing.assert_array_equal(a, b)

    def test_kind_mismatch_rejected(self, tmp_path, rng):
        path = tmp_path / "p.txt"
        save_policy(init_policy(2, 1, rng, hidden=3), path)
        path.write_text(path.read_text().replace("kind=policy\n", "kind=critic\n", 1))
        with pytest.raises(ValueError, match="expected kind policy, found critic"):
            load_policy(path)

    def test_header_versioned(self, tmp_path, rng):
        path = tmp_path / "p.txt"
        save_policy(init_policy(2, 1, rng, hidden=3), path)
        first = path.read_text().splitlines()[0]
        assert first.startswith("evchargelab-params v")

    def test_config_hash_stable(self):
        assert config_hash(TrainConfig()) == config_hash(TrainConfig())
        assert config_hash(TrainConfig()) != config_hash(TrainConfig(seed=1))
