"""Gaussian-policy and critic network tests, including finite-difference oracles."""

import numpy as np
import pytest

from evchargelab.rl.nets import (
    CriticParams,
    PolicyParams,
    critic_gradient,
    critic_value,
    init_critic,
    init_policy,
    log_policy_density,
    log_policy_gradient,
    policy_draw,
    policy_forward,
)


def small_policy(rng, state_dim=3, action_dim=2, hidden=8):
    return init_policy(state_dim, action_dim, rng, hidden=hidden)


def fd_policy_gradient(params, state, action, eps=1e-5):
    """Central finite differences of log pi over every parameter entry."""
    grads = params.zeros_like()
    for p_arr, g_arr in zip(params.arrays(), grads.arrays()):
        it = np.nditer(p_arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = p_arr[idx]
            p_arr[idx] = orig + eps
            hi = log_policy_density(params, state, action)
            p_arr[idx] = orig - eps
            lo = log_policy_density(params, state, action)
            p_arr[idx] = orig
            g_arr[idx] = (hi - lo) / (2 * eps)
    return grads


def fd_critic_gradient(params, state, action, eps=1e-5):
    grads = params.zeros_like()
    for p_arr, g_arr in zip(params.arrays(), grads.arrays()):
        it = np.nditer(p_arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = p_arr[idx]
            p_arr[idx] = orig + eps
            hi = critic_value(params, state, action)
            p_arr[idx] = orig - eps
            lo = critic_value(params, state, action)
            p_arr[idx] = orig
            g_arr[idx] = (hi - lo) / (2 * eps)
    orig = params.b_value
    params.b_value = orig + eps
    hi = critic_value(params, state, action)
    params.b_value = orig - eps
    lo = critic_value(params, state, action)
    params.b_value = orig
    grads.b_value = (hi - lo) / (2 * eps)
    return grads


def rel_err(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-8)


class TestForward:
    def test_zero_net(self):
        params = PolicyParams(
            w_hidden=np.zeros((2, 4)), b_hidden=np.zeros(4),
            w_mu=np.zeros((4, 1)), b_mu=np.zeros(1), log_sigma=np.zeros(1),
        )
        _, mu, log_sigma = policy_forward(params, np.array([1.0, -1.0]))
        assert mu == pytest.approx([0.0]) and log_sigma == pytest.approx([0.0])

    def test_hand_hidden_unit(self):
        params = PolicyParams(
            w_hidden=np.array([[2.0]]), b_hidden=np.array([1.0]),
            w_mu=np.array([[1.0]]), b_mu=np.zeros(1), log_sigma=np.zeros(1),
        )
        h, mu, _ = policy_forward(params, np.array([3.0]))
        assert h == pytest.approx([7.0])
        assert mu == pytest.approx([7.0])

    def test_rectification(self):
        params = PolicyParams(
            w_hidden=np.array([[1.0]]), b_hidden=np.zeros(1),
            w_mu=np.array([[5.0]]), b_mu=np.zeros(1), log_sigma=np.zeros(1),
        )
        h, mu, _ = policy_forward(params, np.array([-2.0]))
        assert h == pytest.approx([0.0]) and mu == pytest.approx([0.0])

    def test_log_sigma_clamped(self):
        params = PolicyParams(
            w_hidden=np.zeros((1, 1)), b_hidden=np.zeros(1),
            w_mu=np.zeros((1, 1)), b_mu=np.zeros(1), log_sigma=np.array([-20.0]),
        )
        _, _, log_sigma = policy_forward(params, np.array([0.0]))
        assert log_sigma == pytest.approx([-5.0])


class TestSampling:
    def test_tiny_sigma_returns_clipped_mean(self, rng):
        params = small_policy(rng)
        params.log_sigma[:] = -20.0  # clamped to the floor, sigma ~ 6.7e-3
        state = rng.normal(size=3)
        _, mu, _ = policy_forward(params, state)
        action = np.clip(policy_draw(params, state, rng), 0.0, 3.2)
        assert action == pytest.approx(np.clip(mu, 0.0, 3.2), abs=0.05)

    def test_low_mean_clips_to_zero(self, rng):
        params = small_policy(rng, action_dim=1)
        params.b_mu[:] = -5.0
        params.w_mu[:] = 0.0
        params.log_sigma[:] = -5.0
        action = np.clip(policy_draw(params, rng.normal(size=3), rng), 0.0, 3.2)
        assert action == pytest.approx([0.0], abs=1e-6)

    def test_seeded_reproducible(self):
        params = small_policy(np.random.default_rng(0))
        state = np.array([0.1, 0.2, 0.3])
        a1 = np.clip(policy_draw(params, state, np.random.default_rng(9)), 0.0, 3.2)
        a2 = np.clip(policy_draw(params, state, np.random.default_rng(9)), 0.0, 3.2)
        np.testing.assert_array_equal(a1, a2)


class TestPolicyGradient:
    def test_zero_mu_gradient_at_mean(self, rng):
        params = small_policy(rng)
        state = rng.normal(size=3)
        _, mu, _ = policy_forward(params, state)
        grads = log_policy_gradient(params, state, mu)
        assert grads.b_mu == pytest.approx(np.zeros(2), abs=1e-12)
        assert np.max(np.abs(grads.w_mu)) < 1e-12

    def test_log_sigma_gradient_at_mean(self, rng):
        params = small_policy(rng)
        state = rng.normal(size=3)
        _, mu, _ = policy_forward(params, state)
        grads = log_policy_gradient(params, state, mu)
        assert grads.log_sigma == pytest.approx([-1.0, -1.0])

    def test_matches_finite_differences(self):
        for trial in range(10):
            rng = np.random.default_rng(1000 + trial)
            params = small_policy(rng, state_dim=2, action_dim=2, hidden=5)
            # Keep log_sigma strictly inside the clamp so the analytic
            # derivative matches the unclamped finite difference.
            params.log_sigma[:] = rng.uniform(-1.0, 0.5, size=2)
            state = rng.normal(size=2)
            action = rng.normal(size=2)
            analytic = log_policy_gradient(params, state, action)
            numeric = fd_policy_gradient(params, state, action)
            for a, n in zip(analytic.arrays(), numeric.arrays()):
                for x, y in zip(a.ravel(), n.ravel()):
                    if max(abs(x), abs(y)) > 1e-7:
                        assert rel_err(x, y) < 1e-4

    def test_score_function_mean_zero(self):
        # E[grad log pi] under the policy itself is zero (score identity);
        # checked by Monte Carlo without action clipping.
        rng = np.random.default_rng(7)
        params = small_policy(rng, state_dim=2, action_dim=1, hidden=4)
        state = np.array([0.4, -0.2])
        n = 100_000
        total = params.zeros_like()
        sq_total = params.zeros_like()
        _, mu, log_sigma = policy_forward(params, state)
        for _ in range(n):
            action = mu + np.exp(log_sigma) * rng.standard_normal(1)
            g = log_policy_gradient(params, state, action)
            total.add_scaled(g, 1.0)
            for sq, arr in zip(sq_total.arrays(), g.arrays()):
                sq += arr**2
        for mean_arr, sq_arr in zip(total.arrays(), sq_total.arrays()):
            mean = mean_arr / n
            var = sq_arr / n - mean**2
            stderr = np.sqrt(np.maximum(var, 1e-18) / n)
            assert np.all(np.abs(mean) <= 3.0 * stderr + 1e-12)


class TestCritic:
    def test_zero_net(self, rng):
        params = CriticParams(np.zeros((3, 4)), np.zeros(4), np.zeros(4), 0.0)
        assert critic_value(params, rng.normal(size=2), rng.normal(size=1)) == 0.0

    def test_hand_single_unit(self):
        params = CriticParams(
            w_hidden=np.array([[1.0], [2.0]]), b_hidden=np.array([0.5]),
            w_value=np.array([3.0]), b_value=0.25,
        )
        # x = (1, 2): z = 1 + 4 + 0.5 = 5.5, q = 3 * 5.5 + 0.25
        assert critic_value(params, np.array([1.0]), np.array([2.0])) == pytest.approx(16.75)

    def test_gradient_matches_finite_differences(self):
        for trial in range(10):
            rng = np.random.default_rng(2000 + trial)
            params = init_critic(4, rng, hidden=6)
            state = rng.normal(size=2)
            action = rng.normal(size=2)
            q, analytic = critic_gradient(params, state, action)
            assert q == pytest.approx(critic_value(params, state, action))
            numeric = fd_critic_gradient(params, state, action)
            pairs = list(zip(analytic.arrays(), numeric.arrays()))
            for a, n in pairs:
                for x, y in zip(a.ravel(), n.ravel()):
                    if max(abs(x), abs(y)) > 1e-7:
                        assert rel_err(x, y) < 1e-4
            assert rel_err(analytic.b_value, numeric.b_value) < 1e-4

    def test_local_lipschitz_continuity(self, rng):
        params = init_critic(3, rng, hidden=8)
        state = rng.normal(size=2)
        action = rng.normal(size=1)
        base = critic_value(params, state, action)
        lipschitz = np.abs(params.w_hidden).sum() * np.abs(params.w_value).max()
        for _ in range(20):
            d = rng.normal(size=1) * 1e-3
            moved = critic_value(params, state, action + d)
            assert abs(moved - base) <= lipschitz * abs(d[0]) + 1e-12


class TestInit:
    def test_fan_in_bounds(self, rng):
        params = init_policy(9, 2, rng, hidden=16)
        assert np.max(np.abs(params.w_hidden)) <= 1.0 / 3.0
        assert np.all(params.b_hidden == 0.0) and np.all(params.b_mu == 0.0)
        assert np.all(params.log_sigma == 0.0)

    def test_copy_and_add_scaled(self, rng):
        params = init_policy(2, 1, rng, hidden=3)
        clone = params.copy()
        clone.add_scaled(params, 1.0)
        np.testing.assert_allclose(clone.w_mu, 2 * params.w_mu)
        # the original is untouched
        assert not np.allclose(clone.w_mu, params.w_mu)
