"""Gaussian-policy and critic network tests, including finite-difference oracles."""

import numpy as np
import pytest

from evchargelab.rl.nets import (
    LOG_SIGMA_MAX,
    LOG_SIGMA_MIN,
    CriticParams,
    PolicyParams,
    critic_gradient,
    critic_value,
    init_critic,
    init_policy,
    log_policy_density,
    log_policy_factors,
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


# Per-array references: the formulas the flat-buffer kernels replaced.
def reference_policy_gradient(params, state, action):
    h, mu, log_sigma = policy_forward(params, state)
    sigma2 = np.exp(2.0 * log_sigma)
    d_mu = (action - mu) / sigma2
    d_log_sigma = (action - mu) ** 2 / sigma2 - 1.0
    d_log_sigma = np.where((params.log_sigma > LOG_SIGMA_MIN) & (params.log_sigma < LOG_SIGMA_MAX), d_log_sigma, 0.0)
    d_z = (params.w_mu @ d_mu) * (h > 0)
    return [np.outer(state, d_z), d_z, np.outer(h, d_mu), d_mu, d_log_sigma]


def reference_critic_gradient(params, state, action):
    x = np.concatenate([np.atleast_1d(state), np.atleast_1d(action)])
    h = np.maximum(x @ params.w_hidden + params.b_hidden, 0.0)
    d_z = params.w_value * (h > 0)
    return float(h @ params.w_value + params.b_value), [np.outer(x, d_z), d_z, h], 1.0


def same_bits(a, b):
    """Equal to the bit, so that +0.0 and -0.0 differ."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def random_case(rng, state_dim, action_dim, hidden):
    """A policy and critic with a state holding +-0.0, log sigma at and past both clamp bounds, and some
    hidden units off."""
    policy = init_policy(state_dim, action_dim, rng, hidden=hidden)
    policy.b_hidden[:] = rng.normal(size=hidden)
    policy.b_mu[:] = rng.normal(size=action_dim)
    policy.log_sigma[:] = rng.choice([LOG_SIGMA_MIN, LOG_SIGMA_MAX, -7.0, 3.0, -0.0, 0.0, 0.4], size=action_dim)
    critic = init_critic(state_dim + action_dim, rng, hidden=hidden)
    critic.b_hidden[:] = rng.normal(size=hidden)
    critic.b_value = float(rng.normal())
    state = rng.normal(size=state_dim) * rng.choice([1e-3, 1.0, 50.0])
    state[rng.integers(state_dim)] = -0.0
    state[rng.integers(state_dim)] = 0.0
    return policy, critic, state


class TestFlatKernelsMatchPerArrayReferences:
    DIMS = ((41, 40, 200), (2, 1, 200), (3, 2, 5))

    def test_policy_gradient_with_reused_forward_and_buffer(self, rng):
        # The gradient's fields are views of its flat buffer, and a reused forward pass gives its bits.
        for state_dim, action_dim, hidden in self.DIMS:
            for _ in range(20):
                policy, _, state = random_case(rng, state_dim, action_dim, hidden)
                forward = policy_forward(policy, state)
                action = policy_draw(policy, state, rng, forward)
                action[rng.integers(action_dim)] = -0.0
                grads = log_policy_gradient(policy, state, action, forward)
                want = reference_policy_gradient(policy, state, action)
                assert all(same_bits(a, b) for a, b in zip(grads.arrays(), want))
                assert all(np.shares_memory(a, grads.flat) for a in grads.arrays())
                fresh = log_policy_gradient(policy, state, action)
                assert same_bits(fresh.flat, grads.flat)

    def test_critic_gradient_into_a_buffer(self, rng):
        for state_dim, action_dim, hidden in self.DIMS:
            for _ in range(20):
                _, critic, state = random_case(rng, state_dim, action_dim, hidden)
                action = np.clip(rng.normal(size=action_dim), 0.0, None)
                q, grads = critic_gradient(critic, state, action)
                want_q, want, want_b = reference_critic_gradient(critic, state, action)
                assert q == want_q and q == critic_value(critic, state, action)
                assert all(same_bits(a, b) for a, b in zip(grads.arrays(), want))
                assert all(np.shares_memory(a, grads.flat) for a in grads.arrays())
                assert grads.b_value == want_b

    def test_score_norms_from_rank1_factors(self, rng):
        # |x ⊗ d| = |x| |d|: the norms the training clips by, without writing the outer products out.
        from evchargelab.rl.train import _score_norm

        for state_dim, action_dim, hidden in self.DIMS:
            for _ in range(10):
                policy, _, _ = random_case(rng, state_dim, action_dim, hidden)
                states = rng.normal(size=(4, state_dim)) * rng.choice([1e-3, 1.0, 50.0])
                states[rng.integers(4), rng.integers(state_dim)] = -0.0
                forward = policy_forward(policy, states)
                draws = policy_draw(policy, states, rng, forward)
                norm = _score_norm(states, forward[0], *log_policy_factors(policy, draws, forward))
                want = np.sqrt((log_policy_gradient(policy, states, draws).flat ** 2).sum(axis=-1))
                np.testing.assert_allclose(norm, want, rtol=1e-12, atol=0.0)

    def test_add_scaled_and_copy(self, rng):
        for state_dim, action_dim, hidden in self.DIMS:
            policy, critic, _ = random_case(rng, state_dim, action_dim, hidden)
            for params in (policy, critic):
                other = params.copy()
                other.flat[:] = rng.normal(size=other.flat.size)
                scale = float(rng.normal())
                want = [a + scale * b for a, b in zip(params.arrays(), other.arrays())]
                want_b = params.b_value + scale * other.b_value if params is critic else None
                params.add_scaled(other, scale)
                assert all(same_bits(a, b) for a, b in zip(params.arrays(), want))
                if want_b is not None:
                    assert params.b_value == want_b


class TestFlatBuffer:
    def test_fields_are_views_of_the_buffer(self, rng):
        policy = init_policy(3, 2, rng, hidden=4)
        assert policy.flat.size == 3 * 4 + 4 + 4 * 2 + 2 + 2
        assert all(np.shares_memory(a, policy.flat) for a in policy.arrays())
        policy.w_mu[1, 0] = 7.0
        assert 7.0 in policy.flat
        policy.flat[-1] = -3.0
        assert policy.log_sigma[-1] == -3.0

    def test_b_value_is_the_last_entry_and_a_float(self, rng):
        critic = init_critic(3, rng, hidden=4)
        critic.b_value = 2.5
        assert critic.flat[-1] == 2.5
        critic.flat *= 2.0
        assert critic.b_value == 5.0 and type(critic.b_value) is float

    def test_copy_and_zeros_like_are_independent(self, rng):
        for params in (init_policy(3, 2, rng, hidden=4), init_critic(3, rng, hidden=4)):
            before = params.flat.copy()
            clone, zeros = params.copy(), params.zeros_like()
            assert np.array_equal(clone.flat, before) and not zeros.flat.any()
            for other in (clone, zeros):
                assert all(np.shares_memory(a, other.flat) for a in other.arrays())
                assert not np.shares_memory(other.flat, params.flat)
                other.flat[:] = 9.0
                assert all(np.all(a == 9.0) for a in other.arrays())
            assert np.array_equal(params.flat, before)

    def test_constructor_copies_its_arrays(self):
        w_mu = np.ones((1, 1))
        params = PolicyParams(np.zeros((1, 1)), np.zeros(1), w_mu, np.zeros(1), np.zeros(1))
        w_mu[0, 0] = 5.0
        assert params.w_mu[0, 0] == 1.0

    def test_pickle_keeps_the_views(self, rng):
        import pickle

        for params in (init_policy(3, 2, rng, hidden=4), init_critic(3, rng, hidden=4)):
            loaded = pickle.loads(pickle.dumps(params))
            assert same_bits(loaded.flat, params.flat)
            assert all(np.shares_memory(a, loaded.flat) for a in loaded.arrays())


class TestRows:
    """A leading row axis gives, row by row, what the one-row functions give."""

    DIMS = ((41, 40, 200), (2, 1, 200), (3, 2, 5))
    ROWS = 4

    def test_policy_forward_draw_and_gradient(self, rng):
        for state_dim, action_dim, hidden in self.DIMS:
            policy, _, _ = random_case(rng, state_dim, action_dim, hidden)
            states = rng.normal(size=(self.ROWS, state_dim))
            forward = policy_forward(policy, states)
            draws = policy_draw(policy, states, np.random.default_rng(5), forward)
            grads = log_policy_gradient(policy, states, draws, forward)
            assert grads.flat.shape == (self.ROWS, policy.flat.size)
            one_rng = np.random.default_rng(5)
            for row in range(self.ROWS):
                h, mu, log_sigma = policy_forward(policy, states[row])
                np.testing.assert_allclose(forward[0][row], h, rtol=1e-12, atol=1e-12)
                np.testing.assert_allclose(forward[1][row], mu, rtol=1e-12, atol=1e-12)
                assert same_bits(forward[2], log_sigma)
                draw = policy_draw(policy, states[row], one_rng)
                np.testing.assert_allclose(draws[row], draw, rtol=1e-12, atol=1e-12)
                # From the batch's forward pass: 1/sigma^2 (up to e^10) would magnify its last-bit differences.
                row_forward = (forward[0][row], forward[1][row], forward[2])
                want = log_policy_gradient(policy, states[row], draws[row], row_forward)
                np.testing.assert_allclose(grads.rows()[row].flat, want.flat, rtol=1e-12, atol=1e-12)

    def test_critic_value_and_gradient(self, rng):
        for state_dim, action_dim, hidden in self.DIMS:
            _, critic, _ = random_case(rng, state_dim, action_dim, hidden)
            states = rng.normal(size=(self.ROWS, state_dim))
            actions = np.abs(rng.normal(size=(self.ROWS, action_dim)))
            q, grads = critic_gradient(critic, states, actions)
            assert grads.flat.shape == (self.ROWS, critic.flat.size)
            np.testing.assert_allclose(critic_value(critic, states, actions), q, rtol=1e-12, atol=1e-12)
            for row, grad in enumerate(grads.rows()):
                want_q, want = critic_gradient(critic, states[row], actions[row])
                assert q[row] == pytest.approx(want_q, rel=1e-12, abs=1e-12)
                np.testing.assert_allclose(grad.flat, want.flat, rtol=1e-12, atol=1e-12)

    def test_row_buffers_are_views(self, rng):
        critic = init_critic(3, rng, hidden=4)
        grads = critic.zeros_like((3,))
        assert grads.w_hidden.shape == (3, 3, 4) and grads._b_value.shape == (3,)
        assert all(np.shares_memory(a, grads.flat) for a in grads.arrays())
        row = grads.rows()[1]
        row.flat[:] = 7.0
        assert np.all(grads.w_hidden[1] == 7.0) and not grads.w_hidden[0].any()
        assert row.b_value == 7.0
