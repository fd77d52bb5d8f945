"""MLP function approximators with hand-derived gradients.

The policy is a single-hidden-layer ReLU network (200 units by default)
with a linear mean head and a state-independent per-dimension log standard
deviation. The critic is a single-hidden-layer ReLU network (100 units)
mapping the concatenated (state, action) vector to a scalar value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

POLICY_HIDDEN = 200
CRITIC_HIDDEN = 100
LOG_SIGMA_MIN = -5.0
LOG_SIGMA_MAX = 2.0
_HALF_LOG_2PI = 0.5 * np.log(2.0 * np.pi)


@dataclass
class PolicyParams:
    w_hidden: np.ndarray  # (input_dim, hidden)
    b_hidden: np.ndarray  # (hidden,)
    w_mu: np.ndarray  # (hidden, action_dim)
    b_mu: np.ndarray  # (action_dim,)
    log_sigma: np.ndarray  # (action_dim,)

    def copy(self) -> "PolicyParams":
        return PolicyParams(*(a.copy() for a in self.arrays()))

    def arrays(self):
        return (self.w_hidden, self.b_hidden, self.w_mu, self.b_mu, self.log_sigma)

    def add_scaled(self, other: "PolicyParams", scale: float):
        for dst, src in zip(self.arrays(), other.arrays()):
            dst += scale * src

    def zeros_like(self) -> "PolicyParams":
        return PolicyParams(*(np.zeros_like(a) for a in self.arrays()))


@dataclass
class CriticParams:
    w_hidden: np.ndarray  # (input_dim, hidden)
    b_hidden: np.ndarray
    w_value: np.ndarray  # (hidden,)
    b_value: float

    def copy(self) -> "CriticParams":
        return CriticParams(self.w_hidden.copy(), self.b_hidden.copy(), self.w_value.copy(), self.b_value)

    def arrays(self):
        return (self.w_hidden, self.b_hidden, self.w_value)

    def add_scaled(self, other: "CriticParams", scale: float):
        for dst, src in zip(self.arrays(), other.arrays()):
            dst += scale * src
        self.b_value += scale * other.b_value

    def zeros_like(self) -> "CriticParams":
        return CriticParams(np.zeros_like(self.w_hidden), np.zeros_like(self.b_hidden), np.zeros_like(self.w_value), 0.0)


def _uniform_fan_in(rng, shape):
    bound = 1.0 / np.sqrt(shape[0])
    return rng.uniform(-bound, bound, size=shape)


def init_policy(input_dim: int, action_dim: int, rng: np.random.Generator, hidden: int = POLICY_HIDDEN) -> PolicyParams:
    return PolicyParams(
        w_hidden=_uniform_fan_in(rng, (input_dim, hidden)),
        b_hidden=np.zeros(hidden),
        w_mu=_uniform_fan_in(rng, (hidden, action_dim)),
        b_mu=np.zeros(action_dim),
        log_sigma=np.zeros(action_dim),
    )


def init_critic(input_dim: int, rng: np.random.Generator, hidden: int = CRITIC_HIDDEN) -> CriticParams:
    return CriticParams(
        w_hidden=_uniform_fan_in(rng, (input_dim, hidden)),
        b_hidden=np.zeros(hidden),
        w_value=_uniform_fan_in(rng, (hidden, 1))[:, 0],
        b_value=0.0,
    )


def policy_forward(params: PolicyParams, state: np.ndarray):
    """Return (hidden features, mean, clamped log sigma)."""
    z = state @ params.w_hidden + params.b_hidden
    h = np.maximum(z, 0.0)
    mu = h @ params.w_mu + params.b_mu
    log_sigma = np.clip(params.log_sigma, LOG_SIGMA_MIN, LOG_SIGMA_MAX)
    return h, mu, log_sigma


def policy_draw(params: PolicyParams, state: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Draw an action from the Gaussian policy, unclipped."""
    _, mu, log_sigma = policy_forward(params, state)
    return mu + np.exp(log_sigma) * rng.standard_normal(mu.shape)


def log_policy_density(params: PolicyParams, state: np.ndarray, action: np.ndarray) -> float:
    _, mu, log_sigma = policy_forward(params, state)
    sigma2 = np.exp(2.0 * log_sigma)
    return float(np.sum(-_HALF_LOG_2PI - log_sigma - (action - mu) ** 2 / (2.0 * sigma2)))


def log_policy_gradient(params: PolicyParams, state: np.ndarray, action: np.ndarray) -> PolicyParams:
    """Exact gradient of ln pi(action | state) with respect to all parameters."""
    h, mu, log_sigma = policy_forward(params, state)
    sigma2 = np.exp(2.0 * log_sigma)
    d_mu = (action - mu) / sigma2
    d_log_sigma = (action - mu) ** 2 / sigma2 - 1.0
    # clamp is flat outside its range
    d_log_sigma = np.where(
        (params.log_sigma > LOG_SIGMA_MIN) & (params.log_sigma < LOG_SIGMA_MAX), d_log_sigma, 0.0
    )
    d_h = params.w_mu @ d_mu
    d_z = d_h * (h > 0)
    return PolicyParams(
        w_hidden=np.outer(state, d_z),
        b_hidden=d_z,
        w_mu=np.outer(h, d_mu),
        b_mu=d_mu,
        log_sigma=d_log_sigma,
    )


def _critic_forward(params: CriticParams, state: np.ndarray, action: np.ndarray):
    """Return (concatenated input, hidden features, Q)."""
    x = np.concatenate([np.atleast_1d(state), np.atleast_1d(action)])
    h = np.maximum(x @ params.w_hidden + params.b_hidden, 0.0)
    return x, h, float(h @ params.w_value + params.b_value)


def critic_value(params: CriticParams, state: np.ndarray, action: np.ndarray) -> float:
    """Scalar Q on the concatenated (state, action) input."""
    return _critic_forward(params, state, action)[2]


def critic_gradient(params: CriticParams, state: np.ndarray, action: np.ndarray):
    """Return (Q, gradient of Q w.r.t. all critic parameters)."""
    x, h, q = _critic_forward(params, state, action)
    d_z = params.w_value * (h > 0)
    grads = CriticParams(
        w_hidden=np.outer(x, d_z),
        b_hidden=d_z,
        w_value=h,
        b_value=1.0,
    )
    return q, grads
