"""MLP function approximators with hand-derived gradients.

The policy is a single-hidden-layer ReLU network (200 units by default)
with a linear mean head and a state-independent per-dimension log standard
deviation. The critic is a single-hidden-layer ReLU network (100 units)
mapping the concatenated (state, action) vector to a scalar value.

Each network's parameters live in one flat buffer, `flat`, and every field
is a view of it, so a copy, a zero, a scaled add or a rescale of all the
parameters is one NumPy operation. The gradients are written into such a
buffer in place.
"""

from __future__ import annotations

import math

import numpy as np

POLICY_HIDDEN = 200
CRITIC_HIDDEN = 100
LOG_SIGMA_MIN = -5.0
LOG_SIGMA_MAX = 2.0
_HALF_LOG_2PI = 0.5 * np.log(2.0 * np.pi)


class _FlatParams:
    """Named parameter arrays that are views of one flat float buffer."""

    _fields: tuple[str, ...] = ()

    def __init__(self, *arrays):
        arrays = [np.asarray(a, dtype=float) for a in arrays]
        self._bind(np.concatenate([a.ravel() for a in arrays]), tuple(a.shape for a in arrays))

    def _bind(self, flat: np.ndarray, shapes):
        self.flat = flat
        self._shapes = shapes
        self._spans = []
        start = 0
        for name, shape in zip(self._fields, shapes):
            stop = start + math.prod(shape)
            self._spans.append((start, stop))
            setattr(self, name, flat[start:stop].reshape(shape))
            start = stop

    # Pickled as the buffer alone, so that the fields are views of it again
    # in the process that loads it.
    def __getstate__(self):
        return self.flat, self._shapes

    def __setstate__(self, state):
        self._bind(*state)

    def _like(self, flat: np.ndarray):
        params = object.__new__(type(self))
        params._bind(flat, self._shapes)
        return params

    def copy(self):
        return self._like(self.flat.copy())

    def zeros_like(self):
        return self._like(np.zeros_like(self.flat))

    def add_scaled(self, other, scale: float):
        self.flat += scale * other.flat

    def sums_of_squares(self):
        """Each field's sum of squares, in field order."""
        squares = self.flat * self.flat
        return [float(squares[start:stop].sum()) for start, stop in self._spans]


class PolicyParams(_FlatParams):
    w_hidden: np.ndarray  # (input_dim, hidden)
    b_hidden: np.ndarray  # (hidden,)
    w_mu: np.ndarray  # (hidden, action_dim)
    b_mu: np.ndarray  # (action_dim,)
    log_sigma: np.ndarray  # (action_dim,)
    _fields = ("w_hidden", "b_hidden", "w_mu", "b_mu", "log_sigma")

    def __init__(self, w_hidden, b_hidden, w_mu, b_mu, log_sigma):
        super().__init__(w_hidden, b_hidden, w_mu, b_mu, log_sigma)

    def arrays(self):
        return (self.w_hidden, self.b_hidden, self.w_mu, self.b_mu, self.log_sigma)


class CriticParams(_FlatParams):
    w_hidden: np.ndarray  # (input_dim, hidden)
    b_hidden: np.ndarray
    w_value: np.ndarray  # (hidden,)
    _fields = ("w_hidden", "b_hidden", "w_value", "_b_value")

    def __init__(self, w_hidden, b_hidden, w_value, b_value: float):
        super().__init__(w_hidden, b_hidden, w_value, b_value)

    @property
    def b_value(self) -> float:
        return float(self._b_value)

    @b_value.setter
    def b_value(self, value: float):
        self._b_value[()] = value

    def arrays(self):
        return (self.w_hidden, self.b_hidden, self.w_value)


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
    log_sigma = params.log_sigma.clip(LOG_SIGMA_MIN, LOG_SIGMA_MAX)
    return h, mu, log_sigma


def policy_draw(params: PolicyParams, state: np.ndarray, rng: np.random.Generator, forward=None) -> np.ndarray:
    """Draw an action from the Gaussian policy, unclipped.

    `forward` is `policy_forward(params, state)` where the caller has it.
    """
    _, mu, log_sigma = policy_forward(params, state) if forward is None else forward
    return mu + np.exp(log_sigma) * rng.standard_normal(mu.shape)


def log_policy_density(params: PolicyParams, state: np.ndarray, action: np.ndarray) -> float:
    _, mu, log_sigma = policy_forward(params, state)
    sigma2 = np.exp(2.0 * log_sigma)
    return float(np.sum(-_HALF_LOG_2PI - log_sigma - (action - mu) ** 2 / (2.0 * sigma2)))


def log_policy_gradient(params: PolicyParams, state: np.ndarray, action: np.ndarray, forward=None,
                        out: PolicyParams | None = None) -> PolicyParams:
    """Exact gradient of ln pi(action | state) with respect to all parameters.

    `forward` is `policy_forward(params, state)` where the caller has it; the
    gradient is written into `out` where given, else into new parameters.
    """
    h, mu, log_sigma = policy_forward(params, state) if forward is None else forward
    grads = params.zeros_like() if out is None else out
    sigma2 = np.exp(2.0 * log_sigma)
    diff = action - mu
    d_mu = np.divide(diff, sigma2, out=grads.b_mu)
    d_log_sigma = diff**2 / sigma2 - 1.0
    # clamp is flat outside its range
    inside = (params.log_sigma > LOG_SIGMA_MIN) & (params.log_sigma < LOG_SIGMA_MAX)
    grads.log_sigma[...] = np.where(inside, d_log_sigma, 0.0)
    d_z = np.multiply(params.w_mu @ d_mu, h > 0, out=grads.b_hidden)
    np.multiply(state[:, None], d_z, out=grads.w_hidden)
    np.multiply(h[:, None], d_mu, out=grads.w_mu)
    return grads


def _critic_forward(params: CriticParams, state: np.ndarray, action: np.ndarray, h_out=None):
    """Return (concatenated input, hidden features, Q); the features go to `h_out` where given."""
    x = np.concatenate((state, action), axis=None)
    h = np.maximum(x @ params.w_hidden + params.b_hidden, 0.0, out=h_out)
    return x, h, float(h @ params.w_value + params.b_value)


def critic_value(params: CriticParams, state: np.ndarray, action: np.ndarray) -> float:
    """Scalar Q on the concatenated (state, action) input."""
    return _critic_forward(params, state, action)[2]


def critic_gradient(params: CriticParams, state: np.ndarray, action: np.ndarray, out: CriticParams | None = None):
    """Return (Q, gradient of Q w.r.t. all critic parameters).

    The gradient is written into `out` where given, else into new parameters.
    """
    grads = params.zeros_like() if out is None else out
    x, h, q = _critic_forward(params, state, action, h_out=grads.w_value)
    d_z = np.multiply(params.w_value, h > 0, out=grads.b_hidden)
    np.multiply(x[:, None], d_z, out=grads.w_hidden)
    grads.b_value = 1.0
    return q, grads
