"""MLP function approximators with hand-derived gradients.

The policy is a single-hidden-layer ReLU network (200 units by default)
with a linear mean head and a state-independent per-dimension log standard
deviation. The critic is a single-hidden-layer ReLU network (100 units)
mapping the concatenated (state, action) vector to a scalar value.

Each network's parameters live in one flat buffer, `flat`, and every field
is a view of it, so a copy, a zero, a scaled add or a rescale of all the
parameters is one NumPy operation. A gradient comes as parameters of the
same shape.

Rows: the functions take states and actions with a leading row axis and
then answer for each row; a buffer with a leading row axis holds one set
of parameters (or gradients) per row. Each gradient is a sum of outer
products, and `log_policy_factors` and `critic_factors` return their
factors, so that a caller can take norms and sums of many gradients
without writing them out.
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
        rows = flat.shape[:-1]
        start = 0
        for name, shape in zip(self._fields, shapes):
            stop = start + math.prod(shape)
            setattr(self, name, flat[..., start:stop].reshape(rows + shape))
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

    def zeros_like(self, rows: tuple = ()):
        """Zero parameters of this shape, with the leading row axes `rows` where given."""
        return self._like(np.zeros(rows + self.flat.shape))

    def rows(self) -> list:
        """The parameters of each row of a buffer with a leading row axis, as views."""
        return [self._like(row) for row in self.flat]

    def add_scaled(self, other, scale: float):
        """Add `scale` times the other parameters, through a scratch buffer kept for the next call."""
        if "_scratch" not in self.__dict__:
            self._scratch = np.empty_like(self.flat)
        self.flat += np.multiply(scale, other.flat, out=self._scratch)


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


def log_policy_factors(params: PolicyParams, action: np.ndarray, forward):
    """Factors (d_z, d_mu, d_log_sigma) of the gradient of ln pi(action | state).

    `forward` is `policy_forward(params, state)`. The gradient is
    state ⊗ d_z for `w_hidden`, d_z for `b_hidden`, h ⊗ d_mu for `w_mu`,
    d_mu for `b_mu` and d_log_sigma for `log_sigma`.
    """
    h, mu, log_sigma = forward
    sigma2 = np.exp(2.0 * log_sigma)
    diff = action - mu
    d_mu = diff / sigma2
    # clamp is flat outside its range
    inside = (params.log_sigma > LOG_SIGMA_MIN) & (params.log_sigma < LOG_SIGMA_MAX)
    d_log_sigma = np.where(inside, diff**2 / sigma2 - 1.0, 0.0)
    d_z = (d_mu @ params.w_mu.T) * (h > 0)
    return d_z, d_mu, d_log_sigma


def log_policy_gradient(params: PolicyParams, state: np.ndarray, action: np.ndarray, forward=None) -> PolicyParams:
    """Exact gradient of ln pi(action | state) with respect to all parameters.

    `forward` is `policy_forward(params, state)` where the caller has it. The
    gradient comes as new parameters (stacked, one gradient per row, for
    states with a row axis).
    """
    forward = policy_forward(params, state) if forward is None else forward
    d_z, d_mu, d_log_sigma = log_policy_factors(params, action, forward)
    grads = params.zeros_like(np.shape(state)[:-1])
    np.multiply(state[..., :, None], d_z[..., None, :], out=grads.w_hidden)
    grads.b_hidden[...] = d_z
    np.multiply(forward[0][..., :, None], d_mu[..., None, :], out=grads.w_mu)
    grads.b_mu[...] = d_mu
    grads.log_sigma[...] = d_log_sigma
    return grads


def critic_factors(params: CriticParams, state: np.ndarray, action: np.ndarray):
    """Q and the factors of its gradient: (q, x, h, d_z), x being the concatenated input.

    The gradient is x ⊗ d_z for `w_hidden`, d_z for `b_hidden`, h for
    `w_value` and 1 for `b_value`.
    """
    x = np.concatenate((state, action), axis=-1)
    h = np.maximum(x @ params.w_hidden + params.b_hidden, 0.0)
    return h @ params.w_value + params._b_value, x, h, params.w_value * (h > 0)


def critic_value(params: CriticParams, state: np.ndarray, action: np.ndarray):
    """Q on the concatenated (state, action) input: a float, or one per row."""
    q = critic_factors(params, state, action)[0]
    return float(q) if q.ndim == 0 else q


def critic_gradient(params: CriticParams, state: np.ndarray, action: np.ndarray):
    """Return (Q, gradient of Q w.r.t. all critic parameters), one per row for inputs with a row axis."""
    grads = params.zeros_like(np.shape(state)[:-1])
    q, x, h, d_z = critic_factors(params, state, action)
    np.multiply(x[..., :, None], d_z[..., None, :], out=grads.w_hidden)
    grads.b_hidden[...] = d_z
    grads.w_value[...] = h
    grads._b_value[...] = 1.0
    return (float(q) if q.ndim == 0 else q), grads
