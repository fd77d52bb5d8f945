"""Synchronous, batched actor-critic training with a replayable shared parameter store.

The `n_workers` workers of a training are the rows of one batched env
(`rl.env`), stepped in lockstep as in the synchronous actor-critic of
Clemente, Castejón & Chandra 2017 ("Efficient Parallel Methods for Deep
Reinforcement Learning"), the synchronous variant of A3C (Mnih et al.
2016). Each step takes one policy forward pass and one draw for all rows.
A row starts a new episode on a fresh `scenario_sampler` draw when its own
episode ends, while the others run on.

Training runs in windows of `update_period` steps. At a window's start
every row syncs from the shared store, in row order, and draws its action
from the synced policy. During the window each row refines its own copy of
the critic every step from its TD error, and records the factors of its
policy score and its critic gradient. At the window's end each row's
advantage-weighted scores and gradients are summed in one matrix product
per field, and every row pushes its sums to the store, in row order. The
training ends at the first push that takes the store's step count past
`k_max`, so it runs past the budget by less than one `update_period`.

The store records every sync and push as (op, row). The record is a fixed
round-robin, and a training is a function of its configuration and
sampler, so `replay_training` reproduces the parameters bit for bit.
"""

from __future__ import annotations

import logging
import math
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..model import ChargingSchedule, Scenario
from ..solvers import check_evs_can_finish, project_allocation
from .env import REWARD_EXACT, REWARD_MODES, AggregateEnv, ChargingEnv
from .nets import (
    CRITIC_HIDDEN,
    POLICY_HIDDEN,
    CriticParams,
    PolicyParams,
    init_critic,
    init_policy,
    log_policy_factors,
    policy_draw,
    policy_forward,
)

logger = logging.getLogger(__name__)

# Weighting of the pushed policy gradient.
#   nstep-return: bootstrapped return-to-go over the push window minus Q.
#     The right signal when the critic genuinely fits Q(s, a) — there the
#     one-step TD error has mean zero given (s, a) and carries no direction.
#   reward-trace: a forward discounted trace of realized rewards minus Q,
#     which acts as a learned baseline for the trace. Credits an action when
#     rewards around it beat the critic's estimate; empirically the robust
#     choice for high-dimensional per-EV policies, whose joint action the
#     critic cannot resolve.
# Every mode takes the score at the unclipped Gaussian draw: the env acts on
# the draw clipped into its corridor, so the draw is the sample the
# likelihood-ratio estimate needs; the score of the clipped action is biased
# wherever the clip binds.
ADVANTAGE_RETURN = "nstep-return"
ADVANTAGE_TRACE = "reward-trace"
ADVANTAGE_MODES = (ADVANTAGE_RETURN, ADVANTAGE_TRACE)

_MOVING_WINDOW = 25  # episodes per moving-average window
_DIVERGENCE_FACTOR = 10.0
_DIVERGENCE_STRIKES = 3


class TrainingDiverged(RuntimeError):
    pass


@dataclass(frozen=True)
class TrainConfig:
    beta_a: float = 1e-4
    beta_c: float = 1e-3
    discount: float = 0.01
    k_max: int = 200_000
    n_workers: int = 4
    update_period: int = 20
    seed: int = 0
    reward_mode: str = REWARD_EXACT
    grad_clip: float = 10.0  # max L2 norm of any per-step gradient contribution; inf: no clipping
    critic_warmup: int = 0  # global steps during which only the critic is updated
    advantage: str = ADVANTAGE_RETURN  # weighting of the pushed policy gradient

    def __post_init__(self):
        if not (0 < self.beta_a < math.inf and 0 < self.beta_c < math.inf):
            raise ValueError(f"learning rates must be positive and finite, got {self.beta_a}, {self.beta_c}")
        if not 0.0 < self.discount < 1.0:
            raise ValueError(f"discount {self.discount} outside (0, 1)")
        if self.n_workers < 1 or self.update_period < 1 or self.k_max < 1:
            raise ValueError("n_workers, update_period, k_max must be positive")
        if not self.grad_clip > 0:
            raise ValueError(f"grad_clip {self.grad_clip} must be positive (inf: no clipping)")
        if self.critic_warmup < 0:
            raise ValueError("critic_warmup must be non-negative")
        if self.reward_mode not in REWARD_MODES:
            raise ValueError(f"unknown reward mode {self.reward_mode!r}")
        if self.advantage not in ADVANTAGE_MODES:
            raise ValueError(f"unknown advantage mode {self.advantage!r}")


def td_error(r_next: float, q_next: float, q_cur: float, discount: float) -> float:
    """One-step temporal-difference residual."""
    return r_next + discount * q_next - q_cur


def accumulate_return(r: float, running: float, discount: float) -> float:
    """Discounted running return: r + discount * running."""
    return r + discount * running


class _RowCritics:
    """Each row's own critic between syncs: the synced critic plus the row's steps since.

    A step moves a row's critic along its gradient (`nets.critic_factors`),
    whose hidden-weight part is the outer product x ⊗ d_z. The rows keep
    those parts as their factors, so each row's critic is evaluated over the
    shared synced weights plus a low-rank sum, and never written out.
    """

    def __init__(self, rows: int, period: int, critic: CriticParams):
        self.xs = np.zeros((rows, period, critic.w_hidden.shape[0]))  # each step's size times x
        self.d_zs = np.zeros((rows, period, critic.w_hidden.shape[1]))
        self.sync(critic)

    def sync(self, critic: CriticParams):
        """Set every row's critic to `critic`."""
        rows = self.xs.shape[0]
        self.synced = critic
        self.b_hidden = np.repeat(critic.b_hidden[None], rows, axis=0)
        self.w_value = np.repeat(critic.w_value[None], rows, axis=0)
        self.b_value = np.full(rows, critic.b_value)
        self.steps = 0

    def factors(self, states: np.ndarray, actions: np.ndarray):
        """(q, x, h, d_z) of each row's critic at its (state, action), as `nets.critic_factors` gives.

        The point is kept: `last` gives its factors again after an update.
        """
        x = np.concatenate((states, actions), axis=-1)
        z = x @ self.synced.w_hidden + self.b_hidden
        if self.steps:
            xs, d_zs = self.xs[:, : self.steps], self.d_zs[:, : self.steps]
            z += (x[:, None, :] @ xs.transpose(0, 2, 1) @ d_zs)[:, 0]
        self._x, self._z = x, z
        return self.last()

    def last(self):
        """The factors at the point `factors` last evaluated, under the critics as they are now."""
        h = np.maximum(self._z, 0.0)
        return _dots(h, self.w_value) + self.b_value, self._x, h, self.w_value * (h > 0)

    def update(self, delta, x, h, d_z, beta_c: float):
        """Step each row's critic by beta_c * delta along its gradient, given by
        its factors; a row whose delta is not finite is skipped."""
        step = beta_c * np.asarray(delta, dtype=float)
        finite = np.isfinite(step)
        if not finite.all():
            warnings.warn("non-finite TD error; critic step skipped")
            step = np.where(finite, step, 0.0)
        moved = self.xs[:, self.steps] = step[:, None] * x
        self.d_zs[:, self.steps] = d_z
        self.b_hidden += step[:, None] * d_z
        self.w_value += step[:, None] * h
        self.b_value += step
        self.steps += 1
        # The step moves the pre-activations at the last point by (x_last · step x + step) d_z.
        self._z += (_dots(self._x, moved) + step)[:, None] * d_z


def _clip_scale(norm, bound: float):
    """Per-row factors that scale gradients of L2 norm `norm` down to at most `bound`."""
    return bound / np.maximum(norm, bound) if math.isfinite(bound) else np.ones_like(norm)


def _dots(a, b):
    """Each row's dot product."""
    return np.einsum("...i,...i->...", a, b)


def _squares(a):
    """Each row's sum of squares."""
    return _dots(a, a)


def _score_norm(states, h, d_z, d_mu, d_log_sigma):
    """Each row's L2 norm of its policy score, from the score's factors
    (`nets.log_policy_factors`, with h the hidden features): |x ⊗ d| = |x| |d|."""
    return np.sqrt((_squares(states) + 1.0) * _squares(d_z) + (_squares(h) + 1.0) * _squares(d_mu)
                   + _squares(d_log_sigma))


class ParameterStore:
    """Shared actor/critic parameters with an interleaving log.

    Every sync and push is recorded as (op, worker_id); pushes apply the
    accumulated gradients atomically with the configured learning rates.
    """

    def __init__(self, policy: PolicyParams, critic: CriticParams, cfg: TrainConfig):
        self.policy = policy
        self.critic = critic
        self.cfg = cfg
        self.k = 0
        self.log: list[tuple[str, int]] = []

    def sync(self, worker_ids):
        """Sync every worker of `worker_ids`, in order; they share one copy of the parameters."""
        self.log.extend(("sync", worker_id) for worker_id in worker_ids)
        return self.policy.copy(), self.critic.copy(), self.k

    def push(self, worker_id: int, d_policy: PolicyParams, d_critic: CriticParams, steps: int) -> int:
        self.log.append(("push", worker_id))
        if self.k >= self.cfg.critic_warmup:
            self.policy.add_scaled(d_policy, self.cfg.beta_a)
        # d_critic accumulates the gradient of (R - Q)^2; descend it
        self.critic.add_scaled(d_critic, -self.cfg.beta_c)
        self.k += steps
        return self.k


@dataclass
class EpisodeRecord:
    episode: int
    worker: int
    steps: int
    total_reward: float
    moving_reward: float
    wall_ms: float


@dataclass
class TrainResult:
    policy: PolicyParams
    critic: CriticParams
    episodes: list[EpisodeRecord]
    interleaving: list[tuple[str, int]]
    global_steps: int
    wall_seconds: float
    policy_clips: int  # per-step policy scores scaled down to grad_clip
    critic_clips: int  # per-step critic gradients scaled down to grad_clip

    def moving_rewards(self) -> np.ndarray:
        return np.array([e.moving_reward for e in self.episodes])

    def write_log(self, path):
        lines = ["episode,steps,moving_reward,wall_ms"]
        for e in self.episodes:
            lines.append(f"{e.episode},{e.steps},{e.moving_reward!r},{e.wall_ms!r}")
        Path(path).write_text("\n".join(lines) + "\n")


def _act(env, policy: PolicyParams, states: np.ndarray, rng: np.random.Generator):
    """One forward pass and one draw for all rows: (forward, draws, draws clipped into the corridors)."""
    forward = policy_forward(policy, states)
    draws = policy_draw(policy, states, rng, forward)
    lo, hi = env.bounds()
    return forward, draws, draws.clip(np.reshape(lo, draws.shape), np.reshape(hi, draws.shape))


def _run_training(env_cls, scenario_sampler, cfg: TrainConfig) -> TrainResult:
    """Train on `cfg.n_workers` rows of `env_cls` episodes stepped together."""
    rng = np.random.default_rng([cfg.seed, 0xAC])
    init_rng = np.random.default_rng([cfg.seed, 0x1D])
    n, period, gc = cfg.n_workers, cfg.update_period, cfg.grad_clip

    def scenarios(count: int):
        return [scenario_sampler(int(seed)) for seed in rng.integers(2**31, size=count)]

    env = env_cls(scenarios(n), cfg.reward_mode)
    policy = init_policy(env.state_dim, env.action_dim, init_rng)
    critic = init_critic(env.state_dim + env.action_dim, init_rng)
    store = ParameterStore(policy, critic, cfg)
    critics = _RowCritics(n, period, critic)

    # One window, per step: the rows' states, forward passes and draws (what their policy scores
    # are taken from), the factors of their critic gradients, and their TD terms.
    window_states = np.zeros((period, n, env.state_dim))
    window_h = np.zeros((period, n, POLICY_HIDDEN))
    window_mu, window_draws = np.zeros((2, period, n, env.action_dim))
    window_x = np.zeros((period, n, env.state_dim + env.action_dim))
    window_hc, window_dzc = np.zeros((2, period, n, CRITIC_HIDDEN))
    rewards, q_cur, q_next, advantage, critic_scale = np.zeros((5, period, n))
    terminal = np.zeros((period, n), dtype=bool)
    d_policy, d_critic = policy.zeros_like((n,)), critic.zeros_like((n,))
    pushes = list(enumerate(zip(d_policy.rows(), d_critic.rows())))  # each row's views of the window's sums

    episodes: list[EpisodeRecord] = []
    reward_history: list[float] = []
    best_window = -np.inf
    # A drop is measured against the larger of the best window's magnitude
    # and the per-episode spread (standard deviation) of the first window, so
    # rewards whose mean hovers near 0 (flat-regret) do not turn ordinary
    # noise into a divergence. Where the spread is below the best window's
    # magnitude, as on exact-cost runs, it has no effect.
    noise = 1e-9
    strikes = 0
    policy_clips = critic_clips = 0
    running_trace = np.zeros(n)
    episode_reward = np.zeros(n)
    episode_steps = np.zeros(n, dtype=int)
    episode_t0 = np.full(n, time.perf_counter())
    t0 = time.perf_counter()

    def record_episode(row: int):
        nonlocal best_window, noise, strikes
        total_reward = float(episode_reward[row])
        reward_history.append(total_reward)
        window = reward_history[-_MOVING_WINDOW:]
        moving = float(np.mean(window))
        wall_ms = (time.perf_counter() - float(episode_t0[row])) * 1e3
        episodes.append(EpisodeRecord(len(episodes), row, int(episode_steps[row]), total_reward, moving, wall_ms))
        if len(reward_history) % _MOVING_WINDOW == 0:
            if len(reward_history) == _MOVING_WINDOW:
                noise = max(float(np.std(window)), noise)
            if moving > best_window:
                best_window = moving
                strikes = 0
            elif best_window - moving > _DIVERGENCE_FACTOR * max(abs(best_window), noise):
                strikes += 1
                if strikes >= _DIVERGENCE_STRIKES:
                    raise TrainingDiverged(
                        f"moving reward degraded from {best_window:.4g} to {moving:.4g} "
                        f"for {strikes} consecutive windows"
                    )
            else:
                strikes = 0

    states = env.state
    while True:
        policy, synced, _ = store.sync(range(n))  # every row syncs, and all receive the same parameters
        critics.sync(synced)
        # Every draw is made, and scored, under the policy synced at its window's start.
        forward, draws, actions = _act(env, policy, states, rng)
        q_factors = critics.factors(states, actions)
        for i in range(period):
            window_states[i], window_h[i], window_mu[i], window_draws[i] = states, forward[0], forward[1], draws
            q_cur[i], x, h, d_z = q_factors
            window_x[i], window_hc[i], window_dzc[i] = x, h, d_z
            # The critic gradient's norm from its factors: |x ⊗ d_z| = |x| |d_z|.
            norm = np.sqrt((_squares(x) + 1.0) * _squares(d_z) + _squares(h) + 1.0)
            critic_scale[i] = _clip_scale(norm, gc)
            critic_clips += np.count_nonzero(norm > gc)

            _, rewards[i] = env.step(actions)
            terminal[i] = env.done
            episode_reward += rewards[i]
            episode_steps += 1
            if cfg.advantage == ADVANTAGE_TRACE:
                running_trace = accumulate_return(rewards[i], running_trace, cfg.discount)
                advantage[i] = running_trace - q_cur[i]
            ended = np.flatnonzero(terminal[i])
            if ended.size:
                for row in ended:
                    record_episode(int(row))
                env.reset(ended, scenarios(ended.size))
                running_trace[ended] = episode_reward[ended] = episode_steps[ended] = 0
                episode_t0[ended] = time.perf_counter()
            states = env.state
            forward, draws, actions = _act(env, policy, states, rng)
            q_next[i] = np.where(terminal[i], 0.0, critics.factors(states, actions)[0])
            delta = td_error(rewards[i], q_next[i], q_cur[i], cfg.discount)
            # Each row's critic refines from its own TD error every step; actor
            # gradients are only generated here and applied at the push, which
            # keeps the policy signal at the (return - Q) accumulation.
            critics.update(np.clip(delta, -gc, gc) * critic_scale[i], x, h, d_z, cfg.beta_c)
            q_factors = critics.last()

        if cfg.advantage == ADVANTAGE_RETURN:
            # Multi-step returns over the window: walk backward, bootstrapping
            # the tail from the critic and restarting at episode boundaries.
            running = q_next[-1]
            for i in reversed(range(period)):
                running = accumulate_return(rewards[i], np.where(terminal[i], 0.0, running), cfg.discount)
                advantage[i] = running - q_cur[i]
        weight = np.where(np.isfinite(advantage), np.clip(advantage, -gc, gc), 0.0)
        window_dz, window_dmu, window_dls = log_policy_factors(policy, window_draws, (window_h, window_mu, forward[2]))
        norm = _score_norm(window_states, window_h, window_dz, window_dmu, window_dls)
        policy_clips += np.count_nonzero(norm > gc)
        # Each row's pushes: the weighted sums of its window's gradients, one matrix product per field.
        a_p = weight * _clip_scale(norm, gc)
        np.matmul((window_states * a_p[..., None]).transpose(1, 2, 0), window_dz.transpose(1, 0, 2),
                  out=d_policy.w_hidden)
        np.einsum("wr,wrh->rh", a_p, window_dz, out=d_policy.b_hidden)
        np.matmul((window_h * a_p[..., None]).transpose(1, 2, 0), window_dmu.transpose(1, 0, 2), out=d_policy.w_mu)
        np.einsum("wr,wra->ra", a_p, window_dmu, out=d_policy.b_mu)
        np.einsum("wr,wra->ra", a_p, window_dls, out=d_policy.log_sigma)
        a_c = -2.0 * weight * critic_scale
        np.matmul((window_x * a_c[..., None]).transpose(1, 2, 0), window_dzc.transpose(1, 0, 2),
                  out=d_critic.w_hidden)
        np.einsum("wr,wrh->rh", a_c, window_dzc, out=d_critic.b_hidden)
        np.einsum("wr,wrh->rh", a_c, window_hc, out=d_critic.w_value)
        np.sum(a_c, axis=0, out=d_critic._b_value)
        # The rows push in order, and the training ends at the first push past the budget.
        if any(store.push(row, dp, dc, period) > cfg.k_max for row, (dp, dc) in pushes):
            break

    return TrainResult(
        policy=store.policy,
        critic=store.critic,
        episodes=episodes,
        interleaving=list(store.log),
        global_steps=store.k,
        wall_seconds=time.perf_counter() - t0,
        policy_clips=policy_clips,
        critic_clips=critic_clips,
    )


def train_sca(scenario_sampler, cfg: TrainConfig) -> TrainResult:
    """Train the full-state smart charging policy on sampled scenarios.

    scenario_sampler maps an integer seed to a Scenario; every episode uses
    a fresh draw. All scenarios must share the fleet size, horizon and
    price model.
    """
    return _run_training(ChargingEnv, scenario_sampler, cfg)


def train_calc_stage1(scenario_sampler, cfg: TrainConfig) -> TrainResult:
    """Train the aggregate (reduced two-dimensional state) charging policy."""
    return _run_training(AggregateEnv, scenario_sampler, cfg)


def replay_training(scenario_sampler, state_dim: int, action_dim: int, cfg: TrainConfig,
                    interleaving: list[tuple[str, int]], aggregate: bool = False) -> TrainResult:
    """Re-run a training and check it against its recorded interleaving log.

    Returns parameters that are bit-identical to the original run's; raises
    ValueError where the log or the dimensions do not match the training.
    """
    result = _run_training(AggregateEnv if aggregate else ChargingEnv, scenario_sampler, cfg)
    if result.interleaving != list(interleaving):
        raise ValueError("interleaving log does not match the training")
    if result.policy.w_hidden.shape[0] != state_dim or result.policy.b_mu.size != action_dim:
        raise ValueError(f"training has state and action dimensions {result.policy.w_hidden.shape[0]} and "
                         f"{result.policy.b_mu.size}, not {state_dim} and {action_dim}")
    return result


def sca_schedule(policy: PolicyParams, scenario: Scenario, reward_mode: str = REWARD_EXACT) -> ChargingSchedule:
    """Greedy (mean-action) rollout of a trained full-state policy.

    The feasibility corridor force-charges any residual an EV could not
    otherwise meet; forced amounts are logged as policy diagnostics.
    """
    check_evs_can_finish(scenario)
    env = ChargingEnv(scenario, reward_mode)
    B = np.zeros((scenario.n_evs, scenario.horizon))
    forced = 0
    while not env.done:
        t = env.t
        lo, _ = env.bounds()
        _, mu, _ = policy_forward(policy, env.state)
        forced += int(np.sum(mu < lo - 1e-12))
        B[:, t - 1], _ = env.step(mu)  # the env clips the mean into the corridor
    if forced:
        logger.debug("sca_schedule: %d force-charged components", forced)
    return ChargingSchedule(B)


def calc_aggregate_series(policy: PolicyParams, scenario: Scenario, reward_mode: str = REWARD_EXACT) -> np.ndarray:
    """Stage-1 greedy rollout: the policy's own per-slot fleet energy targets (kWh).

    The aggregate env is stepped with the policy mean to reach each state,
    but the series records what the policy asks for, not what the env
    committed after its laxity clamp and earliest-deadline-first split;
    stage 2 would otherwise only reproduce the clamped rollout. The series
    depends on the states alone, so the rollout bills exact costs whatever
    the (checked) `reward_mode`, and skips the flat-regret term.
    """
    if reward_mode not in REWARD_MODES:
        raise ValueError(f"unknown reward mode {reward_mode!r}")
    env = AggregateEnv(scenario)
    series = np.zeros(scenario.horizon)
    while not env.done:
        _, mu, _ = policy_forward(policy, env.state)
        series[env.t - 1] = max(float(mu[0]), 0.0) * env.action_scale
        env.step(float(mu[0]))
    return series


def calc_schedule(policy: PolicyParams, scenario: Scenario, reward_mode: str = REWARD_EXACT) -> ChargingSchedule:
    """Two-stage schedule: the policy's per-slot targets, projected onto feasible schedules."""
    check_evs_can_finish(scenario)
    return project_allocation(calc_aggregate_series(policy, scenario, reward_mode), scenario).schedule
