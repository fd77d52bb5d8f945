"""Asynchronous actor-critic training with a replayable shared parameter store.

Workers are cooperative coroutines that interact with a shared store at two
points only: parameter sync and accumulated-gradient push. A seeded
scheduler decides which worker advances at each store operation and records
the realized interleaving; replaying that log reproduces the final
parameters bit-exactly. Worker computation between store operations is
deterministic given its own seed, so the interleaving log is a complete
description of a run.
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
from ..solvers import project_allocation
from .env import REWARD_EXACT, REWARD_MODES, AggregateEnv, ChargingEnv
from .nets import (
    CRITIC_HIDDEN,
    POLICY_HIDDEN,
    CriticParams,
    PolicyParams,
    critic_gradient,
    critic_value,
    init_critic,
    init_policy,
    log_policy_gradient,
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
    policy_hidden: int = POLICY_HIDDEN
    critic_hidden: int = CRITIC_HIDDEN

    def __post_init__(self):
        if self.beta_a <= 0 or self.beta_c <= 0:
            raise ValueError("learning rates must be positive")
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


def critic_update(params: CriticParams, delta: float, grad_q: CriticParams, beta_c: float) -> CriticParams:
    """In-place step params += beta_c * delta * grad Q; skipped if non-finite."""
    if not math.isfinite(delta):
        warnings.warn("non-finite TD error; critic step skipped")
        return params
    params.add_scaled(grad_q, beta_c * delta)
    return params


def _clipped(x: float, bound: float) -> float:
    """x clipped into [-bound, bound]."""
    return float(min(max(x, -bound), bound))


def _clip_norm(grads, max_norm: float) -> bool:
    """Scale a gradient container down to max_norm (L2) in place; True if it was scaled."""
    if not math.isfinite(max_norm):
        return False
    norm = math.sqrt(sum(grads.sums_of_squares()))
    if norm > max_norm:
        grads.flat *= max_norm / norm
        return True
    return False


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

    def sync(self, worker_id: int):
        self.log.append(("sync", worker_id))
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


def _worker(worker_id: int, cfg: TrainConfig, env_factory, clips: list[int]):
    """Coroutine: yields ("sync",), ("push", d_policy, d_critic, steps), ("episode", record).

    Counts the policy and critic gradients it clips in `clips[0]` and `clips[1]`.
    """
    rng = np.random.default_rng([cfg.seed, worker_id])
    episode_index = 0

    def new_episode():
        nonlocal episode_index
        env = env_factory(int(rng.integers(2**31)))
        episode_index += 1
        return env

    env = new_episode()
    state_vec = env.state.vector()
    lo, hi = env.bounds()
    policy, critic, k = yield ("sync",)
    forward = policy_forward(policy, state_vec)
    draw = policy_draw(policy, state_vec, rng, forward)
    action = draw.clip(lo, hi)
    # Gradient storage: one slot per step of a push window where the window
    # is walked backward at the push, else one slot that each step reuses.
    slots = cfg.update_period if cfg.advantage == ADVANTAGE_RETURN else 1
    scores = [policy.zeros_like() for _ in range(slots)]
    grads_q = [critic.zeros_like() for _ in range(slots)]
    running_trace = 0.0
    episode_reward = 0.0
    episode_steps = 0
    episode_t0 = time.perf_counter()

    while True:
        d_policy = policy.zeros_like()
        d_critic = critic.zeros_like()
        window = []
        for i in range(cfg.update_period):
            transition = env.step(action)
            episode_reward += transition.reward
            episode_steps += 1
            next_vec = transition.next_state.vector()
            if transition.terminal:
                next_action = np.zeros_like(np.atleast_1d(action))
                q_next = 0.0
            else:
                lo, hi = env.bounds()
                next_forward = policy_forward(policy, next_vec)
                next_draw = policy_draw(policy, next_vec, rng, next_forward)
                next_action = next_draw.clip(lo, hi)
                q_next = critic_value(critic, next_vec, next_action)
            q_cur, grad_q = critic_gradient(critic, state_vec, action, out=grads_q[i % slots])
            delta = td_error(transition.reward, q_next, q_cur, cfg.discount)
            score = log_policy_gradient(policy, state_vec, draw, forward, out=scores[i % slots])
            clips[0] += _clip_norm(score, cfg.grad_clip)
            clips[1] += _clip_norm(grad_q, cfg.grad_clip)
            delta_clipped = _clipped(delta, cfg.grad_clip)
            # The critic refines locally from the TD error every step; actor
            # gradients are only generated here and applied at the push, which
            # keeps the policy signal at the (return - Q) accumulation.
            critic_update(critic, delta_clipped, grad_q, cfg.beta_c)
            if cfg.advantage == ADVANTAGE_TRACE:
                running_trace = accumulate_return(transition.reward, running_trace, cfg.discount)
                adv = _clipped(running_trace - q_cur, cfg.grad_clip)
                d_policy.add_scaled(score, adv)
                d_critic.add_scaled(grad_q, -2.0 * adv)
            else:
                window.append((score, grad_q, transition.reward, q_cur, q_next, transition.terminal))
            if transition.terminal:
                wall_ms = (time.perf_counter() - episode_t0) * 1e3
                yield ("episode", worker_id, episode_steps, episode_reward, wall_ms)
                env = new_episode()
                running_trace = 0.0
                episode_reward = 0.0
                episode_steps = 0
                episode_t0 = time.perf_counter()
                state_vec = env.state.vector()
                lo, hi = env.bounds()
                forward = policy_forward(policy, state_vec)
                draw = policy_draw(policy, state_vec, rng, forward)
                action = draw.clip(lo, hi)
            else:
                state_vec, action, draw, forward = next_vec, next_action, next_draw, next_forward
        # Multi-step returns over the window: walk backward, bootstrapping the
        # tail from the critic and restarting at episode boundaries.
        running = 0.0
        for i, (score, grad_q, reward, q_cur, q_next, terminal) in enumerate(reversed(window)):
            if terminal:
                running = 0.0
            elif i == 0:
                running = q_next
            running = accumulate_return(reward, running, cfg.discount)
            advantage = running - q_cur
            if math.isfinite(advantage):
                adv = _clipped(advantage, cfg.grad_clip)
                d_policy.add_scaled(score, adv)
                d_critic.add_scaled(grad_q, -2.0 * adv)
        k = yield ("push", d_policy, d_critic, cfg.update_period)
        if k > cfg.k_max:
            return
        policy, critic, _ = yield ("sync",)
        # The draw carried into the next window is scored under the synced policy.
        forward = policy_forward(policy, state_vec)


def _run_training(env_factory, state_dim: int, action_dim: int, cfg: TrainConfig,
                  interleaving: list[tuple[str, int]] | None = None) -> TrainResult:
    """Drive the workers; with `interleaving` given, replay that exact order."""
    rng = np.random.default_rng([cfg.seed, 0xAC])
    init_rng = np.random.default_rng([cfg.seed, 0x1D])
    policy = init_policy(state_dim, action_dim, init_rng, hidden=cfg.policy_hidden)
    critic_dim = state_dim + action_dim
    critic = init_critic(critic_dim, init_rng, hidden=cfg.critic_hidden)
    store = ParameterStore(policy, critic, cfg)

    workers = {}
    pending = {}
    clips = [0, 0]
    for wid in range(cfg.n_workers):
        gen = _worker(wid, cfg, env_factory, clips)
        workers[wid] = gen
        pending[wid] = gen.send(None)  # first request, always a sync

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
    replay_ops = iter(interleaving) if interleaving is not None else None
    t0 = time.perf_counter()

    def advance(wid, response):
        """Send response; run the worker through non-store yields to its next store op."""
        gen = workers[wid]
        try:
            req = gen.send(response)
            while req[0] == "episode":
                _record_episode(req)
                req = gen.send(None)
            pending[wid] = req
        except StopIteration:
            del workers[wid]
            pending.pop(wid, None)

    def _record_episode(req):
        nonlocal best_window, noise, strikes
        _, wid, steps, total_reward, wall_ms = req
        reward_history.append(total_reward)
        window = reward_history[-_MOVING_WINDOW:]
        moving = float(np.mean(window))
        episodes.append(EpisodeRecord(len(episodes), wid, steps, total_reward, moving, wall_ms))
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

    while workers:
        if replay_ops is not None:
            try:
                op, wid = next(replay_ops)
            except StopIteration:
                break
            if wid not in workers:
                raise ValueError("interleaving log does not match worker state")
        else:
            wid = int(rng.choice(sorted(workers)))
        req = pending[wid]
        if req[0] == "sync":
            advance(wid, store.sync(wid))
        elif req[0] == "push":
            _, d_policy, d_critic, steps = req
            k = store.push(wid, d_policy, d_critic, steps)
            advance(wid, k)
        else:  # pragma: no cover - workers only park on store ops
            raise RuntimeError(f"unexpected request {req[0]}")

    return TrainResult(
        policy=store.policy,
        critic=store.critic,
        episodes=episodes,
        interleaving=list(store.log),
        global_steps=store.k,
        wall_seconds=time.perf_counter() - t0,
        policy_clips=clips[0],
        critic_clips=clips[1],
    )


def train_sca(scenario_sampler, cfg: TrainConfig) -> TrainResult:
    """Train the full-state smart charging policy on sampled scenarios.

    scenario_sampler maps an integer seed to a Scenario; every episode uses
    a fresh draw. All scenarios must share the fleet size.
    """
    probe = scenario_sampler(0)
    state_dim = probe.n_evs + 1
    action_dim = probe.n_evs
    env_factory = lambda seed: ChargingEnv(scenario_sampler(seed), cfg.reward_mode)
    return _run_training(env_factory, state_dim, action_dim, cfg)


def train_calc_stage1(scenario_sampler, cfg: TrainConfig) -> TrainResult:
    """Train the aggregate (reduced two-dimensional state) charging policy."""
    env_factory = lambda seed: AggregateEnv(scenario_sampler(seed), cfg.reward_mode)
    return _run_training(env_factory, AggregateEnv.state_dim, AggregateEnv.action_dim, cfg)


def replay_training(env_factory_or_sampler, state_dim: int, action_dim: int, cfg: TrainConfig,
                    interleaving: list[tuple[str, int]], aggregate: bool = False) -> TrainResult:
    """Re-run a training under a recorded interleaving log.

    Returns parameters that are bit-identical to the original run's.
    """
    if aggregate:
        env_factory = lambda seed: AggregateEnv(env_factory_or_sampler(seed), cfg.reward_mode)
    else:
        env_factory = lambda seed: ChargingEnv(env_factory_or_sampler(seed), cfg.reward_mode)
    return _run_training(env_factory, state_dim, action_dim, cfg, interleaving=interleaving)


def sca_schedule(policy: PolicyParams, scenario: Scenario, reward_mode: str = REWARD_EXACT) -> ChargingSchedule:
    """Greedy (mean-action) rollout of a trained full-state policy.

    The feasibility corridor force-charges any residual an EV could not
    otherwise meet; forced amounts are logged as policy diagnostics.
    """
    env = ChargingEnv(scenario, reward_mode)
    B = np.zeros((scenario.n_evs, scenario.horizon))
    forced = 0
    while not env.done:
        t = env.t
        lo, hi = env.bounds()
        _, mu, _ = policy_forward(policy, env.state.vector())
        action = mu.clip(lo, hi)
        forced += int(np.sum(mu < lo - 1e-12))
        transition = env.step(action)
        B[:, t - 1] = transition.action
    if forced:
        logger.debug("sca_schedule: %d force-charged components", forced)
    return ChargingSchedule(B)


def calc_aggregate_series(policy: PolicyParams, scenario: Scenario, reward_mode: str = REWARD_EXACT) -> np.ndarray:
    """Stage-1 greedy rollout: the policy's own per-slot fleet energy targets (kWh).

    The aggregate env is stepped with the policy mean to reach each state,
    but the series records what the policy asks for, not what the env
    committed after its laxity clamp and earliest-deadline-first split;
    stage 2 would otherwise only reproduce the clamped rollout.
    """
    env = AggregateEnv(scenario, reward_mode)
    series = np.zeros(scenario.horizon)
    while not env.done:
        t = env.t
        _, mu, _ = policy_forward(policy, env.state.vector())
        series[t - 1] = max(float(mu[0]), 0.0) * env.action_scale
        env.step(float(mu[0]))
    return series


def calc_schedule(policy: PolicyParams, scenario: Scenario, reward_mode: str = REWARD_EXACT) -> ChargingSchedule:
    """Two-stage schedule: the policy's per-slot targets, projected onto feasible schedules."""
    return project_allocation(calc_aggregate_series(policy, scenario, reward_mode), scenario).schedule
