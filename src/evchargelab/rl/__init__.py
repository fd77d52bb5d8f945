"""Actor-critic learning engine: networks, environments, training, persistence."""

from .env import REWARD_REGRET, AggregateEnv, ChargingEnv
from .nets import (
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
from .serialize import load_critic, load_policy, save_critic, save_policy
from .train import (
    ADVANTAGE_MODES,
    ADVANTAGE_RETURN,
    ADVANTAGE_TRACE,
    ParameterStore,
    TrainConfig,
    TrainResult,
    TrainingDiverged,
    accumulate_return,
    calc_aggregate_series,
    calc_schedule,
    replay_training,
    sca_schedule,
    td_error,
    train_calc_stage1,
    train_sca,
)
