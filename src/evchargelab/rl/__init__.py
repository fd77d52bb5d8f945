"""Actor-critic learning engine: networks, environments, training, persistence."""

from .env import REWARD_REGRET, AggregateEnv
from .nets import init_policy
from .serialize import load_policy, save_policy
from .train import (
    ADVANTAGE_RETURN,
    ADVANTAGE_TRACE,
    TrainConfig,
    calc_schedule,
    sca_schedule,
    train_calc_stage1,
    train_sca,
)
