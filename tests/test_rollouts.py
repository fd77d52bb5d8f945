"""The scheduling rollouts against the one-scenario envs, byte for byte.

`sca_schedule` and `calc_aggregate_series` are greedy rollouts of a policy's
mean. The references here step the one-scenario `ChargingEnv` and
`AggregateEnv` with that mean, and each rollout must return their bytes on
benchmark fleets, random fleets, a capped fleet, a fleet with no EV and a
fleet whose EVs all finish before the horizon.
"""

import functools
import hashlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from evchargelab.baselines import QTable, aem_schedule
from evchargelab.harness import benchmark_spec, build_scenario
from evchargelab.rl.env import AggregateEnv, ChargingEnv
from evchargelab.rl.nets import init_policy, policy_forward
from evchargelab.rl.serialize import load_policy
from evchargelab.rl.train import calc_aggregate_series, sca_schedule

from conftest import make_ev, make_scenario, random_feasible_scenario

INPUTS = Path(__file__).resolve().parent.parent / "perfbench" / "inputs"


def env_sca(policy, scenario) -> np.ndarray:
    """SCA's schedule from the per-EV env stepped with the policy mean, which the env clips."""
    env = ChargingEnv(scenario)
    B = np.zeros((scenario.n_evs, scenario.horizon))
    while not env.done:
        t = env.t
        _, mu, _ = policy_forward(policy, env.state)
        B[:, t - 1], _ = env.step(mu)
    return B


def env_calc_series(policy, scenario) -> np.ndarray:
    """CALC's stage-1 targets from the aggregate env stepped with the policy mean."""
    env = AggregateEnv(scenario)
    series = np.zeros(scenario.horizon)
    while not env.done:
        _, mu, _ = policy_forward(policy, env.state)
        series[env.t - 1] = max(float(mu[0]), 0.0) * env.action_scale
        env.step(float(mu[0]))
    return series


@functools.cache
def benchmark_fleets():
    return tuple(build_scenario(benchmark_spec(), seed)[0] for seed in range(1, 21))


@functools.cache
def stored(name):
    return load_policy(INPUTS / f"{name}_policy.txt")


def drawn_sca(n_evs):
    return init_policy(n_evs + 1, n_evs, np.random.default_rng([5, n_evs]))


def drawn_calc():
    return init_policy(AggregateEnv.state_dim, AggregateEnv.action_dim, np.random.default_rng(5))


def eager(policy):
    """The policy with its weights zeroed and its mean at 1 kWh for every EV."""
    policy = policy.copy()
    policy.flat[:] = 0.0
    policy.b_mu[:] = 1.0
    return policy


def small_fleets():
    """Random fleets (two of them capped), a fleet with no EV, one whose EVs all finish early,
    and one whose only demand is below the done test's 1e-9 kWh, which the envs still step once."""
    fleets = [random_feasible_scenario(np.random.default_rng(600 + k), n_max=6, t_max=14, with_cap=k % 5 == 0)
              for k in range(10)]
    fleets.append(make_scenario([], horizon=6, base_load=[1.0, 2.0, 0.5, 1.0, 3.0, 1.0]))
    # Every EV leaves by slot 5 of 12; the last needs less than the done test's 1e-9 kWh.
    early = [make_ev(0, 1, 3, demand=5.0, b_max=3.0), make_ev(1, 2, 5, demand=2.5, b_max=2.0),
             make_ev(2, 1, 4, demand=0.0, b_max=2.0), make_ev(3, 3, 5, demand=5e-10, b_max=2.0)]
    fleets.append(make_scenario(early, horizon=12, base_load=np.linspace(0.5, 2.0, 12)))
    fleets.append(make_scenario([make_ev(0, 1, 4, demand=5e-10, b_max=2.0)], horizon=5))
    return fleets


def capped_benchmark_fleet():
    sc = benchmark_fleets()[0]
    return replace(sc, load_cap=float(sc.base_load.max()) + 25.0)


@pytest.mark.parametrize("policy", ["stored", "drawn"])
def test_sca_schedule_is_the_env_rollout_on_benchmark_fleets(policy):
    for sc in (*benchmark_fleets(), capped_benchmark_fleet()):
        params = stored("sca") if policy == "stored" else drawn_sca(sc.n_evs)
        assert sca_schedule(params, sc).amounts.tobytes() == env_sca(params, sc).tobytes()


@pytest.mark.parametrize("policy", ["stored", "drawn"])
def test_calc_series_is_the_env_rollout_on_benchmark_fleets(policy):
    params = stored("calc") if policy == "stored" else drawn_calc()
    for sc in (*benchmark_fleets(), capped_benchmark_fleet()):
        assert calc_aggregate_series(params, sc).tobytes() == env_calc_series(params, sc).tobytes()


def test_rollouts_are_the_env_rollouts_on_small_fleets():
    for k, sc in enumerate(small_fleets()):
        for sca in (drawn_sca(sc.n_evs), eager(drawn_sca(sc.n_evs))):
            assert sca_schedule(sca, sc).amounts.tobytes() == env_sca(sca, sc).tobytes(), k
        for calc in (stored("calc"), drawn_calc(), eager(drawn_calc())):
            assert calc_aggregate_series(calc, sc).tobytes() == env_calc_series(calc, sc).tobytes(), k


def test_aem_schedule_with_the_stored_table_unchanged():
    # SHA-256 of the schedules that the stored benchmark table gives on benchmark fleets 1-20. The
    # greedy rollout is table lookups and elementwise arithmetic, so the digest holds under any BLAS.
    table = QTable.load(INPUTS / "aem_table.txt")
    sha = hashlib.sha256()
    for sc in benchmark_fleets():
        sha.update(aem_schedule(table, sc).amounts.tobytes())
    assert sha.hexdigest() == "ebbba37d35781c93fb26dbc4f327596e3251f5a4126cbe0cb5d2ee42c912ae9a"
