"""Cost and peak-load comparison of all five algorithms on the shipped benchmark.

Runs the shipped benchmark experiment through the harness: it trains the two
actor-critic policies and the tabular Q-learning baseline once each, then
schedules all five algorithms over five scenario draws. The table adds the
clairvoyant oracle's row. At the full training budget it takes about 15 s on
a 2-core machine, where the trainings run side by side; pass --quick for a
1-second smoke run (the learned policies will be mediocre).

    python3 demos/benchmark_cost_ordering.py [--quick]
"""

import argparse
from dataclasses import replace

import numpy as np

from evchargelab.harness import benchmark_experiment, build_scenario, run_experiment
from evchargelab.model import horizon_cost
from evchargelab.solvers import solve_offline


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--quick", action="store_true", help="tiny training budget")
    args = parser.parse_args()

    cfg = benchmark_experiment()
    if args.quick:
        cfg = replace(cfg, sca=replace(cfg.sca, k_max=5000, critic_warmup=1000),
                      calc=replace(cfg.calc, k_max=5000, critic_warmup=1000), aem=replace(cfg.aem, episodes=20))

    print("Training SCA, CALC and AEM, then scheduling every algorithm...")
    result = run_experiment(cfg)
    if not result.ok:
        raise SystemExit(f"failed runs: {result.failures}")
    for (alg, seed), (train_ms, curve) in result.training.policies.items():
        steps = "" if curve is None else f", {curve.global_steps} steps"
        print(f"  {alg} (training seed {seed}): {train_ms / 1e3:.1f} s{steps}")

    costs, peaks = {}, {}
    for m in result.metrics:
        costs.setdefault(m.algorithm, []).append(m.total_cost)
        peaks.setdefault(m.algorithm, []).append(m.peak_load_kwh)
    for seed in cfg.seeds:
        scenario, _ = build_scenario(cfg.scenario, seed)
        oracle = solve_offline(scenario).schedule
        costs.setdefault("oracle", []).append(horizon_cost(oracle, scenario))
        peaks.setdefault("oracle", []).append(float((oracle.slot_totals() + scenario.base_load).max()))

    print(f"\nMeans over seeds {cfg.seeds}:")
    print(f"{'algorithm':<10} {'cost':>8} {'peak kWh':>9}")
    for n in costs:
        print(f"{n:<10} {np.mean(costs[n]):8.1f} {np.mean(peaks[n]):9.1f}")
    print("\nExpected shape: eager charging worst, the rolling solver strong but")
    print("blind to tomorrow's arrival burst, the learned policies between the")
    print("oracle and the quantized baseline.")


if __name__ == "__main__":
    main()
