"""Training throughput of the two actor-critic learners, in CPU steps per second.

Trains SCA and CALC in this process with the shipped benchmark's training
configurations at a reduced step budget (the `train` benchmark workload's
6,000 steps by default, with the critic warmup scaled to match) and writes
`BENCH_training.json`: the commit, the seed, the budget, and for each
learner the steps trained, the CPU seconds of the fastest of `--repeats`
runs, and the steps per CPU second. AEM's training time is reported too.
`experiment_wall_s` is the wall time of the fastest of `--repeats`
`run_experiment` calls at the same budget: the three trainings, on as many
worker processes as CPUs, and all five algorithms on benchmark fleets 1-5.
Run from the repository root with:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 demos/bench_training.py --out BENCH_training.json

One run per tree cannot resolve a change under about 15 %: on a 2-core
machine the same training code read 7 % and 12 % apart in two runs back to
back. To compare two trees, run them in alternating runs and compare the
medians.
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import time
from dataclasses import replace

from evchargelab import baselines
from evchargelab.harness import benchmark_experiment, benchmark_spec, benchmark_train_config, make_sampler, run_experiment
from evchargelab.rl.train import train_calc_stage1, train_sca


def _commit() -> str:
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"], capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def _fastest(fn, repeats: int, clock=time.process_time):
    """(fastest seconds on `clock`, CPU time by default; result of the last run) over `repeats` runs of fn()."""
    best = float("inf")
    for _ in range(repeats):
        t0 = clock()
        result = fn()
        best = min(best, clock() - t0)
    return best, result


def main(argv=None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--steps", type=int, default=6_000, help="training budget k_max (default 6000)")
    parser.add_argument("--seed", type=int, default=1, help="training seed (default 1, the shipped one)")
    parser.add_argument("--repeats", type=int, default=3, help="runs per learner; the fastest counts")
    parser.add_argument("--aem-episodes", type=int, default=60, help="AEM episodes (default 60)")
    parser.add_argument("--n-workers", type=int, default=None,
                        help="rows stepped together (default: each learner's shipped configuration)")
    parser.add_argument("--out", default="BENCH_training.json", help="output file")
    parser.add_argument("--commit", default=None, help="commit to record (default: git describe --always --dirty)")
    args = parser.parse_args(argv)

    sampler = make_sampler(benchmark_spec())
    report = {"bench": "training", "commit": args.commit or _commit(), "seed": args.seed, "k_max": args.steps,
              "repeats": args.repeats, "python": platform.python_version(), "learners": {}}
    trainers = {}
    for name, train in (("SCA", train_sca), ("CALC", train_calc_stage1)):
        cfg = benchmark_train_config(name)
        cfg = replace(cfg, k_max=args.steps, seed=args.seed, critic_warmup=cfg.critic_warmup * args.steps // cfg.k_max,
                      n_workers=args.n_workers or cfg.n_workers)
        trainers[name] = cfg
        cpu_s, result = _fastest(lambda: train(sampler, cfg), args.repeats)
        report["learners"][name] = {"steps": result.global_steps, "cpu_s": round(cpu_s, 4),
                                    "steps_per_s": round(result.global_steps / cpu_s, 1),
                                    "n_workers": cfg.n_workers, "update_period": cfg.update_period}
    qcfg = baselines.QLearnConfig(episodes=args.aem_episodes, seed=args.seed)
    cpu_s, _ = _fastest(lambda: baselines.aem_train(sampler, qcfg, 33), args.repeats)
    report["learners"]["AEM"] = {"episodes": args.aem_episodes, "cpu_s": round(cpu_s, 4)}
    experiment = benchmark_experiment()
    experiment = replace(experiment, sca=trainers["SCA"], calc=trainers["CALC"],
                         aem=replace(experiment.aem, episodes=args.aem_episodes))
    report["experiment_seeds"] = list(experiment.seeds)
    wall_s, _ = _fastest(lambda: run_experiment(experiment), args.repeats, clock=time.perf_counter)
    report["experiment_wall_s"] = round(wall_s, 4)
    text = json.dumps(report, indent=2)
    with open(args.out, "w") as fh:
        fh.write(text + "\n")
    print(text)
    return report


if __name__ == "__main__":
    main()
