"""Measure the per-operation reference figures quoted in README.md.

    python3 perfbench/figures.py    # about 3 minutes on one core

Single runs, one BLAS thread: training at a 20k-step budget, the per-fleet
operations of `schedule` on fleet seeds 100-104, and the capped operations
on fleet seeds 1, 2 and 104 of the shipped distribution.
"""

import time
from dataclasses import replace

from bench_env import configure

configure()

import checks  # noqa: E402
import workloads  # noqa: E402
from evchargelab import baselines, harness, rl, solvers  # noqa: E402


def timed(fn, *args):
    t0 = time.perf_counter()
    try:
        out = fn(*args)
    except solvers.InfeasibleScenarioError:
        out = "infeasible"
    return time.perf_counter() - t0, out


def span(values, scale=1.0, fmt="{:.2f}"):
    return f"{fmt.format(min(values) * scale)}-{fmt.format(max(values) * scale)}"


def main():
    sampler = harness.make_sampler(workloads.SPEC)
    for alg, train in (("SCA", rl.train_sca), ("CALC", rl.train_calc_stage1)):
        cfg = harness.benchmark_train_config(alg)
        cfg = replace(cfg, k_max=20_000, critic_warmup=cfg.critic_warmup * 20_000 // cfg.k_max)
        print(f"train {alg} 20k steps: {timed(train, sampler, cfg)[0]:.1f} s", flush=True)
    qcfg = baselines.QLearnConfig(episodes=300, seed=1)
    print(f"train AEM 300 episodes: {timed(baselines.aem_train, sampler, qcfg, 33)[0]:.1f} s", flush=True)

    sched = workloads.Schedule(0, None)
    sched.build()
    ops = {
        "EC": baselines.ec_schedule,
        "OA": baselines.oa_schedule,
        "AEM": lambda sc: baselines.aem_schedule(sched.table, sc),
        "SCA": lambda sc: rl.sca_schedule(sched.sca, sc, sched.sca_mode),
        "CALC": lambda sc: rl.calc_schedule(sched.calc, sc, reward_mode=sched.calc_mode),
        "oracle": solvers.solve_offline,
        "split": lambda sc: solvers.project_allocation(baselines.ec_schedule(sc).slot_totals(), sc),
    }
    times = {name: [] for name in ops}
    iterations = []
    for sc in sched.split_fleets:
        for name, op in ops.items():
            dt, out = timed(op, sc)
            times[name].append(dt)
            if name == "oracle":
                iterations.append(out.iterations)
    for name, values in times.items():
        print(f"schedule {name}: {span(values, 1e3, '{:.1f}')} ms per fleet", flush=True)
    print(f"schedule oracle iterations: {min(iterations)}-{max(iterations)}", flush=True)

    capped = workloads.Capped(0, None)
    capped.build()
    for seed in (1, 2, workloads.F2_FLEET_SEED):
        sc = workloads._scenario(seed)
        peak = checks.min_peak(checks.fleet_of(sc))
        row = []
        for cap, factor in (("+2%", workloads.LOOSE), ("+0.1%", workloads.TIGHT), ("-3%", workloads.UNREACHABLE)):
            scc = replace(sc, load_cap=factor * peak)
            for name, op in (("oracle", solvers.solve_offline),
                             ("CALC", lambda s: rl.calc_schedule(capped.calc, s, reward_mode=capped.calc_mode))):
                dt, out = timed(op, scc)
                row.append(f"{name} {cap} {dt:.2f} s{' (raised)' if isinstance(out, str) else ''}")
        print(f"capped fleet {seed} (LP minimum peak {peak:.3f}): " + ", ".join(row), flush=True)


if __name__ == "__main__":
    main()
