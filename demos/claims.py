"""The paper's claims and the acceptance margins, over several training seeds.

For each training seed, `run_experiment` trains SCA, CALC and AEM on the
shipped 40-EV benchmark at full budget (the trainings run side by side in
forked workers) and schedules all five algorithms on benchmark fleets 1-5.
A 10-EV AEM run at 33 and 3300 levels gives criterion 08's cost half.
Writes `claims.csv` in long form, one value per line:

- `cost_<ALG>` and `peak_<ALG>`: means over the five fleets;
- `pct_<A>_vs_<B>`: our percentage beside the paper's: the saving of SCA
  over EC, OA and AEM, (cost_B - cost_SCA) / cost_B, and CALC's extra cost
  over SCA, (cost_CALC - cost_SCA) / cost_SCA;
- `margin_<nn>_<what>`: each acceptance inequality of criteria 05, 06, 07,
  08 (cost) and 12 as larger-minus-smaller, so a positive margin passes;
- `train_s_<ALG>`: each training's wall time.

The rows `mean`, `min` and `max` summarize the seeds. Run from the
repository root with (about 2 minutes on 2 cores):

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 demos/claims.py --out claims.csv
"""

from __future__ import annotations

import argparse
import tempfile
from dataclasses import replace

import numpy as np

from evchargelab.baselines import QLearnConfig, aem_schedule, aem_train
from evchargelab.harness import (
    BENCHMARK_SEEDS,
    benchmark_experiment,
    benchmark_spec,
    build_scenario,
    make_sampler,
    run_experiment,
)
from evchargelab.model import horizon_cost

ALGS = ("EC", "OA", "AEM", "SCA", "CALC")
# (name, paper's value in %): SCA's saving over EC, OA and AEM; CALC's cost over SCA's.
PAPER_PCT = (("pct_SCA_vs_EC", 24.03), ("pct_SCA_vs_OA", 21.49), ("pct_SCA_vs_AEM", 13.80),
             ("pct_CALC_vs_SCA", 5.56))


def _quantization_costs(seed: int) -> dict:
    """Criterion 08's setting: mean AEM cost on the 10-EV benchmark at 33 and 3300 levels."""
    spec = replace(benchmark_spec(), n_evs=10)
    sampler = make_sampler(spec)
    costs = {}
    for levels in (33, 3300):
        table = aem_train(sampler, QLearnConfig(episodes=300, seed=seed), levels)
        costs[levels] = float(np.mean([horizon_cost(aem_schedule(table, sc), sc)
                                       for sc in (build_scenario(spec, s)[0] for s in BENCHMARK_SEEDS)]))
    return costs


def claims_for_seed(seed: int) -> dict:
    with tempfile.TemporaryDirectory() as out:
        cfg = benchmark_experiment(out, ALGS, BENCHMARK_SEEDS)
        cfg = replace(cfg, sca=replace(cfg.sca, seed=seed), calc=replace(cfg.calc, seed=seed))
        result = run_experiment(cfg)
    if not result.ok:
        raise RuntimeError(f"training seed {seed}: {result.failures}")
    values = {}
    for alg in ALGS:
        rows = [m for m in result.metrics if m.algorithm == alg]
        values[f"cost_{alg}"] = float(np.mean([m.total_cost for m in rows]))
        values[f"peak_{alg}"] = float(np.mean([m.peak_load_kwh for m in rows]))
    c = {alg: values[f"cost_{alg}"] for alg in ALGS}
    p = {alg: values[f"peak_{alg}"] for alg in ALGS}
    for other in ("EC", "OA", "AEM"):
        values[f"pct_SCA_vs_{other}"] = 100.0 * (c[other] - c["SCA"]) / c[other]
    values["pct_CALC_vs_SCA"] = 100.0 * (c["CALC"] - c["SCA"]) / c["SCA"]
    values["margin_05_EC_over_OA"] = c["EC"] - c["OA"]
    values["margin_05_OA_over_SCA"] = c["OA"] - c["SCA"]
    values["margin_05_AEM_over_SCA"] = c["AEM"] - c["SCA"]
    values["margin_06_115SCA_over_CALC"] = 1.15 * c["SCA"] - c["CALC"]
    values["margin_06_AEM_over_CALC"] = c["AEM"] - c["CALC"]
    values["margin_07_ECpeak_over_max"] = p["EC"] - max(p.values())
    values["margin_07_SCApeak_over_CALC"] = p["SCA"] - p["CALC"]
    q = _quantization_costs(seed)
    values["margin_08_cost33_over_cost3300"] = q[33] - q[3300]
    train_ms = {alg: ms for (alg, _), (ms, _) in result.training.policies.items()}
    for alg in ("SCA", "CALC", "AEM"):
        values[f"train_s_{alg}"] = train_ms[alg] / 1e3
    values["margin_12_SCAtrain_over_CALC"] = values["train_s_SCA"] - values["train_s_CALC"]
    return values


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3], help="training seeds (default 1 2 3)")
    parser.add_argument("--out", default="claims.csv", help="output file")
    args = parser.parse_args(argv)
    per_seed = {}
    for seed in args.seeds:
        per_seed[seed] = claims_for_seed(seed)
        print(f"training seed {seed}: " + ", ".join(f"{k}={v:.4g}" for k, v in per_seed[seed].items()), flush=True)
    paper = dict(PAPER_PCT)
    lines = ["seed,name,value,paper"]
    for name in per_seed[args.seeds[0]]:
        ref = paper.get(name, "")
        values = [per_seed[s][name] for s in args.seeds]
        lines += [f"{s},{name},{v!r},{ref}" for s, v in zip(args.seeds, values)]
        lines += [f"{stat},{name},{float(fn(values))!r},{ref}" for stat, fn in (("mean", np.mean), ("min", np.min),
                                                                                ("max", np.max))]
    with open(args.out, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
