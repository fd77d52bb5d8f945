"""Train the stored policies that the `schedule` and `capped` workloads load.

    python3 perfbench/make_inputs.py           # (re)write perfbench/inputs/
    python3 perfbench/make_inputs.py --check   # retrain and compare bytes

The policies are trained on the shipped 40-EV benchmark distribution with
the shipped training configurations at their full budgets, training seed 1
for SCA, CALC and AEM. They are stored so that a change to the training
layers does not move the scheduling workloads; `--check` shows that the
stored files are what this command makes.
"""

import argparse
import filecmp
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

from bench_env import BENCH_DIR, configure

configure()

from evchargelab import baselines, harness  # noqa: E402
from evchargelab.rl import save_policy, serialize, train_calc_stage1, train_sca  # noqa: E402

INPUTS = BENCH_DIR / "inputs"
TRAIN_SEED = 1
FILES = ("sca_policy.txt", "calc_policy.txt", "aem_table.txt")


def make(out: Path) -> None:
    sampler = harness.make_sampler(harness.benchmark_spec())
    for name, train in (("sca", train_sca), ("calc", train_calc_stage1)):
        cfg = replace(harness.benchmark_train_config(name.upper()), seed=TRAIN_SEED)
        result = train(sampler, cfg)
        save_policy(result.policy, out / f"{name}_policy.txt", seed=TRAIN_SEED, cfg_hash=serialize.config_hash(cfg))
        print(f"{name}: {result.global_steps} steps in {result.wall_seconds:.1f} s", flush=True)
    aem = harness.AemSettings()
    qcfg = baselines.QLearnConfig(learning_rate=aem.learning_rate, discount=aem.discount,
                                  episodes=aem.episodes, seed=TRAIN_SEED)
    baselines.aem_train(sampler, qcfg, aem.levels).save(out / "aem_table.txt")
    print(f"aem: {aem.episodes} episodes", flush=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", help="retrain into a temporary directory and compare")
    args = parser.parse_args()
    if not args.check:
        INPUTS.mkdir(exist_ok=True)
        make(INPUTS)
        return 0
    with tempfile.TemporaryDirectory(dir=BENCH_DIR) as tmp:
        make(Path(tmp))
        same = [name for name in FILES if filecmp.cmp(INPUTS / name, Path(tmp) / name, shallow=False)]
    for name in FILES:
        print(f"{name}: {'identical' if name in same else 'DIFFERS'}")
    return 0 if len(same) == len(FILES) else 1


if __name__ == "__main__":
    sys.exit(main())
