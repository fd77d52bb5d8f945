"""Speed of the exact solvers: the OA baseline, the offline oracle and CALC's target split, in ms per fleet.

Runs `oa_schedule` and `solve_offline` on benchmark fleets 1..`--fleets`,
once on the shipped flat base load and once on `synthetic_base_load`; on the
flat base load it also runs `project_allocation` on the stage-1 targets of
the stored CALC policy (perfbench/inputs/calc_policy.txt), once uncapped
(`split`) and once under a load cap of 1.02x the oracle's peak, which on a
flat base load is the least achievable peak (`split_capped`). It writes
`BENCH_solvers.json`: the commit, and per base load and operation the median
and fastest CPU ms per fleet over `--repeats` passes, OA's re-solve count,
and the `_max_flow` calls with their CPU µs per call. The counts come from
`--repeats` extra passes with counting wrappers, which are not timed; the µs
per call is that of the fastest of them. Run from the repository root with:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 demos/bench_solvers.py --out BENCH_solvers.json
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import time
from dataclasses import replace
from pathlib import Path

from evchargelab import baselines, solvers
from evchargelab.harness import benchmark_spec, build_scenario
from evchargelab.rl import load_policy
from evchargelab.rl.train import calc_aggregate_series
from evchargelab.scenario import synthetic_base_load

CALC_POLICY = Path(__file__).resolve().parent.parent / "perfbench" / "inputs" / "calc_policy.txt"


def _commit() -> str:
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"], capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def _counted(module, name, counts):
    """Wrap module.name so that each call adds to counts["calls"] and its CPU seconds to counts["s"]."""
    inner = getattr(module, name)

    def wrapper(*args, **kwargs):
        t0 = time.process_time()
        try:
            return inner(*args, **kwargs)
        finally:
            counts["s"] += time.process_time() - t0
            counts["calls"] += 1

    setattr(module, name, wrapper)
    return inner


def _counts(run, inputs, passes) -> dict:
    """Re-solves and `_max_flow` calls of one untimed pass of run over its inputs, and the CPU µs
    per `_max_flow` call of the fastest of `passes` such passes."""
    fastest = float("inf")
    for _ in range(passes):
        resolves, flows = {"calls": 0, "s": 0.0}, {"calls": 0, "s": 0.0}
        rolling = _counted(baselines, "solve_rolling_step", resolves)
        max_flow = _counted(solvers, "_max_flow", flows)
        try:
            for item in inputs:
                run(item)
        finally:
            baselines.solve_rolling_step, solvers._max_flow = rolling, max_flow
        fastest = min(fastest, flows["s"] / max(flows["calls"], 1))
    return {"resolves": resolves["calls"], "max_flow_calls": flows["calls"],
            "max_flow_us_per_call": round(1e6 * fastest, 2)}


def main(argv=None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fleets", type=int, default=20, help="benchmark fleets 1..N (default 20)")
    parser.add_argument("--repeats", type=int, default=5, help="timed passes over the fleets (default 5)")
    parser.add_argument("--out", default="BENCH_solvers.json", help="output file")
    parser.add_argument("--commit", default=None, help="commit to record (default: git describe --always --dirty)")
    args = parser.parse_args(argv)

    flat = [build_scenario(benchmark_spec(), seed)[0] for seed in range(1, args.fleets + 1)]
    base_loads = {"flat": flat,
                  "synthetic": [replace(sc, base_load=synthetic_base_load(sc.horizon)) for sc in flat]}
    report = {"bench": "solvers", "commit": args.commit or _commit(), "fleets": args.fleets,
              "repeats": args.repeats, "python": platform.python_version(), "base_loads": {}}
    calc = load_policy(CALC_POLICY)
    targets = [calc_aggregate_series(calc, sc) for sc in flat]
    capped = [replace(sc, load_cap=1.02 * float((solvers.solve_offline(sc).schedule.slot_totals() + sc.base_load).max()))
              for sc in flat]

    def split(pair):
        return solvers.project_allocation(pair[1], pair[0])

    for load, fleets in base_loads.items():
        runs = [("OA", baselines.oa_schedule, fleets), ("oracle", solvers.solve_offline, fleets)]
        if load == "flat":
            runs += [("split", split, list(zip(flat, targets))), ("split_capped", split, list(zip(capped, targets)))]
        results = {}
        for name, run, inputs in runs:
            passes = []
            for _ in range(args.repeats):
                t0 = time.process_time()
                for item in inputs:
                    run(item)
                passes.append(1e3 * (time.process_time() - t0) / len(inputs))
            results[name] = {"median_ms": round(statistics.median(passes), 3), "fastest_ms": round(min(passes), 3),
                             **_counts(run, inputs, args.repeats)}
            if name != "OA":  # only OA re-solves
                del results[name]["resolves"]
        report["base_loads"][load] = results
    text = json.dumps(report, indent=2)
    with open(args.out, "w") as fh:
        fh.write(text + "\n")
    print(text)
    return report


if __name__ == "__main__":
    main()
