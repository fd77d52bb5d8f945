"""Speed of the exact solvers and the scheduling rollouts, in ms per fleet.

Runs `oa_schedule` and `solve_offline` on benchmark fleets 1..`--fleets`,
once on the shipped flat base load and once on `synthetic_base_load`; on the
flat base load it also runs `project_allocation` on the stage-1 targets of
the stored CALC policy (perfbench/inputs/calc_policy.txt), once uncapped
(`split`) and once under a load cap of 1.02x the oracle's peak, which on a
flat base load is the least achievable peak (`split_capped`), and the
rollouts `sca_schedule` (`SCA`), `calc_schedule` (`CALC`) and `aem_schedule`
(`AEM`) of the stored policies and table in perfbench/inputs. It writes
`BENCH_solvers.json`: the commit, and per base load and operation the median
and fastest CPU ms per fleet over `--repeats` passes; for the solver
operations also OA's re-solve count, and the `_max_flow` calls with their CPU
µs per call. The counts come from `--repeats` extra passes with counting
wrappers, which are not timed; the µs per call is that of the fastest of them.

Passes run back to back land in the same phase of a busy machine, so two
files written one after the other can differ by 2x for the same code.
`--against DIR` compares two trees in one process instead: it imports
DIR/src/evchargelab under a second package name and, for every operation
and fleet, the rollouts included, alternates the two versions call by call,
taking the fastest of `--repeats` calls on each side. Each tree's rollouts
run the policies and table of its own perfbench/inputs. The `race` block
holds the ms per fleet of each side, their ratio (`speedup`, DIR's time over
this tree's), the fleets on which this tree was faster, and whether every
output's bytes matched.
Run from the repository root with:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 demos/bench_solvers.py --out BENCH_solvers.json [--against DIR]
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

from evchargelab import baselines, solvers
from evchargelab.harness import benchmark_spec, build_scenario
from evchargelab.rl import serialize, train
from evchargelab.scenario import synthetic_base_load

ROOT = Path(__file__).resolve().parent.parent
ROLLOUTS = ("SCA", "CALC", "AEM")  # timed only: the counts are the solvers'


def _commit(cwd=None) -> str:
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"], capture_output=True, text=True, check=True,
                             cwd=cwd)
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


def _load_tree(root):
    """The solvers, baselines, harness, rl.train and rl.serialize of the evchargelab package under
    root/src, imported as the package `evchargelab_against`; its relative imports resolve inside
    that copy."""
    name, package = "evchargelab_against", Path(root).resolve() / "src" / "evchargelab"
    spec = importlib.util.spec_from_file_location(name, package / "__init__.py",
                                                  submodule_search_locations=[str(package)])
    sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sys.modules[name])
    return {sub: importlib.import_module(f"{name}.{sub}")
            for sub in ("solvers", "baselines", "harness", "rl.train", "rl.serialize")}


def _amounts(output):
    """The schedule's amounts of a schedule, or of an oracle or split output."""
    return getattr(output, "schedule", output).amounts


def _race(sides, repeats) -> dict:
    """Fastest CPU ms of `repeats` calls per input on each side, alternating the sides call by call.

    sides holds (run, inputs) for this tree first and the other tree second,
    with the same inputs in the same order.
    """
    (run, inputs), (other_run, other_inputs) = sides
    fastest = [[float("inf")] * len(inputs) for _ in range(2)]
    same = True
    for k, pair in enumerate(zip(inputs, other_inputs)):
        outputs = [None, None]
        for r in range(repeats):
            for side in (0, 1) if r % 2 == 0 else (1, 0):
                fn = (run, other_run)[side]
                t0 = time.process_time()
                outputs[side] = fn(pair[side])
                fastest[side][k] = min(fastest[side][k], 1e3 * (time.process_time() - t0))
        same = same and _amounts(outputs[0]).tobytes() == _amounts(outputs[1]).tobytes()
    ours, theirs = (sum(times) / len(times) for times in fastest)
    return {"ms_per_fleet": round(ours, 3), "against_ms_per_fleet": round(theirs, 3),
            "speedup": round(theirs / ours, 3), "faster_fleets": sum(a < b for a, b in zip(*fastest)),
            "fleets": len(inputs), "same_bytes": same}


def _runs(tree, root, flat, targets, caps) -> dict:
    """Per base load, the (name, run, inputs) of each operation of one tree's modules, with the
    policies and table stored under root/perfbench/inputs, on its own scenarios of the flat
    benchmark fleets, the CALC targets and the split's load caps."""
    solvers, baselines, train = tree["solvers"], tree["baselines"], tree["rl.train"]
    inputs = Path(root) / "perfbench" / "inputs"
    sca, calc = (tree["rl.serialize"].load_policy(inputs / f"{name}_policy.txt") for name in ("sca", "calc"))
    table = baselines.QTable.load(inputs / "aem_table.txt")
    synthetic = [replace(sc, base_load=synthetic_base_load(sc.horizon)) for sc in flat]
    capped = [replace(sc, load_cap=cap) for sc, cap in zip(flat, caps)]

    def split(pair):
        return solvers.project_allocation(pair[1], pair[0])

    return {"flat": [("OA", baselines.oa_schedule, flat), ("oracle", solvers.solve_offline, flat),
                     ("split", split, list(zip(flat, targets))), ("split_capped", split, list(zip(capped, targets))),
                     ("SCA", lambda sc: train.sca_schedule(sca, sc), flat),
                     ("CALC", lambda sc: train.calc_schedule(calc, sc), flat),
                     ("AEM", lambda sc: baselines.aem_schedule(table, sc), flat)],
            "synthetic": [("OA", baselines.oa_schedule, synthetic), ("oracle", solvers.solve_offline, synthetic)]}


def main(argv=None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fleets", type=int, default=20, help="benchmark fleets 1..N (default 20)")
    parser.add_argument("--repeats", type=int, default=5, help="timed passes over the fleets (default 5)")
    parser.add_argument("--out", default="BENCH_solvers.json", help="output file")
    parser.add_argument("--commit", default=None, help="commit to record (default: git describe --always --dirty)")
    parser.add_argument("--against", default=None, metavar="DIR",
                        help="race this tree against the checkout in DIR, call by call (writes a race block)")
    args = parser.parse_args(argv)

    seeds = range(1, args.fleets + 1)
    flat = [build_scenario(benchmark_spec(), seed)[0] for seed in seeds]
    report = {"bench": "solvers", "commit": args.commit or _commit(), "fleets": args.fleets,
              "repeats": args.repeats, "python": platform.python_version(), "base_loads": {}}
    calc = serialize.load_policy(ROOT / "perfbench" / "inputs" / "calc_policy.txt")
    targets = [train.calc_aggregate_series(calc, sc) for sc in flat]
    caps = [1.02 * float((solvers.solve_offline(sc).schedule.slot_totals() + sc.base_load).max()) for sc in flat]
    tree = {"solvers": solvers, "baselines": baselines, "rl.train": train, "rl.serialize": serialize}
    runs = _runs(tree, ROOT, flat, targets, caps)
    for load, load_runs in runs.items():
        results = {}
        for name, run, inputs in load_runs:
            passes = []
            for _ in range(args.repeats):
                t0 = time.process_time()
                for item in inputs:
                    run(item)
                passes.append(1e3 * (time.process_time() - t0) / len(inputs))
            results[name] = {"median_ms": round(statistics.median(passes), 3), "fastest_ms": round(min(passes), 3)}
            if name not in ROLLOUTS:
                results[name].update(_counts(run, inputs, args.repeats))
            if name != "OA":  # only OA re-solves
                results[name].pop("resolves", None)
        report["base_loads"][load] = results
    if args.against:
        other = _load_tree(args.against)
        other_flat = [other["harness"].build_scenario(other["harness"].benchmark_spec(), seed)[0] for seed in seeds]
        other_runs = _runs(other, args.against, other_flat, targets, caps)
        report["race"] = {"against_commit": _commit(args.against), "base_loads": {
            load: {name: _race([(run, inputs), (other_run, other_inputs)], args.repeats)
                   for (name, run, inputs), (_, other_run, other_inputs) in zip(runs[load], other_runs[load])}
            for load in runs}}
    text = json.dumps(report, indent=2)
    with open(args.out, "w") as fh:
        fh.write(text + "\n")
    print(text)
    return report


if __name__ == "__main__":
    main()
