"""Run one benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload train|schedule|capped --seed N \\
        --seconds S --trace 0|1

The workload's set-up is made and timed first, then rounds of its
operations run until `S` seconds of rounds have been measured; every round's
outputs are checked outside the timed section. With `--trace 0` the last
line of stdout carries the end-to-end metrics, with `--trace 1` the
per-layer metrics of a run whose layers are wrapped in spans (see
`spans.py`). Check faults go to stderr and make `correct` false.

The machine's speed swings by up to 1.6x over seconds to minutes, as other
tenants load the host. So the set-up is repeated between rounds, spread over
the run, and `setup_s` is the fastest. Each operation on a given input is
counted at the fastest time the run saw for it, and `wall_s` is the median
over rounds of a round's summed operation times. Where every round repeats
the same operations on the same inputs (train, capped) that is the sum of
their fastest times; where an input comes round only once, its one time
stands.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

from bench_env import BENCH_DIR, SRC, configure

configure()

SETUP_SAMPLES = 6
# Timed in a fresh interpreter each time: the program's imports are set-up
# that a user pays once per process.
IMPORT_PROBE = ("import time; t = time.perf_counter(); "
                "import evchargelab, evchargelab.harness, evchargelab.rl; "
                "print(time.perf_counter() - t)")


def setup_seconds(workload) -> float:
    """One set-up: the program's imports in a fresh interpreter, then the
    workload's inputs built through the program's API in this one."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    child = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, capture_output=True,
                           text=True, check=True, timeout=120)
    t0 = time.perf_counter()
    workload.build()
    return float(child.stdout.split()[-1]) + time.perf_counter() - t0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("train", "schedule", "capped"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    import spans
    import workloads

    out_dir = BENCH_DIR / ".out" / f"{args.workload}-{os.getpid()}"
    workload = workloads.WORKLOADS[args.workload](args.seed, out_dir)
    setups = [setup_seconds(workload)]
    workload.reference()

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
    walls, op_times, layers = [], [], []
    attempted = failed = 0
    faults = []
    try:
        r = 0
        while sum(walls) < args.seconds:
            outputs, times = [], {}
            start = time.perf_counter()
            for name, call in workload.ops(r):
                t0 = time.perf_counter()
                outputs.append(call())
                times[name] = time.perf_counter() - t0
            walls.append(time.perf_counter() - start)
            op_times.append(times)
            if tracer:
                layers.append(tracer.take(walls[-1]))
            outcome = workload.check(r, outputs)
            attempted += outcome.attempted
            failed += outcome.failed
            faults += [f"round {r}: {f}" for f in outcome.faults]
            r += 1
            # The traced run reports no set-up, and a set-up between its
            # rounds would count in the next round's spans.
            due = len(setups) * args.seconds / SETUP_SAMPLES
            if not tracer and len(setups) < SETUP_SAMPLES and sum(walls) >= due:
                setups.append(setup_seconds(workload))
    finally:
        workload.close()
        try:
            (BENCH_DIR / ".out").rmdir()
        except OSError:
            pass

    if args.trace:
        metrics = {name: {"value": statistics.median(v[name] for v in layers), "unit": unit}
                   for name, unit, _ in spans.METRICS}
    else:
        fastest = {}
        for times in op_times:
            for name, t in times.items():
                fastest[name] = min(fastest.get(name, t), t)
        wall_s = statistics.median(sum(fastest[name] for name in times) for times in op_times)
        metrics = {
            "wall_s": {"value": wall_s, "unit": "s"},
            "setup_s": {"value": min(setups), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
        }
    for fault in faults:
        print(f"FAULT {fault}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(walls)} rounds, "
          f"round wall s {[round(w, 3) for w in walls]}, set-ups s {[round(s, 4) for s in setups]}",
          file=sys.stderr)
    print(json.dumps({"correct": not faults, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
