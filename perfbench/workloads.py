"""The benchmark's three workloads.

Each workload has three parts:

- `build()` is the program's set-up: the inputs it makes through the public
  API (fleets, stored policies, experiment configurations). It is timed,
  and repeated, as `setup_s`.
- `reference()` makes what the checks compare against, apart from the
  program (LPs, recomputed costs) or from program outputs that a check
  verifies first. It is not timed.
- `ops(r)` lists round r's operations as (name, call) pairs; `run.py`
  times each call. Every round runs the same operations, so the share of
  failed operations is the same in every run. A name stands for one
  operation on one input, so that `run.py` can take the fastest of its
  repeats. `check(r, outputs)` turns the calls' results, in order, into
  operation outcomes, outside the timed section.

Inputs come from the workload seed through `np.random.default_rng`; the
operations kept on purpose for the named faults F1 and F2 run on fixed
fleets that do not depend on the seed.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path

import numpy as np

import checks
from bench_env import BENCH_DIR
from evchargelab import baselines, harness, rl, solvers

INPUTS = BENCH_DIR / "inputs"
SPEC = harness.benchmark_spec()

# train: the shipped experiment at a reduced budget (the full one is
# 200k steps for SCA and CALC and 300 AEM episodes), evaluated on five fleets.
TRAIN_STEPS = 6_000
AEM_EPISODES = 60
TRAIN_FLEETS = 5

# schedule: fresh fleets per round, plus one achievable split (F1).
ALGS = ("EC", "OA", "AEM", "SCA", "CALC", "oracle")
SCHEDULE_FLEETS_PER_ROUND = 4
F1_FLEET_SEEDS = (100, 101, 102, 103, 104)

# capped: caps as multiples of the LP minimum peak.
LOOSE, TIGHT, UNREACHABLE = 1.02, 1.001, 0.97
F2_FLEET_SEED = 104
# (fleet, algorithm, cap) of each capped operation: the fresh fleet is drawn
# from the workload seed, the fixed one is fleet 104.
CAPPED_OPS = (("fresh", "oracle", "loose"), ("fresh", "oracle", "unreachable"),
              ("fixed", "oracle", "tight"), ("fixed", "CALC", "loose"))

# Seed-derived fleets that schedule's rounds cycle through.
POOL = 64


@dataclass
class Outcome:
    """Outcomes of one round: operations attempted, failed, and check faults."""

    attempted: int = 0
    failed: int = 0
    faults: list[str] = field(default_factory=list)

    def op(self, failed: bool = False, faults=()) -> None:
        self.attempted += 1
        self.failed += int(failed)
        self.faults.extend(faults)


def _fleet_seeds(seed: int, tag: int, n: int) -> list[int]:
    return [int(s) for s in np.random.default_rng([seed, tag]).integers(1_000, 2**31 - 1, size=n)]


def _scenario(fleet_seed: int):
    return harness.build_scenario(SPEC, fleet_seed)[0]


def _run(fn, *args, **kwargs):
    """(output, error) of one operation; an error is the failure it reports."""
    try:
        return fn(*args, **kwargs), None
    except solvers.SolverError as exc:
        return None, exc


class Train:
    """`evlab run` on the shipped benchmark at a reduced budget: train SCA,
    CALC and AEM with the shipped training seed, schedule all five
    algorithms on five fleets, write the report. Every round repeats it.

    The five evaluation fleets are drawn from the workload seed. The
    training seed stays the shipped one: on an early CALC policy
    `calc_schedule` took 0.05-1.8 s for the same five fleets depending on the
    training seed, so a training seed per run would set `wall_s` by the
    policy a run drew.
    """

    name = "train"
    tag = 1

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.out_dir = out_dir

    def build(self):
        base = harness.benchmark_experiment(str(self.out_dir))
        base = replace(base, aem=replace(base.aem, episodes=AEM_EPISODES))
        for alg in ("sca", "calc"):
            cfg = getattr(base, alg)
            warmup = cfg.critic_warmup * TRAIN_STEPS // cfg.k_max
            base = replace(base, **{alg: replace(cfg, k_max=TRAIN_STEPS, critic_warmup=warmup)})
        self.fleet_seeds = _fleet_seeds(self.seed, self.tag, TRAIN_FLEETS)
        self.config = replace(base, seeds=tuple(self.fleet_seeds))

    def reference(self):
        self.fleets = {}
        self.oracle_cost = {}
        for seed in self.fleet_seeds:
            scenario = _scenario(seed)
            fleet = checks.fleet_of(scenario)
            oracle = solvers.solve_offline(scenario).schedule.amounts
            faults = checks.feasibility(fleet, oracle) + checks.kkt(fleet, oracle)
            if faults:
                raise RuntimeError(f"reference oracle on fleet seed {seed}: {faults}")
            self.fleets[seed] = fleet
            self.oracle_cost[seed] = checks.bill(fleet, oracle.sum(axis=0))

    def ops(self, r: int):
        return [("evlab run", self._run_and_report)]

    def _run_and_report(self):
        result = harness.run_experiment(self.config)
        harness.emit_report(result, self.out_dir)
        return result

    def check(self, r: int, outputs) -> Outcome:
        (result,) = outputs
        out = Outcome()
        algorithms = harness.ALGORITHMS
        for _ in result.failures:
            out.op(failed=True)
        rows = {(m.algorithm, m.seed): m for m in result.metrics}
        for seed in self.fleet_seeds:
            fleet = self.fleets[seed]
            for alg in algorithms:
                m = rows.get((alg, seed))
                if m is None:
                    continue
                where = f"{alg} seed {seed}"
                ev_load = np.asarray(m.per_slot_load) - fleet.base
                faults = checks.same_cost(where, m.total_cost, checks.bill(fleet, ev_load))
                if abs(ev_load.sum() - fleet.demand.sum()) > checks.KWH_TOL * fleet.demand.size:
                    faults.append(f"{where}: delivered {ev_load.sum():.9g} kWh of {fleet.demand.sum():.9g}")
                if m.peak_load_kwh != float(np.max(m.per_slot_load)):
                    faults.append(f"{where}: peak {m.peak_load_kwh} is not the largest slot load")
                faults += checks.dominance(self.oracle_cost[seed], {where: m.total_cost})
                out.op(faults=faults)
        if out.attempted != len(algorithms) * TRAIN_FLEETS:
            out.faults.append(f"{out.attempted} runs reported, expected {len(algorithms) * TRAIN_FLEETS}")
        lines = (self.out_dir / "metrics.csv").read_text().splitlines()
        out.op(faults=[] if len(lines) == 1 + len(result.metrics) and lines[0] == harness.METRICS_HEADER
               else [f"metrics.csv has {len(lines)} lines"])
        return out

    def close(self):
        shutil.rmtree(self.out_dir, ignore_errors=True)


class Schedule:
    """Online scheduling of fresh shipped-distribution fleets with stored
    policies, the oracle, and (F1) one achievable split per round."""

    name = "schedule"
    tag = 2

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed

    def build(self):
        self.fleets = [_scenario(s) for s in _fleet_seeds(self.seed, self.tag, POOL)]
        self.split_fleets = [_scenario(s) for s in F1_FLEET_SEEDS]
        self.split_targets = [baselines.ec_schedule(sc).slot_totals() for sc in self.split_fleets]
        self.sca = rl.load_policy(INPUTS / "sca_policy.txt")
        self.calc = rl.load_policy(INPUTS / "calc_policy.txt")
        self.table = baselines.QTable.load(INPUTS / "aem_table.txt")
        self.sca_mode = harness.benchmark_train_config("SCA").reward_mode
        self.calc_mode = harness.benchmark_train_config("CALC").reward_mode

    def reference(self):
        self.arrays = [checks.fleet_of(sc) for sc in self.fleets]
        self.split_arrays = [checks.fleet_of(sc) for sc in self.split_fleets]

    def _indices(self, r: int):
        return [(r * SCHEDULE_FLEETS_PER_ROUND + j) % POOL for j in range(SCHEDULE_FLEETS_PER_ROUND)]

    def ops(self, r: int):
        ops = []
        for i in self._indices(r):
            sc = self.fleets[i]
            ops += [
                (f"EC {i}", partial(baselines.ec_schedule, sc)),
                (f"OA {i}", partial(baselines.oa_schedule, sc)),
                (f"AEM {i}", partial(baselines.aem_schedule, self.table, sc)),
                (f"SCA {i}", partial(rl.sca_schedule, self.sca, sc, self.sca_mode)),
                (f"CALC {i}", partial(rl.calc_schedule, self.calc, sc, reward_mode=self.calc_mode)),
                (f"oracle {i}", partial(solvers.solve_offline, sc)),
            ]
        k = r % len(self.split_fleets)
        ops.append((f"split {F1_FLEET_SEEDS[k]}", partial(solvers.project_allocation, self.split_targets[k], self.split_fleets[k])))
        return ops

    def check(self, r: int, outputs) -> Outcome:
        out = Outcome()
        *schedules, split = outputs
        for n, i in enumerate(self._indices(r)):
            fleet = self.arrays[i]
            costs = {}
            for alg, result in zip(ALGS, schedules[n * len(ALGS):(n + 1) * len(ALGS)]):
                schedule = result.schedule if alg == "oracle" else result
                faults = [f"{alg}, fleet {i}: {f}" for f in checks.feasibility(fleet, schedule.amounts)]
                if alg == "oracle":
                    faults += [f"oracle, fleet {i}: {f}" for f in checks.kkt(fleet, schedule.amounts)]
                costs[alg] = checks.bill(fleet, schedule.slot_totals())
                out.op(faults=faults)
            oracle_cost = costs.pop("oracle")
            out.faults += checks.dominance(oracle_cost, costs)
        # F1: the target is EC's own slot totals, so it is achievable and the
        # split must meet it within the program's tolerance.
        k = r % len(self.split_fleets)
        fleet = self.split_arrays[k]
        miss = np.abs(split.schedule.slot_totals() - self.split_targets[k]).max()
        out.op(failed=miss > checks.KWH_TOL,
               faults=[f"split of fleet {F1_FLEET_SEEDS[k]}: {f}"
                       for f in checks.feasibility(fleet, split.schedule.amounts)])
        return out

    def close(self):
        pass


class Capped:
    """The oracle and CALC under per-slot load caps set from each fleet's LP
    minimum peak: the oracle at the loose and unreachable caps on a fresh
    fleet drawn from the workload seed; on fixed fleet 104, the oracle at the
    tight cap (F2) and CALC at the loose cap. Every round repeats them.

    CALC at the unreachable and tight caps is left out of the rounds: it
    fails in the same first Dykstra projection as the oracle, and each op
    adds about 2 s to a round, which halves the rounds a run can take its
    fastest from."""

    name = "capped"
    tag = 3

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed

    def build(self):
        self.fleets = {"fresh": _scenario(_fleet_seeds(self.seed, self.tag, 1)[0]),
                       "fixed": _scenario(F2_FLEET_SEED)}
        self.calc = rl.load_policy(INPUTS / "calc_policy.txt")
        self.calc_mode = harness.benchmark_train_config("CALC").reward_mode

    def reference(self):
        """Caps of each fleet and the cost of its uncapped optimum."""
        self.refs = {name: self._reference(name, sc) for name, sc in self.fleets.items()}

    def _reference(self, name: str, sc):
        fleet = checks.fleet_of(sc)
        peak = checks.min_peak(fleet)
        oracle = solvers.solve_offline(sc).schedule.amounts
        faults = checks.feasibility(fleet, oracle) + checks.kkt(fleet, oracle)
        # On a flat base load the uncapped optimum also has the least peak.
        oracle_peak = float((oracle.sum(axis=0) + fleet.base).max())
        if oracle_peak > peak + checks.PEAK_KWH:
            faults.append(f"uncapped optimum peaks at {oracle_peak:.9g}, LP minimum {peak:.9g}")
        if checks.cap_feasible(fleet, UNREACHABLE * peak):
            faults.append(f"LP finds cap {UNREACHABLE * peak:.6g} feasible")
        if faults:
            raise RuntimeError(f"reference for the {name} capped fleet: {faults}")
        capped = {cap: replace(sc, load_cap=factor * peak)
                  for cap, factor in (("loose", LOOSE), ("tight", TIGHT), ("unreachable", UNREACHABLE))}
        return capped, checks.bill(fleet, oracle.sum(axis=0))

    def ops(self, r: int):
        ops = []
        for name, alg, cap in CAPPED_OPS:
            sc = self.refs[name][0][cap]
            if alg == "oracle":
                call = partial(_run, solvers.solve_offline, sc)
            else:
                call = partial(_run, rl.calc_schedule, self.calc, sc, reward_mode=self.calc_mode)
            ops.append((f"{alg} {cap} {name}", call))
        return ops

    def check(self, r: int, outputs) -> Outcome:
        out = Outcome()
        for (name, alg, cap), (result, error) in zip(CAPPED_OPS, outputs):
            capped, uncapped_cost = self.refs[name]
            where = f"{alg} at the {cap} cap of the {name} fleet"
            if cap == "unreachable":
                # Success is the program's refusal; any other error is a failure.
                if result is not None:
                    out.op(faults=[f"{where}: returned a schedule for an infeasible cap"])
                else:
                    out.op(failed=not isinstance(error, solvers.InfeasibleScenarioError))
                continue
            if result is None:
                out.op(failed=True)
                continue
            amounts = result.schedule.amounts if alg == "oracle" else result.amounts
            fleet = checks.fleet_of(capped[cap])
            faults = checks.feasibility(fleet, amounts)
            cost = checks.bill(fleet, amounts.sum(axis=0))
            if alg == "oracle":
                faults += checks.same_cost("capped oracle", cost, uncapped_cost)
            else:
                faults += checks.dominance(uncapped_cost, {alg: cost})
            out.op(faults=[f"{where}: {f}" for f in faults])
        return out

    def close(self):
        pass


WORKLOADS = {w.name: w for w in (Train, Schedule, Capped)}
