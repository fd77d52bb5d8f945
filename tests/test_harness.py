"""Experiment runner, report emission, and CLI tests."""

import configparser
import multiprocessing
import os
import threading
import time
import warnings
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from evchargelab import cli, harness
from evchargelab.baselines import QLearnConfig, aem_train
from evchargelab.harness import (
    METRICS_HEADER,
    AemSettings,
    ConfigError,
    ExperimentConfig,
    ScenarioSpec,
    build_scenario,
    emit_report,
    emit_sweep_report,
    example_config,
    load_config,
    run_experiment,
    sweep,
)
from evchargelab.model import ChargingSchedule, PriceModel, horizon_cost, validate_schedule
from evchargelab.rl import TrainConfig, train_calc_stage1, train_sca


def small_spec(**kw):
    defaults = dict(horizon=24, n_evs=4, base_low=5.0, base_high=12.0, base_peak_slot=20)
    defaults.update(kw)
    return ScenarioSpec(**defaults)


def fast_cfg(algorithms=("EC",), seeds=(1,), **kw):
    train = TrainConfig(k_max=300, n_workers=1, discount=0.9)
    defaults = dict(
        scenario=small_spec(),
        algorithms=tuple(algorithms),
        seeds=tuple(seeds),
        output_dir="results",
        sca=train,
        calc=train,
        aem=AemSettings(levels=9, episodes=30),
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


@contextmanager
def another_thread():
    """Keep a second thread running, so that training cannot fork."""
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        yield
    finally:
        release.set()
        other.join(timeout=10)
    assert not other.is_alive()


def write_config(tmp_path, extra=""):
    text = "\n".join(
        [
            "[scenario]",
            "horizon_slots = 24",
            "base_load_low_kwh = 5.0",
            "base_load_high_kwh = 12.0",
            "",
            "[fleet]",
            "n_evs = 3",
            "",
            "[run]",
            "algorithms = EC,OA",
            "seeds = 1,2",
            f"output_dir = {tmp_path / 'out'}",
            extra,
        ]
    )
    path = tmp_path / "exp.ini"
    path.write_text(text)
    return path


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(scenario=small_spec(), algorithms=(), seeds=(1,), output_dir="o")
        with pytest.raises(ConfigError):
            ExperimentConfig(scenario=small_spec(), algorithms=("EC",), seeds=(), output_dir="o")
        with pytest.raises(ConfigError):
            ExperimentConfig(scenario=small_spec(), algorithms=("XX",), seeds=(1,), output_dir="o")

    def test_duplicates_are_config_errors(self, tmp_path, capsys):
        with pytest.raises(ConfigError, match=r"duplicate seed 1 in \(1, 2, 1\)"):
            ExperimentConfig(scenario=small_spec(), algorithms=("EC",), seeds=(1, 2, 1))
        with pytest.raises(ConfigError, match="duplicate algorithm 'EC'"):
            ExperimentConfig(scenario=small_spec(), algorithms=("EC", "OA", "EC"), seeds=(1,))
        for key, text, word in (("seeds", "1,1", "seed 1"), ("algorithms", "EC,oa,OA", "algorithm 'OA'")):
            path = write_config(tmp_path)
            path.write_text(path.read_text().replace(f"{key} = ", f"{key} = {text} #"))
            assert cli.main(["run", "--config", str(path)]) == cli.EXIT_CONFIG_ERROR
            assert f"duplicate {word}" in capsys.readouterr().err
            assert not (tmp_path / "out").exists()

    def test_example_config_parses(self, tmp_path):
        path = tmp_path / "example.ini"
        path.write_text(example_config())
        cfg = load_config(path)
        assert cfg.algorithms == ("EC", "OA", "SCA")
        assert cfg.seeds == (1, 2, 3)
        assert cfg.scenario.horizon == 48 and cfg.scenario.n_evs == 40
        assert cfg.scenario == ScenarioSpec()
        assert cfg.sca == cfg.calc == TrainConfig()
        assert cfg.aem == AemSettings()
        assert cfg.output_dir == "results"
        parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
        parser.read(path)
        for name, keys in harness._SECTIONS.items():
            # base_load_path defaults to no file, which no value can say.
            assert set(parser[name]) == {key for key, _, _ in keys} - {"base_load_path"}, name

    def test_load_config_file(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        assert cfg.algorithms == ("EC", "OA")
        assert cfg.scenario.n_evs == 3
        assert cfg.scenario.base_low == 5.0

    def test_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.ini")

    def test_trainer_and_aem_sections(self, tmp_path):
        extra = "[sca]\nk_max = 1e3\nreward = exact-cost\n[aem]\nlevels = 9\nlearning_rate = 0.2\n"
        cfg = load_config(write_config(tmp_path, extra))
        assert cfg.sca == replace(TrainConfig(), k_max=1000)
        assert cfg.calc == TrainConfig()
        assert cfg.aem == AemSettings(levels=9, learning_rate=0.2)
        bad = write_config(tmp_path, "[aem]\nlevels = nine\n")
        with pytest.raises(ConfigError, match="invalid literal"):
            load_config(bad)

    def test_unknown_key_or_section_is_config_error(self, tmp_path):
        for name, text, words in (
            ("key", "[fleet]\nn_ev = 3\n", ("n_ev", "[fleet]")),
            ("section", "[flet]\nn_evs = 3\n", ("[flet]", "n_evs")),
            ("default", "[DEFAULT]\ndiscount = 0.5\n", ("[DEFAULT]", "discount")),
            ("duplicate", "[scenario]\nhorizon_slots = 12\n", ("scenario",)),
            ("removed", "share_training = false\n", ("share_training", "[run]")),
        ):
            path = tmp_path / f"{name}.ini"
            path.write_text(f"[scenario]\nhorizon_slots = 24\n[run]\nalgorithms = EC\nseeds = 1\n{text}")
            with pytest.raises(ConfigError) as info:
                load_config(path)
            assert all(word in str(info.value) for word in words), info.value
            assert cli.main(["run", "--config", str(path)]) == cli.EXIT_CONFIG_ERROR

    def test_bad_value_is_config_error(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[run]\nalgorithms = EC\nseeds = one,two\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_non_positive_grad_clip_is_config_error(self, tmp_path):
        path = tmp_path / "clip.ini"
        path.write_text("[run]\nalgorithms = SCA\nseeds = 1\n[sca]\ngrad_clip = 0\n")
        with pytest.raises(ConfigError, match="grad_clip"):
            load_config(path)
        assert cli.main(["run", "--config", str(path)]) == cli.EXIT_CONFIG_ERROR


class TestBuildScenario:
    def test_reproducible(self):
        spec = small_spec()
        s1, t1 = build_scenario(spec, 3)
        s2, t2 = build_scenario(spec, 3)
        assert t1 == t2
        assert s1.evs == s2.evs
        np.testing.assert_array_equal(s1.base_load, s2.base_load)

    def test_base_load_file_used(self, tmp_path):
        base_path = tmp_path / "base.txt"
        base_path.write_text("7.5\n" * 24)
        spec = small_spec(base_load_path=str(base_path))
        scn, _ = build_scenario(spec, 1)
        assert np.all(scn.base_load == 7.5)


class TestRunExperiment:
    def test_ec_only_single_row(self):
        result = run_experiment(fast_cfg())
        assert result.ok
        assert len(result.metrics) == 1
        m = result.metrics[0]
        assert m.algorithm == "EC" and m.seed == 1
        assert m.wall_time_ms > 0
        assert m.demand_violation_max <= 1e-6

    def test_determinism_across_runs(self):
        cfg = fast_cfg(algorithms=("EC", "OA", "SCA"), seeds=(1, 2))
        r1 = run_experiment(cfg)
        r2 = run_experiment(cfg)
        assert [m.total_cost for m in r1.metrics] == [m.total_cost for m in r2.metrics]
        assert [m.peak_load_kwh for m in r1.metrics] == [m.peak_load_kwh for m in r2.metrics]

    def test_cost_matches_recomputed_schedule(self):
        cfg = fast_cfg(algorithms=("EC",), seeds=(4,))
        result = run_experiment(cfg)
        scn, _ = build_scenario(cfg.scenario, 4)
        from evchargelab.baselines import ec_schedule

        sched = ec_schedule(scn)
        assert result.metrics[0].total_cost == horizon_cost(sched, scn)
        assert validate_schedule(sched, scn).passed

    def test_all_algorithms_produce_metrics(self):
        cfg = fast_cfg(algorithms=("EC", "OA", "AEM", "SCA", "CALC"), seeds=(1,))
        result = run_experiment(cfg)
        assert result.ok, [f.error for f in result.failures]
        assert sorted(m.algorithm for m in result.metrics) == ["AEM", "CALC", "EC", "OA", "SCA"]
        # each learner has one training record, keyed by its training seed
        assert set(result.training.policies) == {("SCA", 0), ("CALC", 0), ("AEM", 0)}
        assert result.training.policies[("SCA", 0)][1].global_steps > 0
        assert result.training.policies[("CALC", 0)][1].global_steps > 0

    def test_non_finite_schedule_is_a_failure(self, monkeypatch):
        def nan_schedule(policy, scenario, reward_mode):
            return ChargingSchedule(np.full((scenario.n_evs, scenario.horizon), np.nan))

        monkeypatch.setattr(harness, "sca_schedule", nan_schedule)
        result = run_experiment(fast_cfg(algorithms=("SCA",)))
        assert not result.metrics
        assert [f.algorithm for f in result.failures] == ["SCA"]
        assert "failed validation" in result.failures[0].error

    def test_zero_price_scale_scenario_runs_finite(self):
        spec = small_spec(base_low=0.0, base_high=0.0, price=PriceModel(k0=0.0, k1=0.001))
        result = run_experiment(fast_cfg(algorithms=("EC", "SCA"), scenario=spec))
        assert result.ok, [f.error for f in result.failures]
        assert all(np.isfinite(m.total_cost) for m in result.metrics)

    def test_per_run_isolation(self):
        # A load cap tight enough to break eager charging (which ignores it)
        # is recorded as a failure while the cap-aware runs still complete.
        # Arrivals are pinned to one slot so the rolling solver sees the whole
        # fleet up front and cannot corner itself against the cap.
        cfg = fast_cfg(
            algorithms=("EC", "OA"),
            seeds=(1,),
            scenario=small_spec(n_evs=6, load_cap=28.0, arrival_spread=0.2),
        )
        result = run_experiment(cfg)
        assert any(f.algorithm == "EC" for f in result.failures)
        assert any(m.algorithm == "OA" for m in result.metrics)


def slow_training(monkeypatch):
    """Make each SCA and CALC training last at least 0.2 s."""
    for name in ("train_sca", "train_calc_stage1"):
        def slow(*args, _train=getattr(harness, name), **kwargs):
            time.sleep(0.2)
            return _train(*args, **kwargs)

        monkeypatch.setattr(harness, name, slow)


class TestSharedTraining:
    def test_wall_time_excludes_only_this_calls_training(self, monkeypatch):
        # Each policy trains before its first run, so no run's wall time
        # counts the 0.2 s; every run still reports its own scheduling time.
        slow_training(monkeypatch)
        result = run_experiment(fast_cfg(algorithms=("SCA", "CALC"), seeds=(1, 2, 3)))
        assert result.ok, result.failures
        assert len(result.metrics) == 6
        assert [train_ms >= 200.0 for train_ms, _ in result.training.policies.values()] == [True, True]
        for m in result.metrics:
            assert m.wall_time_ms > 0.0
            if m.seed == 1:
                assert m.wall_time_ms < 200.0

    def test_in_process_wall_time_excludes_training(self, monkeypatch):
        # The in-process phase also trains before the first run.
        slow_training(monkeypatch)
        with another_thread():
            result = run_experiment(fast_cfg(algorithms=("SCA", "CALC"), seeds=(1, 2)))
        assert result.ok, result.failures
        assert result.training.workers == 0
        assert result.training.wall_ms >= 400.0
        assert [train_ms >= 200.0 for train_ms, _ in result.training.policies.values()] == [True, True]
        for m in result.metrics:
            assert 0.0 < m.wall_time_ms < 200.0

    def test_failed_training_is_attempted_once_in_process(self, monkeypatch):
        calls = []

        def counted(cfg, algorithm, seed, _train=harness._train):
            calls.append((algorithm, seed))
            return _train(cfg, algorithm, seed)

        monkeypatch.setattr(harness, "_train", counted)
        cfg = fast_cfg(algorithms=("SCA",), seeds=(1, 2, 3))
        cfg = replace(cfg, sca=replace(cfg.sca, reward_mode="flat-regret"))  # the per-EV env refuses it
        with another_thread():
            result = run_experiment(cfg)
        assert calls == [("SCA", cfg.sca.seed)]
        assert [(f.algorithm, f.seed) for f in result.failures] == [("SCA", 1), ("SCA", 2), ("SCA", 3)]
        assert len({f.error for f in result.failures}) == 1 and "ValueError" in result.failures[0].error
        assert result.training.workers == 0 and not result.training.policies

    def test_calc_trains_with_its_own_seed(self):
        def calc_policy(seed):
            cfg = fast_cfg(algorithms=("CALC",))
            cfg = replace(cfg, calc=replace(cfg.calc, seed=seed))
            key = harness._training_key(cfg, "CALC")
            return harness._train_all(cfg, [key])[0][key][0]

        one, seven = calc_policy(1), calc_policy(7)
        assert any(not np.array_equal(a, b) for a, b in zip(one.arrays(), seven.arrays()))


class TestConcurrentTraining:
    KEYS = [("SCA", 1), ("CALC", 1), ("AEM", 1)]

    @staticmethod
    def cfg():
        train = replace(fast_cfg().sca, n_workers=2, seed=1)
        return fast_cfg(algorithms=("EC", "OA", "AEM", "SCA", "CALC"), seeds=(1, 2), sca=train, calc=train)

    def test_artifacts_match_in_process_training(self):
        cfg = self.cfg()
        sampler = harness.make_sampler(cfg.scenario)
        expected = {
            "SCA": train_sca(sampler, cfg.sca),
            "CALC": train_calc_stage1(sampler, cfg.calc),
            "AEM": aem_train(sampler, QLearnConfig(learning_rate=cfg.aem.learning_rate, discount=cfg.aem.discount,
                                                   episodes=cfg.aem.episodes, seed=1), cfg.aem.levels),
        }
        outcomes, training = harness._train_all(cfg, self.KEYS)
        assert training.workers >= 1
        result = run_experiment(cfg)
        assert result.ok, result.failures
        assert not multiprocessing.active_children()
        for alg in ("SCA", "CALC"):
            want = expected[alg]
            for got in (outcomes[(alg, 1)][1], result.training.policies[(alg, 1)][1]):
                for a, b in zip(got.policy.arrays() + got.critic.arrays(), want.policy.arrays() + want.critic.arrays()):
                    assert a.tobytes() == b.tobytes()
                assert got.critic.b_value == want.critic.b_value
                assert (got.policy_clips, got.critic_clips) == (want.policy_clips, want.critic_clips)
                assert got.interleaving == want.interleaving
                # A policy sent back from a worker keeps its fields as views of its buffer.
                assert all(np.shares_memory(a, got.policy.flat) for a in got.policy.arrays())
                assert [e.total_reward for e in got.episodes] == [e.total_reward for e in want.episodes]
        table = outcomes[("AEM", 1)][0]
        assert table.values.tobytes() == expected["AEM"].values.tobytes()
        assert table.visit_counts.tobytes() == expected["AEM"].visit_counts.tobytes()

    def test_failed_training_fails_each_run_that_needs_it(self):
        cfg = self.cfg()
        cfg = replace(cfg, sca=replace(cfg.sca, reward_mode="flat-regret"))  # the per-EV env refuses it
        with pytest.raises(ValueError) as info:
            train_sca(harness.make_sampler(cfg.scenario), cfg.sca)
        result = run_experiment(cfg)
        assert not multiprocessing.active_children()
        assert [(f.algorithm, f.seed) for f in result.failures] == [("SCA", 1), ("SCA", 2)]
        assert {f.error for f in result.failures} == {f"ValueError: {info.value}"}
        assert sorted((m.algorithm, m.seed) for m in result.metrics) == sorted(
            (alg, seed) for alg in ("EC", "OA", "AEM", "CALC") for seed in (1, 2))
        assert set(result.training.policies) == {("CALC", 1), ("AEM", 1)}

    def test_without_fork_or_with_threads_training_stays_in_process(self, monkeypatch):
        # The second order lists a learner first and the seeds backwards: pooled runs
        # start as trainings return, yet every result lists its rows in this order.
        orders = ((("EC", "OA", "AEM", "SCA", "CALC"), (1, 2)), (("CALC", "EC", "AEM", "OA", "SCA"), (2, 1)))
        for algorithms, seeds in orders:
            cfg = replace(self.cfg(), algorithms=algorithms, seeds=seeds)
            pooled = run_experiment(cfg)
            with another_thread():
                threaded = run_experiment(cfg)
            with monkeypatch.context() as patch:
                patch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
                unforked = run_experiment(cfg)
            assert pooled.training.workers == min(len(os.sched_getaffinity(0)), 3)
            assert pooled.ok and [(m.seed, m.algorithm) for m in pooled.metrics] == [
                (seed, alg) for seed in seeds for alg in algorithms]
            for alone in (threaded, unforked):
                assert alone.training.workers == 0
                assert [m.csv_row().split(",")[:4] for m in alone.metrics] == [
                    m.csv_row().split(",")[:4] for m in pooled.metrics]

    @pytest.mark.parametrize("cpus, calls", ids=["4-cpus", "2-cpus"], argvalues=[
        (4, ["meanwhile", "returned", "ready", "returned", "ready", "returned", "ready"]),
        (2, ["returned", "returned", "meanwhile", "ready", "ready", "returned", "ready"]),
    ])
    def test_runs_wait_for_a_core_that_no_training_holds(self, monkeypatch, cpus, calls):
        # The runs start once fewer trainings are still running than there are CPUs: with
        # more CPUs than trainings at once, with 2 CPUs and 3 trainings after the second return.
        import concurrent.futures

        events = []
        completed = concurrent.futures.as_completed

        def recording_as_completed(futures):
            for future in completed(futures):
                events.append("returned")
                yield future

        def train_all():
            events.clear()
            _, training = harness._train_all(self.cfg(), self.KEYS, lambda: events.append("meanwhile"),
                                             lambda key, outcome: events.append(("ready", key)))
            return training

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        monkeypatch.setattr(concurrent.futures, "as_completed", recording_as_completed)
        assert train_all().workers == min(cpus, 3)
        assert [event if isinstance(event, str) else event[0] for event in events] == calls
        assert sorted(event[1] for event in events if event[0] == "ready") == sorted(self.KEYS)
        cfg = replace(self.cfg(), algorithms=("CALC", "EC", "AEM", "OA", "SCA"), seeds=(2, 1))
        result = run_experiment(cfg)
        assert result.ok and [(m.seed, m.algorithm) for m in result.metrics] == [
            (seed, alg) for seed in cfg.seeds for alg in cfg.algorithms]
        # The in-process fallback trains every key first, then makes the calls in key order.
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        assert train_all().workers == 0
        assert events == ["meanwhile"] + [("ready", key) for key in self.KEYS]

    def test_summary_reports_each_training_and_the_phase(self, tmp_path):
        result = run_experiment(self.cfg())
        emit_report(result, tmp_path)
        summary = (tmp_path / "summary.txt").read_text()
        for alg in ("SCA", "CALC"):
            curve = result.training.policies[(alg, 1)][1]
            assert f"  {alg} seed=1: " in summary and f" ms, {curve.global_steps} steps, " in summary
            assert f"gradients clipped: {curve.policy_clips} policy, {curve.critic_clips} critic\n" in summary
        assert "  AEM seed=1: " in summary
        assert f"Training phase: {result.training.wall_ms:.0f} ms wall, {result.training.workers} worker processes" in summary


class TestSweep:
    def test_unknown_parameter(self):
        with pytest.raises(ConfigError):
            sweep(fast_cfg(), "slot_hours", [1])

    def test_single_value_matches_run(self):
        cfg = fast_cfg(algorithms=("EC",), seeds=(1,))
        groups = sweep(cfg, "n_evs", [cfg.scenario.n_evs])
        assert len(groups) == 1
        value, result = groups[0]
        plain = run_experiment(cfg)
        assert result.metrics[0].total_cost == plain.metrics[0].total_cost

    def test_n_evs_sweep_monotone_rows(self):
        groups = sweep(fast_cfg(algorithms=("EC",), seeds=(1,)), "n_evs", [2, 5])
        costs = [g[1].metrics[0].total_cost for g in groups]
        assert costs[1] > costs[0]

    def test_aem_levels_sweep(self):
        groups = sweep(fast_cfg(algorithms=("AEM",), seeds=(1,)), "aem_levels", [3, 9])
        assert all(result.ok for _, result in groups)


class TestReports:
    def test_metrics_csv_schema(self, tmp_path):
        result = run_experiment(fast_cfg())
        files = emit_report(result, tmp_path / "out")
        metrics = (tmp_path / "out" / "metrics.csv").read_text().strip().split("\n")
        assert metrics[0] == METRICS_HEADER
        assert len(metrics) == 2
        fields = metrics[1].split(",")
        assert fields[0] == "EC" and fields[1] == "1"
        assert float(fields[2]) > 0

    def test_loads_and_summary_written(self, tmp_path):
        result = run_experiment(fast_cfg(algorithms=("EC", "SCA"), seeds=(1,)))
        emit_report(result, tmp_path / "out")
        out = tmp_path / "out"
        assert (out / "loads.csv").exists()
        assert (out / "convergence_SCA_0.csv").exists()  # named by the training seed, not the run's
        summary = (out / "summary.txt").read_text()
        assert "Cost ratio vs SCA" in summary

    def test_one_convergence_file_per_trained_learner(self, tmp_path, monkeypatch):
        calls = []

        def counted(cfg, algorithm, seed, _train=harness._train):
            calls.append((algorithm, seed))
            return _train(cfg, algorithm, seed)

        monkeypatch.setattr(harness, "_train", counted)
        cfg = fast_cfg(algorithms=("EC", "OA", "AEM", "SCA", "CALC"), seeds=(1, 2, 3))
        cfg = replace(cfg, sca=replace(cfg.sca, seed=5), calc=replace(cfg.calc, seed=7))
        with another_thread():  # in-process, so that the calls are counted here
            result = run_experiment(cfg)
        assert result.ok, result.failures
        assert calls == [("SCA", 5), ("CALC", 7), ("AEM", 5)]
        assert set(result.training.policies) == set(calls)
        emit_report(result, tmp_path / "out")
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
            "convergence_CALC_7.csv", "convergence_SCA_5.csv", "loads.csv", "metrics.csv", "summary.txt"]
        for alg, seed in (("SCA", 5), ("CALC", 7)):
            curve = result.training.policies[(alg, seed)][1]
            lines = (tmp_path / "out" / f"convergence_{alg}_{seed}.csv").read_text().splitlines()
            assert lines[0] == "episode,steps,moving_reward,wall_ms" and len(lines) == 1 + len(curve.episodes)
        emit_sweep_report([("a", result), ("b", result)], "discount", tmp_path / "sweep")
        assert sorted(p.name for p in (tmp_path / "sweep").glob("convergence_*")) == [
            f"convergence_{alg}_{seed}_discount_{value}.csv" for alg, seed in (("CALC", 7), ("SCA", 5))
            for value in "ab"]

    def test_rerun_removes_only_stale_curves(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        kept = ["notes.txt", "convergence_SCA_3_discount_a.csv", "convergence_XYZ_3.csv"]
        for name in kept:
            (out / name).write_text("kept\n")
        cfg = fast_cfg(algorithms=("SCA",))
        for seed in (3, 9):
            emit_report(run_experiment(replace(cfg, sca=replace(cfg.sca, seed=seed))), out)
        assert sorted(p.name for p in out.glob("convergence_SCA_*.csv")) == [
            "convergence_SCA_3_discount_a.csv", "convergence_SCA_9.csv"]
        assert all((out / name).read_text() == "kept\n" for name in kept)

    def test_zero_price_summary_has_no_ratio(self, tmp_path):
        spec = small_spec(n_evs=3, price=PriceModel(k0=0.0, k1=0.0))
        result = run_experiment(fast_cfg(algorithms=("EC", "SCA"), scenario=spec))
        assert result.ok, result.failures
        assert [m.total_cost for m in result.metrics] == [0.0, 0.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            emit_report(result, tmp_path)
        summary = (tmp_path / "summary.txt").read_text()
        assert "  EC     undefined: SCA's mean cost is 0\n" in summary and "nan" not in summary

    def test_empty_metrics_rejected(self, tmp_path):
        from evchargelab.harness import ExperimentResult

        with pytest.raises(ValueError):
            emit_report(ExperimentResult(metrics=[], failures=[]), tmp_path / "out")
        assert not (tmp_path / "out" / "metrics.csv").exists()

    def test_sweep_report(self, tmp_path):
        groups = sweep(fast_cfg(algorithms=("EC",), seeds=(1,)), "n_evs", [2, 3])
        path = emit_sweep_report(groups, "n_evs", tmp_path / "out")
        lines = path.read_text().strip().split("\n")
        assert lines[0].startswith("n_evs,algorithm,seed,")
        assert len(lines) == 3


class TestCli:
    def test_run_success_and_exit_zero(self, tmp_path, capsys):
        path = write_config(tmp_path)
        code = cli.main(["run", "--config", str(path)])
        assert code == cli.EXIT_OK
        assert (tmp_path / "out" / "metrics.csv").exists()

    def test_missing_config_exit_two(self, tmp_path):
        assert cli.main(["run", "--config", str(tmp_path / "ghost.ini")]) == cli.EXIT_CONFIG_ERROR

    def test_invalid_config_exit_two(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[run]\nalgorithms =\nseeds = 1\n")
        assert cli.main(["run", "--config", str(path)]) == cli.EXIT_CONFIG_ERROR

    @pytest.mark.parametrize("value", ["1e400", "2.7", "nan"])
    def test_integer_key_that_is_not_whole_exits_two(self, tmp_path, capsys, value):
        path = write_config(tmp_path, f"[sca]\nk_max = {value}\n")
        assert cli.main(["run", "--config", str(path)]) == cli.EXIT_CONFIG_ERROR
        assert f"'{value}' is not a whole number" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("setting, message", ids=["cap nan", "negative base load"], argvalues=[
        ("base_load_low_kwh = 5.0\nload_cap_kwh = nan", "load_cap must be a number"),
        ("base_load_low_kwh = -1", "base_load entries must be finite and non-negative"),
    ])
    def test_bad_scenario_value_exits_two(self, tmp_path, capsys, setting, message):
        path = write_config(tmp_path)
        path.write_text(path.read_text().replace("base_load_low_kwh = 5.0", setting))
        assert cli.main(["run", "--config", str(path)]) == cli.EXIT_CONFIG_ERROR
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("setting, message", ids=["learning rate 0", "one level", "negative episodes"], argvalues=[
        ("learning_rate = 0", "learning_rate 0.0 outside (0, 1]"),
        ("levels = 1", "levels 1: at least 2 action levels required"),
        ("episodes = -5", "episodes -5 must be at least 1"),
    ])
    def test_bad_aem_value_exits_two(self, tmp_path, capsys, setting, message):
        path = write_config(tmp_path, f"[aem]\n{setting}\n")
        assert cli.main(["run", "--config", str(path)]) == cli.EXIT_CONFIG_ERROR
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_output_dir_env_override(self, tmp_path, monkeypatch):
        path = write_config(tmp_path)
        override = tmp_path / "elsewhere"
        monkeypatch.setenv("EVLAB_OUTPUT_DIR", str(override))
        assert cli.main(["run", "--config", str(path)]) == cli.EXIT_OK
        assert (override / "metrics.csv").exists()

    def test_report_prints_metrics(self, tmp_path, capsys):
        path = write_config(tmp_path)
        cli.main(["run", "--config", str(path)])
        capsys.readouterr()
        code = cli.main(["report", "--in", str(tmp_path / "out")])
        out = capsys.readouterr().out.strip().split("\n")
        assert code == cli.EXIT_OK
        assert out[0] == METRICS_HEADER
        assert len(out) == 5  # 2 algorithms x 2 seeds

    def test_report_missing_dir_exit_two(self, tmp_path):
        assert cli.main(["report", "--in", str(tmp_path / "void")]) == cli.EXIT_CONFIG_ERROR

    def test_sweep_param_choices(self):
        parser = cli.build_parser()
        for param in harness.SWEEPABLE:
            args = parser.parse_args(["sweep", "--config", "x.ini", "--param", param, "--values", "1"])
            assert args.param == param
        with pytest.raises(SystemExit):
            parser.parse_args(["sweep", "--config", "x.ini", "--param", "slot_hours", "--values", "1"])

    @pytest.mark.parametrize("param, values, message", ids=["discount", "aem levels", "n_evs", "empty"], argvalues=[
        ("discount", "0.5,2", "sweep discount = 2: discount 2.0 outside (0, 1)"),
        ("aem_levels", "9,1", "sweep aem_levels = 1: levels 1: at least 2 action levels required"),
        ("n_evs", "2,-1", "sweep n_evs = -1: n_evs must be non-negative"),
        ("n_evs", ",", "sweep n_evs: no values given"),
    ])
    def test_refused_sweep_value_exits_two_before_any_run(self, tmp_path, capsys, monkeypatch, param, values,
                                                          message):
        ran = []
        monkeypatch.setattr(harness, "run_experiment", ran.append)
        path = write_config(tmp_path)
        path.write_text(path.read_text().replace("algorithms = EC,OA", "algorithms = EC"))
        assert cli.main(["sweep", "--config", str(path), "--param", param, "--values", values]) == cli.EXIT_CONFIG_ERROR
        assert message in capsys.readouterr().err
        assert not ran and not (tmp_path / "out").exists()

    def test_sweep_cli(self, tmp_path, capsys):
        path = write_config(tmp_path)
        code = cli.main(["sweep", "--config", str(path), "--param", "n_evs", "--values", "2,3"])
        assert code == cli.EXIT_OK
        assert (tmp_path / "out" / "sweep.csv").exists()

    def test_example_config_roundtrip(self, tmp_path, capsys):
        assert cli.main(["example-config"]) == cli.EXIT_OK
        text = capsys.readouterr().out
        path = tmp_path / "gen.ini"
        path.write_text(text)
        cfg = load_config(path)
        assert cfg.scenario.horizon == 48
