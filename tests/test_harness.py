"""Experiment runner, report emission, and CLI tests."""

import configparser
import multiprocessing
import os
import threading
import time
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
    train = TrainConfig(k_max=300, n_workers=1, policy_hidden=16, critic_hidden=8, discount=0.9)
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
        assert cfg.output_dir == "results" and cfg.share_training
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
        ):
            path = tmp_path / f"{name}.ini"
            path.write_text(f"[run]\nalgorithms = EC\nseeds = 1\n[scenario]\nhorizon_slots = 24\n{text}")
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
        # learning algorithms carry convergence curves
        assert ("SCA", 1) in result.curves and ("CALC", 1) in result.curves

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


class TestSharedTraining:
    def test_wall_time_excludes_only_this_calls_training(self, monkeypatch):
        # Training made to last at least 0.2 s: seed 1 trains and must not
        # count it; seeds 2 and 3 reuse the policy and still report their
        # own scheduling time.
        for name in ("train_sca", "train_calc_stage1"):
            def slow(*args, _train=getattr(harness, name), **kwargs):
                time.sleep(0.2)
                return _train(*args, **kwargs)

            monkeypatch.setattr(harness, name, slow)
        result = run_experiment(fast_cfg(algorithms=("SCA", "CALC"), seeds=(1, 2, 3)))
        assert result.ok, result.failures
        assert len(result.metrics) == 6
        for m in result.metrics:
            assert m.wall_time_ms > 0.0
            assert m.train_time_ms >= 200.0
            if m.seed == 1:
                assert m.wall_time_ms < 200.0

    def test_calc_trains_with_its_own_seed(self):
        def calc_policy(seed):
            cfg = fast_cfg(algorithms=("CALC",))
            cfg = replace(cfg, calc=replace(cfg.calc, seed=seed))
            return harness._Trainer(cfg).policy("CALC", 1)[0]

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
        trainer = harness._Trainer(cfg)
        trainer.train_all(self.KEYS)
        assert trainer.workers >= 1
        result = run_experiment(cfg)
        assert result.ok, result.failures
        assert not multiprocessing.active_children()
        for alg in ("SCA", "CALC"):
            want = expected[alg]
            for got in (trainer.policy(alg, 1)[1], result.curves[(alg, 2)]):
                for a, b in zip(got.policy.arrays() + got.critic.arrays(), want.policy.arrays() + want.critic.arrays()):
                    assert a.tobytes() == b.tobytes()
                assert got.critic.b_value == want.critic.b_value
                assert (got.policy_clips, got.critic_clips) == (want.policy_clips, want.critic_clips)
                assert got.interleaving == want.interleaving
                # A policy sent back from a worker keeps its fields as views of its buffer.
                assert all(np.shares_memory(a, got.policy.flat) for a in got.policy.arrays())
                assert [e.total_reward for e in got.episodes] == [e.total_reward for e in want.episodes]
        table = trainer.policy("AEM", 1)[0]
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
        cfg = self.cfg()
        pooled = run_experiment(cfg)
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            threaded = run_experiment(cfg)
        finally:
            release.set()
            other.join(timeout=10)
        assert not other.is_alive()
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        unforked = run_experiment(cfg)
        assert pooled.training.workers == min(len(os.sched_getaffinity(0)), 3)
        for alone in (threaded, unforked):
            assert alone.training.workers == 0
            assert [m.csv_row().split(",")[:4] for m in alone.metrics] == [m.csv_row().split(",")[:4] for m in pooled.metrics]

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
        assert (out / "convergence_SCA_1.csv").exists()
        summary = (out / "summary.txt").read_text()
        assert "Cost ratio vs SCA" in summary

    def test_empty_metrics_rejected(self, tmp_path):
        from evchargelab.harness import ExperimentResult

        with pytest.raises(ValueError):
            emit_report(ExperimentResult(metrics=[], failures=[], curves={}), tmp_path / "out")
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
