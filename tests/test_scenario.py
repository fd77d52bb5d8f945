"""Fleet sampling, base-load ingestion, window-mask and rolling-window tests."""

import numpy as np
import pytest

from evchargelab.scenario import (
    ArrivalDistribution,
    BaseLoadLengthError,
    BaseLoadParseError,
    BaseLoadValueError,
    DwellDistribution,
    EV_TYPES,
    FleetConfig,
    ScenarioError,
    SocDistribution,
    load_base_series,
    sample_fleet,
    synthetic_base_load,
)
from evchargelab.solvers import SolverError, solve_rolling_step

from conftest import make_ev, make_scenario


def five_ev_fleet():
    """Five EVs arranged so slot 4 has four of them parked, last leaves at 9."""
    return [
        make_ev(1, t_arr=1, t_dep=3, demand=2.0),
        make_ev(2, t_arr=2, t_dep=6, demand=2.0),
        make_ev(3, t_arr=3, t_dep=7, demand=2.0),
        make_ev(4, t_arr=4, t_dep=8, demand=2.0),
        make_ev(5, t_arr=4, t_dep=9, demand=2.0),
    ]


class TestDistributions:
    def test_arrival_weights_must_normalize(self):
        with pytest.raises(ScenarioError):
            ArrivalDistribution(np.array([0.5, 0.6]))
        with pytest.raises(ScenarioError):
            ArrivalDistribution(np.array([-0.5, 1.5]))

    def test_evening_peak_repeats_daily(self):
        dist = ArrivalDistribution.evening_peak(48, peak_slot=18)
        w = dist.weights
        assert w.size == 48 and abs(w.sum() - 1.0) < 1e-9
        assert np.argmax(w[:24]) == 17  # slot 18, 0-based index 17
        assert np.argmax(w[24:]) == 17  # same peak on the second day

    def test_soc_bins_validated(self):
        with pytest.raises(ScenarioError):
            SocDistribution(np.array([0.0, 0.5, 0.4]), np.array([0.5, 0.5]))
        with pytest.raises(ScenarioError):
            SocDistribution(np.array([0.0, 1.0]), np.array([0.7]))

    def test_soc_samples_in_range(self, rng):
        samples = SocDistribution.midrange().sample(rng, 1000)
        assert np.all((samples >= 0.0) & (samples <= 1.0))

    def test_dwell_uniform_support(self, rng):
        dist = DwellDistribution.uniform(4, 12)
        draws = dist.sample(rng, 2000)
        assert draws.min() >= 4 and draws.max() <= 12
        assert set(np.unique(draws)) == set(range(4, 13))

    def test_draws_match_generator_choice(self):
        # Each distribution draws as `Generator.choice(..., p=...)` does, bit for bit
        # (dtype too), and the SOC histogram then draws its uniform offsets.
        def soc_reference(dist, rng, size):
            bins = rng.choice(dist.bin_mass.size, size=size, p=dist.bin_mass)
            return dist.bin_edges[bins] + rng.random(size) * (dist.bin_edges[bins + 1] - dist.bin_edges[bins])

        skewed = np.array([0.0, 0.3, 1e-12, 0.2, 0.0, 0.5 - 1e-12])
        cases = [
            (ArrivalDistribution.evening_peak(48, 18, 1.5),
             lambda d, rng, size: rng.choice(np.arange(1, 49), size=size, p=d.weights)),
            (ArrivalDistribution(skewed), lambda d, rng, size: rng.choice(np.arange(1, 7), size=size, p=d.weights)),
            (SocDistribution.midrange(), soc_reference),
            (SocDistribution(np.linspace(0.0, 1.0, 7), skewed), soc_reference),
            (DwellDistribution.uniform(12, 24), lambda d, rng, size: rng.choice(d.durations, size=size, p=d.weights)),
            (DwellDistribution(np.arange(2, 8), skewed),
             lambda d, rng, size: rng.choice(d.durations, size=size, p=d.weights)),
        ]
        for dist, reference in cases:
            for seed in range(500):
                for size in (0, 1, 40, 257):
                    got = dist.sample(np.random.default_rng(seed), size)
                    want = reference(dist, np.random.default_rng(seed), size)
                    assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (dist, seed, size)

    def test_benchmark_fleets_bit_exact(self):
        # SHA-256 of the benchmark's fleets for seeds 0-1999, as recorded when every
        # distribution drew through `Generator.choice`.
        import hashlib

        from evchargelab.harness import benchmark_spec, make_sampler

        sampler = make_sampler(benchmark_spec())
        sha = hashlib.sha256()
        for seed in range(2000):
            scenario = sampler(seed)
            for column in (scenario.t_arr, scenario.t_dep, scenario.demand, scenario.soc_init):
                sha.update(column.tobytes())
        assert sha.hexdigest() == "145c58db03055418dc8690d2b4b0acb64839816975ec5771b082a4a4235018c8"


class TestSampleFleet:
    def test_degenerate_arrival(self):
        arrival = ArrivalDistribution(np.eye(48)[17])  # all mass at slot 18
        cfg = FleetConfig(n_evs=20, horizon=48, arrival=arrival)
        sample = sample_fleet(cfg, seed=7)
        assert all(ev.t_arr == 18 for ev in sample.evs)

    def test_point_mass_soc_demand(self):
        soc = SocDistribution(np.array([0.5 - 1e-12, 0.5]), np.array([1.0]))
        cfg = FleetConfig(n_evs=30, horizon=48, ev_type="type1", soc=soc)
        sample = sample_fleet(cfg, seed=3)
        b_max, capacity = EV_TYPES["type1"]
        for ev in sample.evs:
            dwell = ev.t_dep - ev.t_arr + 1
            expected = min(capacity * (1.0 - ev.soc_init), b_max * dwell)
            assert ev.demand_kwh == pytest.approx(expected, rel=1e-9)

    def test_uniform_arrival_mean(self):
        arrival = ArrivalDistribution(np.full(48, 1.0 / 48))
        cfg = FleetConfig(n_evs=10000, horizon=48, arrival=arrival)
        sample = sample_fleet(cfg, seed=11)
        mean_arr = np.mean([ev.t_arr for ev in sample.evs])
        assert 23.5 <= mean_arr <= 25.5

    def test_feasibility_by_construction(self):
        for seed in range(5):
            sample = sample_fleet(FleetConfig(n_evs=25, horizon=48), seed)
            for ev in sample.evs:
                dwell = ev.t_dep - ev.t_arr + 1
                assert ev.demand_kwh <= ev.b_max * dwell + 1e-9
                assert ev.t_dep <= 48

    def test_reproducible(self):
        cfg = FleetConfig(n_evs=15, horizon=48, ev_type="type2")
        assert sample_fleet(cfg, 42) == sample_fleet(cfg, 42)

    def test_truncations_counted(self):
        # Low SOC + short dwell forces demand truncation for every EV.
        soc = SocDistribution(np.array([0.0, 1e-9]), np.array([1.0]))
        dwell = DwellDistribution(np.array([2]), np.array([1.0]))
        cfg = FleetConfig(n_evs=8, horizon=48, soc=soc, dwell=dwell)
        sample = sample_fleet(cfg, 0)
        assert sample.truncation_count == 8

    def test_unknown_type_rejected(self):
        with pytest.raises(ScenarioError):
            FleetConfig(n_evs=1, horizon=48, ev_type="type9")

    def test_scenarios_match_the_per_ev_loop(self):
        # The fleet arrays come from the three vector draws; the per-EV loop of
        # EVProfiles they replaced, on the same RNG stream, gives the same bytes.
        from evchargelab.harness import ScenarioSpec, benchmark_spec, build_scenario

        for spec in (benchmark_spec(), ScenarioSpec(n_evs=25, ev_type="type2", dwell_min=2, dwell_max=6)):
            cfg = FleetConfig(n_evs=spec.n_evs, horizon=spec.horizon, ev_type=spec.ev_type,
                              arrival=ArrivalDistribution.evening_peak(spec.horizon, spec.arrival_peak_slot,
                                                                       spec.arrival_spread),
                              dwell=DwellDistribution.uniform(spec.dwell_min, spec.dwell_max))
            for seed in range(1, 201):
                scenario, truncations = build_scenario(spec, seed)
                evs, want_truncations = per_ev_loop_fleet(cfg, seed)
                want = make_scenario(evs, spec.horizon, scenario.base_load)
                assert truncations == want_truncations
                for name in ("t_arr", "t_dep", "demand", "b_max", "capacity", "soc_init", "mask"):
                    got, ref = getattr(scenario, name), getattr(want, name)
                    assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes(), (seed, name)
                assert tuple(scenario.evs) == evs


def per_ev_loop_fleet(cfg, seed):
    """The fleet draw as a loop over EVs that builds one EVProfile each."""
    from evchargelab.model import EVProfile

    arrival, soc_dist, dwell_dist = cfg.resolved()
    rng = np.random.default_rng(seed)
    b_max, capacity = EV_TYPES[cfg.ev_type]
    arrivals = arrival.sample(rng, cfg.n_evs)
    socs = soc_dist.sample(rng, cfg.n_evs)
    dwells = dwell_dist.sample(rng, cfg.n_evs)
    evs, truncations = [], 0
    for i in range(cfg.n_evs):
        t_arr = int(arrivals[i])
        t_dep = min(int(t_arr + dwells[i] - 1), cfg.horizon)
        demand = capacity * (1.0 - socs[i])
        deliverable = b_max * (t_dep - t_arr + 1)
        if demand > deliverable:
            demand = deliverable
            truncations += 1
        evs.append(EVProfile(id=i + 1, t_arr=t_arr, t_dep=t_dep, demand_kwh=demand, b_max=b_max,
                             capacity_kwh=capacity, soc_init=float(socs[i])))
    return tuple(evs), truncations


class TestBaseLoad:
    def test_constant_file(self, tmp_path):
        path = tmp_path / "base.txt"
        path.write_text("10.0\n" * 48)
        series = load_base_series(path, 48)
        assert series.shape == (48,) and np.all(series == 10.0)

    def test_length_error(self, tmp_path):
        path = tmp_path / "short.txt"
        path.write_text("10.0\n" * 47)
        with pytest.raises(BaseLoadLengthError):
            load_base_series(path, 48)

    def test_negative_error(self, tmp_path):
        path = tmp_path / "neg.txt"
        path.write_text("10.0\n" * 47 + "-1\n")
        with pytest.raises(BaseLoadValueError):
            load_base_series(path, 48)

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_non_finite_error(self, tmp_path, token):
        path = tmp_path / "non_finite.txt"
        path.write_text("10.0\n" * 47 + token + "\n")
        with pytest.raises(BaseLoadValueError, match="line 48"):
            load_base_series(path, 48)

    def test_parse_error(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("10.0\npotato\n")
        with pytest.raises(BaseLoadParseError):
            load_base_series(path, 2)

    def test_errors_name_the_files_own_line(self, tmp_path):
        path = tmp_path / "blank.txt"
        path.write_text("1.0\n\n2.0\nx\n")
        with pytest.raises(BaseLoadParseError, match="line 4: cannot parse 'x'"):
            load_base_series(path, 3)
        path.write_text("1.0\n\n-2.0\n")
        with pytest.raises(BaseLoadValueError, match="at line 3 "):
            load_base_series(path, 2)
        path.write_text("\n1.0\n\n2.0\n\n")
        assert load_base_series(path, 2).tolist() == [1.0, 2.0]

    def test_two_values_on_one_line_is_a_parse_error(self, tmp_path):
        path = tmp_path / "two.txt"
        path.write_text("1.0 2.0\n")
        with pytest.raises(BaseLoadParseError, match="line 1: cannot parse '1.0 2.0'"):
            load_base_series(path, 2)

    def test_synthetic_profile_shape(self):
        series = synthetic_base_load(48, low=20.0, high=45.0, peak_slot=20)
        assert series.shape == (48,)
        assert series.min() == pytest.approx(20.0)
        assert series.max() == pytest.approx(45.0)
        assert np.argmax(series[:24]) == 19  # slot 20


def parked_ids(scn, t):
    """IDs of the EVs whose window mask is set at slot t."""
    return {ev.id for ev, parked in zip(scn.evs, scn.mask[:, t - 1]) if parked}


def rolling_window(scn, t):
    """Window of the rolling re-solve at slot t over every parked EV's full demand."""
    return solve_rolling_step(scn, t, {ev.id: ev.demand_kwh for ev in scn.evs if ev.id in parked_ids(scn, t)}).window


class TestActiveSetAndWindow:
    def test_slot_four_membership(self):
        assert parked_ids(make_scenario(five_ev_fleet(), horizon=10), 4) == {2, 3, 4, 5}

    def test_window_slot_four(self):
        assert list(rolling_window(make_scenario(five_ev_fleet(), horizon=10), 4)) == [4, 5, 6, 7, 8, 9]

    def test_empty_before_arrivals(self):
        scn = make_scenario([make_ev(1, t_arr=5, t_dep=9, demand=2.0)], horizon=10)
        assert parked_ids(scn, 2) == set()
        with pytest.raises(SolverError, match="no EV parked"):
            rolling_window(scn, 2)

    def test_single_slot_window(self):
        scn = make_scenario([make_ev(1, t_arr=6, t_dep=6, demand=2.0)], horizon=10)
        assert list(rolling_window(scn, 6)) == [6]
        assert parked_ids(scn, 6) == {1}
        assert parked_ids(scn, 7) == set()

    def test_window_is_max_departure(self):
        evs = [make_ev(1, t_arr=1, t_dep=6, demand=2.0), make_ev(2, t_arr=2, t_dep=9, demand=2.0)]
        assert list(rolling_window(make_scenario(evs, horizon=10), 5)) == [5, 6, 7, 8, 9]

    def test_membership_matches_intervals(self):
        scn = make_scenario(five_ev_fleet(), horizon=11)
        for ev in scn.evs:
            for t in range(1, 12):
                assert (ev.id in parked_ids(scn, t)) == (ev.t_arr <= t <= ev.t_dep)
