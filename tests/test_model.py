"""Price, cost, and validation tests for the core model types."""

import numpy as np
import pytest

from evchargelab.model import (
    ChargingSchedule,
    EVProfile,
    ModelError,
    PriceModel,
    Scenario,
    Violation,
    bill,
    flat_completion_change,
    horizon_cost,
    slot_cost,
    validate_schedule,
)
from evchargelab.rl.env import ChargingEnv

from conftest import make_ev, make_scenario, random_feasible_scenario


class TestPriceModel:
    def test_defaults(self):
        pm = PriceModel()
        assert pm.k0 == 0.1 and pm.k1 == 0.001

    def test_negative_coefficients_rejected(self):
        with pytest.raises(ModelError):
            PriceModel(k0=-0.1)
        with pytest.raises(ModelError):
            PriceModel(k1=-1.0)


def unit_price(l_ev, l_b, k0, k1):
    """Unit price k0 + 2*k1*(l_ev + l_b) as the per-EV env's price feature reports it.

    One EV charges l_ev in slot 1; the feature of slot 2 prices that load on
    top of slot 2's base load l_b.
    """
    ev = make_ev(0, 1, 2, demand=max(l_ev, 1.0), b_max=max(l_ev, 1.0), capacity=1000.0)
    env = ChargingEnv(make_scenario([ev], horizon=2, base_load=[0.0, l_b], k0=k0, k1=k1))
    return env.step(np.array([l_ev])).next_state.price * env.price_scale


class TestUnitPrice:
    def test_hand_value(self):
        assert unit_price(10, 20, k0=0.1, k1=0.005) == pytest.approx(0.4)

    def test_linear_term_only(self):
        for l_ev, l_b in [(0, 0), (5, 3), (100, 200)]:
            assert unit_price(l_ev, l_b, k0=0.37, k1=0.0) == pytest.approx(0.37, rel=1e-15)

    def test_zero_load(self):
        assert unit_price(0, 0, k0=0.2, k1=1.0) == pytest.approx(0.2, rel=1e-15)

    def test_negative_load_rejected(self):
        # A negative base load is refused; a negative charge is clipped to no load.
        with pytest.raises(ModelError):
            make_scenario([], horizon=2, base_load=[0.0, -1.0])
        assert unit_price(-1, 0, k0=0.1, k1=0.5) == pytest.approx(0.1, rel=1e-15)


class TestSlotCost:
    def test_hand_value(self):
        # integral of p(z) = 1 + z over [2, 5] = 3 + 21/2 = 13.5
        assert slot_cost((1, 2), 2.0, PriceModel(k0=1.0, k1=0.5)) == pytest.approx(13.5)

    def test_zero_charge(self):
        assert slot_cost((0, 0), 123.0, PriceModel()) == 0.0

    def test_pure_quadratic(self):
        # integral of 2z over [0, 3] = 9
        assert slot_cost((3,), 0.0, PriceModel(k0=0.0, k1=1.0)) == pytest.approx(9.0)

    def test_negative_amount_rejected(self):
        with pytest.raises(ModelError):
            slot_cost((1, -1), 0.0, PriceModel())

    def test_matches_numeric_price_integral(self, rng):
        for _ in range(50):
            pm = PriceModel(k0=float(rng.uniform(0, 1)), k1=float(rng.uniform(0, 0.1)))
            b = rng.uniform(0, 5, size=3)
            l_b = float(rng.uniform(0, 20))
            s = float(b.sum())
            z = np.linspace(l_b, l_b + s, 100001)
            prices = pm.k0 + 2.0 * pm.k1 * z
            numeric = np.trapezoid(prices, z)
            assert slot_cost(b, l_b, pm) == pytest.approx(numeric, rel=1e-9, abs=1e-12)

    def test_even_split_never_worse(self):
        # Strict convexity in the slot total: an even split of a fixed total
        # across two equal-base-load slots is at least as cheap as any split.
        pm = PriceModel(k0=0.1, k1=0.01)
        l_b, total = 5.0, 6.0
        even = 2 * slot_cost((total / 2,), l_b, pm)
        for frac in np.linspace(0, 1, 21):
            split = slot_cost((frac * total,), l_b, pm) + slot_cost(((1 - frac) * total,), l_b, pm)
            assert even <= split + 1e-12


class TestBill:
    def test_scalar_path_matches_array_sum(self, rng):
        for _ in range(200):
            pm = PriceModel(k0=float(rng.uniform(0, 1)), k1=float(rng.uniform(0, 0.1)))
            s, l_b = rng.uniform(0, 50, size=2)
            want = float(np.sum(pm.k0 * s + pm.k1 * s * s + 2.0 * pm.k1 * l_b * s))
            assert bill(float(s), l_b, pm) == want and type(bill(float(s), l_b, pm)) is float


def reference_flat_bill(residuals, slots_left, first, t, scenario):
    """Bill of slots t + first .. T at flat rates, one bill at a time."""
    width = scenario.horizon - t + 1
    rates = np.bincount(first + slots_left - 1, weights=residuals / slots_left, minlength=width)
    load = rates[::-1].cumsum()[::-1][first:]
    pm = scenario.price
    return float((load * (pm.k0 + pm.k1 * load + 2.0 * pm.k1 * scenario.base_load[t - 1 + first :])).sum())


class TestFlatCompletionChange:
    def test_matches_one_bill_at_a_time(self, rng):
        # Horizons past 128 slots cover every branch of NumPy's pairwise sum.
        for _ in range(300):
            horizon = int(rng.integers(1, 200))
            evs = []
            for i in range(int(rng.integers(1, 30))):
                t_arr = int(rng.integers(1, horizon + 1))
                evs.append(make_ev(i, t_arr, int(rng.integers(t_arr, horizon + 1)), float(rng.uniform(0, 20)),
                                   b_max=7.0, capacity=60.0))
            scn = make_scenario(evs, horizon, rng.uniform(0, 50, horizon), k0=float(rng.uniform(0, 0.2)),
                                k1=float(rng.uniform(0, 0.01)))
            t = int(rng.integers(1, horizon + 1))
            rows = np.flatnonzero(scn.mask[:, t - 1])
            before = rng.uniform(0, 20, rows.size)
            after = np.maximum(before - rng.uniform(0, 7, rows.size), 0.0)
            t_dep = scn.t_dep[rows]
            later = t_dep > t
            want = (reference_flat_bill(after[later], t_dep[later] - t, 1, t, scn)
                    - reference_flat_bill(before, t_dep - t + 1, 0, t, scn))
            assert flat_completion_change(before, after, t_dep, t, scn) == want


class TestHorizonCost:
    def test_zero_schedule(self):
        scn = make_scenario([make_ev(demand=0.0)], horizon=3)
        assert horizon_cost(ChargingSchedule(np.zeros((1, 3))), scn) == 0.0

    def test_single_slot_reduces_to_slot_cost(self):
        ev = make_ev(t_arr=1, t_dep=1, demand=2.0)
        scn = make_scenario([ev], horizon=1, base_load=[3.0], k0=0.5, k1=0.2)
        sched = ChargingSchedule(np.array([[2.0]]))
        assert horizon_cost(sched, scn) == pytest.approx(slot_cost((2.0,), 3.0, scn.price))

    def test_hand_value_two_evs(self):
        evs = [make_ev(0, 1, 2, demand=1.0), make_ev(1, 1, 2, demand=2.0)]
        scn = make_scenario(evs, horizon=2, base_load=[2.0, 2.0], k0=1.0, k1=0.5)
        sched = ChargingSchedule(np.array([[1.0, 0.0], [2.0, 0.0]]))
        assert horizon_cost(sched, scn) == pytest.approx(13.5)

    def test_additive_over_slots(self, rng):
        evs = [make_ev(i, 1, 4, demand=3.0, b_max=2.0) for i in range(2)]
        scn = make_scenario(evs, horizon=4, base_load=rng.uniform(0, 5, 4))
        amounts = rng.uniform(0, 1.0, size=(2, 4))
        total = horizon_cost(ChargingSchedule(amounts), scn)
        per_slot = sum(
            slot_cost(amounts[:, c], scn.base_load[c], scn.price) for c in range(4)
        )
        assert total == pytest.approx(per_slot, rel=1e-12)

    def test_dimension_mismatch(self):
        scn = make_scenario([make_ev()], horizon=2)
        with pytest.raises(ModelError):
            horizon_cost(ChargingSchedule(np.zeros((2, 2))), scn)


class TestInvariants:
    def test_ev_profile_rejects_bad_windows(self):
        with pytest.raises(ModelError):
            make_ev(t_arr=5, t_dep=3)

    def test_ev_profile_rejects_excess_demand(self):
        with pytest.raises(ModelError):
            EVProfile(id=0, t_arr=1, t_dep=2, demand_kwh=20.0, b_max=10.0,
                      capacity_kwh=36.0, soc_init=0.5)

    def test_scenario_rejects_window_outside_horizon(self):
        with pytest.raises(ModelError):
            make_scenario([make_ev(t_arr=1, t_dep=5)], horizon=4)

    def test_scenario_rejects_cap_below_base(self):
        with pytest.raises(ModelError):
            Scenario(horizon=2, base_load=np.array([5.0, 10.0]), evs=(), load_cap=8.0)

    def test_scenario_rejects_duplicate_ids(self):
        # Schedules are per row, but OA's re-solves name EVs by id.
        with pytest.raises(ModelError, match="duplicate EV id 1"):
            make_scenario([make_ev(1, 1, 3, demand=2.0), make_ev(1, 2, 5, demand=6.0)], horizon=5)


class TestFleetArrays:
    def test_arrays_follow_evs(self):
        evs = [make_ev(3, 2, 4, demand=1.5, b_max=2.0, capacity=30.0, soc=0.2), make_ev(7, 1, 1, demand=0.5)]
        scn = make_scenario(evs, horizon=5)
        assert scn.t_arr.tolist() == [2, 1] and scn.t_dep.tolist() == [4, 1]
        assert scn.demand.tolist() == [1.5, 0.5] and scn.b_max.tolist() == [2.0, 4.0]
        assert scn.capacity.tolist() == [30.0, 36.0] and scn.soc_init.tolist() == [0.2, 0.0]
        assert scn.mask.tolist() == [[False, True, True, True, False], [True, False, False, False, False]]

    def test_empty_fleet(self):
        scn = make_scenario([], horizon=3)
        assert scn.demand.shape == (0,) and scn.mask.shape == (0, 3)

    def test_arrays_read_only(self):
        scn = make_scenario([make_ev(0, 1, 2, demand=1.0)], horizon=2)
        for name in ("t_arr", "t_dep", "demand", "b_max", "capacity", "soc_init", "mask"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(scn, name)[0] = 0


class TestValidateSchedule:
    def _scenario(self):
        evs = [make_ev(0, 1, 2, demand=3.0, b_max=2.0), make_ev(1, 2, 3, demand=1.0, b_max=2.0)]
        return make_scenario(evs, horizon=3, base_load=[1.0, 1.0, 1.0], load_cap=10.0)

    def test_feasible_passes(self):
        scn = self._scenario()
        sched = ChargingSchedule(np.array([[2.0, 1.0, 0.0], [0.0, 0.5, 0.5]]))
        report = validate_schedule(sched, scn)
        assert report.passed and report.violations == ()

    def test_window_violation(self):
        scn = self._scenario()
        sched = ChargingSchedule(np.array([[2.0, 1.0, 0.0], [0.5, 0.0, 0.5]]))
        report = validate_schedule(sched, scn)
        assert not report.passed
        assert any(v.kind == "window" and v.ev_id == 1 and v.slot == 1 for v in report.violations)
        # The shorted demand also shows up: window charge does not count it out.

    def test_demand_gap_magnitude(self):
        scn = self._scenario()
        sched = ChargingSchedule(np.array([[2.0, 0.5, 0.0], [0.0, 0.5, 0.5]]))
        report = validate_schedule(sched, scn, tol=1e-6)
        assert not report.passed
        assert report.max_demand_gap() == pytest.approx(0.5)

    def test_bound_violation(self):
        scn = self._scenario()
        sched = ChargingSchedule(np.array([[2.5, 0.5, 0.0], [0.0, 0.5, 0.5]]))
        report = validate_schedule(sched, scn)
        assert any(v.kind == "bound" and v.magnitude == pytest.approx(0.5) for v in report.violations)

    @pytest.mark.filterwarnings("error::RuntimeWarning")  # no inf - inf against the infinite cap
    def test_non_finite_amounts_flagged(self):
        scn = make_scenario(self._scenario().evs, horizon=3)  # no load cap
        for bad in (np.nan, np.inf, -np.inf):
            amounts = np.array([[2.0, 1.0, 0.0], [0.0, 0.5, 0.5]])
            amounts[0, 1] = bad
            report = validate_schedule(ChargingSchedule(amounts), scn)
            assert not report.passed
            assert [(v.kind, v.ev_id, v.slot) for v in report.violations] == [("demand", 0, None), ("bound", 0, 2)]
        outside = np.array([[2.0, 1.0, np.nan], [0.0, 0.5, 0.5]])
        report = validate_schedule(ChargingSchedule(outside), scn)
        assert [(v.kind, v.ev_id, v.slot) for v in report.violations] == [("demand", 0, None), ("window", 0, 3)]

    def test_violation_order(self):
        scn = self._scenario()
        amounts = np.array([[2.5, 1.0, 0.3], [0.2, -0.5, 0.0]])
        report = validate_schedule(ChargingSchedule(amounts), scn, tol=1e-6)
        assert [(v.kind, v.ev_id, v.slot) for v in report.violations] == [
            ("demand", 0, None), ("bound", 0, 1), ("window", 0, 3),
            ("demand", 1, None), ("window", 1, 1), ("bound", 1, 2),
        ]
        assert [v.magnitude for v in report.violations] == pytest.approx([0.8, 0.5, 0.3, 1.3, 0.2, 0.5])

    def test_matches_per_cell_loop(self, rng):
        # The per-cell loop validate_schedule replaced, on finite schedules.
        def per_cell(schedule, scn, tol):
            found = []
            for row, ev in enumerate(scn.evs):
                gap = abs(schedule.amounts[row].sum() - ev.demand_kwh)
                if gap > tol:
                    found.append(Violation("demand", ev.id, None, gap))
                for col, amount in enumerate(schedule.amounts[row]):
                    if not ev.t_arr <= col + 1 <= ev.t_dep:
                        if abs(amount) > tol:
                            found.append(Violation("window", ev.id, col + 1, abs(amount)))
                    elif amount < -tol:
                        found.append(Violation("bound", ev.id, col + 1, -amount))
                    elif amount > ev.b_max + tol:
                        found.append(Violation("bound", ev.id, col + 1, amount - ev.b_max))
            totals = schedule.slot_totals() + scn.base_load
            for col in range(scn.horizon):
                if totals[col] - scn.load_cap > tol:
                    found.append(Violation("load_cap", None, col + 1, totals[col] - scn.load_cap))
            return tuple(found)

        for k in range(30):
            scn = random_feasible_scenario(np.random.default_rng(50 + k), n_max=8, with_cap=True)
            amounts = rng.uniform(-1.0, 5.0, (scn.n_evs, scn.horizon)) * (rng.random((scn.n_evs, scn.horizon)) < 0.3)
            report = validate_schedule(ChargingSchedule(amounts), scn, tol=1e-6)
            assert report.violations == per_cell(ChargingSchedule(amounts), scn, 1e-6)

    def test_load_cap_violation(self):
        evs = [make_ev(0, 1, 1, demand=2.0, b_max=2.0)]
        scn = make_scenario(evs, horizon=1, base_load=[9.0], load_cap=10.0)
        report = validate_schedule(ChargingSchedule(np.array([[2.0]])), scn)
        assert any(v.kind == "load_cap" and v.magnitude == pytest.approx(1.0) for v in report.violations)
