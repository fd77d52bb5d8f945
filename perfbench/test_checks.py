"""Hand-made cases for the benchmark's output checks and span accounting.

    python3 -m pytest perfbench -q

Each check is shown to pass on a right answer and to fail on a wrong one.
"""

import json
import time

import numpy as np
import pytest

import checks
import spans
from bench_env import BENCH_DIR


def fleet(base=(0.0, 0.0, 0.0), t_arr=(1,), t_dep=(3,), demand=(3.0,), b_max=(2.0,), cap=float("inf"),
          k0=0.1, k1=0.01):
    return checks.Fleet(np.array(t_arr), np.array(t_dep), np.array(demand, dtype=float),
                        np.array(b_max, dtype=float), np.array(base, dtype=float), k0, k1, cap)


class TestBill:
    def test_price_integral(self):
        # slot 1: 0.1*1 + 0.01*((1+1)^2 - 1^2) = 0.13; slot 2: 0.1*2 + 0.01*(4^2 - 2^2) = 0.32
        f = fleet(base=(1.0, 2.0, 0.0))
        assert checks.bill(f, np.array([1.0, 2.0, 0.0])) == pytest.approx(0.45)

    def test_same_cost(self):
        assert checks.same_cost("x", 1.0, 1.0 + 1e-9) == []
        assert checks.same_cost("x", 1.0, 1.001) != []


class TestFeasibility:
    def test_accepts_a_feasible_schedule(self):
        assert checks.feasibility(fleet(), np.array([[1.0, 1.0, 1.0]])) == []

    @pytest.mark.parametrize("x, word", [
        ([[1.0, 1.0, 0.5]], "demand"),
        ([[2.5, 0.5, 0.0]], "rate limit"),
        ([[-0.5, 2.0, 1.5]], "negative"),
    ])
    def test_rejects(self, x, word):
        faults = checks.feasibility(fleet(), np.array(x))
        assert any(word in f for f in faults), faults

    def test_rejects_charge_outside_the_window(self):
        f = fleet(t_arr=(2,), t_dep=(3,), demand=(2.0,))
        assert checks.feasibility(f, np.array([[0.0, 1.0, 1.0]])) == []
        assert any("outside" in x for x in checks.feasibility(f, np.array([[0.5, 0.5, 1.0]])))

    def test_rejects_a_load_over_the_cap(self):
        f = fleet(base=(1.0, 1.0, 1.0), cap=2.5)
        assert checks.feasibility(f, np.array([[1.0, 1.0, 1.0]])) == []
        assert checks.feasibility(f, np.array([[1.5, 1.5, 0.0]])) == []
        assert any("cap" in x for x in checks.feasibility(f, np.array([[2.0, 1.0, 0.0]])))

    def test_rejects_a_wrong_shape(self):
        assert checks.feasibility(fleet(), np.ones((2, 3))) != []


class TestKkt:
    def test_accepts_valley_filling(self):
        # base (2, 0, 1), 3 kWh: fill slot 2 to 1, then slots 2 and 3 to 2.
        f = fleet(base=(2.0, 0.0, 1.0))
        assert checks.kkt(f, np.array([[0.0, 2.0, 1.0]])) == []

    def test_rejects_a_dear_slot_charging_while_a_cheap_one_has_room(self):
        f = fleet(base=(2.0, 0.0, 1.0))
        assert checks.kkt(f, np.array([[1.0, 1.0, 1.0]])) != []

    def test_a_slot_at_its_rate_limit_may_stay_cheaper(self):
        # Slot 2 stays cheapest but is full at b_max = 2; slots 1 and 3 share the rest.
        f = fleet(base=(2.0, 0.0, 2.0), demand=(4.0,), b_max=(2.0,))
        assert checks.kkt(f, np.array([[1.0, 2.0, 1.0]])) == []
        assert checks.kkt(f, np.array([[2.0, 1.0, 1.0]])) != []

    def test_slots_outside_the_window_do_not_count(self):
        f = fleet(base=(5.0, 0.0, 0.0), t_arr=(2,), t_dep=(3,), demand=(2.0,))
        assert checks.kkt(f, np.array([[0.0, 1.0, 1.0]])) == []


class TestDominance:
    def test_online_below_the_oracle_is_a_fault(self):
        assert checks.dominance(10.0, {"EC": 12.0, "OA": 10.0}) == []
        assert checks.dominance(10.0, {"EC": 9.99}) != []


class TestLp:
    def test_min_peak(self):
        # 2 kWh into slots with base (1, 3): all of it in slot 1 gives peak 3.
        f = fleet(base=(1.0, 3.0, 0.0), t_dep=(2,), demand=(2.0,), b_max=(2.0,))
        assert checks.min_peak(f) == pytest.approx(3.0)
        # With b_max 1 slot 2 must take 1 kWh: peak 4.
        f = fleet(base=(1.0, 3.0, 0.0), t_dep=(2,), demand=(2.0,), b_max=(1.0,))
        assert checks.min_peak(f) == pytest.approx(4.0)

    def test_cap_feasible(self):
        f = fleet(base=(1.0, 3.0, 0.0), t_dep=(2,), demand=(2.0,), b_max=(2.0,))
        assert checks.cap_feasible(f, 3.0)
        assert not checks.cap_feasible(f, 2.9)


class TestSpans:
    def test_self_time_excludes_wrapped_children(self):
        tracer = spans.Tracer()
        inner = tracer._wrap("a.inner", lambda: time.sleep(0.02))

        def outer_body():
            time.sleep(0.01)
            inner()
            inner()

        outer = tracer._wrap("a.outer", outer_body)
        outer()
        assert tracer.calls["a.outer"] == 1 and tracer.calls["a.inner"] == 2
        assert tracer.self_s["a.inner"] >= 0.04
        assert 0.01 <= tracer.self_s["a.outer"] < 0.03
        # Only the outer span is top-level: it covers about 0.05 s of 0.1 s.
        assert 0.5 <= tracer.take(wall_s=0.1)["trace.covered_share"] < 0.8
        assert tracer.calls["a.outer"] == 0


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    bench = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == list(spans.METRICS)
    assert [m["name"] for m in bench["end_to_end"]] == ["wall_s", "setup_s", "peak_rss_mb"]
    assert [w["name"] for w in bench["workloads"]] == ["train", "schedule", "capped"]
