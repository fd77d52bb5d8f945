"""Per-layer spans, recorded from outside the program.

`Tracer.install()` wraps the public functions of each layer where the
callers look them up: every `evchargelab` module attribute that is bound to
the original function is rebound to the wrapper (so `solvers` gets the
wrapped `project_rows_capped_simplex`, and `rl.train` the wrapped `rl.nets`
names), and methods are replaced on their class. Nothing in `src/` changes.

A span's self time is its duration less the time of the wrapped spans
inside it. Work counts are read from return values and call nesting.
Counters are kept per round; `take()` returns a round's values and starts
the next.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

# Layer -> public functions ("Class.method" for methods) that get a span.
LAYERS = {
    "scenario": ("sample_fleet",),
    "model": ("validate_schedule", "horizon_cost", "flat_completion_change"),
    "projections": ("project_rows_capped_simplex", "project_cols_capped_simplex",
                    "project_cols_box_capped", "project_capped_simplex"),
    "solvers": ("solve_offline", "kkt_residual", "solve_rolling_step", "project_allocation"),
    "baselines": ("ec_schedule", "oa_schedule", "aem_train", "aem_schedule"),
    "rl.env": ("ChargingEnv.step", "ChargingEnv.bounds", "AggregateEnv.step"),
    "rl.nets": ("policy_forward", "policy_draw", "log_policy_gradient", "critic_value", "critic_gradient"),
    "rl.train": ("train_sca", "train_calc_stage1", "ParameterStore.sync", "ParameterStore.push",
                 "sca_schedule", "calc_schedule"),
    "harness": ("run_experiment", "build_scenario", "emit_report"),
}
SPANS = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns)

# (name, unit, better) of every per-layer metric, in report order.
COUNTS = (
    ("solvers.solve_offline.iterations", "count", "lower"),
    ("baselines.oa_schedule.resolves", "count", "lower"),
    ("solvers.project_allocation.target_miss_kwh", "kWh", "lower"),
    ("solvers.project_allocation.clip_kwh", "kWh", "lower"),
    ("solvers.infeasible.calls", "count", "lower"),
    ("solvers.infeasible.detect_s", "s", "lower"),
    ("rl.train.steps", "count", "higher"),
    ("rl.train.steps_per_s", "1/s", "higher"),
    ("trace.wall_s", "s", "lower"),
    ("trace.covered_share", "share", "higher"),
)
METRICS = tuple((f"{span}.{kind}", unit, "lower") for span in SPANS
                for kind, unit in (("calls", "count"), ("self_s", "s"))) + COUNTS

_SOLVERS = "solvers."
_OA = "baselines.oa_schedule"
_RESOLVE = "solvers.solve_rolling_step"
_TRAINERS = ("rl.train.train_sca", "rl.train.train_calc_stage1")


class Tracer:
    def __init__(self):
        self._stack = [["", 0.0]]  # frames of [span name, time of wrapped spans inside]
        self._reset()

    def _reset(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self._stack[0][1] = 0.0

    def install(self) -> None:
        from evchargelab.solvers import InfeasibleScenarioError

        self._infeasible = InfeasibleScenarioError
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "evchargelab" or name.startswith("evchargelab."))]
        for layer, fns in LAYERS.items():
            home = importlib.import_module(f"evchargelab.{layer}")
            for fn in fns:
                span = f"{layer}.{fn}"
                if "." in fn:
                    cls_name, method = fn.split(".")
                    cls = getattr(home, cls_name)
                    setattr(cls, method, self._wrap(span, cls.__dict__[method]))
                    continue
                original = getattr(home, fn)
                wrapper = self._wrap(span, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)

    def _wrap(self, span: str, fn):
        stack = self._stack
        is_solver = span.startswith(_SOLVERS)
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [span, 0.0]
            stack.append(frame)
            t0 = perf()
            raised = None
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                raised = exc
                raise
            finally:
                dt = perf() - t0
                stack.pop()
                stack[-1][1] += dt
                self.calls[span] += 1
                self.self_s[span] += dt - frame[1]
                if is_solver and isinstance(raised, self._infeasible) and not any(
                        f[0].startswith(_SOLVERS) for f in stack):
                    self.counts["solvers.infeasible.calls"] += 1
                    self.counts["solvers.infeasible.detect_s"] += dt
                if raised is None:
                    self._count(span, result, dt)
            return result

        return wrapper

    def _count(self, span: str, result, dt: float) -> None:
        counts = self.counts
        if span == "solvers.solve_offline":
            counts["solvers.solve_offline.iterations"] += result.iterations
        elif span == _RESOLVE and any(f[0] == _OA for f in self._stack):
            counts["baselines.oa_schedule.resolves"] += 1
        elif span == "solvers.project_allocation":
            miss = abs(result.schedule.slot_totals() - result.clipped_target).sum()
            counts["solvers.project_allocation.target_miss_kwh"] += float(miss)
            counts["solvers.project_allocation.clip_kwh"] += result.clip_magnitude
        elif span in _TRAINERS:
            counts["rl.train.steps"] += result.global_steps
            counts["rl.train.train_s"] += dt

    def take(self, wall_s: float) -> dict[str, float]:
        """This round's per-layer values; resets the counters."""
        values = {}
        for span in SPANS:
            values[f"{span}.calls"] = float(self.calls[span])
            values[f"{span}.self_s"] = self.self_s[span]
        for name, _, _ in COUNTS:
            values[name] = self.counts[name]
        train_s = self.counts["rl.train.train_s"]
        values["rl.train.steps_per_s"] = self.counts["rl.train.steps"] / train_s if train_s else 0.0
        values["trace.wall_s"] = wall_s
        values["trace.covered_share"] = self._stack[0][1] / wall_s if wall_s else 0.0
        self._reset()
        return values
