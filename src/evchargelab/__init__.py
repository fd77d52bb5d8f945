"""evchargelab: simulation and learning laboratory for online EV charging.

Core pieces: a quadratic-price cost model, an offline convex oracle,
rolling-horizon and eager baselines, a tabular Q-learning baseline, a
continuous-action actor-critic scheduler, and a two-stage aggregate
learning + projection scheduler, plus a config-driven benchmark harness.
"""

__version__ = "0.1.0"
