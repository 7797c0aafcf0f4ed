"""Phase-forced scalar relaxation, the workhorse for symbol hulls.

    u' = -u + cos(t + sigma)

has the bounded complete solution

    p(t) = (cos(t + sigma) + sin(t + sigma)) / 2,

and every solution relaxes to it exponentially:

    u(t) = exp(-(t - s)) (u(s) - p(s)) + p(t).

Pullback omega limits are therefore the single point {p(t0)}; the union
over all phases sweeps the interval [-sqrt(2)/2, sqrt(2)/2].
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import UsageError
from ..evolution import TrajectoryFamily
from ..space import SCALAR_SLOT, DualMetricSpace


def make_scalar_space() -> DualMetricSpace:
    return DualMetricSpace(tag="forced-scalar", index_dim=1, truncation_radius=4, ball_radius=2.0)


class ForcedScalarSystem(TrajectoryFamily):
    system_id = "forced-scalar"
    autonomous = False
    expectations = {"weak_attractor": True, "strong_attractor": True}

    def __init__(self, sigma: float = 0.0):
        super().__init__(make_scalar_space())
        self.sigma = float(sigma)

    def particular(self, t: float) -> float:
        a = t + self.sigma
        return 0.5 * (math.cos(a) + math.sin(a))

    def scalar(self, v: float):
        return self.space.state([0], [float(v)])

    def value_of(self, x) -> float:
        if x.idx.shape[0] == 0:
            return 0.0
        if x.idx.shape[0] != 1 or x.idx[0, 0] != 0:
            raise UsageError("scalar states live on index 0 only")
        return float(x.val[0, 0].real)

    def _evolve(self, s, x, ts, branch):
        gap = self.value_of(x) - self.particular(s)
        vals = [math.exp(-(t - s)) * gap + self.particular(t) for t in map(float, ts)]
        return [(SCALAR_SLOT, np.array(vals).reshape(-1, 1, 1))]

    def sample_states(self, count, rng):
        return [self.scalar(v) for v in rng.uniform(-1.5, 1.5, size=count)]

    def complete_trajectories(self, count, rng):
        return [lambda tau: self.scalar(self.particular(float(tau)))]
