"""Two-rate decay toy, the minimal genuinely multivalued system.

From any state two trajectories depart, decaying exponentially at rates
1 and 2.  Both branches pull everything to the origin, so the pullback
and forward omega limits agree on {0} while every composition of legs
stays inside the two-leg image set (mixing rates only enlarges it).
"""

from __future__ import annotations

import math

import numpy as np

from ..evolution import TrajectoryFamily
from ..space import DualMetricSpace

RATES = (1.0, 2.0)


def make_branch_space() -> DualMetricSpace:
    return DualMetricSpace(tag="branch2", index_dim=1, truncation_radius=32, ball_radius=1.0)


class BranchSystem(TrajectoryFamily):
    system_id = "branch2"
    autonomous = True
    expectations = {"weak_attractor": True, "strong_attractor": True}

    def __init__(self):
        super().__init__(make_branch_space())

    def branch_count(self, s, x):
        return len(RATES)

    def _evolve(self, s, x, ts, branch):
        vals = [x.val * math.exp(-RATES[branch] * (float(t) - s)) for t in ts]
        return [(x.idx, np.array(vals).reshape(len(ts), *x.val.shape))]

    def sample_states(self, count, rng):
        out = []
        for _ in range(count):
            slots = np.sort(rng.choice(np.arange(-3, 4), size=2, replace=False))
            vals = rng.normal(size=2)
            st = self.space.state(slots, vals)
            nrm = self.space.strong_norm(st)
            out.append(self.space.state(slots, vals * (rng.uniform(0.2, 1.0) / nrm)))
        return out
