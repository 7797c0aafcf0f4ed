"""Travelling-profile family on the sequence space, and the
one-trajectory family built from the same profile.

The profile at elapsed position tau interpolates between neighbouring
unit coordinate vectors and is renormalised, so it always has strong
norm one while sliding to ever higher slots:

    v(tau) = ((1 + n - tau) e_n + (tau - n) e_{n+1}) / |...|,  n = floor(tau).

The full family consists of every time shift of this profile.  Each
state on the manifold determines its shift, so evolution is exact.  The
family's weak omega limit of the whole ball is the profile manifold
together with the zero state, which far-out profiles approach weakly;
in the strong metric the manifold never clusters, which the
compactness diagnostics detect through far-apart profile pairs.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import UsageError
from ..evolution import TrajectoryFamily
from ..space import CoeffState, DualMetricSpace

MANIFOLD_TOL = 1e-6


def make_bump_space(tag: str = "bump") -> DualMetricSpace:
    return DualMetricSpace(tag=tag, index_dim=1, truncation_radius=32, ball_radius=1.0)


def bump_state(space: DualMetricSpace, r: float, t: float) -> CoeffState:
    """Profile of the shift-r trajectory at time t (position tau = t - r)."""
    tau = t - r
    n = math.floor(tau)
    th = tau - n
    norm = math.sqrt((1.0 - th) ** 2 + th ** 2)
    return space.state([n, n + 1], [(1.0 - th) / norm, th / norm])


def _profile_position(x: CoeffState) -> float:
    """Invert a manifold state to its position tau; UsageError off-manifold."""
    rows = np.abs(x.val[:, 0]) > 1e-12
    idx = x.idx[rows, 0]
    val = x.val[rows, 0]
    if np.abs(val.imag).max(initial=0.0) > MANIFOLD_TOL:
        raise UsageError("profile seeds must be real")
    v = val.real
    order = np.argsort(idx)
    idx, v = idx[order], v[order]
    if idx.size == 1:
        if abs(v[0] - 1.0) > MANIFOLD_TOL:
            raise UsageError("seed is not on the travelling-profile manifold")
        return float(idx[0])
    if idx.size == 2 and idx[1] == idx[0] + 1 and v.min() > -MANIFOLD_TOL:
        a, b = max(v[0], 0.0), max(v[1], 0.0)
        norm = math.sqrt(a * a + b * b)
        if abs(norm - 1.0) > MANIFOLD_TOL:
            raise UsageError("profile seed must have unit norm")
        return float(idx[0]) + b / (a + b)
    raise UsageError("seed is not on the travelling-profile manifold")


class BumpSystem(TrajectoryFamily):
    system_id = "bump"
    autonomous = True
    expectations = {"weak_attractor": True, "strong_attractor": False}

    def __init__(self):
        super().__init__(make_bump_space())

    def _evolve(self, s, x, ts, branch):
        r = s - _profile_position(x)
        images = [bump_state(self.space, r, float(t)) for t in ts]
        return [(st.idx, st.val[None]) for st in images]

    # labels are positions at the evaluation time, so a label tracks one
    # trajectory across pullback depths and forward horizons alike
    def seed_labels(self, count, rng):
        return list(rng.uniform(-14.0, 14.0, size=count))

    def seed_for(self, label, s_start, t_eval):
        r = t_eval - float(label)
        return bump_state(self.space, r, s_start)

    def sample_states(self, count, rng):
        return [self.seed_for(c, 0.0, 0.0) for c in self.seed_labels(count, rng)]

    def complete_trajectories(self, count, rng):
        # evenly spaced shifts: deterministic, so callers can start test
        # trajectories exactly on a registered complete one
        shifts = np.linspace(-6.0, 6.0, count) if count > 1 else [0.0]

        def make(r):
            return lambda tau: bump_state(self.space, float(r), float(tau))

        return [make(r) for r in shifts]

    def adversarial_sequence(self, t, starts):
        """Far-separated profiles: tier n lands on slot 2n at time t."""
        out = []
        for n, s in enumerate(starts):
            out.append(self.seed_for(2.0 * (n + 1), s, t))
        return out


class SingleTrajectorySystem(TrajectoryFamily):
    """One fixed trajectory and its restrictions.

    Seeds act as labels only: every interval carries exactly one
    trajectory, the canonical travelling profile with shift zero, so
    evolution ignores the seed state.
    """

    system_id = "single"
    autonomous = False
    expectations = {"weak_attractor": True, "strong_attractor": True}

    def __init__(self):
        super().__init__(make_bump_space("single"))

    def trajectory(self, tau: float) -> CoeffState:
        return bump_state(self.space, 0.0, float(tau))

    def _evolve(self, s, x, ts, branch):
        return [(st.idx, st.val[None]) for st in map(self.trajectory, ts)]

    def sample_states(self, count, rng):
        taus = rng.uniform(-4.0, 4.0, size=count)
        return [self.trajectory(tau) for tau in taus]

    def complete_trajectories(self, count, rng):
        return [self.trajectory]
