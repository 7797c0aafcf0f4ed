"""Scalar drift on the whole real line, the no-attractor counterexample.

Every start time s carries the single trajectory u(t) = t - s, so the
pullback image of anything is {t - s}, which runs away as the start
recedes.  The phase space is all of R with the weak metric equal to the
strong one, so no compact set can attract: every attraction profile
grows without bound.

Note: this family is deliberately not closed under restriction (the
trajectory born at r, restricted to [s, infinity), is not the
trajectory born at s), so the two-leg composition check does not apply
to it.  It exists purely to witness how the diagnostics report failure.
"""

from __future__ import annotations

from ..errors import UsageError
from ..evolution import TrajectoryFamily
from ..space import DualMetricSpace


def make_line_space() -> DualMetricSpace:
    return DualMetricSpace(tag="line", index_dim=1, weak_kind="strong",
                           truncation_radius=1, ball_radius=None)


class LineSystem(TrajectoryFamily):
    system_id = "line"
    autonomous = True
    expectations = {"weak_attractor": False, "strong_attractor": False}

    def __init__(self, space: DualMetricSpace | None = None):
        super().__init__(space or make_line_space())

    def scalar(self, v: float):
        return self.space.state([0], [float(v)])

    def evolve(self, s, x, ts, branch=0):
        if branch != 0:
            raise UsageError("single-valued system has only branch 0")
        return [self.scalar(float(t) - s) for t in ts]

    def sample_states(self, count, rng):
        return [self.scalar(v) for v in rng.uniform(-1.0, 1.0, size=count)]
