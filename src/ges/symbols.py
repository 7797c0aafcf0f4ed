"""Symbol-indexed families of evolution systems and uniform attraction.

A nonautonomous right-hand side can be wrapped into a family indexed by
a symbol sigma (here: a phase offset) together with a time shift acting
on symbols: evolving under symbol sigma from r+s to t+s is the same as
evolving under the shifted symbol sigma+s from r to t.  Over the whole
family the union operator

    R_union(t) A = union over sigma of R_sigma(t, 0) A

drives the uniform (symbol-independent) omega-limit, computed forward
in time by the same net-and-survive machinery as the single-system
approximations.  The union of the per-symbol pullback omega sets at a
fixed time is contained in the uniform set; equality is conditional on
the sampled symbol collection being closed under the shift.

Families here are finite symbol samples:

* phase_family("forced-scalar", count) -- scalar relaxation driven at
  phase offsets 2 pi j / count
* phase_family("nse", count)           -- the spectral flow under
  sinusoidally modulated forcing at the same offsets
* phase_family("branch2", count)       -- an autonomous base system,
  so every symbol yields the same flow (the collapse case)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import UsageError
from .evolution import TrajectoryFamily
from .omega import OmegaApprox, PullbackSchedule, _forward_omega, omega_pullback
from .space import CoeffState, set_semidist

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class SymbolFamily:
    """A finite sample of a symbol space with its shift action."""

    kind: str                       # "phase"
    period: float                   # shift period (0 means no wrapping)
    symbols: tuple[float, ...]
    factory: Callable[[float], TrajectoryFamily] = field(repr=False)
    base_id: str = ""

    def __post_init__(self):
        if not self.symbols:
            raise UsageError("a symbol family needs at least one symbol")

    def wrap(self, sigma: float) -> float:
        return sigma % self.period if self.period > 0 else sigma

    def shift(self, s: float, sigma: float) -> float:
        """The time shift acting on a symbol."""
        return self.wrap(sigma + s)

    def system(self, sigma: float) -> TrajectoryFamily:
        return self.factory(self.wrap(sigma))

    def closed_under(self, ds: float) -> bool:
        """Is the sampled symbol set invariant, to within 1e-9, under the
        shift by ds?"""
        have = np.array([self.wrap(s) for s in self.symbols])
        for s in self.symbols:
            target = self.shift(ds, s)
            gap = np.abs(have - target)
            if self.period > 0:
                gap = np.minimum(gap, self.period - gap)
            if gap.min() > 1e-9:
                return False
        return True

    @classmethod
    def phase_family(cls, base_id: str, count: int = 32) -> "SymbolFamily":
        if count < 1:
            raise UsageError("need at least one phase sample")
        offsets = tuple(TWO_PI * j / count for j in range(count))
        if base_id == "forced-scalar":
            from .systems.scalar import ForcedScalarSystem, make_scalar_space
            space = make_scalar_space()

            def factory(sigma: float) -> TrajectoryFamily:
                return ForcedScalarSystem(space, sigma=sigma)
        elif base_id == "nse":
            from .systems.nse import ForcingMode, ForcingProfile, NSESystem
            amp = complex(1.0 / math.sqrt(2.0))

            def factory(sigma: float) -> TrajectoryFamily:
                prof = ForcingProfile([
                    ForcingMode(k=(1, 0, 0), amp=amp, kind="sin",
                                omega=1.0, phase=sigma),
                    ForcingMode(k=(-1, 0, 0), amp=amp, kind="sin",
                                omega=1.0, phase=sigma),
                ])
                return NSESystem(forcing=prof)
        elif base_id == "branch2":
            from .systems.branch import BranchSystem

            def factory(sigma: float) -> TrajectoryFamily:
                return BranchSystem()  # autonomous: symbols collapse
        else:
            raise UsageError(f"no phase family for base system {base_id!r}")
        return cls("phase", TWO_PI, offsets, factory, base_id)

    @classmethod
    def from_config(cls, obj: dict) -> "SymbolFamily":
        if not isinstance(obj, dict) or obj.get("kind") != "phase":
            raise UsageError("symbol family config needs kind 'phase'")
        base_id, count = obj.get("system", "forced-scalar"), obj.get("count", 32)
        if not isinstance(base_id, str):
            raise UsageError("symbol family 'system' must be a string")
        if isinstance(count, bool) or not isinstance(count, int):
            raise UsageError("symbol family 'count' must be an integer")
        return cls.phase_family(base_id, count)


def shift_identity_defect(symfam: SymbolFamily, sigma: float, s: float,
                          r: float, t: float, x: CoeffState) -> float:
    """Strong distance between evolving under sigma on [r+s, t+s] and
    under the shifted symbol on [r, t]; solver noise when the family
    represents one nonautonomous system."""
    if t < r:
        raise UsageError("need r <= t")
    a = symfam.system(sigma).evolve(r + s, x, [t + s])[0]
    b = symfam.system(symfam.shift(s, sigma)).evolve(r, x, [t])[0]
    space = symfam.system(sigma).space
    return space.strong_dist(a, b)


# ---------------------------------------------------------------------------
# uniform omega and the inclusion check


def uniform_omega(symfam: SymbolFamily, seeds: Sequence[CoeffState],
                  t0: float = 0.0, delta: float = 1.0, rho: float = 1.6,
                  n: int = 10, metric: str = "weak", eps_net: float = 0.05,
                  tol: float = 1e-3, branches: str = "all",
                  workers: int | None = None) -> OmegaApprox:
    """Forward omega-limit of the symbol-union operator.

    Tier i is the union over sampled symbols of R_sigma(t0 + delta
    rho**i, t0) A; the net, survival and convergence rules are shared
    with the single-system approximations, with 'deeper' meaning the
    farther horizon.
    """
    systems = [symfam.system(s) for s in symfam.symbols]
    sys_id = f"{symfam.base_id or systems[0].system_id}-family"
    return _forward_omega(systems, sys_id, t0, seeds, delta, rho, n, metric,
                          eps_net, tol, branches, workers)


def per_symbol_pullback(symfam: SymbolFamily, sigma: float,
                        seeds: Sequence[CoeffState] | None,
                        schedule: PullbackSchedule, metric: str = "weak",
                        eps_net: float = 0.05, tol: float = 1e-3,
                        branches: str = "all", labels: Sequence | None = None,
                        rng: np.random.Generator | None = None,
                        workers: int | None = None) -> OmegaApprox:
    """Pullback omega approximation for one symbol of the family."""
    return omega_pullback(symfam.system(sigma), schedule, seeds=seeds,
                          labels=labels, metric=metric, eps_net=eps_net,
                          tol=tol, rng=rng, branches=branches, workers=workers,
                          note=f"symbol={sigma!r}")


@dataclass
class UnionInclusionReport:
    base_id: str
    t0: float
    metric: str
    eps_net: float
    union_in_uniform: float     # semidist(union of per-symbol omegas, uniform)
    uniform_in_union: float     # reverse direction
    threshold: float            # 2 eps_net
    closed_sample: bool
    all_converged: bool
    verdict: str                # "included" | "fails" | "inconclusive"
    equal: bool
    note: str


def union_inclusion_check(symfam: SymbolFamily,
                          seeds: Sequence[CoeffState],
                          t0: float = 0.0,
                          schedule: PullbackSchedule | None = None,
                          metric: str = "weak", eps_net: float = 0.05,
                          tol: float = 1e-3, n_forward: int = 10,
                          branches: str = "all",
                          workers: int | None = None) -> UnionInclusionReport:
    """Union of per-symbol pullback omega sets at t0 versus the uniform set.

    The union is always expected inside the uniform omega approximation
    (within the 2 eps_net net resolution).  The reverse inclusion --
    equality -- is reported but only meaningful when the sampled symbol
    collection is closed under the time shift, and the verdict degrades
    to 'inconclusive' whenever any participating approximation failed
    to converge.  The uniform side is declared converged at the net
    resolution (tolerance 2 eps_net): its limit set is typically a
    continuum, which a finite net cannot certify more finely, while the
    per-symbol sides keep the sharp tolerance.
    """
    if schedule is None:
        schedule = PullbackSchedule.geometric(t0, n=10)
    uni = uniform_omega(symfam, seeds, t0=t0, metric=metric, eps_net=eps_net,
                        tol=max(tol, 2.0 * eps_net), n=n_forward,
                        branches=branches, workers=workers)
    union_points: list[CoeffState] = []
    all_conv = uni.converged
    for sigma in symfam.symbols:
        rep = per_symbol_pullback(symfam, sigma, seeds, schedule, metric=metric,
                                  eps_net=eps_net, tol=tol, branches=branches,
                                  workers=workers)
        all_conv = all_conv and rep.converged
        union_points.extend(rep.points)

    space = symfam.system(symfam.symbols[0]).space
    thresh = 2.0 * eps_net
    if union_points and uni.points:
        fwd = set_semidist(space, union_points, uni.points, metric)
        rev = set_semidist(space, uni.points, union_points, metric)
    else:
        fwd = rev = math.inf
    closed = (symfam.period > 0
              and symfam.closed_under(symfam.period / len(symfam.symbols)))
    equal = fwd <= thresh and rev <= thresh
    if not all_conv:
        verdict = "inconclusive"
    elif fwd <= thresh:
        verdict = "included"
    else:
        verdict = "fails"
    note = ("equality is conditional on shift-closure of the sampled symbols; "
            f"this sample {'is' if closed else 'is not'} closed")
    return UnionInclusionReport(symfam.base_id, float(t0), metric,
                                float(eps_net), float(fwd), float(rev), thresh,
                                closed, all_conv, verdict, equal, note)
