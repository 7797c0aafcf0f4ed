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
fixed time is contained in the uniform set; equality needs the wheel
dense at 2 eps_net, so that no uniform point lies between the sets of
neighbouring sampled phases.

A family is the wheel of count phases 2 pi j / count over one base:

* SymbolFamily("forced-scalar", count) -- scalar relaxation
* SymbolFamily("nse", count)           -- the spectral flow under
  sinusoidally modulated forcing
* SymbolFamily("branch2", count)       -- an autonomous base system,
  so every symbol yields the same flow (the collapse case)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import UsageError
from .evolution import TrajectoryFamily, _image_tier, _tier_block
from .omega import OmegaApprox, PullbackSchedule, _forward_omega, omega_pullback
from .space import CoeffState, set_semidists
from .systems import (BranchSystem, ForcedScalarSystem, ForcingMode, ForcingProfile,
                      NSESystem)
from .util import report_json

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class SymbolFamily:
    """The phase wheel: count evenly spaced phases in [0, 2 pi) over one
    base system, with the shift action sigma -> sigma + s (mod 2 pi)."""

    base_id: str
    count: int = 32

    def __post_init__(self):
        if self.count < 1:
            raise UsageError("need at least one phase sample")
        if self.base_id not in ("forced-scalar", "nse", "branch2"):
            raise UsageError(f"no phase family for base system {self.base_id!r}")

    @property
    def symbols(self) -> tuple[float, ...]:
        return tuple(TWO_PI * j / self.count for j in range(self.count))

    def shift(self, s: float, sigma: float) -> float:
        """The time shift acting on a symbol."""
        return (sigma + s) % TWO_PI

    def system(self, sigma: float) -> TrajectoryFamily:
        sigma = sigma % TWO_PI
        if self.base_id == "forced-scalar":
            return ForcedScalarSystem(sigma=sigma)
        if self.base_id == "nse":
            amp = complex(1.0 / math.sqrt(2.0))
            return NSESystem(forcing=ForcingProfile([
                ForcingMode(k=(k, 0, 0), amp=amp, kind="sin", omega=1.0,
                            phase=sigma) for k in (1, -1)]))
        return BranchSystem()  # autonomous: symbols collapse


def shift_identity_defect(symfam: SymbolFamily, sigma: float, s: float,
                          r: float, t: float, x: CoeffState) -> float:
    """Strong distance between evolving under sigma on [r+s, t+s] and
    under the shifted symbol on [r, t] on branch 0; solver noise when the
    family represents one nonautonomous system.  The two images are two
    one-row tiers of one _tier_block."""
    fam = symfam.system(sigma)
    shifted = symfam.system(symfam.shift(s, sigma))
    packed, (a, b), _ = _tier_block(
        fam.space, [_image_tier(fam, [x], r + s, t + s, "first"),
                    _image_tier(shifted, [x], r, t, "first")], 1)
    return float(packed.cross(a, b, "strong")[0, 0])


# ---------------------------------------------------------------------------
# uniform omega and the inclusion check


def uniform_omega(symfam: SymbolFamily, seeds: Sequence[CoeffState],
                  t0: float = 0.0, n: int = 10, metric: str = "weak",
                  eps_net: float = 0.05, tol: float = 1e-3,
                  workers: int = 1) -> OmegaApprox:
    """Forward omega-limit of the symbol-union operator.

    Tier i is the union over sampled symbols of R_sigma(t0 + 1.6**i, t0) A
    through every branch; the net, survival and convergence rules are
    shared with the single-system approximations, with 'deeper' meaning
    the farther horizon.
    """
    systems = [symfam.system(s) for s in symfam.symbols]
    return _forward_omega(systems, f"{symfam.base_id}-family", t0, seeds, 1.0,
                          1.6, n, metric, eps_net, tol, "all", workers)


def per_symbol_pullback(symfam: SymbolFamily, sigma: float,
                        seeds: Sequence[CoeffState],
                        schedule: PullbackSchedule, metric: str = "weak",
                        eps_net: float = 0.05, tol: float = 1e-3,
                        workers: int = 1) -> OmegaApprox:
    """Pullback omega approximation of a fixed seed set for one symbol of
    the family."""
    return omega_pullback(symfam.system(sigma), schedule, seeds=seeds,
                          metric=metric, eps_net=eps_net, tol=tol,
                          workers=workers, note=f"symbol={sigma!r}")


@dataclass
class UnionInclusionReport:
    base: str
    symbols: int                # sampled symbol count
    t0: float
    metric: str
    eps_net: float
    union_in_uniform: float     # semidist(union of per-symbol omegas, uniform)
    uniform_in_union: float     # reverse direction
    threshold: float            # 2 eps_net
    all_converged: bool
    verdict: str                # "included" | "fails" | "inconclusive"
    equal: bool

    def to_json(self) -> str:
        # strict JSON has no infinity: a semidistance with an empty side is null
        return report_json("uniform-inclusion", self, **{
            name: None for name in ("union_in_uniform", "uniform_in_union")
            if not math.isfinite(getattr(self, name))})


def union_inclusion_check(symfam: SymbolFamily,
                          seeds: Sequence[CoeffState],
                          schedule: PullbackSchedule, t0: float = 0.0,
                          metric: str = "weak", eps_net: float = 0.05,
                          tol: float = 1e-3, n_forward: int = 10,
                          workers: int = 1) -> UnionInclusionReport:
    """Union of per-symbol pullback omega sets at t0 versus the uniform set.

    The union is always expected inside the uniform omega approximation
    (within the 2 eps_net net resolution).  The reverse inclusion --
    equality -- is reported too; it needs the wheel dense at 2 eps_net,
    so that every uniform point lies near some sampled symbol's set.  The
    verdict degrades to 'inconclusive' whenever any participating
    approximation failed to converge.  The uniform side is declared
    converged at the net resolution (tolerance 2 eps_net): its limit set
    is typically a continuum, which a finite net cannot certify more
    finely, while the per-symbol sides keep the sharp tolerance.
    """
    uni = uniform_omega(symfam, seeds, t0=t0, metric=metric, eps_net=eps_net,
                        tol=max(tol, 2.0 * eps_net), n=n_forward,
                        workers=workers)
    union_points: list[CoeffState] = []
    all_conv = uni.converged
    for sigma in symfam.symbols:
        rep = per_symbol_pullback(symfam, sigma, seeds, schedule, metric=metric,
                                  eps_net=eps_net, tol=tol, workers=workers)
        all_conv = all_conv and rep.converged
        union_points.extend(rep.points)

    space = symfam.system(0.0).space
    thresh = 2.0 * eps_net
    fwd = rev = math.inf
    if union_points and uni.points:
        fwd, rev = set_semidists(space, union_points, uni.points, metric)
    equal = fwd <= thresh and rev <= thresh
    verdict = ("inconclusive" if not all_conv
               else "included" if fwd <= thresh else "fails")
    return UnionInclusionReport(symfam.base_id, symfam.count, float(t0),
                                metric, float(eps_net), float(fwd), float(rev),
                                thresh, all_conv, verdict, equal)
