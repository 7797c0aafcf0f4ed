"""Diffusion on the whole line, worked entirely on a frequency grid.

States hold samples of a frequency profile on the uniform grid
xi_j = j * h, |j| <= extent, with the trapezoid rule as the strong
quadrature.  The solution operator is the exact diagonal multiplier

    u_hat(xi, t) = exp(xi^2 (s - t)) * f_hat(xi),

so every frequency decays, the zero state attracts weakly, yet no
strong pullback attraction is possible: for any depth one can place a
unit bump of spectral mass low enough that it still carries norm 1/2
at the evaluation time.  band_witness constructs exactly those seeds.

The weak metric uses grid-scaled series weights h * 2^(-|xi_j|), the
grid counterpart of coefficient weighting on a countable dense system.
"""

from __future__ import annotations

import math
from functools import lru_cache, partial

import numpy as np

from ..errors import UsageError
from ..evolution import TrajectoryFamily
from ..space import CoeffState, Deferred, DualMetricSpace

GRID_SPACING = 1.0 / 64.0
GRID_EXTENT = 1024  # covers |xi| <= 16


def make_heat_space() -> DualMetricSpace:
    return DualMetricSpace(tag="heat", index_dim=1, truncation_radius=GRID_EXTENT,
                           ball_radius=1.0, grid_spacing=GRID_SPACING,
                           grid_extent=GRID_EXTENT)


def heat_block(space: DualMetricSpace, x: CoeffState, s: float, ts) -> np.ndarray:
    """Values of the samples at times ts of the solution from (s, x), on x's
    own index rows.

    One broadcast of exp(xi^2 (s - t)) over all samples, (len(ts), rows, 1);
    real when x is.  Each entry is bitwise the single-sample product: the
    real case works in place in one array, as x * y == y * x bit for bit.
    """
    lag = s - np.asarray(ts, dtype=np.float64)
    xi = x.idx[:, 0].astype(np.float64) * space.grid_spacing
    factor = np.multiply.outer(lag, xi * xi)
    np.exp(factor, out=factor)
    if np.any(x.val.imag):
        return x.val[None] * factor[:, :, None]
    out = factor[:, :, None]
    out *= x.val.real
    return out


def _band_rows(slots: np.ndarray) -> np.ndarray:
    """(2 n, 1) index rows of the grid slots -slots reversed, then slots."""
    return np.concatenate([-slots[::-1], slots])[:, None]


def _unit_band(space: DualMetricSpace, idx: np.ndarray, amps: np.ndarray) -> CoeffState:
    """Unit-norm even profile on the _band_rows idx of slots, carrying
    amps[i] at +-slots[i]."""
    vals = np.concatenate([amps[::-1], amps])
    return space.state(idx, vals / space.strong_norm(space.state(idx, vals)))


def band_witness(space: DualMetricSpace, t: float,
                 s0: float) -> tuple[int, CoeffState]:
    """Unit-norm seed at time s0 whose solution keeps norm >= 1/2 at t.

    The band index is the largest integer j with
        j <= (log2(ln 2 / (t - s0)) + 2) / 2,
    which makes the inner band edge 2^(j-1) satisfy xi^2 <= ln2/(t-s0).
    The seed spreads uniform mass over the grid cells of
    [2^(j-1), min(2^(j+1), sqrt(ln2/(t-s0)))], all of which decay by a
    factor of at most 1/2 in norm, so the evolved norm stays >= 1/2 up
    to rounding.
    """
    delta = t - s0
    if delta <= 0:
        raise UsageError("witness needs s0 < t")
    h = space.grid_spacing
    bound = 0.5 * (math.log2(math.log(2.0) / delta) + 2.0)
    j = math.floor(bound)
    lo_edge = 2.0 ** (j - 1)
    hi_edge = min(2.0 ** (j + 1), math.sqrt(math.log(2.0) / delta))
    lo = math.ceil(lo_edge / h - 1e-12)
    hi = math.floor(hi_edge / h + 1e-12)
    hi = min(hi, space.grid_extent)
    if lo > hi or lo < 1:
        raise UsageError(
            f"band {j} is below the grid resolution h={h}; refine the grid")
    slots = np.arange(lo, hi + 1, dtype=np.int64)
    return j, _unit_band(space, _band_rows(slots), np.ones(slots.size))


@lru_cache(maxsize=None)
def _band_idx(h: float, extent: int, j: int) -> np.ndarray:
    """The read-only index rows of the dyadic band 2^(j-1) <= |xi| <= 2^(j+1)
    on the grid of spacing h and extent, shared by every profile on it."""
    lo = math.ceil(2.0 ** (j - 1) / h - 1e-12)
    hi = math.floor(2.0 ** (j + 1) / h + 1e-12)
    hi = min(hi, extent)
    if lo > hi or lo < 1:
        raise UsageError(f"band {j} is outside the grid")
    idx = _band_rows(np.arange(lo, hi + 1, dtype=np.int64))
    idx.flags.writeable = False
    return idx


def band_profile(space: DualMetricSpace, j: int, rng: np.random.Generator) -> CoeffState:
    """Random unit-norm profile supported on the dyadic band
    2^(j-1) <= |xi| <= 2^(j+1).  Profiles on one band share its index
    rows, so packing encodes and places them once per band."""
    idx = _band_idx(space.grid_spacing, space.grid_extent, j)
    return _unit_band(space, idx, rng.uniform(0.1, 1.0, size=len(idx) // 2))


def high_band_seed(space: DualMetricSpace, rng: np.random.Generator,
                   xi_min: float = 8.0, xi_max: float = 12.0) -> CoeffState:
    """Unit seed supported at high frequency; its weak distance to zero
    is bounded by the series tail beyond xi_min, so it tracks the zero
    solution weakly from the start."""
    h = space.grid_spacing
    slots = np.arange(math.ceil(xi_min / h), math.floor(xi_max / h) + 1, dtype=np.int64)
    return _unit_band(space, _band_rows(slots), rng.uniform(0.1, 1.0, size=slots.size))


class HeatSystem(TrajectoryFamily):
    system_id = "heat"
    autonomous = True
    expectations = {"weak_attractor": True, "strong_attractor": False}

    def __init__(self):
        super().__init__(make_heat_space())

    def _evolve(self, s, x, ts, branch):
        """One group on the seed's rows, its values deferred to the packer."""
        return [(x.idx, Deferred(len(ts), partial(heat_block, self.space, x, s, np.array(ts))))]

    def sample_states(self, count, rng):
        return [band_profile(self.space, int(rng.integers(0, 4)), rng)
                for _ in range(count)]

    def complete_trajectories(self, count, rng):
        zero = self.space.zero_state()
        return [lambda tau: zero]

    def adversarial_sequence(self, t, starts):
        """One single-pair spectral spike per tier, all mutually disjoint
        and all placed low enough to keep norm >= 1/2 at time t.

        Tier at depth d takes the largest grid frequency xi with
        xi^2 d <= ln 2, stepping down if a shallower tier already took
        that slot, so evolved norms stay >= 1/2 while supports never
        overlap across tiers."""
        h = self.space.grid_spacing
        used: set[int] = set()
        out = []
        for s in starts:
            depth = t - s
            if depth <= 0:
                raise UsageError("adversarial spikes need t strictly after s")
            slot = math.floor(math.sqrt(math.log(2.0) / depth) / h)
            while slot >= 1 and slot in used:
                slot -= 1
            if slot < 1:
                raise UsageError("schedule too deep for the grid resolution")
            used.add(slot)
            out.append(_unit_band(self.space, _band_rows(np.array([slot], dtype=np.int64)),
                                  np.ones(1)))
        return out
