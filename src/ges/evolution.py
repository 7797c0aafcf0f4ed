"""Evolution primitives shared by every model system.

A TrajectoryFamily hands out solution samples per start time, possibly
several per seed (branch_count > 1 for genuinely multivalued systems).
evolve and evolve_block refuse, with a UsageError, a seed from another
space, unequal start and sample lists, a branch the seed lacks and a
sample time before its start.  A system implements only _evolve, which
hands out one run's samples as packing groups (see space.pack_groups),
the one format of an image: evolve_block returns them as they come, and
evolve makes each image a state.  The pullback image operator

    P(t, s) A = { u(t) : u a trajectory from time s with u(s) in A }

is approximated by evolving a finite seed ensemble through every branch.
Both evolve and evolve_block apply one autonomy rule, which _check_run
writes: an autonomous family evolves from time 0 over the duration t - s,
P(t, s) = S(t - s), and any other from s.  So evolve's samples and
evolve_block's images of one seed come from the same runs, and a system
whose runs give a sample's bits from its start, seed and time alone
(every system here, the NSE solver included) gives each image bit for
bit as its own evolve.  Whatever reads distances from images packs them
with _tier_block: one evolve_block call per seed and branch gives all of
that seed's images as values ready for packing, from one run when the
family is autonomous, else one per run of equal start times (heat
broadcasts one multiplier).  Fixed states follow them, and the blow-up
guard reads the block's norms.  It is the only image path: compose_check
packs both legs' images from one block, _trajectory_norms reads the norms
along sampled trajectories from one block, and no check calls evolve,
which stays the public per-seed sampler.  No image becomes a state on its
way to a block unless its system builds it as one (bump and single, whose
support slides).  Families also expose phase-space seed sampling keyed by
labels: a label fixes one trajectory relative to the evaluation time, so
ensembles drawn at different pullback depths sample the same bundle of
trajectories.

Checks in this module:

* compose_check        -- two-leg versus one-leg evolution agreement
* energy_inequality_check -- windowed norm monotonicity vote plus the
                           integral energy inequality when the caller
                           supplies dissipation and forcing samples
* weak_c_convergence_check -- continuity of evolution under weakly
                           convergent seeds, with a strong-metric vote
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from itertools import groupby
from typing import Callable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import BlowUpError, UsageError
from .space import CoeffState, DualMetricSpace, PackedSet, pack_groups
from .util import parallel_map


class TrajectoryFamily(ABC):
    """Interval-indexed trajectory sets with a shared coefficient space."""

    system_id: str = "abstract"
    autonomous: bool = False

    #: registry expectation used by the CLI exit-code contract:
    #: does a weak (resp. strong) pullback attractor exist for this system
    expectations: dict = {"weak_attractor": True, "strong_attractor": True}

    def __init__(self, space: DualMetricSpace):
        self.space = space

    # -- trajectory access ----------------------------------------------------

    def branch_count(self, s: float, x: CoeffState) -> int:
        return 1

    def evolve(self, s: float, x: CoeffState, ts: Sequence[float],
               branch: int = 0) -> list[CoeffState]:
        """Sample the branch's trajectory through (s, x) at times ts >= s:
        evolve_block's images from the one start s, one state each."""
        return [self.space.state(idx, v)
                for idx, vals in self.evolve_block(x, [s] * len(ts), ts, branch)
                for v in (vals() if callable(vals) else vals)]

    def evolve_block(self, x: CoeffState, starts: Sequence[float],
                     ts: Sequence[float], branch: int = 0) -> list[tuple]:
        """The images P(ts[k], starts[k]) x of one seed, as packing groups:
        the groups _evolve gives for each run _check_run makes, in order."""
        return [g for r, run_ts in self._check_run(x, starts, ts, branch)
                for g in self._evolve(r, x, run_ts, branch)]

    def _check_run(self, x, starts, ts, branch) -> list[tuple]:
        """Refuse a seed from another space, other than one start per sample
        time, a branch the seed lacks and a sample time before its start.

        Returns the (start, sample times) runs that give the images
        P(ts[k], starts[k]) x in order, by the autonomy rule: an autonomous
        family makes one run from time 0 sampled at every duration t - s,
        any other one run per run of equal start times."""
        self.space.check_member(x)
        if len(starts) != len(ts):
            raise UsageError(f"{len(starts)} start times for {len(ts)} sample times")
        if any(not 0 <= branch < self.branch_count(s, x) for s in set(starts)):
            raise UsageError(f"branch {branch} out of range for {self.system_id!r}")
        if np.any(np.asarray(ts, dtype=np.float64) < np.asarray(starts, dtype=np.float64)):
            raise UsageError("evolution runs forward: no sample may precede its start")
        if self.autonomous:
            return [(0.0, [float(t) - float(s) for s, t in zip(starts, ts)])]
        pairs = groupby(zip(starts, ts), key=lambda pair: pair[0])
        return [(s, [t for _, t in run]) for s, run in pairs]

    @abstractmethod
    def _evolve(self, s, x, ts, branch) -> list[tuple]:
        """The samples at ts of the trajectory through (s, x), for one run
        _check_run gave, as (idx, vals) packing groups in sample order.

        vals[j] holds the next sample's values on the index rows idx, so
        vals is (len, len(idx), c), or vals is a callable giving that array
        once (see space.pack_groups).  Groups may share one idx array.
        """

    # -- phase-space sampling ---------------------------------------------------

    def seed_labels(self, count: int, rng: np.random.Generator) -> list:
        """Labels for a canonical sample of the phase space.

        By default a label is simply a state, produced by sample_states.
        Systems whose phase space is swept out by a trajectory bundle
        (the travelling profile) override seed_for so a label stays
        attached to the same trajectory at any pullback depth.
        """
        return list(self.sample_states(count, rng))

    def seed_for(self, label, s_start: float, t_eval: float) -> CoeffState:
        """State at time s_start of the trajectory the label names."""
        return label

    def sample_states(self, count: int, rng: np.random.Generator) -> list[CoeffState]:
        raise UsageError(f"system {self.system_id!r} has no canonical state sampler")

    # -- optional structure ------------------------------------------------------

    def complete_trajectories(self, count: int, rng: np.random.Generator
                              ) -> list[Callable[[float], CoeffState]] | None:
        """Known entire solutions, or None when the system registers none."""
        return None

    def adversarial_sequence(self, t: float, starts: Sequence[float]
                             ) -> list[CoeffState] | None:
        """Seeds x_n at the given start times designed to stress pullback
        compactness checks at evaluation time t, or None."""
        return None


# ---------------------------------------------------------------------------
# pullback images


def _trajectories(fam: TrajectoryFamily, seeds: Sequence[CoeffState], s: float,
                  branches: str = "all") -> list[tuple]:
    """(seed index, branch, seed) per trajectory from time s, in that order.

    branches is "all" or "first"; every seed must live on the family's space.
    """
    seeds = list(seeds)
    if not seeds:
        raise UsageError("evolution of an empty seed set")
    if branches not in ("all", "first"):
        raise UsageError("branches must be 'all' or 'first'")
    out = []
    for i, x in enumerate(seeds):
        fam.space.check_member(x)
        nb = fam.branch_count(s, x) if branches == "all" else 1
        out.extend((i, b, x) for b in range(nb))
    return out


def _image_tier(fam: TrajectoryFamily, seeds: Sequence[CoeffState], s: float,
                t: float, branches: str = "all") -> list[tuple]:
    """The _tier_block rows of the image P(t, s) seeds, in _trajectories order."""
    return [(fam, i, b, x, s, t) for i, b, x in _trajectories(fam, seeds, s, branches)]


def _tier_block(space: DualMetricSpace, tiers, workers: int,
                fixed: Sequence[CoeffState] = ()) -> tuple[PackedSet, list, np.ndarray]:
    """Pack every tier image straight from its seed, deepest tier first,
    then the fixed states in their own order.

    tiers[i] lists tier i's trajectories as (fam, seed index, branch, seed,
    s, t) rows, the image being P(t, s) seed on that branch; the last tier
    is the deepest.  Each tier becomes one run of consecutive packed rows
    in its own order.  One evolve_block call covers every image of one
    (family, seed object, branch); the calls are split over the workers.
    The blow-up guard reads the images' norms, tier by tier in the given
    order, before the ball check of the whole block.  Returns the block,
    each tier's rows and the fixed rows.
    """
    fixed = [space.check_member(st) for st in fixed]
    sizes = [len(tier) for tier in tiers]
    n_images = sum(sizes)
    ends = np.cumsum(sizes[::-1])[::-1]
    tier_rows = [np.arange(end - size, end) for size, end in zip(sizes, ends)]
    fixed_rows = np.arange(n_images, n_images + len(fixed))
    # ids of (family, seed, branch) -> (family, seed, branch, [(s, t, packed row)])
    jobs: dict[tuple, tuple] = {}
    for rows, tier in zip(tier_rows, tiers):
        for row, (fam, _, b, x, s, t) in zip(rows, tier):
            jobs.setdefault((id(fam), id(x), b), (fam, x, b, []))[3].append((s, t, row))

    def evolve(job):
        fam, x, b, images = job
        return fam.evolve_block(x, [s for s, _, _ in images],
                                [t for _, t, _ in images], branch=b)

    jobs = list(jobs.values())
    groups = parallel_map(evolve, jobs, workers=workers)
    runs = [([row for _, _, row in job[3]], g) for job, g in zip(jobs, groups)]
    runs.append((fixed_rows, [(st.idx, st.val[None]) for st in fixed]))
    packed = pack_groups(space, n_images + len(fixed), runs)
    cap = space.ball_radius
    if cap is not None:
        for rows, tier in zip(tier_rows, tiers):
            over = np.flatnonzero(packed.norms[rows] > 10.0 * cap)
            if over.size:
                _, i, b, _, _, t = tier[over[0]]
                raise BlowUpError(f"seed #{i} (branch {b}) blew up: |u({t})| = "
                                  f"{packed.norms[rows[over[0]]]:.3g} exceeds 10x "
                                  f"ball radius {cap:.3g}")
    packed.check_ball()
    return packed, tier_rows, fixed_rows


def _trajectory_norms(fam: TrajectoryFamily, seeds: Sequence[CoeffState], s: float,
                      grid: Sequence[float], workers: int = 1) -> np.ndarray:
    """|u(t)| of each seed's branch-0 trajectory from time s at every grid
    time t, one row per seed, read from one _tier_block."""
    tiers = [_image_tier(fam, seeds, s, t, "first") for t in grid]
    packed, tier_rows, _ = _tier_block(fam.space, tiers, workers)
    return np.stack([packed.norms[rows] for rows in tier_rows], axis=1)


def compose_check(fam: TrajectoryFamily, seeds: Sequence[CoeffState],
                  r: float, s: float, t: float) -> float:
    """Strong semidistance of P(t,r)A from P(t,s)P(s,r)A.

    The two-parameter family satisfies P(t,r)A inside P(t,s)P(s,r)A, so
    the value is solver noise for restriction-closed systems.  One block
    holds P(s,r)A and P(t,r)A as two tiers, so each seed and branch makes
    one run from r; the middle images come back as states, and a second
    block packs P(t,s)P(s,r)A beside P(t,r)A as fixed states.
    """
    if not (r <= s <= t):
        raise UsageError("compose_check needs r <= s <= t")
    packed, (mid_rows, one_rows), _ = _tier_block(
        fam.space, [_image_tier(fam, seeds, r, s), _image_tier(fam, seeds, r, t)], 1)
    mid = [packed.state(row) for row in mid_rows]
    one = [packed.state(row) for row in one_rows]
    packed, (two,), one = _tier_block(fam.space, [_image_tier(fam, mid, s, t)], 1, one)
    return packed.semidist(one, two, "strong")


# ---------------------------------------------------------------------------
# energy checks


@dataclass
class TrajectorySample:
    """A trajectory on a time grid, with optional energy functionals.

    norms[i] is the strong norm |u(times[i])|.  For dissipative balance
    checks the caller also supplies vnorm_sq (the dissipation quadratic
    form ||u||^2) and force_pair (the duality pairing <g(t), u(t)>).
    """

    times: np.ndarray
    norms: np.ndarray
    vnorm_sq: np.ndarray | None = None
    force_pair: np.ndarray | None = None

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=np.float64)
        self.norms = np.asarray(self.norms, dtype=np.float64)
        if self.times.ndim != 1 or self.times.size < 2:
            raise UsageError("trajectory sample needs at least two times")
        if np.any(np.diff(self.times) <= 0):
            raise UsageError("sample times must increase strictly")
        if self.norms.shape != self.times.shape:
            raise UsageError("norms must match times")


@dataclass
class EnergyCheckReport:
    grid_spacing: float
    n_majority_checks: int
    n_integral_checks: int
    violations: list[tuple]  # (t0, t, lhs, rhs, residual)
    max_residual: float
    verdict: str  # "holds" | "violated"
    eps_used: float = 1e-9
    delta_used: float = 0.5
    integral_tol_used: float = 1e-6


# (time, window slot) cells per block of the energy check's vote: 512 KB
# of residuals
_VOTE_CELLS = 1 << 16


def energy_inequality_check(traj: TrajectorySample, nu: float | None = None,
                            eps: float = 1e-9, delta: float = 0.5,
                            integral_tol: float = 1e-6) -> EnergyCheckReport:
    """Check the windowed norm inequality and, if data allows, the
    integral energy inequality.

    Majority part: for each grid time t, the bound |u(t)| <= |u(t0)| + eps
    must hold for at least 90% of the grid points t0 in
    the open window (t - delta, t).  Failing times contribute a violation
    row with their worst t0.

    Integral part (requires nu, vnorm_sq and force_pair): for every grid
    pair t0 <= t,

        |u(t)|^2 + 2 nu int_{t0}^{t} ||u||^2  <=
        |u(t0)|^2 + 2 int_{t0}^{t} <g, u>  + integral_tol

    with trapezoid quadrature.  The maximum signed residual over all
    pairs is reported; pairs above integral_tol become violations.
    """
    times, norms = traj.times, traj.norms
    vn, fp = traj.vnorm_sq, traj.force_pair

    h = float(np.max(np.diff(times)))
    if not h < delta / 4.0:
        raise UsageError(f"grid spacing {h:.3g} must be below delta/4 = {delta / 4:.3g}")

    # h < delta/4, so the window (t - delta, t) always holds times[i-1]
    n_major = times.size - 1
    lo = np.searchsorted(times, times - delta, side="right")
    length = np.arange(times.size) - lo
    width = int(length.max())
    # row i of `windows` is norms[j] + eps for j = i - width .. i - 1, padded
    # before times[0]; the window (t - delta, t) is its last length[i] slots
    windows = sliding_window_view(np.concatenate([np.zeros(width), norms + eps]), width)
    first = width - length
    peak = np.full(times.size, -np.inf)
    fails = np.zeros(times.size, dtype=bool)
    rows = max(1, _VOTE_CELLS // width)
    for s in range(1, times.size, rows):
        i = slice(s, min(s + rows, times.size))
        resid = np.subtract(norms[i, None], windows[i])
        resid[np.arange(width) < first[i, None]] = -np.inf
        peak[i] = resid.max(axis=1)
        held = np.count_nonzero(resid <= 0.0, axis=1) - first[i]  # less the -inf slots
        fails[i] = held / length[i] < 0.9
    max_resid = np.fmax.reduce(peak)  # skips NaN, as max() over the times did
    violations: list[tuple] = []
    for i in np.flatnonzero(fails):
        j = lo[i] + int(np.argmax(norms[i] - (norms[lo[i]:i] + eps)))
        violations.append((float(times[j]), float(times[i]), float(norms[i]),
                           float(norms[j] + eps), float(peak[i])))

    n_int = 0
    if nu is not None and vn is not None and fp is not None:
        # F(t) = |u|^2 + 2 nu C(t) - 2 D(t); residual(t0,t) = F(t) - F(t0)
        dt = np.diff(times)
        cum_v = np.concatenate([[0.0], np.cumsum(0.5 * dt * (vn[1:] + vn[:-1]))])
        cum_f = np.concatenate([[0.0], np.cumsum(0.5 * dt * (fp[1:] + fp[:-1]))])
        f_series = norms ** 2 + 2.0 * nu * cum_v - 2.0 * cum_f
        run_min = np.minimum.accumulate(f_series)
        resid_series = f_series - run_min
        n_int = times.size
        worst = float(resid_series.max())
        max_resid = max(max_resid, worst)
        if worst > integral_tol:
            i = int(np.argmax(resid_series))
            j = int(np.argmin(f_series[: i + 1]))
            violations.append((float(times[j]), float(times[i]),
                               float(f_series[i]), float(f_series[j] + integral_tol),
                               worst))

    verdict = "holds" if not violations else "violated"
    if not np.isfinite(max_resid):
        max_resid = 0.0
    return EnergyCheckReport(h, n_major, n_int, violations, float(max_resid),
                             verdict, float(eps), float(delta), float(integral_tol))


# ---------------------------------------------------------------------------
# continuity of evolution under weak seed convergence


@dataclass
class WeakConvergenceReport:
    weak_sups: list[float]  # sup over the grid, one per non-limit seed
    weak_sup_last: float
    strong_fraction: float
    grid: np.ndarray


def weak_c_convergence_check(fam: TrajectoryFamily, seeds: Sequence[CoeffState],
                             s: float, horizon: float,
                             grid_n: int = 33) -> WeakConvergenceReport:
    """Evolve a seed sequence x_1, ..., x_m, x_limit from time s on branch 0.

    The last seed is the limit.  Reports, per non-limit seed, the sup of
    weak_dist(u_n(tau), u(tau)) over the grid on [s, s+horizon], and the
    fraction of grid times where the strong distance also converged
    (final distance at most half the initial one, or at most 1e-9).
    """
    seeds = list(seeds)
    if len(seeds) < 2:
        raise UsageError("need at least one converging seed plus the limit")
    if grid_n < 2:
        raise UsageError("the evolution grid needs at least two times")
    grid = np.linspace(s, s + horizon, grid_n)
    tiers = [[(fam, i, 0, x, s, tau) for i, x in enumerate(seeds)]
             for tau in grid]
    packed, tier_rows, _ = _tier_block(fam.space, tiers, 1)
    # d[metric][k, n]: distance at grid time k from seed n's image to the limit's
    d = {metric: np.stack([packed.cross(rows[:-1], rows[-1:], metric)[:, 0]
                           for rows in tier_rows])
         for metric in ("weak", "strong")}
    weak_sups = [float(v) for v in d["weak"].max(axis=0)]
    strong_first, strong_last = d["strong"][:, 0], d["strong"][:, -1]
    converged = strong_last <= np.maximum(1e-9, 0.5 * strong_first)
    return WeakConvergenceReport(weak_sups, weak_sups[-1],
                                 float(converged.mean()), grid)
