"""Pullback omega-limit approximation and the attractor diagnostics.

The pullback omega-limit of a seed set A at evaluation time t is
approximated from a finite schedule of start times s_1 > s_2 > ...
reaching ever deeper into the past.  Each tier contributes the image
P(t, s_i) A of a finite seed ensemble; the images are packed deepest
tier first, so each tier is one run of consecutive rows, and thinned in
that order to a greedy epsilon net; a candidate drawn from tier j
survives when it lies within eps_net of some member of every strictly
deeper tier's image and is supported by at least two tiers overall
(single-depth visitors are escaping noise).  The attraction profile
records, per tier, how far the tier's image sits from the surviving
points, and the run is declared converged when the profile ends at or
below tol and is non-increasing over its last third.  When nothing
survives, the profile instead records each tier's drift from the
shallowest image and the note says so.

The net, the survival filter and the profile compute only the distances
that can change their answer.  The net compares each kept row only with
the rows still live (farther than eps_net from every kept row so far),
and records each other row's pivot: the first kept row within eps_net of
it, and their distance.  The survival filter tests a candidate's deeper
tiers deepest first, where a point that is no limit point sits farthest
off; it bounds the candidate's distance to each tier row through that
row's pivot (the triangle inequality, as in LAESA) and measures only the
rows whose bound, widened by a margin far above rounding, reaches the
survival cap; see _net_and_survive.  The profile reads a row's distance
to its pivot back from the net when the pivot survived and the same
bound shows no other survivor nearer; see _survivor_profile.  A distance
depends only on its two rows, however scattered and on whichever side,
so rules, ties, profiles and verdicts are those of the full comparison,
bit for bit.

Every image is packed straight from its seed by evolution._tier_block,
so no state object is made per image; only surviving omega points become
states.  Forward ladders evolve each trajectory once over all horizons.
Each diagnostic below that evolves an ensemble reads all of its
distances from one such block, with the states it measures against (a
target, the sets B(t), samples of complete trajectories) packed after
the images; minimality packs its two given sets once.

Diagnostics built on the same ensembles:

* attraction_diagnostic -- does P(t, s_i)A approach a given target set
* minimality_check      -- a candidate attractor contains the computed
                           omega points and carries no stray excess
* pac_check             -- pullback asymptotic compactness vote on
                           sampled trajectories plus the system's own
                           adversarial sequence when it registers one
* invariance_check      -- semi / quasi / full invariance of a given
                           family of sets over a time window
* tracking_check        -- trajectories started deep in the past are
                           matched by registered complete trajectories
* forward_omega         -- the forward-time analogue for autonomous
                           systems, sharing the net and survival rules
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import UnsupportedError, UsageError
from .evolution import TrajectoryFamily, _image_tier, _tier_block, _trajectories
from .space import (CoeffState, NetPivots, PackedSet, net_rows, pack_states,
                    state_to_json)
from .util import csv_text, fmt_float, report_json

# the longest start-time or horizon ladder a schedule may ask for; refused
# before its list is built, as rho near 1 keeps rho**n finite at any n
MAX_TIERS = 10_000


# ---------------------------------------------------------------------------
# schedules


@dataclass(frozen=True)
class PullbackSchedule:
    """Evaluation time plus a strictly decreasing ladder of start times."""

    t: float
    starts: tuple[float, ...]

    def __post_init__(self):
        if len(self.starts) < 3:
            raise UsageError("schedule needs at least three start times")
        arr = np.asarray(self.starts, dtype=np.float64)
        if not (math.isfinite(self.t) and np.all(np.isfinite(arr))):
            raise UsageError("the evaluation and start times must be finite")
        if np.any(np.diff(arr) >= 0):
            raise UsageError("start times must decrease strictly")
        if arr[0] > self.t:
            raise UsageError("the shallowest start must not exceed t")

    @classmethod
    def geometric(cls, t: float, delta: float = 1.0, rho: float = 1.6,
                  n: int = 16) -> "PullbackSchedule":
        """Start times t - delta * rho**i for i = 1..n."""
        if delta <= 0 or rho <= 1:
            raise UsageError("need delta > 0 and rho > 1")
        return cls(float(t),
                   tuple(float(t) - d for d in _geometric_steps(delta, rho, n)))

    def depths(self) -> np.ndarray:
        return self.t - np.asarray(self.starts)


def _geometric_steps(delta: float, rho: float, n: int) -> list[float]:
    """delta * rho**i for i = 1..n, growing with i as rho > 1; a UsageError
    when the last one overflows or n exceeds MAX_TIERS."""
    try:
        last = delta * rho ** n
    except OverflowError:
        last = math.inf
    if not math.isfinite(last):
        raise UsageError(f"delta * rho**i overflows for i <= {n}")
    if n > MAX_TIERS:
        raise UsageError(f"a schedule has at most {MAX_TIERS} tiers, not {n}")
    return [delta * rho ** i for i in range(1, n + 1)]


def _tier_seeds(fam: TrajectoryFamily, seeds, labels, n_seeds: int,
                rng: np.random.Generator | None, t: float,
                starts: Sequence[float]) -> list[list[CoeffState]]:
    """One seed list per start time.

    A fixed seed collection is reused verbatim at every depth, and a
    callable s -> seed list gives depth-dependent seeds.  With labels
    (given, or drawn once from the family), seed_for pins each label to
    the same trajectory regardless of how deep the start sits.
    """
    if callable(seeds):
        return [list(seeds(s)) for s in starts]
    if seeds is not None:
        seeds = list(seeds)
        if not seeds:
            raise UsageError("empty seed collection")
        return [seeds for _ in starts]
    if labels is None:
        rng = rng if rng is not None else np.random.default_rng(0)
        labels = fam.seed_labels(n_seeds, rng)
    labels = list(labels)
    if not labels:
        raise UsageError("empty label collection")
    return [[fam.seed_for(lab, s, t) for lab in labels] for s in starts]


# ---------------------------------------------------------------------------
# omega approximation


@dataclass
class OmegaApprox:
    """Finite approximation of a pullback omega-limit set at one time."""

    system: str
    t: float
    metric: str
    eps_net: float
    tol: float
    points: list[CoeffState]
    profile: list[tuple[float, float]]  # (start time, semidist of tier image)
    converged: bool
    note: str = ""

    def profile_values(self) -> np.ndarray:
        return np.array([d for _, d in self.profile])

    def to_json(self) -> str:
        return report_json("omega", self,
                           points=[state_to_json(p) for p in self.points])

    def profile_csv(self) -> str:
        return _profile_csv(self.profile, self.metric, self.system,
                            fmt_float(self.t))


def _profile_csv(profile, metric: str, system_id: str, t_cell: str) -> str:
    """One CSV row per profile entry; t_cell fills the last column."""
    return csv_text(("s", "semidist", "metric", "system", "t"),
                    [(s, d, metric, system_id, t_cell) for s, d in profile])


def _profile_converged(values: np.ndarray, tol: float) -> bool:
    if values.size == 0 or not np.isfinite(values[-1]) or values[-1] > tol:
        return False
    k = max(2, values.size // 3)
    tail = values[-k:]
    slack = max(0.1 * tol, 1e-12)
    return bool(np.all(np.diff(tail) <= slack))


def _net_and_survive(packed: PackedSet, tier_rows: list[np.ndarray],
                     eps_net: float, metric: str,
                     pivots: NetPivots | None = None) -> list[int]:
    """Greedy net over all tiers, deepest first, then the survival filter.

    A netted candidate from tier j must come within eps_net of every
    strictly deeper tier's image, and must be eps_net-supported by at
    least two tiers in total.  The second clause is what lets the
    surviving set be empty: a point visited at a single depth only
    (the escaping-trajectory signature) is noise, not a limit point.

    "Within" means a computed distance of at most cap = eps_net + 1e-12.
    The net pass leaves every tier row b with a pivot p (a net point) and
    d(b, p), and every net-to-net distance, so the triangle inequality
    bounds d(r, b) >= |d(r, p) - d(b, p)| for a candidate r at no cost
    (LAESA).  Only the rows whose bound is at most cap + _pivot_margin are
    measured; a tier with none left is certainly too far.  A tier holding
    a row whose pivot is r itself needs no measure: the net found that
    row within eps_net of r.

    A candidate's deeper tiers are tested deepest first, and its support
    clause from the next-deepest tier down.  The deepest tier sits nearest
    the limit set, so a candidate that is no limit point is usually
    farthest from it, and the bound drops all of that tier's rows: most
    rejections cost no kernel call.  The test of one tier has no side
    effect, so all and any see the same answers in any order and the
    survivors are those of the rule above.  When pivots is given, it is
    filled as net_rows fills it, for the visiting order
    np.concatenate(tier_rows[::-1]); _survivor_profile reads it back for
    the attraction profile under the same margin.
    """
    n_tiers = len(tier_rows)
    piv = pivots if pivots is not None else NetPivots()
    net = net_rows(packed, np.concatenate(tier_rows[::-1]), eps_net, metric, piv)
    tier_of = np.empty(packed.n_states, dtype=np.int64)
    for j, rows in enumerate(tier_rows):
        tier_of[rows] = j
    pivot, to_pivot = _pivots_by_row(packed, tier_rows, piv)
    cap = eps_net + 1e-12
    reach = cap + _pivot_margin(packed, piv, cap)

    def near(a: int, j: int) -> bool:
        """Net point a lies within cap of some row of tier j."""
        rows = np.asarray(tier_rows[j])
        if np.any(pivot[rows] == a):  # the net measured one within eps_net
            return True
        rows = rows[np.abs(piv.kept[a, pivot[rows]] - to_pivot[rows]) <= reach]
        return bool(rows.size) and packed.cross([net[a]], rows, metric).min() <= cap

    survivors = []
    for a, row in enumerate(net):
        src = int(tier_of[row])
        ok = all(near(a, j) for j in range(n_tiers - 1, src, -1))
        if ok and src == n_tiers - 1:
            ok = any(near(a, j) for j in range(n_tiers - 2, -1, -1))
        if ok:
            survivors.append(row)
    return survivors


def _pivots_by_row(packed: PackedSet, tier_rows, piv: NetPivots):
    """Each packed row's pivot (its place in the net) and its distance to
    it, from a net that visited the tiers deepest first."""
    order = np.concatenate(tier_rows[::-1])
    pivot = np.empty(packed.n_states, dtype=np.int64)
    to_pivot = np.empty(packed.n_states, dtype=np.float64)
    pivot[order], to_pivot[order] = piv.pivot, piv.dist
    return pivot, to_pivot


def _pivot_margin(packed: PackedSet, piv: NetPivots, cap: float) -> float:
    """How far a pivot lower bound must clear a threshold to decide a test.

    Each computed distance d^ is d (1 + theta) with |theta| <= g =
    (u + c + 8) 2^-53 for u index slots of c components: every term of the
    kernels' sums is nonnegative and carries at most c + 8 roundings.
    With M the largest of 1, cap and the net's distances, a bound
    |d^(r, p) - d^(b, p)| that exceeds x + margin gives a true d(r, b) >
    x + margin - 2 g M, so a computed d^(r, b) > x for every x <= M: the
    margin, max(1e-9, 4e-16 (u + c + 8)) M, is above 3 g M.  Survival
    takes x = cap, the profile x = d^(r, p).
    """
    _, u, c = packed.vals.shape
    return max(1e-9, 4e-16 * (u + c + 8)) * max(
        1.0, cap, piv.kept.max(initial=0.0), piv.dist.max(initial=0.0))


def _survivor_profile(packed: PackedSet, tier_rows, survivors: list[int],
                      piv: NetPivots, eps_net: float, metric: str) -> list[float]:
    """packed.semidist(rows, survivors) for each tier, bit for bit.

    A row r whose pivot is a survivor s has d(r, s) from the net pass.
    That is r's distance to the nearest survivor when the pivot bound
    |d(k, s) - d(r, s)| exceeds d(r, s) + _pivot_margin for every other
    survivor k; only the other rows are measured, in one cross call per
    tier.  The net measured d(s, r), which has the bits of d(r, s).
    """
    keep = np.asarray(survivors)
    pivot, to_pivot = _pivots_by_row(packed, tier_rows, piv)
    places = pivot[keep]  # a net point is its own pivot
    margin = _pivot_margin(packed, piv, eps_net + 1e-12)
    to_pivots = piv.kept[places]  # (survivors, net points)
    vals = []
    for rows in tier_rows:
        rows = np.asarray(rows)
        p, d = pivot[rows], to_pivot[rows]
        own = places[:, None] == p
        clear = own | (np.abs(to_pivots[:, p] - d) > d + margin)
        known = own.any(axis=0) & clear.all(axis=0)
        worst = d[known].max(initial=0.0)
        if not known.all():
            worst = max(worst, packed.cross(rows[~known], keep, metric).min(axis=1).max())
        vals.append(float(worst))
    return vals


def _check_omega_args(metric: str, eps_net: float, tol: float) -> None:
    if metric not in ("strong", "weak"):
        raise UsageError(f"unknown metric {metric!r}")
    if eps_net <= 0 or tol <= 0:
        raise UsageError("eps_net and tol must be positive")


def _omega_from_tiers(system_id: str, packed: PackedSet, tier_rows, tick_values,
                      t_report: float, metric: str, eps_net: float,
                      tol: float, note: str) -> OmegaApprox:
    # deepest tier first: the net visits rows 0..N-1 in storage order
    piv = NetPivots()
    survivors = _net_and_survive(packed, tier_rows, eps_net, metric, piv)

    if survivors:
        vals = _survivor_profile(packed, tier_rows, survivors, piv, eps_net, metric)
        points = [packed.state(r) for r in survivors]
    else:
        # nothing persisted across depths; report each tier's drift from
        # the shallowest image so escaping dynamics show up as divergence
        vals = [packed.semidist(rows, tier_rows[0], metric)
                for rows in tier_rows]
        points = []
        note = (note + "; " if note else "") + "no convergence at this depth"
    profile = [(float(s), float(d)) for s, d in zip(tick_values, vals)]
    converged = bool(survivors) and _profile_converged(np.asarray(vals), tol)
    return OmegaApprox(system_id, float(t_report), metric, float(eps_net),
                       float(tol), points, profile, converged, note)


def omega_pullback(fam: TrajectoryFamily, schedule: PullbackSchedule,
                   seeds: Sequence[CoeffState] | None = None,
                   labels: Sequence | None = None,
                   n_seeds: int = 24, metric: str = "weak",
                   eps_net: float = 0.05, tol: float = 1e-3,
                   rng: np.random.Generator | None = None,
                   branches: str = "all", workers: int = 1,
                   note: str = "") -> OmegaApprox:
    """Approximate the pullback omega-limit of a seed family at time t.

    Candidates are the union of the tier images P(t, s_i)A, visited
    deepest tier first and thinned by a greedy eps_net net in the chosen
    metric; survival and the convergence flag follow the rules in the
    module docstring.  Seeds may be a fixed state list; otherwise labels
    (given or freshly drawn) are anchored through fam.seed_for per tier.
    An empty surviving set is reported in the note, not raised.
    """
    _check_omega_args(metric, eps_net, tol)
    t, starts = schedule.t, schedule.starts
    tier_seed_lists = _tier_seeds(fam, seeds, labels, n_seeds, rng, t, starts)
    tiers = [_image_tier(fam, tier_seed, s, t, branches)
             for s, tier_seed in zip(starts, tier_seed_lists)]
    packed, tier_rows, _ = _tier_block(fam.space, tiers, workers)
    return _omega_from_tiers(fam.system_id, packed, tier_rows, starts,
                             t, metric, eps_net, tol, note)


def forward_omega(fam: TrajectoryFamily, t0: float,
                  seeds: Sequence[CoeffState], delta: float = 1.0,
                  rho: float = 1.6, n: int = 10, metric: str = "weak",
                  eps_net: float = 0.05, tol: float = 1e-3,
                  branches: str = "all", workers: int = 1) -> OmegaApprox:
    """Forward-time omega approximation for autonomous systems.

    Images are taken at horizons t0 + delta * rho**i for i = 1..n from a
    fixed seed set; the net, survival and convergence rules match
    omega_pullback with 'deepest' meaning the farthest horizon.  Profile
    rows carry the horizon times.
    """
    if not fam.autonomous:
        raise UsageError("forward omega limits need an autonomous system")
    return _forward_omega([fam], fam.system_id, t0, seeds, delta, rho, n,
                          metric, eps_net, tol, branches, workers)


def _forward_omega(systems: Sequence[TrajectoryFamily], system_id: str,
                   t0: float, seeds: Sequence[CoeffState], delta: float,
                   rho: float, n: int, metric: str, eps_net: float, tol: float,
                   branches: str, workers: int) -> OmegaApprox:
    """Forward omega over horizons t0 + delta * rho**i, i = 1..n.

    Tier i is the union of every system's image of the fixed seed set at
    horizon i, in (system, seed, branch) order.  Each trajectory is
    evolved once and sampled at every horizon.  All arguments are checked
    before any integration starts.
    """
    _check_omega_args(metric, eps_net, tol)
    if delta <= 0 or rho <= 1 or n < 3:
        raise UsageError("need delta > 0, rho > 1 and at least three horizons")
    seeds = list(seeds)
    if not seeds:
        raise UsageError("empty seed collection")
    horizons = [t0 + d for d in _geometric_steps(delta, rho, n)]
    if not math.isfinite(horizons[-1]):
        raise UsageError("the forward horizons must be finite")
    if np.any(np.diff([t0, *horizons]) <= 0):
        raise UsageError("the forward horizons must increase strictly past t0")
    trajs = [(fam, i, b, x) for fam in systems
             for i, b, x in _trajectories(fam, seeds, t0, branches)]
    tiers = [[(fam, i, b, x, t0, h) for fam, i, b, x in trajs] for h in horizons]
    packed, tier_rows, _ = _tier_block(systems[0].space, tiers, workers)
    return _omega_from_tiers(system_id, packed, tier_rows, horizons,
                             horizons[-1], metric, eps_net, tol, "")


# ---------------------------------------------------------------------------
# attraction


@dataclass
class AttractionReport:
    system: str
    metric: str
    tol: float
    profile: list[tuple[float, float]]
    verdict: str  # "attracts" | "fails" | "inconclusive"

    @classmethod
    def from_profile(cls, system: str, metric: str, tol: float,
                     profile: list[tuple[float, float]]) -> "AttractionReport":
        """The report with the verdict rule of attraction_diagnostic applied."""
        vals = np.array([d for _, d in profile])
        third = vals[-max(2, vals.size // 3):]
        half = vals[-max(2, vals.size // 2):]
        slack = max(0.1 * tol, 1e-12)
        if np.all(third <= tol) and np.all(np.diff(third) <= slack):
            verdict = "attracts"
        elif np.all(half >= 2.0 * tol):
            verdict = "fails"
        else:
            verdict = "inconclusive"
        return cls(system, metric, float(tol), profile, verdict)

    def to_json(self) -> str:
        return report_json("attraction", self)

    def profile_csv(self) -> str:
        return _profile_csv(self.profile, self.metric, self.system, "")


def attraction_diagnostic(fam: TrajectoryFamily, schedule: PullbackSchedule,
                          target: Sequence[CoeffState],
                          seeds=None, labels: Sequence | None = None,
                          n_seeds: int = 16,
                          metric: str = "weak", tol: float = 1e-3,
                          rng: np.random.Generator | None = None,
                          branches: str = "all",
                          workers: int = 1) -> AttractionReport:
    """Measure whether P(t, s_i) A approaches a given target set.

    seeds may be a fixed state collection, a callable s -> list of seeds
    for depth-dependent witnesses, or None for anchored sampled labels.
    Verdicts: 'attracts' when the whole last third of the profile sits
    at or below tol with a non-increasing trend, 'fails' when the whole
    last half stays at or above 2 tol, and 'inconclusive' otherwise.
    """
    target = list(target)
    if not target:
        raise UsageError("empty target set")
    t, starts = schedule.t, schedule.starts
    tier_seed_lists = _tier_seeds(fam, seeds, labels, n_seeds, rng, t, starts)
    tiers = [_image_tier(fam, tier_seed, s, t, branches)
             for s, tier_seed in zip(starts, tier_seed_lists)]
    packed, tier_rows, target_rows = _tier_block(fam.space, tiers, workers, target)
    profile = [(float(s), packed.semidist(rows, target_rows, metric))
               for s, rows in zip(starts, tier_rows)]
    return AttractionReport.from_profile(fam.system_id, metric, tol, profile)


# ---------------------------------------------------------------------------
# minimality


@dataclass
class MinimalityReport:
    contained: bool
    containment_gap: float
    excess_indices: list[int]
    max_excess: float
    verdict: str  # "minimal" | "not-containing" | "excess-points"


def minimality_check(fam: TrajectoryFamily, candidate: Sequence[CoeffState],
                     omega: OmegaApprox) -> MinimalityReport:
    """Check a candidate attractor against the computed omega points, in
    the omega's own metric.

    Containment: every omega point lies within omega.tol + omega.eps_net
    of the candidate (the omega set is the minimal attracting family, so
    anything attracting must contain it).  Excess: candidate points
    farther than 2 eps_net from the omega points are flagged as
    non-minimal surplus.
    """
    candidate = list(candidate)
    if not candidate:
        raise UsageError("empty candidate set")
    if not omega.points:
        raise UsageError("minimality against an empty omega approximation")
    packed = pack_states(fam.space, candidate + omega.points)
    cand_rows = np.arange(len(candidate))
    point_rows = np.arange(len(candidate), packed.n_states)
    d = packed.cross(cand_rows, point_rows, omega.metric)
    gap, per_point = d.min(axis=0).max(), d.min(axis=1)
    excess = [int(i) for i in np.nonzero(per_point > 2.0 * omega.eps_net)[0]]
    contained = gap <= omega.tol + omega.eps_net
    if contained and not excess:
        verdict = "minimal"
    elif not contained:
        verdict = "not-containing"
    else:
        verdict = "excess-points"
    return MinimalityReport(contained, float(gap), excess,
                            float(per_point.max()), verdict)


# ---------------------------------------------------------------------------
# pullback asymptotic compactness


@dataclass
class PACSequenceReport:
    kind: str  # "sampled" | "adversarial"
    best_cluster: int
    cluster_min: int
    min_tail_separation: float
    separated_2tol: bool
    cauchy: bool


@dataclass
class PACReport:
    system: str
    tol: float
    sequences: list[PACSequenceReport]
    verdict: str  # "PAC-consistent" | "PAC-violated"

    def to_json(self) -> str:
        return report_json("pac", self,
                           sequences=[asdict(r) for r in self.sequences])


def _cluster_stats(packed: PackedSet, rows, tol: float) -> tuple[int, float]:
    """Best tol-cluster size and minimum deep-tail separation of one
    sequence, whose points are the packed rows in sequence order."""
    n = len(rows)
    d = packed.cross(rows, rows, "strong")
    best = 1
    for a in range(n):
        best = max(best, int(np.sum(d[a, a:] <= tol)))
    tail = np.arange(10 if n > 11 else n // 2, n)
    if tail.size >= 2:
        sub = d[np.ix_(tail, tail)]
        min_sep = float(np.min(sub[np.triu_indices(tail.size, k=1)]))
    else:
        min_sep = math.inf
    return best, min_sep


def pac_check(fam: TrajectoryFamily, schedule: PullbackSchedule,
              tol: float = 0.4, sample_size: int = 10,
              rng: np.random.Generator | None = None,
              include_adversarial: bool = True,
              workers: int = 1) -> PACReport:
    """Pullback asymptotic compactness vote in the strong metric.

    Each sampled sequence takes one anchored seed label and collects
    u_i = P(t, s_i) x_i across the schedule; the system's registered
    adversarial sequence joins when present.  A sequence passes when
    some anchor point has at least cluster_min = max(3, ceil(n / 3)) later
    points within tol of it, n being the schedule length (a Cauchy
    cluster at that resolution).  The verdict is
    PAC-consistent only if every sequence passes.  The minimum pairwise
    separation over the deep indices is reported per sequence, with a
    flag for full 2-tol separation (the clean violation certificate).
    """
    if sample_size < 10:
        raise UsageError("need at least 10 sampled sequences")
    t, starts = schedule.t, schedule.starts
    n = len(starts)
    cluster_min = max(3, math.ceil(n * (1.0 / 3.0)))
    tier_seeds = _tier_seeds(fam, None, None, sample_size, rng, t, starts)
    adv = list((fam.adversarial_sequence(t, starts) if include_adversarial
                else None) or [])
    for tier_seed, x in zip(tier_seeds, adv):
        tier_seed.append(x)
    tiers = [_image_tier(fam, tier_seed, s, t, "first")
             for s, tier_seed in zip(starts, tier_seeds)]
    packed, tier_rows, _ = _tier_block(fam.space, tiers, workers)
    # branch "first": seed k of every tier is row k of that tier
    sequences = [("sampled", [rows[k] for rows in tier_rows])
                 for k in range(sample_size)]
    if adv:
        sequences.append(("adversarial", [rows[-1] for rows in tier_rows[:len(adv)]]))

    reports = []
    for kind, rows in sequences:
        best, min_sep = _cluster_stats(packed, rows, tol)
        reports.append(PACSequenceReport(kind, best, cluster_min, min_sep,
                                         min_sep >= 2.0 * tol,
                                         best >= cluster_min))
    verdict = ("PAC-consistent" if all(r.cauchy for r in reports)
               else "PAC-violated")
    return PACReport(fam.system_id, float(tol), reports, verdict)


# ---------------------------------------------------------------------------
# invariance of a family of sets


@dataclass
class InvarianceReport:
    system: str
    check: str  # "semi" | "quasi" | "full"
    metric: str
    times: list[float]
    semi_dev: list[float]
    quasi_unmatched: int
    tol: float
    verdict: str  # "invariant" | "semi-invariant" | "quasi-invariant"
    #             # | "fails" | "inconclusive"

    def to_json(self) -> str:
        return report_json("invariance", self)


#: the verdict of an invariance check of each kind that succeeds
INVARIANT_VERDICTS = {"semi": "semi-invariant", "quasi": "quasi-invariant",
                      "full": "invariant"}


def invariance_check(fam: TrajectoryFamily,
                     set_family: Callable[[float], Sequence[CoeffState]],
                     kind: str = "full",
                     window: tuple[float, float] = (0.0, 2.0),
                     grid_n: int = 5, metric: str = "weak", tol: float = 0.05,
                     pull_depth: float = 40.0, budget: int = 24,
                     labels: Sequence | None = None,
                     rng: np.random.Generator | None = None,
                     workers: int = 1) -> InvarianceReport:
    """Invariance of a family of sets B(t) over a sampled window.

    semi: for consecutive grid times s < t, the forward image of B(s)
    must sit within tol of B(t) (semidist, per step).

    quasi: every b in B(t) must be approached by some deep-pullback
    ensemble member that also stays within tol of B(s) at every sampled
    s between the window start and t.  The ensemble is evolved from
    window_start - pull_depth using `budget` anchored labels; an
    unmatched b renders the quasi side inconclusive, never a failure
    (sampling cannot prove the absence of a threading trajectory).

    full: both sides; verdict 'invariant' when both pass.
    """
    if kind not in ("semi", "quasi", "full"):
        raise UsageError("kind must be semi, quasi or full")
    if grid_n < 2:
        raise UsageError("invariance needs at least two grid times")
    lo, hi = window
    if hi <= lo:
        raise UsageError("empty invariance window")
    times = [lo + (hi - lo) * k / (grid_n - 1) for k in range(grid_n)]
    sets = [list(set_family(tau)) for tau in times]
    for tau, b in zip(times, sets):
        if not b:
            raise UsageError(f"set family is empty at t={tau}")

    semi, quasi = kind in ("semi", "full"), kind in ("quasi", "full")
    # semi tiers: the image of B(t_k) at t_{k+1}; quasi tiers: the deep
    # ensemble at each grid time.  The sets B(t_k) are the fixed rows.
    tiers = []
    if semi:
        tiers += [_image_tier(fam, sets[k], times[k], times[k + 1])
                  for k in range(grid_n - 1)]
    if quasi:
        s_deep = lo - pull_depth
        seeds = _tier_seeds(fam, None, labels, budget, rng, times[-1],
                            [s_deep])[0]
        tiers += [_image_tier(fam, seeds, s_deep, tau) for tau in times]
    packed, tier_rows, fixed_rows = _tier_block(
        fam.space, tiers, workers, [st for b_set in sets for st in b_set])
    set_rows = np.split(fixed_rows, np.cumsum([len(b_set) for b_set in sets])[:-1])

    semi_dev = [packed.semidist(rows, set_rows[k + 1], metric)
                for k, rows in enumerate(tier_rows[:grid_n - 1])] if semi else []
    semi_ok = not semi or max(semi_dev) <= tol

    quasi_unmatched = 0
    quasi_ok = True
    if quasi:
        # stayed[r]: trajectory r came within tol of every earlier set
        stayed = np.ones(len(tier_rows[-1]), dtype=bool)
        for rows, b_rows in zip(tier_rows[-grid_n:], set_rows):
            near = packed.cross(rows, b_rows, metric) <= tol
            quasi_unmatched += int(np.sum(~(near & stayed[:, None]).any(axis=0)))
            stayed &= near.any(axis=1)
        quasi_ok = quasi_unmatched == 0

    verdict = ("fails" if not semi_ok
               else INVARIANT_VERDICTS[kind] if quasi_ok else "inconclusive")
    return InvarianceReport(fam.system_id, kind, metric,
                            [float(x) for x in times],
                            [float(x) for x in semi_dev],
                            quasi_unmatched, float(tol), verdict)


# ---------------------------------------------------------------------------
# tracking by complete trajectories


@dataclass
class TrackingReport:
    system: str
    eps: float
    horizon: float
    deep_starts: list[float]
    weak_sups: list[float]   # per started trajectory: best weak sup match
    strong_sups: list[float] | None
    verdict: str  # "holds" | "fails"

    def to_json(self) -> str:
        return report_json("tracking", self)


def tracking_check(fam: TrajectoryFamily, schedule: PullbackSchedule,
                   horizon: float = 2.0, eps: float = 5e-2,
                   seeds=None, count: int = 3, grid_n: int = 9,
                   n_complete: int = 8, strong: bool = False,
                   rng: np.random.Generator | None = None,
                   workers: int = 1,
                   deep_tiers: int = 2) -> TrackingReport:
    """Trajectories started deep in the past are eps-tracked by some
    registered complete trajectory.

    For each of the schedule's deep_tiers deepest start times s', test
    trajectories run on a grid over [s', s' + horizon]; each must have a
    complete trajectory within eps in the weak sup metric there.  With
    strong=True (for systems whose compactness certificate licenses it)
    the same matching is also required pointwise in the strong metric.
    seeds: fixed list, or a callable s' -> seed list, or None to use the
    family's canonical sampler.  grid_n must be at least 2, deep_tiers
    between 1 and the schedule length, and every started set non-empty.
    """
    if grid_n < 2:
        raise UsageError("tracking needs at least two grid times")
    if not 1 <= deep_tiers <= len(schedule.starts):
        raise UsageError(f"deep_tiers must lie in [1, {len(schedule.starts)}]")
    rng = rng if rng is not None else np.random.default_rng(0)
    trajs = fam.complete_trajectories(n_complete, rng)
    if not trajs:
        raise UnsupportedError(
            f"system {fam.system_id!r} registers no complete trajectories")
    deep_starts = list(schedule.starts[-deep_tiers:])
    # one tier per (deep start, grid time): the started trajectories there;
    # the fixed rows hold every complete trajectory at each such time
    tiers, complete = [], []
    for s_deep in deep_starts:
        if callable(seeds):
            started = list(seeds(s_deep))
        elif seeds is not None:
            started = list(seeds)
        else:
            started = fam.sample_states(count, rng)
        grid = [s_deep + horizon * k / (grid_n - 1) for k in range(grid_n)]
        tiers += [_image_tier(fam, started, s_deep, tau) for tau in grid]
        complete += [v(tau) for tau in grid for v in trajs]
    packed, tier_rows, fixed_rows = _tier_block(fam.space, tiers, workers, complete)
    nc = len(trajs)
    sups = {}
    for metric in ("weak", "strong") if strong else ("weak",):
        # d[q][r, j]: distance in tier q from started trajectory r to complete
        # trajectory j; each run of grid_n tiers is one deep start's grid
        d = [packed.cross(rows, fixed_rows[q * nc:(q + 1) * nc], metric)
             for q, rows in enumerate(tier_rows)]
        sups[metric] = [float(v) for q0 in range(0, len(d), grid_n)
                        for v in np.max(d[q0:q0 + grid_n], axis=0).min(axis=1)]
    ok = all(max(v) <= eps for v in sups.values())
    return TrackingReport(fam.system_id, float(eps), float(horizon),
                          [float(s) for s in deep_starts], sups["weak"],
                          sups.get("strong"), "holds" if ok else "fails")
