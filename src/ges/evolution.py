"""Evolution primitives shared by every model system.

A TrajectoryFamily hands out solution samples per start time, possibly
several per seed (branch_count > 1 for genuinely multivalued systems).
The pullback image operator

    P(t, s) A = { u(t) : u a trajectory from time s with u(s) in A }

is approximated by evolving a finite seed ensemble through every branch.
Ensembles that end as states go through one step, _evolve_seeds, which
samples each trajectory at a list of times under the blow-up guard;
pullback_image is that step at a single time.  Omega ladders instead ask
a family for evolve_block: every image of one seed as values ready for
packing, which a family with a closed-form multiplier computes in one
broadcast.  Families also expose phase-space seed
sampling keyed by labels: a label fixes one trajectory relative to the
evaluation time, so ensembles drawn at different pullback depths sample
the same bundle of trajectories.

Checks in this module:

* compose_check        -- two-leg versus one-leg evolution agreement
* energy_inequality_check -- windowed norm monotonicity vote plus the
                           integral energy inequality when the caller
                           supplies dissipation and forcing samples
* weak_c_convergence_check -- continuity of evolution under weakly
                           convergent seeds, with a strong-metric vote
"""

from __future__ import annotations

import json
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from itertools import groupby
from typing import Callable, Sequence

import numpy as np

from .errors import BlowUpError, UsageError
from .space import (CoeffState, DualMetricSpace, pack_states, set_semidist,
                    state_from_json, state_to_json)
from .util import parallel_map


class TrajectoryFamily(ABC):
    """Interval-indexed trajectory sets with a shared coefficient space."""

    system_id: str = "abstract"
    autonomous: bool = False
    multivalued: bool = False

    #: registry expectation used by the CLI exit-code contract:
    #: does a weak (resp. strong) pullback attractor exist for this system
    expectations: dict = {"weak_attractor": True, "strong_attractor": True}

    def __init__(self, space: DualMetricSpace):
        self.space = space

    # -- trajectory access ----------------------------------------------------

    def branch_count(self, s: float, x: CoeffState) -> int:
        return 1

    @abstractmethod
    def evolve(self, s: float, x: CoeffState, ts: Sequence[float],
               branch: int = 0) -> list[CoeffState]:
        """Sample the branch's trajectory through (s, x) at times ts >= s."""

    def evolve_block(self, x: CoeffState, starts: Sequence[float],
                     ts: Sequence[float], branch: int = 0) -> list[tuple]:
        """The images P(ts[k], starts[k]) x of one seed, as packing groups.

        Returns (idx, vals) groups in image order; vals[j] holds the next
        image's values on the index rows idx, or vals is a callable giving
        them (see space.pack_groups).  The default evolves once per run of
        equal start times and makes one group per image; a family whose
        images stay on the seed's own index rows may return one group.
        """
        groups = []
        for s, run in groupby(zip(starts, ts), key=lambda pair: pair[0]):
            for st in self.evolve(s, x, [t for _, t in run], branch=branch):
                groups.append((st.idx, st.val[None]))
        return groups

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


@dataclass(frozen=True)
class EnsembleEntry:
    seed_index: int
    branch: int
    seed: CoeffState
    state: CoeffState


@dataclass
class PullbackEnsemble:
    """Finite approximation of P(t, s) A, one entry per (seed, branch)."""

    system_id: str
    t: float
    s: float
    entries: list[EnsembleEntry] = field(default_factory=list)

    def states(self) -> list[CoeffState]:
        return [e.state for e in self.entries]

    def to_jsonl(self) -> str:
        lines = []
        for e in self.entries:
            lines.append(json.dumps({
                "t": self.t, "s": self.s, "branch": e.branch,
                "seed": state_to_json(e.seed), "state": state_to_json(e.state),
            }, sort_keys=True))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_jsonl(cls, text: str, system_id: str = "") -> "PullbackEnsemble":
        entries = []
        t = s = 0.0
        for i, line in enumerate(line for line in text.splitlines() if line.strip()):
            obj = json.loads(line)
            t, s = float(obj["t"]), float(obj["s"])
            entries.append(EnsembleEntry(i, int(obj["branch"]),
                                         state_from_json(obj["seed"]),
                                         state_from_json(obj["state"])))
        return cls(system_id, t, s, entries)


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


def _blow_up(i: int, b: int, tau: float, nrm: float, cap: float) -> BlowUpError:
    return BlowUpError(f"seed #{i} (branch {b}) blew up: |u({tau})| = {nrm:.3g} "
                       f"exceeds 10x ball radius {cap:.3g}")


def _evolve_seeds(fam: TrajectoryFamily, seeds: Sequence[CoeffState], s: float,
                  ts: Sequence[float], branches: str = "all",
                  workers: int | None = None) -> list[tuple]:
    """Evolve every seed from s through the requested branches, sampled at ts.

    branches is "all" or "first".  Returns one (seed index, branch, seed,
    states) row per trajectory, states[k] being its sample at ts[k], in
    (seed index, branch) order whatever the worker count.  A state whose
    strong norm exceeds 10x the space's ball radius aborts the run with a
    BlowUpError naming the offending seed.
    """
    jobs = _trajectories(fam, seeds, s, branches)
    runs = parallel_map(lambda job: fam.evolve(s, job[2], ts, branch=job[1]),
                        jobs, workers=workers)
    cap = fam.space.ball_radius
    if cap is not None:
        for (i, b, _), states in zip(jobs, runs):
            for tau, st in zip(ts, states):
                nrm = fam.space.strong_norm(st)
                if nrm > 10.0 * cap:
                    raise _blow_up(i, b, tau, nrm, cap)
    return [(i, b, x, states) for (i, b, x), states in zip(jobs, runs)]


def pullback_image(fam: TrajectoryFamily, seeds: Sequence[CoeffState],
                   t: float, s: float, branches: str = "all",
                   workers: int | None = None) -> PullbackEnsemble:
    """Evolve every seed from s to t through the requested branches.

    Entries are ordered by (seed index, branch id), so the ensemble is a
    deterministic function of the seed list; as a set it does not depend
    on the seed order.  branches and the blow-up guard as in _evolve_seeds.
    """
    if s > t:
        raise UsageError(f"pullback start s={s} must not exceed t={t}")
    runs = _evolve_seeds(fam, seeds, s, [t], branches, workers)
    return PullbackEnsemble(fam.system_id, t, s, [
        EnsembleEntry(i, b, x, states[0]) for i, b, x, states in runs])


def compose_check(fam: TrajectoryFamily, seeds: Sequence[CoeffState],
                  r: float, s: float, t: float) -> float:
    """Strong semidistance of P(t,r)A from P(t,s)P(s,r)A.

    The two-parameter family satisfies P(t,r)A inside P(t,s)P(s,r)A, so
    the value is solver noise for restriction-closed systems.
    """
    if not (r <= s <= t):
        raise UsageError("compose_check needs r <= s <= t")
    one = pullback_image(fam, seeds, t, r)
    mid = pullback_image(fam, seeds, s, r)
    two = pullback_image(fam, mid.states(), t, s)
    return set_semidist(fam.space, one.states(), two.states(), "strong")


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

    @classmethod
    def from_states(cls, space: DualMetricSpace, times, states, **kw):
        norms = np.array([space.strong_norm(s) for s in states])
        return cls(np.asarray(times, float), norms, **kw)


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


def energy_inequality_check(traj: TrajectorySample, nu: float | None = None,
                            window: tuple[float, float] | None = None,
                            eps: float = 1e-9, delta: float = 0.5,
                            majority: float = 0.9,
                            integral_tol: float = 1e-6) -> EnergyCheckReport:
    """Check the windowed norm inequality and, if data allows, the
    integral energy inequality.

    Majority part: for each grid time t, the bound |u(t)| <= |u(t0)| + eps
    must hold for at least the `majority` fraction of grid points t0 in
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
    if window is not None:
        keep = (times >= window[0]) & (times <= window[1])
        if keep.sum() < 2:
            raise UsageError("window contains fewer than two samples")
        times, norms = times[keep], norms[keep]
        vn = traj.vnorm_sq[keep] if traj.vnorm_sq is not None else None
        fp = traj.force_pair[keep] if traj.force_pair is not None else None
    else:
        vn, fp = traj.vnorm_sq, traj.force_pair

    h = float(np.max(np.diff(times)))
    if not h < delta / 4.0:
        raise UsageError(f"grid spacing {h:.3g} must be below delta/4 = {delta / 4:.3g}")

    violations: list[tuple] = []
    max_resid = -np.inf
    n_major = 0
    for i in range(1, times.size):
        t = times[i]
        lo = np.searchsorted(times, t - delta, side="right")
        cand = np.arange(lo, i)
        if cand.size == 0:
            continue
        n_major += 1
        resid = norms[i] - (norms[cand] + eps)
        max_resid = max(max_resid, float(resid.max()))
        ok = resid <= 0.0
        if ok.mean() < majority:
            j = cand[int(np.argmax(resid))]
            violations.append((float(times[j]), float(t), float(norms[i]),
                               float(norms[j] + eps), float(resid.max())))

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
                             verdict, float(eps), float(delta))


# ---------------------------------------------------------------------------
# continuity of evolution under weak seed convergence


@dataclass
class WeakConvergenceReport:
    weak_sups: list[float]  # sup over the grid, one per non-limit seed
    weak_sup_last: float
    strong_fraction: float
    grid: np.ndarray


def weak_c_convergence_check(fam: TrajectoryFamily, seeds: Sequence[CoeffState],
                             s: float, horizon: float, grid_n: int = 33,
                             branch: int = 0,
                             strong_atol: float = 1e-9) -> WeakConvergenceReport:
    """Evolve a seed sequence x_1, ..., x_m, x_limit from time s.

    The last seed is the limit.  Reports, per non-limit seed, the sup of
    weak_dist(u_n(tau), u(tau)) over the grid on [s, s+horizon], and the
    fraction of grid times where the strong distance also converged
    (final distance at most half the initial one, or negligible).
    """
    seeds = list(seeds)
    if len(seeds) < 2:
        raise UsageError("need at least one converging seed plus the limit")
    if grid_n < 2:
        raise UsageError("the evolution grid needs at least two times")
    grid = np.linspace(s, s + horizon, grid_n)
    limit_traj = fam.evolve(s, seeds[-1], grid, branch=branch)
    rows = np.arange(grid_n)
    weak_sups = []
    strong_first = None
    strong_last = None
    for x in seeds[:-1]:
        packed = pack_states(fam.space, fam.evolve(s, x, grid, branch=branch)
                             + limit_traj)
        weak_d = np.diagonal(packed.cross(rows, rows + grid_n, "weak"))
        strong_d = np.diagonal(packed.cross(rows, rows + grid_n, "strong"))
        weak_sups.append(float(weak_d.max()))
        if strong_first is None:
            strong_first = strong_d
        strong_last = strong_d
    converged = strong_last <= np.maximum(strong_atol, 0.5 * strong_first)
    return WeakConvergenceReport(weak_sups, weak_sups[-1],
                                 float(converged.mean()), grid)
