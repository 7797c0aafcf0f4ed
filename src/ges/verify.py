"""Named invariant suites behind `ges verify`.

Each suite re-checks a package-level contract on freshly generated,
seed-deterministic data and reports machine-readable results.  Suites
are intentionally small: the heavyweight sweeps live in the test suite,
while these runs are the quick reproducible health checks.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .errors import UsageError
from .evolution import (TrajectorySample, _trajectory_norms, compose_check,
                        energy_inequality_check)
from .omega import (INVARIANT_VERDICTS, PullbackSchedule, invariance_check,
                    tracking_check)
from .space import DualMetricSpace, epsilon_net, pack_states
from .symbols import SymbolFamily, union_inclusion_check
from .systems import SYSTEM_IDS, make_system
from .systems.bump import bump_state
from .systems.heat import high_band_seed
from .systems.nse import LAMBDA_1, absorbing_entry_time
from .util import fmt_float, report_json

# the systems each suite holds a contract for, in check order; metrics
# takes no system
SUITE_SYSTEMS = {
    "inclusion": ("single", "bump", "heat", "branch2", "forced-scalar", "nse"),
    "energy": ("heat", "nse"),
    "invariance": ("heat", "forced-scalar", "bump", "single", "branch2", "nse"),
    "tracking": ("heat", "single", "bump", "forced-scalar"),
    "uniform": ("forced-scalar",),
}


def _systems(suite: str, system: str | None) -> tuple[str, ...]:
    """Every system the suite covers, or the one asked for."""
    if system is not None and system not in SUITE_SYSTEMS[suite]:
        raise UsageError(f"the {suite} suite has no contract for {system!r}")
    return SUITE_SYSTEMS[suite] if system is None else (system,)


@dataclass
class CheckResult:
    name: str
    ok: bool
    info: dict = field(default_factory=dict)


@dataclass
class SuiteReport:
    suite: str
    seed: int
    results: list[CheckResult]
    verdict: str  # "pass" | "fail"

    def to_json(self) -> str:
        return report_json("verify", self,
                           results=[asdict(r) for r in self.results])


def _lattice_space() -> DualMetricSpace:
    return DualMetricSpace(tag="verify-lattice", index_dim=1,
                           truncation_radius=32, ball_radius=None)


def _sparse_states(space: DualMetricSpace, rng: np.random.Generator, count: int):
    out = []
    for _ in range(count):
        n = int(rng.integers(1, 5))
        idx = rng.choice(np.arange(-20, 21), size=n, replace=False)
        out.append(space.state(np.sort(idx), rng.normal(size=n)))
    return out


def suite_metrics(seed: int, system: str | None = None) -> list[CheckResult]:
    """Metric axioms on a fixed lattice space, read from one pack of 24
    random states (identity and symmetry are exact); system is unused."""
    space = _lattice_space()
    rng = np.random.default_rng(seed)
    res = []

    def unit(k: int):
        return space.state([k], [1.0])

    zero = space.zero_state()
    worked = {
        "weak e0 vs 0": (space.weak_dist(unit(0), zero), 0.5),
        "weak e3 vs 0": (space.weak_dist(unit(3), zero), 0.0625),
        "weak e5 vs 0": (space.weak_dist(unit(5), zero), 0.015625),
        "weak e9 vs 0": (space.weak_dist(unit(9), zero), 0.0009765625),
        "strong e0 vs e1": (space.strong_dist(unit(0), unit(1)), math.sqrt(2.0)),
    }
    for name, (got, want) in worked.items():
        res.append(CheckResult(name, abs(got - want) <= 1e-12,
                               {"got": got, "want": want}))

    packed = pack_states(space, _sparse_states(space, rng, 24))
    rows = np.arange(packed.n_states)
    weak, strong = (packed.cross(rows, rows, m) for m in ("weak", "strong"))
    a, b, c = rows[:8], rows[8:16], rows[16:24]
    ident = float(max(np.diag(weak).max(), np.diag(strong).max()))
    sym = float(np.abs(weak - weak.T).max())
    tri = float(max(0.0, np.max([x[a, c] - x[a, b] - x[b, c] for x in (weak, strong)])))
    ctrl = float(max(0.0, (weak - 3.0 * strong).max()))
    res.append(CheckResult("identity", ident == 0.0, {"max": ident}))
    res.append(CheckResult("symmetry", sym == 0.0, {"max": sym}))
    res.append(CheckResult("triangle", tri <= 1e-12, {"max_violation": tri}))
    res.append(CheckResult("strong controls weak (x3)", ctrl <= 1e-12,
                           {"max_excess": ctrl}))

    small = space.with_truncation(8)
    tail = small.weak_tail_bound()
    cut = replace(packed, space=small, ww=small.weak_weights(packed.idx))
    worst = float(np.abs(np.diag(cut.cross(a, b, "weak")) - weak[a, b]).max())
    res.append(CheckResult("truncation honesty", worst <= tail,
                           {"max_gap": worst, "tail_bound": tail}))

    net = epsilon_net(space, [zero, unit(9)], 0.01, "weak")
    res.append(CheckResult("net absorbs weak-tiny point", len(net) == 1,
                           {"kept": len(net)}))
    return res


def suite_inclusion(seed: int, system: str | None = None) -> list[CheckResult]:
    res = []
    for sys_id in _systems("inclusion", system):
        draws, tol = (2, 1e-5) if sys_id == "nse" else (25, 1e-6)
        fam = make_system(sys_id)
        rng = np.random.default_rng(seed)
        span = 1.5 if sys_id == "nse" else 20.0
        worst = 0.0
        for _ in range(draws):
            r, s, t = np.sort(rng.uniform(-span, 0.0, size=3))
            seeds = fam.sample_states(2, rng)
            worst = max(worst, compose_check(fam, seeds, r, s, t))
        res.append(CheckResult(f"compose {sys_id}", worst <= tol,
                               {"draws": draws, "max_semidist": worst,
                                "tol": tol}))
    return res


NSE_INTEGRAL_TOL = 1e-6


def nse_energy_check(fam, rng: np.random.Generator):
    """(trajectory, report) of the energy inequality along one sampled NSE
    field over [0, 1].  The windowed-norm tolerance comes from the
    forcing's normality relation: over a window of length delta the force
    can raise the norm by at most eps, so (eps, delta(eps)) is the valid
    windowed inequality for a forced system.  The Galerkin system satisfies
    the energy equality (its advection term conserves energy), so the
    integral residual is the trapezoid rule's O(dt^2) error on the sampled
    integrals, not the solver's: it falls 4x each time the grid spacing
    halves.  It grows with the energy, so the integral tolerance grows
    with the largest |u|^2."""
    x = fam.sample_states(1, rng)[0]
    traj = fam.energy_sample(0.0, x, 1.0, n=8001)
    eps, delta = fam.forcing.normality_check([0.25])[0]
    tol = NSE_INTEGRAL_TOL * max(1.0, float(traj.norms.max()) ** 2)
    return traj, energy_inequality_check(traj, nu=fam.nu, eps=eps, delta=delta,
                                         integral_tol=tol)


NSE_ABSORBING_SLACK = 1e-6


def nse_absorbing_check(fam, rng: np.random.Generator, n_seeds: int):
    """(grid, norms, max_violation, verdict) of the absorbing inequality

        |u(t)|^2 <= |u(a)|^2 exp(-nu lambda_1 (t - a))
                    + ||g||_{Lb}^2 / (nu (1 - exp(-nu lambda_1)))

    along n_seeds fields sampled in |u| <= 2R, at 41 times from 0 to one past
    the absorbing entry time (to 3 for a radius of at most 1/2).  norms holds
    one row of |u| per seed, the packed norms of every seed's images in one
    block; max_violation is the largest excess of
    the left side over the right over every pair of grid times a <= t."""
    radius = fam.absorbing_set_radius()
    horizon = absorbing_entry_time(radius, fam.nu) + 1.0 if radius > 0.5 else 3.0
    seeds = fam.sample_states(n_seeds, rng, radius=2.0 * radius if radius > 0 else None)
    grid = np.linspace(0.0, horizon, 41)
    norms = _trajectory_norms(fam, seeds, 0.0, grid)
    a, t = np.triu_indices(grid.size)
    sq = norms ** 2
    bound = fam.radius / 2.0  # the last term above is half the absorbing radius R
    excess = sq[:, t] - sq[:, a] * np.exp(-fam.nu * LAMBDA_1 * (grid[t] - grid[a])) - bound
    worst = float(excess.max())
    return grid, norms, worst, "holds" if worst <= NSE_ABSORBING_SLACK else "violated"


def suite_energy(seed: int, system: str | None = None) -> list[CheckResult]:
    res = []
    plans = _systems("energy", system)
    if "heat" in plans:
        fam = make_system("heat")
        rng = np.random.default_rng(seed)
        grid = np.arange(-5.0, 0.01, 0.25)
        norms = _trajectory_norms(fam, fam.sample_states(10, rng), -5.0, grid)
        reps = [energy_inequality_check(TrajectorySample(grid, row), eps=1e-12, delta=2.0)
                for row in norms]
        res.append(CheckResult("heat norm decay",
                               all(r.verdict == "holds" for r in reps),
                               {"max_residual": max(r.max_residual for r in reps)}))
    if "nse" in plans:
        _, rep = nse_energy_check(make_system("nse"), np.random.default_rng(seed))
        res.append(CheckResult("nse energy balance", rep.verdict == "holds",
                               {"max_residual": rep.max_residual,
                                "integral_tol": rep.integral_tol_used,
                                "eps": rep.eps_used, "delta": rep.delta_used,
                                "grid_spacing": rep.grid_spacing}))
    return res


def invariance_plan(fam, rng: np.random.Generator) -> list[tuple]:
    """(check name, set family, kind, quasi ensemble) rows for the system's
    canonical invariant family; the quasi ensemble is invariance_check's
    labels, pull_depth and budget."""
    sys_id = fam.system_id
    # the spectral flow is integrated numerically: a shallower, smaller ensemble
    quasi = ({"labels": None, "pull_depth": 10.0, "budget": 8} if sys_id == "nse"
             else {"labels": None, "pull_depth": 40.0, "budget": 24})
    if sys_id in ("heat", "branch2"):
        zero = fam.space.zero_state()
        return [(f"{sys_id} zero family full", lambda t: [zero], "full", quasi)]
    if sys_id == "forced-scalar":
        return [("forced-scalar orbit full",
                 lambda t: [fam.scalar(fam.particular(t))], "full", quasi)]
    if sys_id == "single":
        return [("single trajectory full", lambda t: [fam.trajectory(t)],
                 "full", quasi)]
    if sys_id == "bump":
        shifts = np.linspace(-12.0, 12.0, 25)
        zero = fam.space.zero_state()

        def manifold(t):
            return [bump_state(fam.space, float(r), t) for r in shifts]

        def with_zero(t):
            return manifold(t) + [zero]

        # labels anchor one ensemble trajectory through each set member at
        # the window end (label = position at t_max = 2), plus a far
        # escapee to thread the weak-limit zero point
        labels = list(2.0 - shifts) + [14.0]
        return [("bump manifold semi", manifold, "semi", quasi),
                ("bump manifold+0 quasi", with_zero, "quasi",
                 dict(quasi, labels=labels))]
    if sys_id == "nse":
        from .omega import omega_pullback
        sched = PullbackSchedule.geometric(0.0, n=6)
        om = omega_pullback(fam, sched, seeds=fam.sample_states(4, rng))
        if not om.points:
            raise UsageError("nse omega approximation came back empty")
        pts = om.points
        return [("nse omega points full", lambda t: pts, "full", quasi)]
    raise UsageError(f"no canonical invariant family for system {sys_id!r}")


def suite_invariance(seed: int, system: str | None = None) -> list[CheckResult]:
    # run without a system: the heat zero family, the forced orbit and the
    # bump manifold; the other covered systems repeat a full-invariance case
    plans = (("heat", "forced-scalar", "bump") if system is None
             else _systems("invariance", system))
    res = []
    for sys_id in plans:
        fam = make_system(sys_id)
        rng = np.random.default_rng(seed)
        for name, family, kind, quasi in invariance_plan(fam, rng):
            want = INVARIANT_VERDICTS[kind]
            rep = invariance_check(fam, family, kind=kind, window=(0.0, 2.0),
                                   tol=0.05, rng=np.random.default_rng(seed),
                                   **quasi)
            res.append(CheckResult(name, rep.verdict == want,
                                   {"verdict": rep.verdict, "expected": want,
                                    "max_semi_dev": max(rep.semi_dev,
                                                        default=0.0),
                                    "quasi_unmatched": rep.quasi_unmatched}))
    if system is None:
        fam = make_system("forced-scalar")
        off = fam.scalar(0.75)
        rep = invariance_check(fam, lambda t: [off], kind="semi",
                               window=(0.0, 2.0), tol=0.05)
        res.append(CheckResult("off-point family fails semi",
                               rep.verdict == "fails",
                               {"verdict": rep.verdict,
                                "max_semi_dev": max(rep.semi_dev,
                                                    default=0.0)}))
    return res


def suite_tracking(seed: int, system: str | None = None) -> list[CheckResult]:
    res = []
    for sys_id in _systems("tracking", system):
        fam = make_system(sys_id)
        sched = PullbackSchedule.geometric(0.0, n=10)
        if sys_id == "heat":
            seeds = lambda s: [high_band_seed(fam.space, np.random.default_rng(seed + k))
                               for k in range(3)]
        elif sys_id == "bump":
            shifts = np.linspace(-6.0, 6.0, 8)
            seeds = lambda s: [bump_state(fam.space, float(r), s) for r in shifts]
        elif sys_id == "forced-scalar":
            seeds = lambda s: [fam.scalar(fam.particular(s))]
        else:
            seeds = None
        # the deep starts put bump profiles past the weak truncation
        # radius, where every weak distance reads 0
        strong = sys_id in ("bump", "single")
        rep = tracking_check(fam, sched, horizon=2.0, eps=5e-2, seeds=seeds,
                             strong=strong, rng=np.random.default_rng(seed))
        info = {"verdict": rep.verdict, "max_weak_sup": max(rep.weak_sups)}
        if strong:
            info["max_strong_sup"] = max(rep.strong_sups)
        res.append(CheckResult(f"tracking {sys_id}", rep.verdict == "holds", info))
    return res


def suite_uniform(seed: int, system: str | None = None) -> list[CheckResult]:
    [base] = _systems("uniform", system)
    symfam = SymbolFamily(base, count=32)
    space = symfam.system(0.0).space
    seeds = [space.state([0], [v]) for v in np.linspace(-1.5, 1.5, 8)]
    rep = union_inclusion_check(symfam, seeds, t0=0.0,
                                schedule=PullbackSchedule.geometric(0.0, n=10),
                                eps_net=0.05)
    return [CheckResult("union inside uniform", rep.verdict == "included",
                        {"semidist": rep.union_in_uniform,
                         "threshold": rep.threshold, "verdict": rep.verdict}),
            CheckResult("equality on closed sample", rep.equal,
                        {"reverse_semidist": rep.uniform_in_union})]


_SUITE_FNS = {
    "metrics": suite_metrics,
    "inclusion": suite_inclusion,
    "energy": suite_energy,
    "invariance": suite_invariance,
    "tracking": suite_tracking,
    "uniform": suite_uniform,
}
SUITES = (*_SUITE_FNS, "all")


def run_suite(suite: str, seed: int = 0,
              system: str | None = None) -> SuiteReport:
    if suite not in SUITES:
        raise UsageError(f"unknown suite {suite!r}; known: {', '.join(SUITES)}")
    if system is not None and system not in SYSTEM_IDS:
        raise UsageError(f"unknown system {system!r}")
    # all: every suite that covers the system, and metrics, which takes none
    names = [suite] if suite != "all" else [
        s for s in _SUITE_FNS
        if s == "metrics" or system is None or system in SUITE_SYSTEMS[s]]
    if suite == "all" and names == ["metrics"]:
        raise UsageError(f"no suite has a contract for {system!r}")
    results: list[CheckResult] = []
    for name in names:
        results.extend(_SUITE_FNS[name](seed, system=system))
    verdict = "pass" if all(r.ok for r in results) else "fail"
    return SuiteReport(suite, seed, results, verdict)


def report_lines(rep: SuiteReport) -> list[str]:
    lines = []
    for r in rep.results:
        status = "ok " if r.ok else "FAIL"
        detail = ", ".join(f"{k}={fmt_float(v) if isinstance(v, float) else v}"
                           for k, v in sorted(r.info.items()))
        lines.append(f"[{status}] {r.name}" + (f" ({detail})" if detail else ""))
    lines.append(f"suite {rep.suite}: {rep.verdict}")
    return lines
