"""Omega-limit approximation, attraction, minimality, PAC, invariance,
tracking.

The drifting-line family is the engineered failure case: its images run
away, so nothing survives the two-depth corroboration rule and the
profile records per-tier drift from the shallowest image.
"""

from __future__ import annotations

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ges.omega
from ges.errors import BlowUpError, UnsupportedError, UsageError
from ges.evolution import TrajectoryFamily, compose_check
from ges.omega import (
    MAX_TIERS,
    AttractionReport,
    OmegaApprox,
    PullbackSchedule,
    _net_and_survive,
    attraction_diagnostic,
    forward_omega,
    invariance_check,
    minimality_check,
    omega_pullback,
    pac_check,
    tracking_check,
)
from ges import kernels
from ges.space import (DualMetricSpace, hausdorff_dist, pack_states, set_semidist,
                       state_to_json)
from ges.symbols import SymbolFamily, uniform_omega
from ges.systems import (
    BranchSystem,
    BumpSystem,
    ForcedScalarSystem,
    HeatSystem,
    LineSystem,
    SingleTrajectorySystem,
    band_profile,
    band_witness,
    bump_state,
    high_band_seed,
    make_system,
)

from conftest import image_states


# ---------------------------------------------------------------------------
# schedules


class TestSchedule:
    def test_geometric_depths(self):
        sched = PullbackSchedule.geometric(0.0, delta=1.0, rho=2.0, n=4)
        assert sched.starts == (-2.0, -4.0, -8.0, -16.0)
        assert sched.depths().tolist() == [2.0, 4.0, 8.0, 16.0]

    def test_validation(self):
        with pytest.raises(UsageError, match="three"):
            PullbackSchedule(0.0, (-1.0, -2.0))
        with pytest.raises(UsageError, match="decrease"):
            PullbackSchedule(0.0, (-1.0, -1.0, -2.0))
        with pytest.raises(UsageError, match="shallowest"):
            PullbackSchedule(0.0, (1.0, -1.0, -2.0))
        with pytest.raises(UsageError):
            PullbackSchedule.geometric(0.0, rho=1.0)
        with pytest.raises(UsageError):
            PullbackSchedule.geometric(0.0, delta=0.0)
        with pytest.raises(UsageError, match="finite"):
            PullbackSchedule(0.0, (-1.0, -2.0, -math.inf))
        with pytest.raises(UsageError, match="overflows"):
            PullbackSchedule.geometric(0.0, n=2000)
        with pytest.raises(UsageError, match=f"at most {MAX_TIERS} tiers"):
            PullbackSchedule.geometric(0.0, rho=1.0001, n=MAX_TIERS + 1)


# ---------------------------------------------------------------------------
# omega approximation per system


class TestOmegaPullback:
    def test_heat_weak_limit_is_zero(self):
        fam = HeatSystem()
        sched = PullbackSchedule.geometric(0.0, n=12)
        om = omega_pullback(fam, sched, n_seeds=12,
                            rng=np.random.default_rng(0))
        assert om.converged
        assert len(om.points) == 1
        zero = fam.space.zero_state()
        assert fam.space.weak_dist(om.points[0], zero) <= om.eps_net
        assert om.profile_values()[-1] <= om.tol

    def test_single_trajectory_limit_is_its_current_point(self):
        fam = SingleTrajectorySystem()
        sched = PullbackSchedule.geometric(0.5, n=10)
        om = omega_pullback(fam, sched, n_seeds=4,
                            rng=np.random.default_rng(0))
        assert om.converged and len(om.points) == 1
        want = fam.trajectory(0.5)
        assert fam.space.weak_dist(om.points[0], want) == 0.0
        assert om.profile_values()[-1] == 0.0

    def test_branch_limit_is_origin_in_both_metrics(self):
        fam = BranchSystem()
        sched = PullbackSchedule.geometric(0.0, n=10)
        zero = fam.space.zero_state()
        for metric in ("weak", "strong"):
            om = omega_pullback(fam, sched, metric=metric, n_seeds=8,
                                rng=np.random.default_rng(1))
            assert om.converged and len(om.points) == 1
            assert fam.space.dist(om.points[0], zero, metric) <= om.eps_net

    def test_line_reports_escape_honestly(self):
        fam = LineSystem()
        sched = PullbackSchedule.geometric(0.0, n=10)
        om = omega_pullback(fam, sched, n_seeds=4,
                            rng=np.random.default_rng(2))
        assert om.points == []
        assert not om.converged
        assert "no convergence at this depth" in om.note
        vals = om.profile_values()
        # drift from the shallowest tier grows without bound
        assert vals[0] == 0.0
        assert all(b > a for a, b in zip(vals[3:], vals[4:]))
        assert vals[-1] == pytest.approx(1.6 ** 10 - 1.6, rel=1e-12)

    def test_bump_plateaus_at_net_resolution(self):
        fam = BumpSystem()
        sched = PullbackSchedule.geometric(0.0, n=10)
        om = omega_pullback(fam, sched, n_seeds=24, tol=1e-3,
                            rng=np.random.default_rng(3))
        # anchored labels reproduce the same manifold points at every
        # depth, so survivors exist but the profile floors at the net
        # resolution rather than at tol
        assert om.points
        assert not om.converged
        vals = om.profile_values()
        assert np.all(vals <= om.eps_net + 1e-12)
        for p in om.points:
            assert fam.space.strong_norm(p) == pytest.approx(1.0, abs=1e-9)
        # a coarser tolerance equal to the net resolution does converge
        om2 = omega_pullback(fam, sched, n_seeds=24, tol=om.eps_net,
                             rng=np.random.default_rng(3))
        assert om2.converged

    def test_deeper_schedule_refines_the_same_limit(self):
        fam = HeatSystem()
        rng_a, rng_b = np.random.default_rng(4), np.random.default_rng(4)
        om_a = omega_pullback(fam, PullbackSchedule.geometric(0.0, n=8),
                              n_seeds=10, rng=rng_a)
        om_b = omega_pullback(fam, PullbackSchedule.geometric(0.0, n=12),
                              n_seeds=10, rng=rng_b)
        assert set_semidist(fam.space, om_b.points, om_a.points, "weak") \
            <= 2.0 * om_a.eps_net

    def test_strong_omega_sits_inside_weak_omega(self):
        for fam in (HeatSystem(), BranchSystem()):
            sched = PullbackSchedule.geometric(0.0, n=10)
            om_s = omega_pullback(fam, sched, metric="strong", n_seeds=8,
                                  rng=np.random.default_rng(5))
            om_w = omega_pullback(fam, sched, metric="weak", n_seeds=8,
                                  rng=np.random.default_rng(5))
            assert om_s.points and om_w.points
            assert set_semidist(fam.space, om_s.points, om_w.points, "weak") \
                <= 2.0 * om_w.eps_net

    def test_independent_runs_agree_to_net_resolution(self):
        fam = HeatSystem()
        sched = PullbackSchedule.geometric(0.0, n=10)
        om1 = omega_pullback(fam, sched, n_seeds=10,
                             rng=np.random.default_rng(6))
        om2 = omega_pullback(fam, sched, n_seeds=10,
                             rng=np.random.default_rng(60))
        assert hausdorff_dist(fam.space, om1.points, om2.points, "weak") \
            <= 2.0 * om1.eps_net

    def test_fixed_seed_collection_is_reused_verbatim(self):
        fam = BranchSystem()
        sched = PullbackSchedule.geometric(0.0, n=8)
        seeds = fam.sample_states(3, np.random.default_rng(7))
        om = omega_pullback(fam, sched, seeds=seeds)
        assert om.converged

    def test_validation(self):
        fam = HeatSystem()
        sched = PullbackSchedule.geometric(0.0, n=8)
        with pytest.raises(UsageError):
            omega_pullback(fam, sched, metric="medium")
        with pytest.raises(UsageError):
            omega_pullback(fam, sched, eps_net=0.0)
        with pytest.raises(UsageError):
            omega_pullback(fam, sched, seeds=[])


class TestForwardOmega:
    def test_branch_forward_matches_pullback(self):
        fam = BranchSystem()
        seeds = fam.sample_states(6, np.random.default_rng(8))
        fwd = forward_omega(fam, 0.0, seeds, n=10)
        pull = omega_pullback(fam, PullbackSchedule.geometric(0.0, n=10),
                              seeds=seeds)
        assert fwd.converged and pull.converged
        assert hausdorff_dist(fam.space, fwd.points, pull.points, "weak") \
            <= 2.0 * fwd.eps_net

    def test_nonautonomous_system_rejected(self):
        fam = ForcedScalarSystem()
        with pytest.raises(UsageError, match="autonomous"):
            forward_omega(fam, 0.0, [fam.scalar(0.0)])

    def test_needs_three_horizons(self):
        fam = BranchSystem()
        seeds = fam.sample_states(2, np.random.default_rng(9))
        with pytest.raises(UsageError):
            forward_omega(fam, 0.0, seeds, n=2)

    @pytest.mark.parametrize("kw", [{"metric": "bogus"}, {"eps_net": 0.0},
                                    {"eps_net": -0.1}, {"tol": 0.0},
                                    {"rho": 1e200}, {"delta": 1e308, "rho": 10.0}])
    def test_bad_arguments_fail_before_integration(self, monkeypatch, kw):
        def no_integration(*args, **kwargs):
            raise AssertionError("integrated before checking the arguments")

        monkeypatch.setattr(ges.omega, "_tier_block", no_integration)
        fam = BranchSystem()
        seeds = fam.sample_states(2, np.random.default_rng(9))
        with pytest.raises(UsageError):
            forward_omega(fam, 0.0, seeds, n=4, **kw)

    # at 1e300 every horizon rounds to t0; at 2**60 (ulp 256) the first ones do
    @pytest.mark.parametrize("t0, n", [(1e300, 5), (2.0 ** 60, 14)])
    def test_horizons_that_round_to_t0_are_refused(self, monkeypatch, t0, n):
        def no_integration(*args, **kwargs):
            raise AssertionError("integrated before checking the horizons")

        monkeypatch.setattr(ges.omega, "_tier_block", no_integration)
        fam = BranchSystem()
        seeds = fam.sample_states(3, np.random.default_rng(9))
        with pytest.raises(UsageError, match="increase strictly past t0"):
            forward_omega(fam, t0, seeds, n=n)
        symfam = SymbolFamily("forced-scalar", 2)
        with pytest.raises(UsageError, match="increase strictly past t0"):
            uniform_omega(symfam, [symfam.system(0.0).scalar(0.5)], t0=t0, n=n)


def assert_same_block(packed, tier_rows, want):
    """packed is bitwise pack_states of the tier states, deepest tier first."""
    ref = pack_states(packed.space, [st for tier in reversed(want) for st in tier])
    assert [len(rows) for rows in tier_rows] == [len(tier) for tier in want]
    for name in ("idx", "vals", "norms"):
        got, exp = getattr(packed, name), getattr(ref, name)
        assert got.dtype == exp.dtype and got.tobytes() == exp.tobytes(), name


class TestForwardLadders:
    """Forward tiers come from one evolution per trajectory, sampled at every
    horizon; on closed-form systems their block is bitwise the packed
    per-horizon images."""

    def block_of(self, monkeypatch, run):
        seen = []
        real = ges.omega._omega_from_tiers

        def spy(system_id, packed, tier_rows, *args):
            seen.append((packed, tier_rows))
            return real(system_id, packed, tier_rows, *args)

        monkeypatch.setattr(ges.omega, "_omega_from_tiers", spy)
        run()
        return seen[0]

    def reference(self, systems, seeds, t0, n):
        horizons = [t0 + 1.6 ** i for i in range(1, n + 1)]
        return [[st for fam in systems
                 for st in image_states(fam, seeds, h, t0)]
                for h in horizons]

    @pytest.mark.parametrize("make", [BranchSystem, BumpSystem])
    def test_autonomous_systems(self, monkeypatch, make):
        fam = make()
        seeds = fam.sample_states(5, np.random.default_rng(11))
        packed, tier_rows = self.block_of(
            monkeypatch, lambda: forward_omega(fam, 0.5, seeds, n=8))
        want = self.reference([fam], seeds, 0.5, 8)
        assert len(tier_rows) == len(want) == 8
        assert_same_block(packed, tier_rows, want)

    def test_scalar_phase_family(self, monkeypatch):
        symfam = SymbolFamily("forced-scalar", count=6)
        space = symfam.system(0.0).space
        seeds = [space.state([0], [v]) for v in np.linspace(-1.5, 1.5, 4)]
        packed, tier_rows = self.block_of(
            monkeypatch, lambda: uniform_omega(symfam, seeds, n=7))
        systems = [symfam.system(s) for s in symfam.symbols]
        want = self.reference(systems, seeds, 0.0, 7)
        assert len(tier_rows) == len(want) == 7
        assert_same_block(packed, tier_rows, want)


# ---------------------------------------------------------------------------
# the tier block against per-tier images


def packed_tiers(fam, tier_states):
    """pack_states of the tier states, deepest tier first, and each tier's rows."""
    packed = pack_states(fam.space, [st for tier in reversed(tier_states) for st in tier])
    ends = np.cumsum([len(tier) for tier in reversed(tier_states)])[::-1]
    return packed, [np.arange(end - len(tier), end) for tier, end in zip(tier_states, ends)]


def reference_pullback(fam, schedule, n_seeds, rng, seeds=None):
    """omega_pullback from per-tier image_states and pack_states."""
    t, starts = schedule.t, schedule.starts
    lists = ges.omega._tier_seeds(fam, seeds, None, n_seeds, rng, t, starts)
    tiers = [image_states(fam, lst, t, s) for s, lst in zip(starts, lists)]
    packed, rows = packed_tiers(fam, tiers)
    return ges.omega._omega_from_tiers(fam.system_id, packed, rows, starts, t,
                                       "weak", 0.05, 1e-3, "")


def reference_forward(fam, t0, seeds, n):
    horizons = [t0 + 1.6 ** i for i in range(1, n + 1)]
    tiers = [image_states(fam, seeds, h, t0) for h in horizons]
    packed, rows = packed_tiers(fam, tiers)
    return ges.omega._omega_from_tiers(fam.system_id, packed, rows, horizons,
                                       horizons[-1], "weak", 0.05, 1e-3, "")


def complex_heat_seeds(fam):
    """Real band profiles, then the same profiles turned complex."""
    real = fam.sample_states(6, np.random.default_rng(8))
    return real + [fam.space.state(x.idx, x.val * (0.6 - 0.6j)) for x in real]


class TestTierBlock:
    """The omega block is built straight from the seeds; its artifacts are
    byte-equal to packing the per-tier images."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("make,n_seeds", [(HeatSystem, 40), (BumpSystem, 24),
                                              (BranchSystem, 8)])
    def test_pullback_matches_per_tier_images(self, make, n_seeds, workers):
        fam = make()
        sched = PullbackSchedule.geometric(0.0, n=12)
        om = omega_pullback(fam, sched, n_seeds=n_seeds,
                            rng=np.random.default_rng(3), workers=workers)
        want = reference_pullback(fam, sched, n_seeds, np.random.default_rng(3))
        assert om.points and om.to_json() == want.to_json()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_complex_heat_seeds_turn_the_block_complex(self, monkeypatch, workers):
        fam = HeatSystem()
        seeds = complex_heat_seeds(fam)
        sched = PullbackSchedule.geometric(0.0, n=10)
        seen = []
        real = ges.omega._omega_from_tiers

        def spy(system_id, packed, *args):
            seen.append(packed.vals.dtype)
            return real(system_id, packed, *args)

        monkeypatch.setattr(ges.omega, "_omega_from_tiers", spy)
        om = omega_pullback(fam, sched, seeds=seeds, workers=workers)
        want = reference_pullback(fam, sched, None, None, seeds=seeds)
        assert seen[0] == np.complex128
        assert om.to_json() == want.to_json()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_heat_forward_matches_per_horizon_images(self, workers):
        fam = HeatSystem()
        seeds = fam.sample_states(24, np.random.default_rng(5))
        om = forward_omega(fam, 0.5, seeds, n=10, workers=workers)
        want = reference_forward(fam, 0.5, seeds, 10)
        assert om.points and om.to_json() == want.to_json()

    def test_heat_omega_peaks_near_its_block(self, monkeypatch):
        fam = HeatSystem()
        blocks = []
        real = ges.omega._omega_from_tiers

        def spy(system_id, packed, *args):
            blocks.append(packed.vals.nbytes)
            return real(system_id, packed, *args)

        monkeypatch.setattr(ges.omega, "_omega_from_tiers", spy)
        sched = PullbackSchedule.geometric(0.0, n=16)
        rng = np.random.default_rng(0)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            omega_pullback(fam, sched, n_seeds=128, rng=rng)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert blocks[0] == 128 * 16 * 1986 * 8  # real values on the band union
        assert peak <= 1.3 * blocks[0]


# ---------------------------------------------------------------------------
# net and survival filter


def per_tier_survivors(packed, tier_rows, eps_net, metric):
    """The net-and-survive rule with one kernel call per candidate."""
    net = []
    for i in np.concatenate(tier_rows[::-1]):
        d = [packed.cross([i], [k], metric)[0, 0] for k in net]
        if all(x > eps_net for x in d):
            net.append(int(i))
    tier_of = {int(r): j for j, rows in enumerate(tier_rows) for r in rows}
    n_tiers = len(tier_rows)
    survivors = []
    for row in net:
        src = tier_of[row]
        near = [packed.cross([row], tier_rows[j], metric).min() <= eps_net + 1e-12
                for j in range(n_tiers)]
        ok = all(near[src + 1:])
        if ok and src == n_tiers - 1:
            ok = any(near[:-1])
        if ok:
            survivors.append(row)
    return survivors


@pytest.mark.parametrize("metric", ["strong", "weak"])
@pytest.mark.parametrize("seed", range(4))
def test_net_and_survive_matches_per_tier_rule(metric, seed):
    """Same survivors from either tier packing; deeper tiers hug a point."""
    space = DualMetricSpace(tag="seq", truncation_radius=8)
    rng = np.random.default_rng(seed)
    centre = rng.normal(size=4)
    tiers = []
    for j in range(5):
        spread = 0.6 * 0.5 ** j if seed % 2 else 0.6
        tiers.append([space.state(np.arange(4), centre + rng.normal(scale=spread, size=4))
                      for _ in range(int(rng.integers(3, 9)))])
    found = 0
    for deepest_first in (False, True):
        ordered = tiers[::-1] if deepest_first else tiers
        packed = pack_states(space, [st for tier in ordered for st in tier])
        ends = np.cumsum([len(t) for t in ordered])
        rows = [np.arange(end - len(t), end) for t, end in zip(ordered, ends)]
        tier_rows = rows[::-1] if deepest_first else rows
        for eps in (0.1, 0.4, 1.0):
            got = _net_and_survive(packed, tier_rows, eps, metric)
            assert got == per_tier_survivors(packed, tier_rows, eps, metric)
            found += len(got)
    assert found > 0


def full_tier_survivors(packed, tier_rows, eps_net, metric):
    """The net-and-survive rule with whole rows and tiers per kernel call:
    each kept row against every later row, each candidate against whole tiers."""
    order = np.concatenate(tier_rows[::-1])
    nearest = np.full(order.size, np.inf)
    net, k = [], 0
    while k < order.size:
        net.append(int(order[k]))
        if k + 1 == order.size:
            break
        rest = nearest[k + 1:]
        np.minimum(rest, packed.cross(order[k:k + 1], order[k + 1:], metric)[0], out=rest)
        far = np.flatnonzero(rest > eps_net)
        if far.size == 0:
            break
        k += 1 + int(far[0])
    tier_of = {int(r): j for j, rows in enumerate(tier_rows) for r in rows}
    n_tiers = len(tier_rows)
    survivors = []
    for row in net:
        src = tier_of[row]
        ok = all(packed.cross([row], tier_rows[j], metric).min() <= eps_net + 1e-12
                 for j in range(src + 1, n_tiers))
        if ok and src == n_tiers - 1:
            ok = any(packed.cross([row], tier_rows[j], metric).min() <= eps_net + 1e-12
                     for j in range(n_tiers - 1))
        if ok:
            survivors.append(row)
    return survivors


def system_tier_block(system_id, n_seeds, n=8, seed=0):
    """The packed tier images of a pullback ladder, as omega_pullback builds them."""
    fam = make_system(system_id)
    sched = PullbackSchedule.geometric(0.0, n=n)
    lists = ges.omega._tier_seeds(fam, None, None, n_seeds, np.random.default_rng(seed),
                                  sched.t, sched.starts)
    tiers = [ges.omega._image_tier(fam, lst, s, sched.t)
             for s, lst in zip(sched.starts, lists)]
    packed, tier_rows, _ = ges.omega._tier_block(fam.space, tiers, 1)
    return packed, tier_rows


@pytest.mark.parametrize("metric", ["strong", "weak"])
@pytest.mark.parametrize("system_id", ["heat", "bump", "branch2", "forced-scalar"])
def test_pruned_survival_matches_full_tier_rule(system_id, metric):
    packed, tier_rows = system_tier_block(system_id, 12)
    found = 0
    for eps in (0.02, 0.05, 0.2):
        got = _net_and_survive(packed, tier_rows, eps, metric)
        assert got == full_tier_survivors(packed, tier_rows, eps, metric)
        found += len(got)
    assert found > 0


def survival_cap_eps(cap):
    """The eps_net whose survival cap eps_net + 1e-12 is exactly cap."""
    eps = cap - 1e-12
    while eps + 1e-12 < cap:
        eps = np.nextafter(eps, np.inf)
    while eps + 1e-12 > cap:
        eps = np.nextafter(eps, -np.inf)
    assert eps + 1e-12 == cap and eps < cap
    return eps


def test_tier_row_at_exactly_the_survival_cap_counts():
    """A deeper tier row at exactly eps_net + 1e-12 keeps the candidate."""
    eps = survival_cap_eps(0.5)
    space = DualMetricSpace(tag="plane", truncation_radius=8)
    pt = lambda x, y: space.state([0, 1], [x, y])
    tiers = [[pt(0.0, 5.0)],                       # shallow: far from all
             [pt(0.5, 0.0)],                       # candidate b at the cap from c
             [pt(0.0, 0.0), pt(-0.25, 0.0),        # c and a row it absorbs
              pt(3.0, 0.0), pt(3.0, 0.1)]]         # a far pivot and a row it absorbs
    packed = pack_states(space, [st for tier in tiers[::-1] for st in tier])
    tier_rows = [np.array([5]), np.array([4]), np.arange(4)]
    assert packed.cross([4], [0], "strong")[0, 0] == eps + 1e-12
    got = _net_and_survive(packed, tier_rows, eps, "strong")
    assert got == full_tier_survivors(packed, tier_rows, eps, "strong") == [0, 4]


def test_pruning_computes_under_half_the_pairs(monkeypatch):
    """128-seed heat ladder at the CLI's schedule, eps_net and metric."""
    packed, tier_rows = system_tier_block("heat", 128, n=16)
    pairs = [0]
    weak_cross = kernels.weak_cross

    def spy(av, bv, w):
        pairs[0] += av.shape[0] * bv.shape[0]
        return weak_cross(av, bv, w)

    monkeypatch.setattr(kernels, "weak_cross", spy)
    got = _net_and_survive(packed, tier_rows, 0.05, "weak")
    pruned, pairs[0] = pairs[0], 0
    want = full_tier_survivors(packed, tier_rows, 0.05, "weak")
    assert got == want and want
    assert pruned < pairs[0] / 2


def reference_omega(packed, tier_rows, eps_net, metric):
    """Survivors and profile of the omega rule from the full cross matrix:
    a first-come net, deeper tiers and support tested in ascending order,
    and no pivot bound or pivot distance anywhere."""
    strong = metric == "strong"
    kernel = kernels.strong_cross if strong else kernels.weak_cross
    d = kernel(packed.vals, packed.vals, packed.qw if strong else packed.ww)
    net = []
    for row in np.concatenate(tier_rows[::-1]):
        if all(d[row, k] > eps_net for k in net):
            net.append(int(row))
    tier_of = {int(r): j for j, rows in enumerate(tier_rows) for r in rows}
    n_tiers = len(tier_rows)

    def near(row, j):
        return d[row, tier_rows[j]].min() <= eps_net + 1e-12

    survivors = []
    for row in net:
        src = tier_of[row]
        ok = all(near(row, j) for j in range(src + 1, n_tiers))
        if ok and src == n_tiers - 1:
            ok = any(near(row, j) for j in range(n_tiers - 1))
        if ok:
            survivors.append(row)
    target = survivors if survivors else tier_rows[0]
    profile = [d[np.ix_(rows, target)].min(axis=1).max() for rows in tier_rows]
    return survivors, profile


# a plane point: a cluster (or a stray, cluster -1) and a step-1/4 offset,
# so strong distances along an axis, 0.5 among them, are exact
PLANE_POINT = st.tuples(st.integers(-1, 2), st.integers(-2, 2), st.integers(-2, 2))


@st.composite
def plane_ladders(draw):
    n_tiers = draw(st.integers(3, 6))
    tiers = draw(st.lists(st.lists(PLANE_POINT, min_size=1, max_size=6),
                          min_size=n_tiers, max_size=n_tiers))
    return (tiers, draw(st.booleans()), draw(st.sampled_from(["strong", "weak"])),
            draw(st.sampled_from([0.25, 0.5, 0.75])))


def test_omega_from_tiers_matches_the_full_reference():
    """Survivors and profile, bit for bit, of reference_omega on small plane
    ladders: 3 to 6 tiers of clustered points, packed deepest or shallowest
    tier first, with rows at exactly eps_net + 1e-12 from one another."""
    space = DualMetricSpace(tag="plane", truncation_radius=8)
    seen = {"two survivors": 0, "rows at the cap": 0}

    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(plane_ladders())
    def check(ladder):
        tiers, deepest_first, metric, cap = ladder
        states = [[space.state([0, 1], [3.0 * k + x / 4 if k >= 0 else 20.0 + 5 * j,
                                        y / 4])
                   for k, x, y in tier] for j, tier in enumerate(tiers)]
        ordered = states[::-1] if deepest_first else states
        packed = pack_states(space, [s for tier in ordered for s in tier])
        ends = np.cumsum([len(t) for t in ordered])
        rows = [np.arange(end - len(t), end) for t, end in zip(ordered, ends)]
        tier_rows = rows[::-1] if deepest_first else rows
        eps = survival_cap_eps(cap)
        want, profile = reference_omega(packed, tier_rows, eps, metric)
        om = ges.omega._omega_from_tiers("plane", packed, tier_rows, range(len(tiers)),
                                         0.0, metric, eps, 1e-3, "")
        assert [state_to_json(p) for p in om.points] == [
            state_to_json(packed.state(r)) for r in want]
        assert om.profile_values().tobytes() == np.array(profile).tobytes()
        seen["two survivors"] += len(want) >= 2
        seen["rows at the cap"] += bool(
            np.any(packed.cross(np.arange(packed.n_states), np.arange(packed.n_states),
                                metric) == cap))

    check()
    assert seen["two survivors"] >= 20 and seen["rows at the cap"] >= 20


def test_survival_and_profile_reuse_the_net_pass(monkeypatch):
    """Pairs the weak kernel measures once net_rows has returned, on a
    64-seed heat ladder at the CLI's schedule, eps_net and metric (seed 0):
    1,351 when survival tested the shallower tiers first and the profile
    measured every tier row against the survivors, 34 now (1,228 before)."""
    after_net, pairs = [False], [0, 0]
    weak_cross, net_rows = kernels.weak_cross, ges.omega.net_rows

    def cross_spy(av, bv, w):
        pairs[after_net[0]] += av.shape[0] * bv.shape[0]
        return weak_cross(av, bv, w)

    def net_spy(*args):
        kept = net_rows(*args)
        after_net[0] = True
        return kept

    monkeypatch.setattr(kernels, "weak_cross", cross_spy)
    monkeypatch.setattr(ges.omega, "net_rows", net_spy)
    om = omega_pullback(HeatSystem(), PullbackSchedule.geometric(0.0), n_seeds=64,
                        rng=np.random.default_rng(0))
    assert om.points and om.converged
    assert pairs[0] > 1000 and pairs[1] <= 100


# ---------------------------------------------------------------------------
# serialization


def test_omega_json_roundtrip_and_csv():
    fam = HeatSystem()
    om = omega_pullback(fam, PullbackSchedule.geometric(0.0, n=8),
                        n_seeds=6, rng=np.random.default_rng(10))
    csv = om.profile_csv()
    assert csv.splitlines()[0] == "s,semidist,metric,system,t"
    assert len(csv.splitlines()) == 1 + len(om.profile)


def test_profile_csv_bytes():
    profile = [(-1.6, 0.5), (-2.56, 0.125), (-4.096, 1e-20)]
    om = OmegaApprox("heat", 0.5, "weak", 0.05, 1e-3, [], profile, True)
    assert om.profile_csv() == ("s,semidist,metric,system,t\n"
                                "-1.6,0.5,weak,heat,0.5\n"
                                "-2.56,0.125,weak,heat,0.5\n"
                                "-4.096,1e-20,weak,heat,0.5\n")
    rep = AttractionReport("line", "strong", 1e-3, profile[:2], "fails")
    assert rep.profile_csv() == ("s,semidist,metric,system,t\n"
                                 "-1.6,0.5,strong,line,\n"
                                 "-2.56,0.125,strong,line,\n")


# ---------------------------------------------------------------------------
# attraction


class TestAttraction:
    def test_heat_attracts_weakly_to_zero(self):
        fam = HeatSystem()
        sched = PullbackSchedule.geometric(0.0, n=12)
        rep = attraction_diagnostic(fam, sched, [fam.space.zero_state()],
                                    n_seeds=10, rng=np.random.default_rng(0))
        assert rep.verdict == "attracts"

    def test_heat_strong_witnesses_defeat_any_target(self):
        fam = HeatSystem()
        sched = PullbackSchedule.geometric(0.0, n=12)
        witnesses = lambda s: [band_witness(fam.space, 0.0, s)[1]]
        rep = attraction_diagnostic(fam, sched, [fam.space.zero_state()],
                                    seeds=witnesses, metric="strong")
        assert rep.verdict == "fails"
        assert min(d for _, d in rep.profile) >= 0.5 - 1e-6

    def test_line_fails_with_unbounded_profile(self):
        fam = LineSystem()
        sched = PullbackSchedule.geometric(0.0, n=10)
        rep = attraction_diagnostic(fam, sched, [fam.scalar(0.0)], n_seeds=4,
                                    rng=np.random.default_rng(1))
        assert rep.verdict == "fails"
        vals = [d for _, d in rep.profile]
        assert vals[-1] > vals[0]
        assert vals[-1] == pytest.approx(1.6 ** 10, rel=1e-6)

    def test_plateau_between_tolerances_is_inconclusive(self):
        # the anchored label keeps the image at position 1/2, whose weak
        # distance to zero is (1 + 1/2) / (1 + sqrt(2)) ~ 0.62: above tol
        # but below 2 tol, so neither verdict can be claimed
        fam = BumpSystem()
        sched = PullbackSchedule.geometric(0.0, n=8)
        rep = attraction_diagnostic(fam, sched, [fam.space.zero_state()],
                                    labels=[0.5], tol=0.4)
        assert rep.verdict == "inconclusive"
        plateau = 1.5 / (1.0 + math.sqrt(2.0))
        for _, d in rep.profile:
            assert d == pytest.approx(plateau, rel=1e-12)

    def test_empty_target_rejected(self):
        fam = LineSystem()
        sched = PullbackSchedule.geometric(0.0, n=8)
        with pytest.raises(UsageError):
            attraction_diagnostic(fam, sched, [])

    def test_report_json(self):
        fam = HeatSystem()
        sched = PullbackSchedule.geometric(0.0, n=8)
        rep = attraction_diagnostic(fam, sched, [fam.space.zero_state()],
                                    n_seeds=4, rng=np.random.default_rng(3))
        obj = json.loads(rep.to_json())
        assert obj["kind"] == "attraction"
        assert obj["verdict"] == rep.verdict
        assert rep.profile_csv().splitlines()[0] == "s,semidist,metric,system,t"


# ---------------------------------------------------------------------------
# minimality


@pytest.fixture(scope="module")
def heat_omega():
    fam = HeatSystem()
    om = omega_pullback(fam, PullbackSchedule.geometric(0.0, n=10),
                        n_seeds=8, rng=np.random.default_rng(0))
    # a unit-norm low-band profile carries substantial weak mass, so it
    # is genuinely far from the zero limit in the weak metric
    far = band_profile(fam.space, 0, np.random.default_rng(1))
    assert fam.space.weak_dist(far, fam.space.zero_state()) > 4.0 * om.eps_net
    return fam, om, far


class TestMinimality:
    def test_zero_is_minimal(self, heat_omega):
        fam, om, _ = heat_omega
        rep = minimality_check(fam, [fam.space.zero_state()], om)
        assert rep.verdict == "minimal"
        assert rep.contained and not rep.excess_indices

    def test_far_point_is_excess(self, heat_omega):
        fam, om, far = heat_omega
        rep = minimality_check(fam, [fam.space.zero_state(), far], om)
        assert rep.verdict == "excess-points"
        assert rep.excess_indices == [1]
        assert rep.max_excess > 2.0 * om.eps_net

    def test_missing_the_limit_is_not_containing(self, heat_omega):
        fam, om, far = heat_omega
        rep = minimality_check(fam, [far], om)
        assert rep.verdict == "not-containing"

    def test_empty_inputs_rejected(self, heat_omega):
        fam, om, _ = heat_omega
        with pytest.raises(UsageError):
            minimality_check(fam, [], om)
        line = LineSystem()
        empty = omega_pullback(line, PullbackSchedule.geometric(0.0, n=8),
                               n_seeds=3, rng=np.random.default_rng(1))
        with pytest.raises(UsageError, match="empty omega"):
            minimality_check(line, [line.scalar(0.0)], empty)


# ---------------------------------------------------------------------------
# pullback asymptotic compactness


class TestPAC:
    def test_heat_adversarial_spikes_break_compactness(self):
        fam = HeatSystem()
        sched = PullbackSchedule.geometric(0.0, n=12)
        rep = pac_check(fam, sched, rng=np.random.default_rng(0))
        assert rep.verdict == "PAC-violated"
        adv = [r for r in rep.sequences if r.kind == "adversarial"]
        assert len(adv) == 1 and not adv[0].cauchy
        assert adv[0].min_tail_separation >= 0.7
        # every honestly sampled sequence still clusters
        assert all(r.cauchy for r in rep.sequences if r.kind == "sampled")

    def test_heat_without_adversarial_is_consistent(self):
        fam = HeatSystem()
        sched = PullbackSchedule.geometric(0.0, n=12)
        rep = pac_check(fam, sched, include_adversarial=False,
                        rng=np.random.default_rng(1))
        assert rep.verdict == "PAC-consistent"

    def test_bump_adversarial_is_cleanly_2tol_separated(self):
        fam = BumpSystem()
        sched = PullbackSchedule.geometric(0.0, n=12)
        rep = pac_check(fam, sched, rng=np.random.default_rng(2))
        assert rep.verdict == "PAC-violated"
        adv = [r for r in rep.sequences if r.kind == "adversarial"][0]
        assert adv.separated_2tol and not adv.cauchy

    def test_branch_is_consistent(self):
        fam = BranchSystem()
        sched = PullbackSchedule.geometric(0.0, n=12)
        rep = pac_check(fam, sched, rng=np.random.default_rng(3))
        assert rep.verdict == "PAC-consistent"
        assert all(r.cauchy for r in rep.sequences)

    def test_cluster_threshold_tracks_schedule_length(self):
        fam = BranchSystem()
        sched = PullbackSchedule.geometric(0.0, n=12)
        rep = pac_check(fam, sched, rng=np.random.default_rng(4))
        assert rep.sequences[0].cluster_min == 4  # ceil(12 / 3)

    def test_small_sample_rejected(self):
        fam = BranchSystem()
        sched = PullbackSchedule.geometric(0.0, n=8)
        with pytest.raises(UsageError, match="10"):
            pac_check(fam, sched, sample_size=5)

    def test_report_json(self):
        fam = BranchSystem()
        sched = PullbackSchedule.geometric(0.0, n=8)
        rep = pac_check(fam, sched, rng=np.random.default_rng(5))
        obj = json.loads(rep.to_json())
        assert obj["kind"] == "pac" and obj["verdict"] == rep.verdict
        assert len(obj["sequences"]) == len(rep.sequences)

    @pytest.mark.parametrize("make", [HeatSystem, BumpSystem, BranchSystem])
    def test_one_image_per_tier_matches_per_label_images(self, make):
        fam = make()
        sched = PullbackSchedule.geometric(0.0, n=10)
        rep = pac_check(fam, sched, rng=np.random.default_rng(6))
        assert rep == reference_pac(fam, sched, rng=np.random.default_rng(6))


def reference_pac(fam, schedule, rng, tol=0.4, sample_size=10):
    """pac_check as one pullback image per label per tier, for comparison."""
    t, starts = schedule.t, schedule.starts
    cluster_min = max(3, math.ceil(len(starts) / 3.0))
    reports = []

    def run(kind, seeds_per_tier):
        points = [image_states(fam, [x], t, s, branches="first")[0]
                  for s, x in zip(starts, seeds_per_tier)]
        best, min_sep = ges.omega._cluster_stats(pack_states(fam.space, points),
                                                 np.arange(len(points)), tol)
        reports.append(ges.omega.PACSequenceReport(
            kind, best, cluster_min, min_sep, min_sep >= 2.0 * tol,
            best >= cluster_min))

    for lab in fam.seed_labels(sample_size, rng):
        run("sampled", [fam.seed_for(lab, s, t) for s in starts])
    adv = fam.adversarial_sequence(t, starts)
    if adv is not None:
        run("adversarial", list(adv))
    verdict = ("PAC-consistent" if all(r.cauchy for r in reports)
               else "PAC-violated")
    return ges.omega.PACReport(fam.system_id, float(tol), reports, verdict)


# ---------------------------------------------------------------------------
# invariance


class TestInvariance:
    def test_heat_zero_family_fully_invariant(self):
        fam = HeatSystem()
        zero = fam.space.zero_state()
        rep = invariance_check(fam, lambda tau: [zero], kind="full",
                               rng=np.random.default_rng(0))
        assert rep.verdict == "invariant"
        assert max(rep.semi_dev) <= 1e-12
        assert rep.quasi_unmatched == 0

    def test_forced_scalar_orbit_fully_invariant(self):
        fam = ForcedScalarSystem()
        rep = invariance_check(
            fam, lambda tau: [fam.scalar(fam.particular(tau))], kind="full",
            rng=np.random.default_rng(1))
        assert rep.verdict == "invariant"

    def test_off_orbit_constant_family_fails_semi(self):
        fam = ForcedScalarSystem()
        rep = invariance_check(fam, lambda tau: [fam.scalar(0.9)], kind="semi",
                               rng=np.random.default_rng(2))
        assert rep.verdict == "fails"
        assert max(rep.semi_dev) > rep.tol

    def test_bump_manifold_is_semi_invariant(self):
        fam = BumpSystem()
        shifts = np.linspace(-12.0, 12.0, 25)

        def manifold(tau):
            return [bump_state(fam.space, r, tau) for r in shifts]

        rep = invariance_check(fam, manifold, kind="semi",
                               rng=np.random.default_rng(3))
        assert rep.verdict == "semi-invariant"
        assert max(rep.semi_dev) == 0.0

    def test_unreachable_point_keeps_quasi_inconclusive(self):
        fam = HeatSystem()
        spike = high_band_seed(fam.space, np.random.default_rng(4))
        rep = invariance_check(fam, lambda tau: [spike], kind="quasi",
                               metric="strong", budget=6,
                               rng=np.random.default_rng(4))
        assert rep.verdict == "inconclusive"
        assert rep.quasi_unmatched > 0

    def test_full_failing_semi_dominates(self):
        fam = ForcedScalarSystem()
        rep = invariance_check(fam, lambda tau: [fam.scalar(0.9)], kind="full",
                               rng=np.random.default_rng(5))
        assert rep.verdict == "fails"

    def test_validation(self):
        fam = ForcedScalarSystem()
        fn = lambda tau: [fam.scalar(0.0)]
        with pytest.raises(UsageError):
            invariance_check(fam, fn, kind="total")
        with pytest.raises(UsageError):
            invariance_check(fam, fn, window=(1.0, 1.0))
        with pytest.raises(UsageError):
            invariance_check(fam, fn, grid_n=1)
        with pytest.raises(UsageError, match="empty"):
            invariance_check(fam, lambda tau: [])

    def test_report_json(self):
        fam = ForcedScalarSystem()
        rep = invariance_check(
            fam, lambda tau: [fam.scalar(fam.particular(tau))], kind="semi",
            rng=np.random.default_rng(6))
        obj = json.loads(rep.to_json())
        assert obj["kind"] == "invariance"
        assert obj["check"] == "semi"

    # case -> (family, metric, budget, labels, set family of the system)
    QUASI_CASES = {
        "heat spike, unmatched": (
            HeatSystem, "strong", 6, None,
            lambda fam: lambda t: [high_band_seed(fam.space,
                                                  np.random.default_rng(4))]),
        "scalar orbit plus a stray point, unmatched": (
            ForcedScalarSystem, "weak", 24, None,
            lambda fam: lambda t: [fam.scalar(fam.particular(t)),
                                   fam.scalar(1.9)]),
        "branch2 zero": (
            BranchSystem, "weak", 8, None,
            lambda fam: lambda t: [fam.space.zero_state()]),
        "bump manifold plus zero": (
            BumpSystem, "weak", 24,
            list(2.0 - np.linspace(-12.0, 12.0, 25)) + [14.0],
            lambda fam: lambda t: [bump_state(fam.space, float(r), t)
                                   for r in np.linspace(-12.0, 12.0, 25)]
            + [fam.space.zero_state()]),
    }

    @pytest.mark.parametrize("case", sorted(QUASI_CASES))
    def test_quasi_table_matches_per_pair_loop(self, case):
        make, metric, budget, labels, family_of = self.QUASI_CASES[case]
        fam = make()
        family = family_of(fam)
        reps = [invariance_check(fam, family, kind="quasi", metric=metric,
                                 budget=budget, labels=labels,
                                 rng=np.random.default_rng(9), workers=w)
                for w in (1, 2)]
        want = reference_quasi_unmatched(fam, family, metric, budget, labels,
                                         np.random.default_rng(9))
        assert reps[0] == reps[1]
        assert reps[0].quasi_unmatched == want
        assert reps[0].verdict == ("quasi-invariant" if want == 0
                                   else "inconclusive")
        assert (want > 0) == case.endswith("unmatched")


def reference_quasi_unmatched(fam, set_family, metric, budget, labels, rng,
                              window=(0.0, 2.0), grid_n=5, tol=0.05,
                              pull_depth=40.0):
    """The quasi side of invariance_check as a per-pair loop."""
    lo, hi = window
    times = [lo + (hi - lo) * k / (grid_n - 1) for k in range(grid_n)]
    sets = [list(set_family(tau)) for tau in times]
    s_deep = lo - pull_depth
    if labels is None:
        labels = fam.seed_labels(budget, rng)
    trajs = []
    for x in [fam.seed_for(lab, s_deep, times[-1]) for lab in labels]:
        for b in range(fam.branch_count(s_deep, x)):
            trajs.append(fam.evolve(s_deep, x, times, branch=b))
    unmatched = 0
    for j in range(len(times)):
        for b_pt in sets[j]:
            matched = any(
                fam.space.dist(traj[j], b_pt, metric) <= tol
                and all(set_semidist(fam.space, [traj[i]], sets[i], metric)
                        <= tol for i in range(j))
                for traj in trajs)
            unmatched += not matched
    return unmatched


# ---------------------------------------------------------------------------
# tracking


class TestTracking:
    def test_heat_deep_starts_track_zero(self):
        fam = HeatSystem()
        sched = PullbackSchedule.geometric(0.0, n=10)
        rng = np.random.default_rng(0)
        seeds = lambda s: [high_band_seed(fam.space, rng) for _ in range(3)]
        rep = tracking_check(fam, sched, seeds=seeds)
        assert rep.verdict == "holds"
        assert max(rep.weak_sups) <= rep.eps
        assert len(rep.deep_starts) == 2

    def test_single_trajectory_tracks_itself_exactly(self):
        fam = SingleTrajectorySystem()
        sched = PullbackSchedule.geometric(0.0, n=10)
        rep = tracking_check(fam, sched, strong=True,
                             rng=np.random.default_rng(1))
        assert rep.verdict == "holds"
        assert max(rep.weak_sups) == 0.0
        assert max(rep.strong_sups) == 0.0

    def test_bump_profiles_track_registered_shifts(self):
        fam = BumpSystem()
        sched = PullbackSchedule.geometric(0.0, n=10)
        shifts = np.linspace(-6.0, 6.0, 8)
        seeds = lambda s: [bump_state(fam.space, r, s) for r in shifts]
        rep = tracking_check(fam, sched, seeds=seeds,
                             rng=np.random.default_rng(2))
        assert rep.verdict == "holds"
        assert max(rep.weak_sups) == 0.0

    def test_forced_scalar_complete_solution_tracks(self):
        fam = ForcedScalarSystem()
        sched = PullbackSchedule.geometric(0.0, n=10)
        seeds = lambda s: [fam.scalar(fam.particular(s))]
        rep = tracking_check(fam, sched, seeds=seeds,
                             rng=np.random.default_rng(3))
        assert rep.verdict == "holds"
        assert max(rep.weak_sups) <= 1e-12

    def test_line_has_no_complete_trajectories(self):
        fam = LineSystem()
        sched = PullbackSchedule.geometric(0.0, n=10)
        with pytest.raises(UnsupportedError, match="complete"):
            tracking_check(fam, sched)

    def test_report_json(self):
        fam = SingleTrajectorySystem()
        sched = PullbackSchedule.geometric(0.0, n=10)
        rep = tracking_check(fam, sched, rng=np.random.default_rng(4))
        obj = json.loads(rep.to_json())
        assert obj["kind"] == "tracking" and obj["verdict"] == "holds"

    # case -> (family, started seeds of the family, or None to sample)
    CASES = {
        "heat high bands": (HeatSystem, lambda fam: lambda s: [
            high_band_seed(fam.space, np.random.default_rng(k), xi_min=2.0 + k)
            for k in range(3)]),
        "bump off-grid shifts": (BumpSystem, lambda fam: lambda s: [
            bump_state(fam.space, float(r), s)
            for r in np.linspace(-5.3, 6.1, 5)]),
        "forced-scalar sampled": (ForcedScalarSystem, lambda fam: None),
        "single sampled": (SingleTrajectorySystem, lambda fam: None),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_packed_sups_match_per_pair_loop(self, case):
        make, seeds_of = self.CASES[case]
        fam = make()
        sched = PullbackSchedule.geometric(0.0, n=10)
        kw = dict(horizon=2.0, eps=0.05, seeds=seeds_of(fam), count=4,
                  n_complete=5, deep_tiers=3)
        reps = [tracking_check(fam, sched, rng=np.random.default_rng(3),
                               workers=w, strong=True, **kw) for w in (1, 2)]
        weak, strong = reference_tracking(fam, sched,
                                          rng=np.random.default_rng(3), **kw)
        assert reps[0] == reps[1]
        np.testing.assert_allclose(reps[0].weak_sups, weak, rtol=1e-14, atol=0)
        np.testing.assert_allclose(reps[0].strong_sups, strong, rtol=1e-14,
                                   atol=0)
        holds = max(weak) <= 0.05 and max(strong) <= 0.05
        assert reps[0].verdict == ("holds" if holds else "fails")

    @pytest.mark.parametrize("kw", [{"grid_n": 1}, {"grid_n": 0},
                                    {"deep_tiers": 0}, {"deep_tiers": -1},
                                    {"deep_tiers": 11}, {"count": 0},
                                    {"seeds": []}])
    def test_bad_arguments(self, kw):
        fam = ForcedScalarSystem()
        sched = PullbackSchedule.geometric(0.0, n=10)
        with pytest.raises(UsageError):
            tracking_check(fam, sched, **kw)


def reference_tracking(fam, schedule, rng, horizon, eps, seeds, count,
                       n_complete, deep_tiers, grid_n=9):
    """tracking_check's weak and strong sups as a per-pair loop."""
    trajs = fam.complete_trajectories(n_complete, rng)
    weak_sups, strong_sups = [], []
    for s_deep in schedule.starts[-deep_tiers:]:
        if callable(seeds):
            started = list(seeds(s_deep))
        else:
            started = fam.sample_states(count, rng)
        grid = [s_deep + horizon * k / (grid_n - 1) for k in range(grid_n)]
        complete_vals = [[v(tau) for tau in grid] for v in trajs]
        for x in started:
            for b in range(fam.branch_count(s_deep, x)):
                u = fam.evolve(s_deep, x, grid, branch=b)
                weak_sups.append(min(
                    max(fam.space.weak_dist(a, v) for a, v in zip(u, vvals))
                    for vvals in complete_vals))
                strong_sups.append(min(
                    max(fam.space.strong_dist(a, v) for a, v in zip(u, vvals))
                    for vvals in complete_vals))
    return weak_sups, strong_sups


class SpikeSystem(TrajectoryFamily):
    """Every trajectory sits at 0.5, except that it leaves 10x the unit
    ball at the middle sample time."""

    system_id = "spike"

    def __init__(self):
        super().__init__(DualMetricSpace(tag="spike", ball_radius=1.0))

    def _evolve(self, s, x, ts, branch):
        mid = len(ts) // 2
        return [self.space.state([0], [20.0 if k == mid else 0.5])
                for k in range(len(ts))]

    def sample_states(self, count, rng):
        return [self.space.state([0], [0.5]) for _ in range(count)]

    def complete_trajectories(self, count, rng):
        return [lambda tau: self.space.state([0], [0.5])]


class AutonomousSpikeSystem(SpikeSystem):
    autonomous = True


class TestBlowUpGuard:
    def test_omega_pullback(self):
        fam = SpikeSystem()
        with pytest.raises(BlowUpError, match=r"seed #0 \(branch 0\) blew up: \|u\(0.0\)\|"):
            omega_pullback(fam, PullbackSchedule.geometric(0.0, n=4), n_seeds=3)

    def test_forward_omega(self):
        fam = AutonomousSpikeSystem()
        seeds = fam.sample_states(3, np.random.default_rng(0))
        with pytest.raises(BlowUpError, match="seed #0"):
            forward_omega(fam, 0.0, seeds, n=5)

    def test_compose(self):
        # every one-sample run spikes, so the middle images P(s, r)A do
        fam = SpikeSystem()
        seeds = fam.sample_states(2, np.random.default_rng(0))
        with pytest.raises(BlowUpError, match=r"seed #0 \(branch 0\) blew up: \|u\(-1.0\)\|"):
            compose_check(fam, seeds, -2.0, -1.0, 0.0)

    def test_tracking(self):
        fam = SpikeSystem()
        with pytest.raises(BlowUpError, match="seed #0"):
            tracking_check(fam, PullbackSchedule.geometric(0.0, n=4))

    def test_quasi_invariance(self):
        fam = SpikeSystem()
        with pytest.raises(BlowUpError, match="seed #0"):
            invariance_check(fam, lambda t: [fam.space.state([0], [0.5])],
                             kind="quasi", budget=3)
