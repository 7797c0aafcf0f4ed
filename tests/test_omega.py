"""Omega-limit approximation, attraction, minimality, PAC, invariance,
tracking.

The drifting-line family is the engineered failure case: its images run
away, so nothing survives the two-depth corroboration rule and the
profile records per-tier drift from the shallowest image.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from ges.errors import UnsupportedError, UsageError
from ges.omega import (
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
from ges.space import DualMetricSpace, hausdorff_dist, pack_states, set_semidist
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
)


# ---------------------------------------------------------------------------
# schedules


class TestSchedule:
    def test_geometric_depths(self):
        sched = PullbackSchedule.geometric(0.0, delta=1.0, rho=2.0, n=4)
        assert sched.starts == (-2.0, -4.0, -8.0, -16.0)
        assert sched.depths().tolist() == [2.0, 4.0, 8.0, 16.0]

    def test_linear(self):
        sched = PullbackSchedule.linear(1.0, step=0.5, n=4)
        assert sched.starts == (0.5, 0.0, -0.5, -1.0)

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


# ---------------------------------------------------------------------------
# serialization


def test_omega_json_roundtrip_and_csv():
    fam = HeatSystem()
    om = omega_pullback(fam, PullbackSchedule.geometric(0.0, n=8),
                        n_seeds=6, rng=np.random.default_rng(10))
    back = OmegaApprox.from_json(om.to_json())
    assert back.system_id == om.system_id
    assert back.converged == om.converged
    assert back.profile == om.profile
    assert len(back.points) == len(om.points)
    for a, b in zip(om.points, back.points):
        assert fam.space.strong_dist(a, b) == 0.0
    csv = om.profile_csv()
    assert csv.splitlines()[0] == "s,semidist,metric,system,t"
    assert len(csv.splitlines()) == 1 + len(om.profile)
    with pytest.raises(UsageError):
        OmegaApprox.from_json(json.dumps({"kind": "attraction"}))


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
