"""Images, composition, energy checks, weak-seed continuity.

The drifting-line family has closed-form images, so its composition
defect is known exactly: the one-leg image at depth r is {t - r} while
the two-leg image through s is {t - s}, giving |s - r| on the nose.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ges.errors import UsageError
from ges.evolution import (
    TrajectoryFamily,
    TrajectorySample,
    _image_tier,
    _tier_block,
    _trajectory_norms,
    compose_check,
    energy_inequality_check,
    weak_c_convergence_check,
)
from ges.space import DualMetricSpace, hausdorff_dist, pack_states
from ges.systems import (
    BranchSystem,
    BumpSystem,
    ForcedScalarSystem,
    HeatSystem,
    LineSystem,
    NSESystem,
    SingleTrajectorySystem,
    high_band_seed,
)

from conftest import counting_solves, flat_images


# ---------------------------------------------------------------------------
# images


def test_line_image_is_elapsed_time():
    fam = LineSystem()
    for x in (fam.scalar(0.3), fam.scalar(-2.0)):
        assert float(fam.evolve(-5.0, x, [0.0])[0].val[0, 0].real) == pytest.approx(5.0)


def test_branch_rates_are_exact_exponentials():
    fam = BranchSystem()
    x = fam.space.state([0], [1.0])
    got = [float(fam.evolve(0.0, x, [1.0], branch=b)[0].val[0, 0].real)
           for b in range(fam.branch_count(0.0, x))]
    assert got == pytest.approx([math.exp(-1.0), math.exp(-2.0)], rel=1e-15)


class TestImageTier:
    def test_rows_ordered_by_seed_then_branch(self):
        fam = BranchSystem()
        seeds = fam.sample_states(3, np.random.default_rng(0))
        tier = _image_tier(fam, seeds, 0.0, 1.0)
        assert [(i, b) for _, i, b, _, _, _ in tier] == [
            (0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)]
        packed, (rows,), _ = _tier_block(fam.space, [tier], 1)
        want = [fam.evolve(0.0, x, [1.0], branch=b)[0] for _, _, b, x, _, _ in tier]
        for row, w in zip(rows, want):
            assert np.array_equal(packed.state(row).val, w.val)

    def test_branches_first_takes_one_per_seed(self):
        fam = BranchSystem()
        seeds = fam.sample_states(3, np.random.default_rng(0))
        tier = _image_tier(fam, seeds, 0.0, 1.0, branches="first")
        assert [(i, b) for _, i, b, _, _, _ in tier] == [(0, 0), (1, 0), (2, 0)]

    def test_unknown_branches_rule_is_refused(self):
        fam = LineSystem()
        with pytest.raises(UsageError, match="branches"):
            _image_tier(fam, [fam.scalar(0.0)], 0.0, 1.0, branches="some")

    def test_image_set_independent_of_seed_order(self):
        fam = HeatSystem()
        seeds = fam.sample_states(4, np.random.default_rng(1))
        images = []
        for order in (seeds, seeds[::-1]):
            packed, (rows,), _ = _tier_block(
                fam.space, [_image_tier(fam, order, -2.0, 0.0)], 1)
            images.append([packed.state(row) for row in rows])
        assert hausdorff_dist(fam.space, *images, "strong") == 0.0

    def test_heat_images_stay_inside_the_ball(self):
        fam = HeatSystem()
        seeds = fam.sample_states(4, np.random.default_rng(2))
        tiers = [_image_tier(fam, seeds, -depth, 0.0) for depth in (1.0, 4.0, 16.0)]
        packed, _, _ = _tier_block(fam.space, tiers, 1)
        assert packed.norms.max() <= 1.0 + 1e-9

    @pytest.mark.parametrize("fam", [HeatSystem(), BranchSystem()],
                             ids=["heat", "branch2"])
    def test_trajectory_norms_are_the_packed_norms_of_evolve(self, fam):
        seeds = fam.sample_states(3, np.random.default_rng(3))
        grid = np.linspace(-2.0, 1.0, 7)
        samples = [u for x in seeds for u in fam.evolve(-2.0, x, grid)]
        want = pack_states(fam.space, samples).norms.reshape(len(seeds), grid.size)
        for workers in (1, 2):
            got = _trajectory_norms(fam, seeds, -2.0, grid, workers)
            assert np.array_equal(got, want)


# ---------------------------------------------------------------------------
# composition


class ExplodingSystem(TrajectoryFamily):
    """Synthetic growth family used to exercise the ball check."""

    system_id = "exploding"
    autonomous = True

    def __init__(self):
        super().__init__(DualMetricSpace(tag="exploding", ball_radius=1.0))

    def _evolve(self, s, x, ts, branch):
        return [(x.idx, np.array([x.val * math.exp(float(t) - s) for t in ts]))]


class TestCompose:
    def test_line_defect_is_elapsed_gap_exactly(self):
        fam = LineSystem()
        seeds = [fam.scalar(0.0), fam.scalar(1.0)]
        assert compose_check(fam, seeds, -5.0, -2.0, 0.0) == pytest.approx(
            3.0, abs=1e-12)
        assert compose_check(fam, seeds, -8.0, -1.0, 0.0) == pytest.approx(
            7.0, abs=1e-12)

    @pytest.mark.parametrize("make", [
        HeatSystem, BranchSystem, ForcedScalarSystem, BumpSystem,
        SingleTrajectorySystem])
    def test_closed_form_systems_compose_to_solver_noise(self, make):
        fam = make()
        rng = np.random.default_rng(5)
        seeds = fam.sample_states(3, rng)
        assert compose_check(fam, seeds, -4.0, -1.5, 0.0) <= 1e-9

    def test_spectral_flow_composes_within_tolerance(self):
        fam = NSESystem()
        seeds = fam.sample_states(1, np.random.default_rng(3))
        assert compose_check(fam, seeds, 0.0, 0.25, 0.5) <= 1e-6

    def test_one_solve_per_seed_and_leg(self, monkeypatch):
        # P(s, r)A and P(t, r)A share one solve per seed; P(t, s) adds one
        fam = NSESystem()
        seeds = fam.sample_states(2, np.random.default_rng(3))
        calls = counting_solves(monkeypatch)
        compose_check(fam, seeds, 0.0, 0.25, 0.5)
        assert len(calls) == 4

    def test_order_validation(self):
        fam = LineSystem()
        with pytest.raises(UsageError):
            compose_check(fam, [fam.scalar(0.0)], 0.0, -1.0, 1.0)

    def test_empty_seed_set_is_refused(self):
        with pytest.raises(UsageError, match="empty"):
            compose_check(LineSystem(), [], -1.0, 0.0, 1.0)

    def test_images_past_the_ball_are_refused(self):
        # e and e^2 lie past the unit ball but below the 10x blow-up cap
        fam = ExplodingSystem()
        with pytest.raises(UsageError, match="exceeds the ball radius"):
            compose_check(fam, [fam.space.state([0], [1.0])], 0.0, 1.0, 2.0)


def test_evolve_at_start_time_is_identity():
    for fam in (HeatSystem(), BranchSystem(), ForcedScalarSystem()):
        seeds = fam.sample_states(2, np.random.default_rng(7))
        for x in seeds:
            y = fam.evolve(-1.0, x, [-1.0])[0]
            assert fam.space.strong_dist(x, y) == 0.0


@pytest.mark.parametrize("make", [HeatSystem, NSESystem, ForcedScalarSystem,
                                  LineSystem, BranchSystem],
                         ids=lambda make: make.system_id)
def test_no_image_becomes_a_state_on_its_way_to_a_block(make, monkeypatch):
    fam = make()
    x = fam.sample_states(1, np.random.default_rng(8))[0]
    built = []
    real = DualMetricSpace.state
    monkeypatch.setattr(DualMetricSpace, "state",
                        lambda space, idx, val: built.append(idx) or real(space, idx, val))
    images = flat_images(fam.evolve_block(x, [-1, -1, -2], [0, 0.5, 0]))
    assert len(images) == 3
    assert built == []


@pytest.mark.parametrize("make", [HeatSystem, NSESystem, ForcedScalarSystem,
                                  LineSystem, BranchSystem, SingleTrajectorySystem],
                         ids=lambda make: make.system_id)
def test_the_zero_state_evolves(make):
    fam = make()
    zero = fam.space.zero_state()
    ts = [-1.0, -0.5, 0.0]
    for b in range(fam.branch_count(-1.0, zero)):
        assert len(fam.evolve(-1.0, zero, ts, b)) == 3
        assert len(flat_images(fam.evolve_block(zero, [-1.0, -1.0, -2.0], ts, b))) == 3


# ---------------------------------------------------------------------------
# energy checks


def majority_vote_reference(times, norms, eps, delta):
    """The windowed vote of energy_inequality_check pair by pair: its
    violation rows and its largest residual."""
    violations, max_resid = [], -np.inf
    for i in range(1, times.size):
        t = times[i]
        lo = np.searchsorted(times, t - delta, side="right")
        cand = np.arange(lo, i)
        resid = norms[i] - (norms[cand] + eps)
        max_resid = max(max_resid, float(resid.max()))
        if (resid <= 0.0).mean() < 0.9:
            j = cand[int(np.argmax(resid))]
            violations.append((float(times[j]), float(t), float(norms[i]),
                               float(norms[j] + eps), float(resid.max())))
    return violations, max_resid


def heat_sample(n=101, t_hi=2.0):
    fam = HeatSystem()
    seed = high_band_seed(fam.space, np.random.default_rng(0))
    grid = np.linspace(0.0, t_hi, n)
    return TrajectorySample(grid, _trajectory_norms(fam, [seed], 0.0, grid)[0])


class TestEnergyCheck:
    def test_decaying_flow_holds_for_any_eps(self):
        traj = heat_sample()
        for eps in (1e-12, 1e-9, 1e-3):
            rep = energy_inequality_check(traj, eps=eps)
            assert rep.verdict == "holds"
            assert rep.violations == []
            assert rep.n_majority_checks > 0

    def test_constant_zero_holds_trivially(self):
        grid = np.linspace(0.0, 2.0, 41)
        rep = energy_inequality_check(TrajectorySample(grid, np.zeros(41)))
        assert rep.verdict == "holds" and rep.violations == []

    def test_growing_norm_is_flagged(self):
        grid = np.linspace(0.0, 2.0, 81)
        rep = energy_inequality_check(TrajectorySample(grid, np.exp(grid)))
        assert rep.verdict == "violated"
        assert rep.violations and rep.max_residual > 0.1

    def test_grid_must_resolve_the_window(self):
        grid = np.linspace(0.0, 2.0, 11)  # spacing 0.2 > delta/4
        with pytest.raises(UsageError, match="delta/4"):
            energy_inequality_check(TrajectorySample(grid, np.zeros(11)),
                                    delta=0.5)

    def test_integral_identity_on_exponential_decay(self):
        # u' = -u: |u(t)|^2 + 2 int |u|^2 is constant when the norm and
        # the dissipation form coincide and the force vanishes
        grid = np.linspace(0.0, 1.0, 2001)
        u = np.exp(-grid)
        traj = TrajectorySample(grid, u, vnorm_sq=u ** 2,
                                force_pair=np.zeros_like(u))
        rep = energy_inequality_check(traj, nu=1.0, integral_tol=1e-6)
        assert rep.verdict == "holds"
        assert rep.n_integral_checks == 2001
        assert rep.max_residual <= 1e-6

    def test_integral_violation_detected(self):
        # growing norm with zero claimed dissipation and zero force
        grid = np.linspace(0.0, 1.0, 1001)
        u = 1.0 + grid
        traj = TrajectorySample(grid, u, vnorm_sq=np.zeros_like(u),
                                force_pair=np.zeros_like(u))
        rep = energy_inequality_check(traj, nu=1.0, integral_tol=1e-6)
        assert rep.verdict == "violated"
        assert rep.max_residual == pytest.approx(3.0)  # 2^2 - 1^2

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(data=st.data(), shape=st.sampled_from(["any", "rising", "falling"]),
           eps=st.sampled_from([0.0, 1e-9, 0.25]))
    def test_majority_vote_matches_the_pairwise_form(self, data, shape, eps):
        # an irregular grid whose spacing stays below delta/4 = 0.125; on a
        # dyadic grid some t - delta falls exactly on a grid time, the
        # window's open end.  Norms take few values, so ties occur
        dyadic = data.draw(st.booleans())
        gap = (st.sampled_from([1 / 32, 1 / 16, 3 / 32]) if dyadic
               else st.floats(1e-3, 0.124))
        gaps = data.draw(st.lists(gap, min_size=1, max_size=60))
        times = np.cumsum([data.draw(st.integers(-160, 160)) / 32] + gaps)
        norms = data.draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.25, 2.0]),
                                   min_size=times.size, max_size=times.size))
        if shape != "any":
            norms = sorted(norms, reverse=shape == "falling")
        rep = energy_inequality_check(TrajectorySample(times, norms), eps=eps)
        violations, max_resid = majority_vote_reference(
            times, np.asarray(norms, dtype=np.float64), eps, 0.5)
        assert rep.n_majority_checks == times.size - 1
        assert rep.violations == violations
        assert rep.max_residual == max_resid
        if shape == "falling":
            assert rep.verdict == "holds"

    def test_sample_validation(self):
        with pytest.raises(UsageError):
            TrajectorySample(np.array([0.0]), np.array([1.0]))
        with pytest.raises(UsageError):
            TrajectorySample(np.array([0.0, 0.0]), np.array([1.0, 1.0]))
        with pytest.raises(UsageError):
            TrajectorySample(np.array([0.0, 1.0]), np.array([1.0]))


# ---------------------------------------------------------------------------
# continuity under weakly convergent seeds


class TestWeakContinuity:
    def test_high_band_seeds_track_zero_weakly_but_not_strongly(self):
        fam = HeatSystem()
        rng = np.random.default_rng(4)
        seeds = [high_band_seed(fam.space, rng, xi_min=8.0 + 2 * k,
                                xi_max=10.0 + 2 * k) for k in range(3)]
        seeds.append(fam.space.zero_state())
        rep = weak_c_convergence_check(fam, seeds, 0.0, 2.0)
        # weak closeness from the start, improving with the band height
        assert rep.weak_sups[0] < 0.02
        assert rep.weak_sup_last <= rep.weak_sups[0]
        # strong distance cannot converge at the start time itself (all
        # seeds have unit norm there) but does at every later grid time
        assert rep.strong_fraction == pytest.approx(32.0 / 33.0)

    def test_identical_seed_sequence_is_exact(self):
        fam = BranchSystem()
        x = fam.space.state([0], [0.5])
        rep = weak_c_convergence_check(fam, [x, x, x], 0.0, 1.0)
        assert rep.weak_sups == [0.0, 0.0]
        assert rep.strong_fraction == 1.0

    def test_needs_limit_seed(self):
        fam = BranchSystem()
        with pytest.raises(UsageError):
            weak_c_convergence_check(fam, [fam.space.state([0], [0.5])], 0.0, 1.0)

    @pytest.mark.parametrize("grid_n", [1, 0])
    def test_needs_two_grid_times(self, grid_n):
        fam = BranchSystem()
        x = fam.space.state([0], [0.5])
        with pytest.raises(UsageError, match="two times"):
            weak_c_convergence_check(fam, [x, x], 0.0, 1.0, grid_n=grid_n)

    def test_packed_sups_match_pair_distances(self):
        fam = HeatSystem()
        rng = np.random.default_rng(5)
        seeds = [high_band_seed(fam.space, rng, xi_min=1.0 + k, xi_max=3.0 + k)
                 for k in range(3)]
        rep = weak_c_convergence_check(fam, seeds, 0.0, 1.0, grid_n=9)
        limit = fam.evolve(0.0, seeds[-1], rep.grid)
        want = [max(fam.space.weak_dist(a, b)
                    for a, b in zip(fam.evolve(0.0, x, rep.grid), limit))
                for x in seeds[:-1]]
        assert min(want) > 0.0
        np.testing.assert_allclose(rep.weak_sups, want, rtol=1e-14, atol=0)
