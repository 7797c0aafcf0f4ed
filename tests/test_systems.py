"""Model systems: exact flows, witness constructions, spectral invariants.

Frozen oracle values:
* diffusion multiplier e^(-1/4) = 0.7788007830714049 for xi = 1/2, 1 unit
* witness band table: elapsed 1.0 -> band 0, ln2/2 -> 1, 2.0 -> 0, 4.0 -> -1
* travelling profile at position 1/2: (1, 1)/sqrt(2)
* absorbing radius at unit window bound, nu = 1: 2/(1 - e^-1)
  = 3.163953413738653, and it scales linearly in the window bound
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import solve_ivp as scipy_solve_ivp

import ges
import ges.systems.nse as nse_module
from ges import kernels
from ges.cli import main
from ges.errors import ForcingFormatError, UsageError
from ges.symbols import TWO_PI, SymbolFamily
from ges.systems import (
    BranchSystem,
    BumpSystem,
    ForcedScalarSystem,
    ForcingMode,
    ForcingProfile,
    HeatSystem,
    LineSystem,
    NSESystem,
    SYSTEM_IDS,
    SingleTrajectorySystem,
    absorbing_entry_time,
    absorbing_radius,
    band_profile,
    band_witness,
    bump_state,
    default_forcing,
    get_basis,
    high_band_seed,
    make_bump_space,
    make_heat_space,
    make_system,
)
from ges.systems.branch import RATES
from ges.systems.line import make_line_space

from conftest import counting_solves, flat_images, image_states


# ---------------------------------------------------------------------------
# registry


def test_registry_lists_all_seven_systems():
    assert SYSTEM_IDS == ("branch2", "bump", "forced-scalar", "heat", "line",
                          "nse", "single")
    assert isinstance(make_system("heat"), HeatSystem)
    with pytest.raises(UsageError, match="unknown system"):
        make_system("vortex")


@pytest.mark.parametrize("module", [ges, ges.systems], ids=["ges", "ges.systems"])
def test_public_names_resolve(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


def test_attractor_expectations_registry():
    want = {
        "heat": (True, False),
        "bump": (True, False),
        "line": (False, False),
        "single": (True, True),
        "branch2": (True, True),
        "forced-scalar": (True, True),
        "nse": (True, True),
    }
    for sid, (weak, strong) in want.items():
        cls = type(make_system(sid)) if sid != "nse" else NSESystem
        assert cls.expectations["weak_attractor"] is weak, sid
        assert cls.expectations["strong_attractor"] is strong, sid


@pytest.mark.parametrize("sid", SYSTEM_IDS)
def test_every_system_refuses_a_run_outside_its_contract(sid):
    fam = make_system(sid)
    x = fam.sample_states(1, np.random.default_rng(3))[0]
    other = make_system("line" if sid == "branch2" else "branch2")
    foreign = other.sample_states(1, np.random.default_rng(3))[0]
    bad_branch = fam.branch_count(0.0, x)
    for msg, (s, seed, ts, branch) in {
            "precede": (0.0, x, [-1.0], 0),
            "handed to space": (0.0, foreign, [1.0], 0),
            "out of range": (0.0, x, [1.0], bad_branch)}.items():
        with pytest.raises(UsageError, match=msg):
            fam.evolve(s, seed, ts, branch=branch)
        with pytest.raises(UsageError, match=msg):
            fam.evolve_block(seed, [s, s], [1.0, ts[0]], branch=branch)


@pytest.mark.parametrize("sid", SYSTEM_IDS)
def test_every_system_refuses_starts_that_do_not_match_the_times(sid):
    fam = make_system(sid)
    x = fam.sample_states(1, np.random.default_rng(3))[0]
    for starts in ([0.0, 0.0], [0.0], [0.0] * 4):
        with pytest.raises(UsageError, match="start times for 3 sample times"):
            fam.evolve_block(x, starts, [0.1, 0.2, 0.3])


@pytest.mark.parametrize("sid", SYSTEM_IDS)
def test_every_system_evolves_no_sample_times_to_no_states(sid):
    fam = make_system(sid)
    x = fam.sample_states(1, np.random.default_rng(3))[0]
    assert fam.evolve(0.0, x, []) == []
    assert fam.evolve(1.5, x, [], branch=fam.branch_count(1.5, x) - 1) == []


# ---------------------------------------------------------------------------
# diffusion on the line


class TestHeat:
    space = make_heat_space()

    def test_exact_multiplier(self):
        # slot 32 sits at xi = 1/2; one unit of elapsed time scales the
        # coefficient by e^(-1/4)
        x = self.space.state([32], [1.0])
        y = HeatSystem().evolve(0.0, x, [1.0])[0]
        assert float(y.val[0, 0].real) == pytest.approx(
            0.7788007830714049, abs=1e-15)

    def test_backward_evolution_rejected(self):
        x = self.space.state([32], [1.0])
        with pytest.raises(UsageError, match="forward"):
            HeatSystem().evolve(0.0, x, [-1.0])
        with pytest.raises(UsageError, match="forward"):
            HeatSystem().evolve_block(x, [0.0, 1.0], [0.5, 0.5])

    def test_broadcast_images_are_bitwise_per_image_products(self):
        fam = HeatSystem()
        seeds = fam.sample_states(4, np.random.default_rng(4))
        seeds.append(self.space.state(seeds[0].idx, seeds[0].val * (0.6 - 0.3j)))
        depths = [0.05, 0.4, 1.6, 6.5536]
        for x in seeds:
            xi = x.idx[:, 0].astype(np.float64) * self.space.grid_spacing
            want = [x.val * np.exp(xi * xi * (0.0 - d))[:, None] for d in depths]
            got = fam.evolve(0.0, x, depths)
            assert all(g.idx is x.idx for g in got)
            (idx, block), = fam.evolve_block(x, [-d for d in depths], [0.0] * 4)
            block = block()
            assert idx is x.idx and block.dtype == (
                np.complex128 if np.any(x.val.imag) else np.float64)
            for k, w in enumerate(want):
                assert got[k].val.tobytes() == w.tobytes()
                assert block[k].tobytes() == (w if np.any(w.imag) else w.real).tobytes()

    @pytest.mark.parametrize("elapsed,band", [
        (1.0, 0), (math.log(2.0) / 2.0, 1), (2.0, 0), (4.0, -1)])
    def test_witness_band_table(self, elapsed, band):
        j, seed = band_witness(self.space, 0.0, -elapsed)
        assert j == band
        assert self.space.strong_norm(seed) == pytest.approx(1.0, abs=1e-12)
        evolved = HeatSystem().evolve(-elapsed, seed, [0.0])[0]
        assert self.space.strong_norm(evolved) >= 0.5 - 1e-6

    def test_witness_support_sits_in_the_band(self):
        j, seed = band_witness(self.space, 0.0, -1.0)
        xi = np.abs(seed.idx[:, 0]) * self.space.grid_spacing
        assert xi.min() >= 2.0 ** (j - 1) - self.space.grid_spacing
        assert xi.max() <= math.sqrt(math.log(2.0)) + 1e-12

    def test_witness_below_grid_resolution_rejected(self):
        with pytest.raises(UsageError, match="grid"):
            band_witness(self.space, 0.0, -1e9)

    def test_norm_nonincreasing_along_solutions(self):
        fam = HeatSystem()
        seed = band_profile(fam.space, 2, np.random.default_rng(0))
        traj = fam.evolve(0.0, seed, np.linspace(0.0, 3.0, 13))
        norms = [fam.space.strong_norm(u) for u in traj]
        assert all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))

    def test_high_band_pullback_norm_bound(self):
        # support above xi_min forces decay at least e^(xi_min^2 (s - t))
        fam = HeatSystem()
        seed = high_band_seed(fam.space, np.random.default_rng(1))
        for depth in (0.05, 0.1, 0.2):
            out = image_states(fam, [seed], 0.0, -depth)[0]
            assert fam.space.strong_norm(out) <= math.exp(-64.0 * depth) + 1e-12

    def test_high_band_seed_is_weakly_negligible(self):
        fam = HeatSystem()
        seed = high_band_seed(fam.space, np.random.default_rng(2))
        assert fam.space.strong_norm(seed) == pytest.approx(1.0, abs=1e-12)
        assert np.abs(seed.idx[:, 0]).min() * fam.space.grid_spacing >= 8.0
        assert fam.space.weak_dist(seed, fam.space.zero_state()) < 0.01

    def test_adversarial_spikes_disjoint_and_persistent(self):
        fam = HeatSystem()
        starts = [-1.0, -1.01, -2.0, -4.0]  # two nearly equal depths
        seeds = fam.adversarial_sequence(0.0, starts)
        slots = [abs(int(s.idx[1, 0])) for s in seeds]
        assert len(set(slots)) == len(slots)
        for s, x in zip(starts, seeds):
            out = fam.evolve(s, x, [0.0])[0]
            assert fam.space.strong_norm(out) >= 0.5 - 1e-9

    def test_adversarial_validation(self):
        fam = HeatSystem()
        with pytest.raises(UsageError):
            fam.adversarial_sequence(0.0, [1.0])
        with pytest.raises(UsageError, match="too deep"):
            fam.adversarial_sequence(0.0, [-1e9])


# ---------------------------------------------------------------------------
# travelling profile


class TestBump:
    space = make_bump_space()

    def test_half_step_profile(self):
        st = bump_state(self.space, 0.0, 0.5)
        assert st.idx[:, 0].tolist() == [0, 1]
        inv = 1.0 / math.sqrt(2.0)
        assert st.val[:, 0].real.tolist() == pytest.approx([inv, inv], abs=1e-15)

    def test_integer_position_is_a_coordinate_vector(self):
        st = bump_state(self.space, 0.0, 3.0)
        assert st.idx[:, 0].tolist() == [3, 4]
        assert st.val[:, 0].real.tolist() == pytest.approx([1.0, 0.0], abs=1e-15)

    def test_unit_norm_everywhere(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            r, t = rng.uniform(-20, 20), rng.uniform(-20, 20)
            st = bump_state(self.space, r, t)
            assert self.space.strong_norm(st) == pytest.approx(1.0, abs=1e-12)

    def test_weak_distance_to_zero_decays_with_position(self):
        zero = self.space.zero_state()
        for tau in (8.3, 12.7, 20.0):
            st = bump_state(self.space, 0.0, tau)
            n = math.floor(tau)
            assert self.space.weak_dist(st, zero) <= 3.0 * 2.0 ** (-n + 1)

    def test_evolution_slides_exactly(self):
        fam = BumpSystem()
        x = bump_state(fam.space, -1.25, 0.0)
        out = fam.evolve(0.0, x, [2.5])[0]
        assert fam.space.strong_dist(out, bump_state(fam.space, -1.25, 2.5)) == 0.0

    def test_label_names_the_position_at_evaluation_time(self):
        fam = BumpSystem()
        seed = fam.seed_for(5.0, -3.0, 0.0)
        out = fam.evolve(-3.0, seed, [0.0])[0]
        want = bump_state(fam.space, -5.0, 0.0)  # position 5 at t = 0
        assert fam.space.strong_dist(out, want) <= 1e-12

    def test_off_manifold_seeds_rejected(self):
        fam = BumpSystem()
        bad = [
            fam.space.state([0], [0.9]),             # not unit
            fam.space.state([0, 2], [0.8, 0.6]),     # non-adjacent slots
            fam.space.state([0], [1.0j]),            # complex
            fam.space.state([0, 1], [-0.8, 0.6]),    # negative component
            fam.space.zero_state(),                  # no slot at all
        ]
        for x in bad:
            with pytest.raises(UsageError):
                fam.evolve(0.0, x, [1.0])

    def test_complete_trajectories_are_deterministic_shifts(self):
        fam = BumpSystem()
        trajs = fam.complete_trajectories(8, np.random.default_rng(0))
        assert len(trajs) == 8
        first = trajs[0](0.0)
        last = trajs[-1](0.0)
        assert fam.space.strong_dist(first, bump_state(fam.space, -6.0, 0.0)) == 0.0
        assert fam.space.strong_dist(last, bump_state(fam.space, 6.0, 0.0)) == 0.0

    def test_adversarial_profiles_yield_far_apart_images(self):
        fam = BumpSystem()
        seeds = fam.adversarial_sequence(0.0, [-1.0, -2.0, -3.0])
        images = [fam.evolve(s, x, [0.0])[0]
                  for s, x in zip([-1.0, -2.0, -3.0], seeds)]
        for i in range(len(images)):
            for j in range(i + 1, len(images)):
                assert fam.space.strong_dist(images[i], images[j]) >= 1.0


def test_single_trajectory_ignores_the_seed():
    fam = SingleTrajectorySystem()
    rng = np.random.default_rng(0)
    a, b = fam.sample_states(2, rng)
    ta = fam.evolve(0.0, a, [1.3])[0]
    tb = fam.evolve(0.0, b, [1.3])[0]
    assert fam.space.strong_dist(ta, tb) == 0.0
    assert fam.space.strong_dist(ta, fam.trajectory(1.3)) == 0.0


# ---------------------------------------------------------------------------
# drifting line


class TestLine:
    def test_solution_is_elapsed_time(self):
        fam = LineSystem()
        out = fam.evolve(-3.0, fam.scalar(7.0), [0.0, 1.0])
        assert float(out[0].val[0, 0].real) == 3.0
        assert float(out[1].val[0, 0].real) == 4.0

    def test_weak_metric_coincides_with_strong(self):
        space = make_line_space()
        a, b = space.state([0], [1.0]), space.state([0], [4.0])
        assert space.weak_dist(a, b) == space.strong_dist(a, b) == 3.0


# ---------------------------------------------------------------------------
# two-rate decay


class TestBranch:
    def test_rates(self):
        assert RATES == (1.0, 2.0)
        fam = BranchSystem()
        x = fam.space.state([1], [0.5])
        for b, rate in enumerate(RATES):
            out = fam.evolve(0.0, x, [2.0], branch=b)[0]
            assert float(out.val[0, 0].real) == pytest.approx(
                0.5 * math.exp(-2.0 * rate), rel=1e-15)

    def test_branch_out_of_range(self):
        fam = BranchSystem()
        with pytest.raises(UsageError, match="branch"):
            fam.evolve(0.0, fam.space.state([0], [0.5]), [1.0], branch=2)

    def test_branch_count(self):
        fam = BranchSystem()
        assert fam.branch_count(0.0, fam.space.state([0], [0.5])) == 2


# ---------------------------------------------------------------------------
# phase-forced scalar relaxation


class TestForcedScalar:
    def test_closed_form_solution(self):
        fam = ForcedScalarSystem()
        s, u0, t = -2.0, 0.7, 1.5
        out = fam.evolve(s, fam.scalar(u0), [t])[0]
        want = math.exp(-(t - s)) * (u0 - fam.particular(s)) + fam.particular(t)
        assert float(out.val[0, 0].real) == pytest.approx(want, abs=1e-15)

    def test_particular_solution_is_complete(self):
        fam = ForcedScalarSystem(sigma=0.8)
        for s, t in ((-5.0, -1.0), (0.0, 3.0)):
            out = fam.evolve(s, fam.scalar(fam.particular(s)), [t])[0]
            assert float(out.val[0, 0].real) == pytest.approx(
                fam.particular(t), abs=1e-12)

    def test_scalar_states_live_on_slot_zero(self):
        fam = ForcedScalarSystem()
        with pytest.raises(UsageError, match="index 0"):
            fam.evolve(0.0, fam.space.state([1], [0.5]), [1.0])


# ---------------------------------------------------------------------------
# spectral Galerkin flow


@pytest.fixture(scope="module")
def nse():
    return NSESystem()


@pytest.fixture(scope="module")
def nse_free():
    return NSESystem(forcing=ForcingProfile([]))


class TestNSEStructure:
    def test_mode_count_and_truncation(self, nse):
        assert nse.basis.m == 256
        assert nse.space.truncation_radius == 8
        assert nse.space.index_dim == 3 and nse.space.component_dim == 3

    def test_bilinear_conserves_energy(self, nse):
        rng = np.random.default_rng(5)
        for x in nse.sample_states(3, rng):
            v = nse.dense_values(x)
            adv = nse.dense_values(nse.bilinear(x))
            pairing = float(np.real(np.conj(v) * adv).sum())
            assert abs(pairing) <= 1e-10

    def test_forcing_outside_cutoff_rejected(self):
        prof = ForcingProfile([ForcingMode(k=(9, 0, 0), amp=1.0)])
        with pytest.raises(UsageError, match="cutoff"):
            NSESystem(forcing=prof)

    def test_dense_roundtrip(self, nse):
        x = nse.sample_states(1, np.random.default_rng(6))[0]
        back = nse.state_from_dense(nse.dense_values(x))
        assert nse.space.strong_dist(x, back) == 0.0

    def test_sample_states_are_solenoidal(self, nse):
        for x in nse.sample_states(3, np.random.default_rng(7)):
            assert nse.incompressibility_defect(x) <= 1e-12

    def test_ball_convention_flag(self):
        assert NSESystem(ball_convention="norm-squared").absorbing_set_radius() \
            == pytest.approx(math.sqrt(absorbing_radius(1.0, 1.0)), rel=1e-9)
        with pytest.raises(UsageError, match="ball_convention"):
            NSESystem(ball_convention="diameter")


def pair_sum_bilinear(vals, basis):
    """-P sum_{p+q=k} (v_p . i q) v_q by direct enumeration of the retained
    (k, p, q) triples with Leray projection.  O(m^2) memory and time, so it
    serves as an oracle at small cutoffs only."""
    modes = [tuple(int(c) for c in k) for k in basis.modes]
    row = {k: i for i, k in enumerate(modes)}
    triples = []
    for o, ko in enumerate(modes):
        for p, kp in enumerate(modes):
            q = row.get((ko[0] - kp[0], ko[1] - kp[1], ko[2] - kp[2]))
            if q is not None:
                triples.append((o, p, q))
    pair_out, pair_p, pair_q = np.array(triples, dtype=np.int64).reshape(-1, 3).T
    kvec = basis.kvec
    dot = (vals[pair_p] * kvec[pair_q]).sum(axis=1)
    contrib = 1j * dot[:, None] * vals[pair_q]
    out = np.empty((basis.m, 3), dtype=np.complex128)
    for c in range(3):
        re = np.bincount(pair_out, weights=contrib[:, c].real, minlength=basis.m)
        im = np.bincount(pair_out, weights=contrib[:, c].imag, minlength=basis.m)
        out[:, c] = re + 1j * im
    kd = (out * kvec).sum(axis=1) / basis.ksq
    out -= kd[:, None] * kvec
    return -out


def full_field(z):
    """The full dense field whose rows m // 2 on are z: row m - 1 - i holds
    -k of row i, so the other rows are z's conjugates in reverse order."""
    return np.concatenate([np.conj(z[::-1]), z])


_KERNEL_HASHES = """
import hashlib
import numpy as np
from ges import kernels
from ges.systems.nse import get_basis
for kmax in (4, 6):
    b = get_basis(kmax)
    rng = np.random.default_rng(kmax)
    shape = (b.m // 2, 3)
    for _ in range(4):
        v = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        out = kernels.nse_bilinear(v, b.kvec, b.grid_index, b.grid_n)
        print(kmax, hashlib.sha256(out.tobytes()).hexdigest())
"""


class TestNSEAdvection:
    """The partial-DFT advection kernel against the convolution pair sum."""

    @staticmethod
    def assert_matches_pair_sum(basis, v):
        # the kernel takes and returns rows m // 2 on of the full field v
        h = basis.m // 2
        got = kernels.nse_bilinear(v[h:], basis.kvec, basis.grid_index, basis.grid_n)
        ref = pair_sum_bilinear(v, basis)[h:]
        # at kmax = 1 no retained triad closes and ref is identically zero
        scale = max(float(np.abs(ref).max()), 1.0)
        assert np.abs(got - ref).max() <= 1e-13 * scale

    @pytest.mark.parametrize("kmax", [1, 2, 3])
    def test_matches_pair_sum_on_sampled_fields(self, kmax):
        fam = NSESystem(kmax=kmax)
        for x in fam.sample_states(3, np.random.default_rng(kmax), active_kmax=kmax):
            self.assert_matches_pair_sum(fam.basis, full_field(fam.dense_values(x)))

    @pytest.mark.parametrize("kmax", [1, 2, 3, 4])
    def test_matches_pair_sum_on_random_real_fields(self, kmax):
        # real, but neither solenoidal nor confined to the low modes
        basis = get_basis(kmax)
        rng = np.random.default_rng(10 + kmax)
        for _ in range(3):
            v = rng.normal(size=(basis.m, 3)) + 1j * rng.normal(size=(basis.m, 3))
            self.assert_matches_pair_sum(basis, v + np.conj(v[::-1]))

    @pytest.mark.parametrize("kmax", [2, 3])
    def test_matches_pair_sum_on_the_kx_0_plane(self, kmax):
        # a real field on kx = 0 only: half its modes are the mirrors of the
        # kernel's rows, and their products stay on the plane
        basis = get_basis(kmax)
        rng = np.random.default_rng(40 + kmax)
        plane = basis.modes[:, 0] == 0
        for _ in range(3):
            v = rng.normal(size=(basis.m, 3)) + 1j * rng.normal(size=(basis.m, 3))
            v[~plane] = 0.0
            v = v + np.conj(v[::-1])
            assert np.abs(pair_sum_bilinear(v, basis)).max() > 0.1
            self.assert_matches_pair_sum(basis, v)

    @pytest.mark.parametrize("kmax", [2, 3, 4])
    def test_curl_free_field_has_no_projected_advection(self, kmax):
        # for v_k = i k phi_k the advective term is the pure gradient
        # grad(u . u / 2), which the projection removes; a Hermitian
        # potential makes the field real, the kernel's domain
        basis = get_basis(kmax)
        rng = np.random.default_rng(20 + kmax)
        for _ in range(3):
            phi = rng.normal(size=basis.m) + 1j * rng.normal(size=basis.m)
            phi = (phi + np.conj(phi[::-1])) / 2
            v = 1j * basis.kvec * phi[:, None]
            assert np.array_equal(v[::-1], np.conj(v))
            bound = 1e-13 * float((np.abs(v) ** 2).sum()) * kmax
            got = kernels.nse_bilinear(v[basis.m // 2:], basis.kvec, basis.grid_index,
                                       basis.grid_n)
            assert np.abs(got).max() <= bound
            assert np.abs(pair_sum_bilinear(v, basis)).max() <= bound

    def test_output_is_hermitian_and_solenoidal_at_kmax_4(self):
        fam = NSESystem(kmax=4)
        basis = fam.basis
        for x in fam.sample_states(3, np.random.default_rng(4), active_kmax=4):
            v = fam.dense_values(x)
            out = full_field(kernels.nse_bilinear(v, basis.kvec, basis.grid_index,
                                                  basis.grid_n))
            scale = float(np.abs(out).max())
            assert scale > 0
            # the mirror rows rebuilt by conjugation are the term's own
            ref = pair_sum_bilinear(full_field(v), basis)
            assert np.abs(out - ref).max() <= 1e-13 * scale
            assert np.abs((out * basis.kvec).sum(axis=1)).max() <= 1e-14 * scale

    def test_conserves_energy_at_kmax_6(self):
        fam = NSESystem(kmax=6)
        for x in fam.sample_states(2, np.random.default_rng(12), active_kmax=6):
            v = fam.dense_values(x)
            adv = fam.dense_values(fam.bilinear(x))
            assert abs(float(np.real(np.conj(v) * adv).sum())) <= 1e-10

    def test_threads_share_no_transform_arrays(self):
        # each thread keeps its own arrays: concurrent calls give the bits
        # of one thread's calls
        basis = get_basis(3)
        rng = np.random.default_rng(30)
        shape = (basis.m // 2, 3)  # any rows m // 2 on make a real field
        fields = [rng.normal(size=shape) + 1j * rng.normal(size=shape) for _ in range(8)]

        def run(v):
            return kernels.nse_bilinear(v, basis.kvec, basis.grid_index, basis.grid_n)

        want = [run(v) for v in fields]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                got = list(pool.map(run, fields * 25, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert all(np.array_equal(g, want[i % 8]) for i, g in enumerate(got))

    def test_bits_do_not_depend_on_blas_threads(self):
        # the stages are BLAS products, and at kmax 6 the x stage is large
        # enough for OpenBLAS to split it between two threads
        root = Path(__file__).resolve().parents[1]
        hashes = []
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": str(root / "src"),
                   "OPENBLAS_NUM_THREADS": threads}
            res = subprocess.run([sys.executable, "-c", _KERNEL_HASHES], env=env,
                                 capture_output=True, text=True, timeout=300)
            assert res.returncode == 0, res.stderr
            hashes.append(res.stdout.splitlines())
        assert len(hashes[0]) == 8 and hashes[0] == hashes[1]

    @pytest.mark.parametrize("kmax", [1, 4, 8])
    def test_basis_holds_only_per_mode_arrays(self, kmax):
        basis = get_basis(kmax)
        assert basis.grid_n % 2 == 0 and 3 * kmax + 1 <= basis.grid_n <= 3 * kmax + 2
        arrays = [a for a in vars(basis).values() if isinstance(a, np.ndarray)]
        assert arrays and all(a.shape[0] == basis.m for a in arrays)
        assert np.array_equal(basis.modes[::-1], -basis.modes)
        assert np.all(basis.modes[basis.m // 2:, 0] >= 0)  # the kernel's rows
        # the cube of lines holds the rows with kx >= 0, each in a slot of its own
        half = basis.modes[:, 0] >= 0
        assert np.unique(basis.grid_index[half]).size == half.sum()


class TestNSEFlow:
    def test_single_mode_decays_at_the_stokes_rate(self, nse_free):
        basis = nse_free.basis
        e1 = basis.transverse_unit((1, 0, 0))
        v = np.zeros((basis.m, 3), dtype=np.complex128)
        v[basis.row((1, 0, 0))] = 0.3 * e1
        v[basis.row((-1, 0, 0))] = 0.3 * e1
        x = nse_free.state_from_dense(v[basis.m // 2:])
        t = 0.7
        out = nse_free.evolve(0.0, x, [t])[0]
        want = math.sqrt(2.0) * 0.3 * math.exp(-nse_free.nu * 1.0 * t)
        assert nse_free.space.strong_norm(out) == pytest.approx(want, rel=1e-7)

    def test_unforced_norm_nonincreasing(self, nse_free):
        x = nse_free.sample_states(1, np.random.default_rng(8))[0]
        grid = np.linspace(0.0, 1.0, 5)
        traj = nse_free.evolve(0.0, x, grid)
        norms = [nse_free.space.strong_norm(u) for u in traj]
        assert all(a >= b - 1e-10 for a, b in zip(norms, norms[1:]))

    def test_incompressibility_preserved(self, nse):
        x = nse.sample_states(1, np.random.default_rng(9))[0]
        out = nse.evolve(0.0, x, [1.0])[0]
        assert nse.incompressibility_defect(out) <= 1e-8

    def test_non_real_seed_is_refused(self, nse):
        x = nse.sample_states(1, np.random.default_rng(0))[0]
        v = x.val.copy()  # the full field, rows in the basis order
        # its mirror -k keeps the old conjugate
        v[nse.basis.row((1, 1, 0))] *= 1.0 + 1e-15j
        bad = nse.space.state(x.idx, v)
        for run in (lambda: nse.evolve(0.0, bad, [0.5]),
                    lambda: nse.evolve_block(bad, [0.0], [0.5]),
                    lambda: nse.bilinear(bad)):
            with pytest.raises(UsageError, match="real field"):
                run()

    def test_reality_condition_preserved(self, nse):
        # exactly: the solver integrates one mode of each +-k pair, and the
        # state is rebuilt from them by conjugation
        x = nse.sample_states(1, np.random.default_rng(0))[0]
        v = nse.evolve(0.0, x, [2.0])[0].val  # the full field, rows in the basis order
        assert np.array_equal(v[::-1], np.conj(v))

    # neither mode lists its mirror -k, so the force field is complex
    UNPAIRED = {"modes": [{"k": [1, 0, 0], "amp": [1, 0]},
                          {"k": [0, 1, 0], "amp": [0, 1]}]}

    def test_non_hermitian_force_is_refused(self, tmp_path, capsys):
        a = complex(0.2, 0.7)
        for prof in (ForcingProfile.from_dict(self.UNPAIRED),
                     ForcingProfile([ForcingMode(k=(1, 2, 0), amp=a),
                                     ForcingMode(k=(-1, -2, 0), amp=a)])):
            with pytest.raises(ForcingFormatError, match="conjugate amplitude"):
                NSESystem(forcing=prof)
        path = tmp_path / "force.json"
        path.write_text(json.dumps(self.UNPAIRED))
        for action in ("info", "energy", "omega"):
            out = tmp_path / action
            code = main(["nse", action, "--forcing", str(path), "--out", str(out)])
            assert code == 65
            err = capsys.readouterr().err
            assert err.startswith("forcing error: ") and err.count("\n") == 1
            assert not out.exists()

    def test_backward_time_rejected(self, nse):
        x = nse.sample_states(1, np.random.default_rng(11))[0]
        with pytest.raises(UsageError, match="precede"):
            nse.evolve(0.0, x, [-0.5])


def _sin_forced_nse():
    modes = [ForcingMode(k=k, amp=complex(0.5), kind="sin", omega=2.0)
             for k in ((1, 0, 0), (-1, 0, 0))]
    return NSESystem(forcing=ForcingProfile(modes))


class TestNSEBlock:
    def test_static_force_makes_one_solve_for_every_depth(self, nse, monkeypatch):
        assert nse.autonomous
        x = nse.sample_states(1, np.random.default_rng(12))[0]
        starts = [-3.2, -5.12, -8.192]
        calls = counting_solves(monkeypatch)
        images = flat_images(nse.evolve_block(x, starts, [0.0] * 3))
        assert len(calls) == 1
        assert len(images) == 3
        for s, (idx, val) in zip(starts, images):
            want = nse.evolve(s, x, [0.0])[0]
            assert np.array_equal(idx, want.idx)
            assert np.array_equal(val, want.val)

    def test_time_dependent_force_solves_once_per_start(self, monkeypatch):
        fam = _sin_forced_nse()
        assert not fam.autonomous
        x = fam.sample_states(1, np.random.default_rng(13))[0]
        starts, ts = [-0.5, -0.5, -0.8], [0.0, 0.2, 0.0]
        calls = counting_solves(monkeypatch)
        images = flat_images(fam.evolve_block(x, starts, ts))
        assert calls == [-0.5, -0.8]
        want = fam.evolve(-0.5, x, [0.0, 0.2]) + fam.evolve(-0.8, x, [0.0])
        assert len(images) == len(want)
        for (idx, val), st in zip(images, want):
            assert np.array_equal(idx, st.idx)
            assert np.array_equal(val, st.val)

    def test_image_before_its_start_rejected(self, nse):
        x = nse.sample_states(1, np.random.default_rng(14))[0]
        with pytest.raises(UsageError, match="precede"):
            nse.evolve_block(x, [-1.0, 0.0], [0.0, -0.5])


def _scipy_twin(fam, y0, t_span, t_eval):
    """Solve with the package's stepper, then with scipy's DOP853 over the
    same start and the stepper's last step end at max_step=_MAX_STEP, and
    check that both give the same bits, nfev and right-hand-side times.
    Returns the stepper's right-hand-side times."""

    def recording(times):
        def fun(t, y):
            times.append(t)
            return fam.rhs_dense(t, y.reshape(-1, 3)).ravel()
        return fun

    got_times, want_times = [], []
    got = nse_module.solve_ivp(recording(got_times), t_span, y0, rtol=1e-8,
                               atol=1e-11, t_eval=t_eval)
    want = scipy_solve_ivp(recording(want_times), (t_span[0], max(got_times)), y0,
                           method="DOP853", rtol=1e-8, atol=1e-11, t_eval=t_eval,
                           max_step=nse_module._MAX_STEP)
    assert got.success and want.success
    assert np.array_equal(got.y, want.y)
    assert got.nfev == want.nfev == len(got_times)
    # the same right-hand-side times: the steps never clip to the span
    assert got_times == want_times
    return got_times


class TestNSESolver:
    """The in-package Dormand-Prince 8(5,3) stepper reproduces scipy's
    DOP853 with max_step, dense-output stages included."""

    @pytest.mark.parametrize("force", ["static", "sin"])
    @pytest.mark.parametrize("t_span, t_eval", [
        ((0.0, 1.5), [0.25, 0.9, 1.5]),      # interior samples plus the end
        ((-0.5, 0.5), np.linspace(-0.5, 0.5, 2001)),  # energy_sample's grid
        ((0.0, 1e-9), [5e-10, 1e-9]),         # shorter than the first step guess
    ], ids=["interior-and-end", "dense", "short-span"])
    def test_bitwise_equal_to_scipy_dop853(self, nse, force, t_span, t_eval):
        fam = nse if force == "static" else _sin_forced_nse()
        y0 = fam.dense_values(fam.sample_states(1, np.random.default_rng(15))[0]).ravel()
        _scipy_twin(fam, y0, t_span, t_eval)

    def test_step_cap_binds_and_matches_scipy_max_step(self, nse):
        y0 = nse.dense_values(nse.sample_states(1, np.random.default_rng(0))[0]).ravel()
        times = _scipy_twin(nse, y0, (0.0, 8.0), [1.0, 8.0])
        # without the cap scipy takes other steps over the same span
        uncapped = scipy_solve_ivp(lambda t, y: nse.rhs_dense(t, y.reshape(-1, 3)).ravel(),
                                   (0.0, max(times)), y0, method="DOP853", rtol=1e-8,
                                   atol=1e-11, t_eval=[1.0, 8.0])
        assert uncapped.nfev != len(times)


def _energy_loop(fam, grid, y):
    """The per-sample reference for energy_sample: (|u|, ||u||^2, <g, u>),
    each summed over the full fields."""
    norms, vsq, pair = [], [], []
    for i, t in enumerate(grid):
        v = full_field(y[:, i].reshape(-1, 3))
        norms.append(math.sqrt(float((np.abs(v) ** 2).sum())))
        vsq.append(float((fam.basis.ksq[:, None] * np.abs(v) ** 2).sum()))
        pair.append(float(np.real(np.conj(full_field(fam.g_dense(t))) * v).sum()))
    return np.array(norms), np.array(vsq), np.array(pair)


def _force_rebuilt(fam, t):
    """The dense force at t, rebuilt mode by mode from the basis."""
    basis = fam.basis
    g = np.zeros((basis.m, 3), dtype=np.complex128)
    for e in fam.forcing.entries:
        g[basis.row(e.k)] += complex(e.envelope(t)) * basis.transverse_unit(e.k)
    return g


class TestNSEDenseSolve:
    """A dense solve stores its samples once; the energy functionals and
    the force come from arrays built once."""

    def test_peak_memory_is_about_the_output(self, nse):
        x = nse.sample_states(1, np.random.default_rng(16))[0]
        v0 = nse.dense_values(x)
        n = 8001  # verify's energy trajectory
        grid = np.linspace(0.0, 1.0, n)
        out_bytes = v0.size * n * v0.itemsize
        for solve in (lambda: nse._integrate(0.0, v0, grid),
                      lambda: nse.energy_sample(0.0, x, 1.0, n=n)):
            tracemalloc.start()
            try:
                solve()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 1.25 * out_bytes

    @pytest.mark.parametrize("force", ["static", "sin"])
    def test_energy_sample_matches_the_per_sample_loop(self, nse, force):
        fam = nse if force == "static" else _sin_forced_nse()
        x = fam.sample_states(1, np.random.default_rng(17))[0]
        grid = np.linspace(-0.5, 0.5, 401)
        traj = fam.energy_sample(-0.5, x, 0.5, n=grid.size)
        y = np.stack([fam.dense_values(u).ravel() for u in fam.evolve(-0.5, x, grid)],
                     axis=1)
        norms, vsq, pair = _energy_loop(fam, grid, y)
        assert np.array_equal(traj.times, grid)
        np.testing.assert_allclose(traj.norms, norms, rtol=1e-13)
        np.testing.assert_allclose(traj.vnorm_sq, vsq, rtol=1e-13)
        np.testing.assert_allclose(traj.force_pair, pair, rtol=1e-13)

    @pytest.mark.parametrize("force, start", [("static", 0.0), ("sin", -1.0)])
    def test_energy_trajectory_is_the_one_evolve_samples(self, nse, monkeypatch,
                                                         force, start):
        """The autonomy rule: under a static force both solves run from time
        0 over the durations t - s, under a sin force both from s."""
        fam = nse if force == "static" else _sin_forced_nse()
        x = fam.sample_states(1, np.random.default_rng(19))[0]
        solves = []
        real = NSESystem._integrate

        def spy(self, s, v0, t_eval):
            solves.append((s, np.asarray(t_eval, dtype=np.float64)))
            return real(self, s, v0, t_eval)

        monkeypatch.setattr(NSESystem, "_integrate", spy)
        grid = np.linspace(-1.0, 0.0, 5)
        fam.energy_sample(-1.0, x, 0.0, n=5)
        fam.evolve(-1.0, x, grid)
        (s_energy, ts_energy), (s_evolve, ts_evolve) = solves
        assert s_energy == s_evolve == start
        assert np.array_equal(ts_energy, ts_evolve)
        assert np.array_equal(ts_energy, grid + 1.0 if fam.autonomous else grid)

    @pytest.mark.parametrize("force", ["static", "sin"])
    def test_force_equals_a_mode_by_mode_rebuild_bit_for_bit(self, nse, force):
        fam = nse if force == "static" else _sin_forced_nse()
        for t in (0.0, 0.3, -1.7, 2.25):
            rebuilt = _force_rebuilt(fam, t)[fam.basis.m // 2:]
            assert np.array_equal(fam.g_dense(t).view(np.int64), rebuilt.view(np.int64))

    def test_time_dependent_solve_looks_up_no_mode(self, monkeypatch):
        fam = _sin_forced_nse()
        v0 = fam.dense_values(fam.sample_states(1, np.random.default_rng(18))[0])
        lookups = []
        for name in ("row", "transverse_unit"):
            real = getattr(nse_module.SpectralBasis, name)

            def counting(self, k, real=real, name=name):
                lookups.append(name)
                return real(self, k)

            monkeypatch.setattr(nse_module.SpectralBasis, name, counting)
        fam._integrate(0.0, v0, [0.25, 0.5])
        assert lookups == []


class TestAbsorbing:
    def test_radius_examples(self):
        assert absorbing_radius(0.0, 1.0) == 0.0
        assert absorbing_radius(1.0, 1.0) == pytest.approx(
            3.163953413738653, abs=1e-15)
        assert absorbing_radius(2.0, 1.0) == pytest.approx(
            2.0 * absorbing_radius(1.0, 1.0), rel=1e-15)
        with pytest.raises(UsageError):
            absorbing_radius(1.0, 0.0)

    def test_entry_time(self):
        r = absorbing_radius(1.0, 1.0)
        assert absorbing_entry_time(r, 1.0) == pytest.approx(
            1.558305421877021, abs=1e-12)
        with pytest.raises(UsageError, match="empty"):
            absorbing_entry_time(0.4, 1.0)

    def test_default_system_quantities(self, nse):
        assert nse.l2b_bound == pytest.approx(1.0, rel=1e-12)
        assert nse.radius == pytest.approx(3.163953413738653, rel=1e-12)
        assert nse.space.ball_radius == pytest.approx(2.0 * nse.radius, rel=1e-12)


class TestForcing:
    def test_default_forcing_window_bound_is_one(self):
        assert default_forcing().translational_bound() == pytest.approx(
            1.0, rel=1e-12)

    def test_static_bound_is_instantaneous_norm(self):
        prof = ForcingProfile([ForcingMode(k=(2, 0, 0), amp=2.0)])
        # |amp|^2 / |k|^2 = 4/4 = 1
        assert prof.translational_bound() == pytest.approx(1.0, rel=1e-12)

    def test_sinusoidal_bound_quadrature_oracle(self):
        # sin^2 over a full period averages to 1/2
        prof = ForcingProfile([ForcingMode(k=(1, 0, 0), amp=1.0, kind="sin",
                                           omega=2.0 * math.pi)])
        assert prof.translational_bound() == pytest.approx(0.5, abs=1e-5)

    def test_normality_zero_force_gets_the_cap(self):
        assert ForcingProfile([]).normality_check([0.1]) == [(0.1, 1.0)]

    def test_normality_generous_eps_gets_the_cap(self):
        assert default_forcing().normality_check([2.0]) == [(2.0, 1.0)]

    def test_normality_delta_scales_as_eps_over_magnitude(self):
        # static force with ||g||_{V'}^2 = 2: delta(eps) = eps / 2
        prof = ForcingProfile([ForcingMode(k=(1, 0, 0), amp=math.sqrt(2.0))])
        (eps, delta), = prof.normality_check([0.5])
        assert delta == pytest.approx(0.25, abs=1e-6)

    def test_default_normality_table(self):
        out = default_forcing().normality_check([0.25, 0.5, 1.0])
        for (eps, delta), want in zip(out, (0.25, 0.5, 1.0)):
            assert delta == pytest.approx(want, abs=1e-6)

    def test_window_integral_static(self):
        assert default_forcing().window_integral_sup(0.3) == pytest.approx(
            0.3, rel=1e-12)

    def test_hermitian_detection(self):
        assert default_forcing().is_hermitian()
        lone = ForcingProfile([ForcingMode(k=(1, 0, 0), amp=1.0)])
        assert not lone.is_hermitian()
        a = complex(0.2, 0.7)
        good = ForcingProfile([ForcingMode(k=(1, 2, 0), amp=a),
                               ForcingMode(k=(-1, -2, 0), amp=a.conjugate())])
        assert good.is_hermitian()
        bad = ForcingProfile([ForcingMode(k=(1, 2, 0), amp=a),
                              ForcingMode(k=(-1, -2, 0), amp=a)])
        assert not bad.is_hermitian()
        wheel = SymbolFamily("nse", 4).system(TWO_PI / 4)
        assert wheel.forcing.is_hermitian()

    @pytest.mark.parametrize("plus,minus", [
        # the two laws agree on [0, 3] and part after it
        (dict(kind="sampled", times=(0.0, 3.0, 6.0), values=(1.0, 1.0, 1.0)),
         dict(kind="sampled", times=(0.0, 3.0, 6.0), values=(1.0, 1.0, 1 + 2j))),
        # sin(t) and sin((1 + 4 pi) t) agree at every half-integer t
        (dict(kind="sin", omega=1.0), dict(kind="sin", omega=1.0 + 4.0 * math.pi)),
    ], ids=["sampled", "sin"])
    def test_laws_that_differ_only_off_a_probe_are_not_hermitian(self, plus, minus):
        prof = ForcingProfile([ForcingMode(k=(1, 0, 0), amp=1.0, **plus),
                               ForcingMode(k=(-1, 0, 0), amp=1.0, **minus)])
        assert not prof.is_hermitian()

    @pytest.mark.parametrize("mode,sup", [
        (ForcingMode(k=(2, 0, 0), amp=2.0), 1.0),
        # int_t^{t+1} sin^2 peaks at 1/2 + |sin w| / (2 w)
        (ForcingMode(k=(1, 0, 0), amp=1.0, kind="sin", omega=7.3, phase=0.4),
         0.5 + abs(math.sin(7.3)) / 14.6),
        # the peak windows start at t = 5 + 2 pi n
        (ForcingMode(k=(1, 0, 0), amp=1.0, kind="sin", omega=0.5,
                     phase=math.pi / 2.0 - 2.75), 0.5 + abs(math.sin(0.5))),
        # the law holds 10 after its last knot t = 5
        (ForcingMode(k=(0, 1, 0), amp=1.0, kind="sampled",
                     times=(0.0, 4.0, 4.5, 5.0), values=(0.0, 0.0, 3.0, 10.0)),
         100.0),
        # rises to 3 over [9, 10] and holds it: the windows past t = 9 see it
        (ForcingMode(k=(1, 0, 0), amp=1.0, kind="sampled",
                     times=(0.0, 9.0, 10.0), values=(0.0, 0.0, 3.0)), 9.0),
        # a tent over [5, 7] peaks inside a piece, on the window [5.5, 6.5]:
        # 2 (1 - 1/8) / 3
        (ForcingMode(k=(1, 0, 0), amp=1.0, kind="sampled",
                     times=(5.0, 6.0, 7.0), values=(0.0, 1.0, 0.0)), 7.0 / 12.0),
    ], ids=["static", "sin", "sin-late-peak", "sampled", "sampled-tail",
            "sampled-tent"])
    def test_translational_bound_is_the_unit_window_sup(self, mode, sup):
        prof = ForcingProfile([mode])
        assert prof.translational_bound() == prof.window_integral_sup(1.0)
        assert prof.translational_bound() == pytest.approx(sup, rel=1e-5)

    def test_modes_with_different_laws_sum_their_own_sups(self):
        # a zero frequency leaves the constant law 2 sin(0.3); the sampled
        # mode holds 3 after t = 10 and sits at |k|^2 = 4
        prof = ForcingProfile([
            ForcingMode(k=(1, 0, 0), amp=2.0, kind="sin", omega=0.0, phase=0.3),
            ForcingMode(k=(0, 2, 0), amp=1.0, kind="sampled", times=(0.0, 9.0, 10.0),
                        values=(0.0, 0.0, 3.0))])
        assert prof.window_integral_sup(0.5) == pytest.approx(
            4.0 * math.sin(0.3) ** 2 * 0.5 + 9.0 * 0.5 / 4.0, rel=1e-12)

    def test_roundtrip_through_dict(self):
        prof = ForcingProfile([
            ForcingMode(k=(1, 0, 0), amp=complex(0.5, -0.25), kind="sin",
                        omega=1.5, phase=0.4),
            ForcingMode(k=(0, 1, 0), amp=1.0, kind="sampled",
                        times=(0.0, 1.0), values=(0.0 + 0j, 1.0 + 0j)),
        ])
        back = ForcingProfile.from_dict(prof.to_dict())
        probe = np.linspace(0.0, 2.0, 9)
        for e0, e1 in zip(prof.entries, back.entries):
            assert e0.k == e1.k
            assert np.allclose(e0.envelope(probe), e1.envelope(probe))

    def test_empty_mode_list_is_zero_force(self):
        prof = ForcingProfile.from_dict({"modes": []})
        assert prof.translational_bound() == 0.0
        assert prof.is_static()

    @pytest.mark.parametrize("obj", [
        {},                                                   # no modes key
        {"modes": "nope"},                                    # not a list
        {"modes": [{"k": [1, 0], "amp": [1, 0]}]},            # short k
        {"modes": [{"k": [0, 0, 0], "amp": [1, 0]}]},         # mean mode
        {"modes": [{"k": [1, 0, 0], "amp": [1, 0]},
                   {"k": [1, 0, 0], "amp": [1, 0]}]},         # duplicate
        {"modes": [{"k": [1, 0, 0], "amp": [1, 0],
                    "time": {"kind": "ramp"}}]},              # unknown law
        {"modes": [{"k": [1, 0, 0], "amp": [1, 0],
                    "time": {"kind": "sampled", "times": [0.0],
                             "values": [[0.0, 0.0]]}}]},      # short sample
        {"modes": [{"k": [1, 0, 0], "amp": 1.0}]},            # amp not a pair
        {"modes": [{"k": [1.7, 0, 0], "amp": [1, 0]}]},       # fractional k
        {"modes": [{"k": [True, 0, 0], "amp": [1, 0]}]},      # bool in k
        {"modes": [{"k": [1e400, 0, 0], "amp": [1, 0]}]},     # k overflows
        {"modes": [{"k": [1, 0, 0], "amp": [1, 0],
                    "time": {"kind": "sin", "omega": True}}]},  # bool number
        {"modes": [{"k": [1, 0, 0], "amp": [1, 0],
                    "time": {"kind": "sampled", "times": [1, 0],
                             "values": [[0, 0], [1, 0]]}}]},  # times decrease
    ])
    def test_malformed_forcing_rejected(self, obj):
        with pytest.raises(ForcingFormatError):
            ForcingProfile.from_dict(obj)

    def test_transverse_unit_is_orthogonal_and_mirror_stable(self):
        basis = get_basis(4)
        for k in ((1, 0, 0), (1, 2, 0), (2, 1, 2), (0, 0, 3)):
            e = basis.transverse_unit(k)
            assert abs(float(np.dot(e, np.asarray(k, float)))) <= 1e-12
            assert np.allclose(e, basis.transverse_unit(tuple(-c for c in k)))
            assert np.linalg.norm(e) == pytest.approx(1.0, abs=1e-12)
