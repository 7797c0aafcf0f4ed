"""Headline acceptance checks, one test per numbered criterion.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail
line per criterion.  Each test states its tolerance inline; together
they pin down the behaviour the package promises:

  01  heat flow attracts weakly to {0} (deep pullback, fast, monotone)
  02  heat flow has no strong attractor: band witnesses keep norm 1/2
  03  travelling-profile weak limit set = the profile manifold plus {0}
  04  scalar drift on the line defeats every candidate attractor
  05  two-leg pullback composition agrees with the direct image
  06  strong omega points sit inside the weak omega points
  07  autonomous systems: forward and pullback omega sets coincide
  08  spectral-flow energy balance, absorbing radius, absorbing entry
  09  symbol-family union equals the uniform (worst-case) omega set
  10  the verify harness is bytewise deterministic
"""

import copy
import json
import math
import time

import numpy as np
import pytest

from ges.cli import main
from ges.evolution import compose_check, energy_inequality_check
from ges.omega import (PullbackSchedule, attraction_diagnostic, forward_omega,
                       omega_pullback)
from ges.space import hausdorff_dist, pack_states, set_semidist
from ges.symbols import SymbolFamily, union_inclusion_check
from ges.systems import SYSTEM_IDS, make_system
from ges.systems.heat import band_witness
from ges.systems.nse import LAMBDA_1, absorbing_entry_time
from ges.verify import nse_absorbing_check

from conftest import image_states

EPS_NET = 0.05  # default net resolution used throughout


def test_criterion_01_heat_attracts_weakly_to_zero():
    fam = make_system("heat")
    sched = PullbackSchedule.geometric(0.0, n=8)  # deepest start ~ -42.9
    assert sched.starts[-1] == pytest.approx(-(1.6**8))
    t_start = time.perf_counter()
    rep = attraction_diagnostic(fam, sched, [fam.space.zero_state()],
                                n_seeds=24, metric="weak", tol=1e-3,
                                rng=np.random.default_rng(1))
    elapsed = time.perf_counter() - t_start
    vals = [d for _, d in rep.profile]
    assert len(vals) == 8  # one row per start, >= 20 seeds behind each
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
    assert vals[-1] <= 1e-3
    assert rep.verdict == "attracts"
    assert elapsed < 10.0


def test_criterion_02_heat_band_witnesses_defeat_strong_attraction():
    fam = make_system("heat")
    for s0 in (-1.0, -2.0, -4.0):
        j, seed = band_witness(fam.space, 0.0, s0)
        assert abs(fam.space.strong_norm(seed) - 1.0) <= 1e-12
        evolved = fam.evolve(s0, seed, [0.0])[-1]
        assert fam.space.strong_norm(evolved) >= 0.5 - 1e-6
        # the band index must match the closed-form threshold, computed
        # here from scratch: largest j with 2^(2j-2) <= ln2 / (0 - s0)
        bound = 0.5 * (math.log2(math.log(2.0) / (0.0 - s0)) + 2.0)
        assert j == math.floor(bound)


def test_criterion_03_travelling_profile_weak_limit_set():
    fam = make_system("bump")
    rng = np.random.default_rng(3)
    sampled = [float(r) for r in rng.uniform(-3.0, 3.0, size=4)]
    labels = sampled + [12.5]  # the far label supplies the point near 0
    sched = PullbackSchedule.geometric(0.0, n=10)
    om = omega_pullback(fam, sched, labels=labels, metric="weak",
                        eps_net=0.02)
    assert om.points
    zero = fam.space.zero_state()
    assert min(fam.space.weak_dist(p, zero) for p in om.points) <= 0.02
    for r in sampled:
        target = fam.seed_for(r, 0.0, 0.0)
        assert min(fam.space.weak_dist(p, target) for p in om.points) <= 0.02
    # strong-metric pullback ensembles never lose mass: norm 1 +- 1e-9,
    # so the zero limit point belongs to the weak picture only
    for s in sched.starts:
        seeds = [fam.seed_for(lab, s, 0.0) for lab in labels]
        for u in image_states(fam, seeds, 0.0, s):
            assert abs(fam.space.strong_norm(u) - 1.0) <= 1e-9


def test_criterion_04_line_drift_defeats_every_candidate(tmp_path):
    fam = make_system("line")
    sched = PullbackSchedule.geometric(0.0, n=12)
    candidates = [
        [fam.space.zero_state()],
        [fam.scalar(5.0)],
        [fam.scalar(-3.0)],
        [fam.scalar(-3.0), fam.space.zero_state(), fam.scalar(5.0)],
    ]
    for target in candidates:
        rep = attraction_diagnostic(fam, sched, target, n_seeds=8,
                                    rng=np.random.default_rng(4))
        assert rep.verdict == "fails"
        vals = [d for _, d in rep.profile]
        tail = vals[len(vals) // 2:]
        assert all(b > a for a, b in zip(tail, tail[1:]))
        assert vals[-1] >= 2.0 * max(vals[:len(vals) // 2])
        assert vals[-1] >= 50.0  # grows without bound, not a plateau
    # exit-code contract: omega reports no convergence (2); the failed
    # attraction matches the registry expectation of no attractor (0)
    assert main(["omega", "--system", "line", "--out", str(tmp_path)]) == 2
    assert main(["attract", "--system", "line", "--out", str(tmp_path)]) == 0


def test_criterion_05_two_leg_composition_matches_direct_image():
    rng = np.random.default_rng(11)
    # the line family is deliberately not closed under restriction (see
    # its module docstring), so the two-leg identity does not apply there
    for sys_id in ("heat", "single", "bump", "branch2", "forced-scalar"):
        fam = make_system(sys_id)
        worst = 0.0
        for _ in range(100):
            r, s, t = (float(v) for v in np.sort(rng.uniform(-6.0, 0.0, 3)))
            seeds = fam.sample_states(3, rng)
            worst = max(worst, compose_check(fam, seeds, r, s, t))
        assert worst <= 1e-6, f"{sys_id}: composition defect {worst}"
    fam = make_system("nse")
    worst = 0.0
    for _ in range(100):
        r, s, t = (float(v) for v in np.sort(rng.uniform(0.0, 0.5, 3)))
        seeds = fam.sample_states(1, rng)
        worst = max(worst, compose_check(fam, seeds, r, s, t))
    assert worst <= 1e-5, f"nse: composition defect {worst}"


def test_criterion_06_strong_omega_sits_inside_weak_omega():
    for sys_id in SYSTEM_IDS:
        small = sys_id == "nse"  # integrated numerically, keep it shallow
        fam = make_system(sys_id)
        sched = PullbackSchedule.geometric(0.0, n=6 if small else 10)
        kw = dict(n_seeds=6 if small else 10, eps_net=EPS_NET)
        om_s = omega_pullback(fam, sched, metric="strong",
                              rng=np.random.default_rng(5), **kw)
        om_w = omega_pullback(fam, sched, metric="weak",
                              rng=np.random.default_rng(5), **kw)
        if not om_s.points:  # the line family: both approximations empty
            assert sys_id == "line"
            continue
        assert om_w.points, f"{sys_id}: weak side lost the strong points"
        gap = set_semidist(fam.space, om_s.points, om_w.points, "weak")
        assert gap <= 2.0 * EPS_NET, f"{sys_id}: inclusion gap {gap}"


def test_criterion_07_autonomous_forward_equals_pullback():
    bump = make_system("bump")
    seeds = [bump.seed_for(lab, 0.0, 0.0) for lab in (-1.0, 0.5, 2.0)]
    om_f = forward_omega(bump, 0.0, seeds, n=10, eps_net=EPS_NET)
    om_p = omega_pullback(bump, PullbackSchedule.geometric(0.0, n=10),
                          seeds=seeds, eps_net=EPS_NET)
    assert om_f.points and om_p.points
    assert hausdorff_dist(bump.space, om_f.points, om_p.points, "weak") \
        <= 2.0 * EPS_NET

    branch = make_system("branch2")
    seeds = branch.sample_states(6, np.random.default_rng(7))
    for metric in ("weak", "strong"):
        om_f = forward_omega(branch, 0.0, seeds, n=10, metric=metric,
                             eps_net=EPS_NET)
        om_p = omega_pullback(branch, PullbackSchedule.geometric(0.0, n=10),
                              seeds=seeds, metric=metric, eps_net=EPS_NET)
        assert om_f.points and om_p.points
        assert hausdorff_dist(branch.space, om_f.points, om_p.points, metric) \
            <= 2.0 * EPS_NET


def test_criterion_08_spectral_flow_energy_and_absorption():
    fam = make_system("nse")
    rng = np.random.default_rng(8)

    # (a) energy balance on [0, 1]: integral residual <= 1e-6 per window
    x = fam.sample_states(1, rng)[0]
    traj = fam.energy_sample(0.0, x, 1.0, n=8001)
    eps, delta = fam.forcing.normality_check([0.25])[0]
    rep = energy_inequality_check(traj, nu=fam.nu, eps=eps, delta=delta,
                                  integral_tol=1e-6)
    assert rep.verdict == "holds"
    assert rep.max_residual <= 1e-6

    # (b) the absorbing radius closed form, to 1e-9
    assert fam.radius == pytest.approx(2.0 / (1.0 - math.exp(-1.0)),
                                       abs=1e-9)

    # (c) every trajectory started inside |u| <= 2R obeys the decay-plus-
    # forcing bound at all sampled time pairs, with 1e-6 slack; the by-hand
    # evolve loop is the oracle of nse_absorbing_check on the same draws
    radius = fam.absorbing_set_radius()
    horizon = absorbing_entry_time(radius, fam.nu) + 1.0
    grid = np.linspace(0.0, horizon, 41)
    check_grid, check_norms, _, verdict = nse_absorbing_check(fam, copy.deepcopy(rng), 4)
    assert np.array_equal(check_grid, grid) and verdict == "holds"
    bound_const = fam.l2b_bound / (fam.nu * (1.0 - math.exp(-fam.nu * LAMBDA_1)))
    worst = -np.inf
    for x, got in zip(fam.sample_states(4, rng, radius=2.0 * radius), check_norms,
                      strict=True):
        states = fam.evolve(0.0, x, list(grid))
        norms = np.array([fam.space.strong_norm(u) for u in states])
        np.testing.assert_allclose(got, norms, rtol=1e-14, atol=0.0)
        packed = np.array([pack_states(fam.space, [u]).norms[0] for u in states])
        assert np.array_equal(got, packed)
        sq = norms ** 2
        for a in range(grid.size):
            decay = sq[a] * np.exp(-fam.nu * LAMBDA_1 * (grid[a:] - grid[a]))
            worst = max(worst, float((sq[a:] - decay - bound_const).max()))
    assert worst <= 1e-6


def test_criterion_09_symbol_union_equals_uniform_omega():
    symfam = SymbolFamily("forced-scalar", 32)
    base = symfam.system(symfam.symbols[0])
    seeds = [base.space.state([0], [v]) for v in np.linspace(-1.5, 1.5, 8)]
    rep = union_inclusion_check(symfam, seeds, t0=0.0,
                                schedule=PullbackSchedule.geometric(0.0, n=12),
                                metric="weak", eps_net=EPS_NET, tol=0.1)
    assert rep.union_in_uniform <= 2.0 * EPS_NET
    # the 32-phase wheel is dense at the net resolution, so equality holds
    assert rep.uniform_in_union <= 2.0 * EPS_NET
    assert rep.equal
    assert rep.verdict == "included"


def test_criterion_10_verify_harness_is_deterministic(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["verify", "all", "--seed", "7", "--out", str(out)]) == 0
        outs.append((out / "verify_all.json").read_bytes())
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["verdict"] == "pass"
