"""Symbol-indexed families: shift action, uniform limits, union inclusion.

Frozen oracle: the phase-zero relaxation has the bounded complete
solution (cos + sin)/2, so its pullback omega set at time zero is the
single value 1/2; the union over a full phase wheel sweeps the interval
[-sqrt(2)/2, sqrt(2)/2].
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

import ges.omega
from ges.errors import UsageError
from ges.omega import PullbackSchedule
from ges.symbols import (
    SymbolFamily,
    per_symbol_pullback,
    shift_identity_defect,
    uniform_omega,
    union_inclusion_check,
)
from ges.systems import ForcedScalarSystem, NSESystem

TWO_PI = 2.0 * math.pi


@pytest.fixture(scope="module")
def scalar_family():
    return SymbolFamily.phase_family("forced-scalar", 32)


def scalar_seeds(symfam, count=8):
    fam = symfam.system(0.0)
    return [fam.scalar(v) for v in np.linspace(-1.5, 1.5, count)]


# ---------------------------------------------------------------------------
# the family structure


class TestFamilyStructure:
    def test_phase_wheel_layout(self, scalar_family):
        assert len(scalar_family.symbols) == 32
        assert scalar_family.period == pytest.approx(TWO_PI)
        assert scalar_family.symbols[0] == 0.0
        assert scalar_family.wrap(TWO_PI + 0.3) == pytest.approx(0.3)
        assert scalar_family.shift(0.5, 0.2) == pytest.approx(0.7)

    def test_full_wheel_is_shift_closed(self, scalar_family):
        assert scalar_family.closed_under(TWO_PI / 32)
        assert scalar_family.closed_under(-TWO_PI / 32)

    def test_partial_sample_is_not_closed(self, scalar_family):
        partial = replace(scalar_family, symbols=(0.0, 0.1))
        assert not partial.closed_under(math.pi)

    def test_system_factory_applies_the_phase(self, scalar_family):
        sys1 = scalar_family.system(scalar_family.symbols[3])
        assert isinstance(sys1, ForcedScalarSystem)
        assert sys1.sigma == pytest.approx(scalar_family.symbols[3])

    def test_nse_family_uses_modulated_forcing(self):
        symfam = SymbolFamily.phase_family("nse", 2)
        sys1 = symfam.system(symfam.symbols[1])
        assert isinstance(sys1, NSESystem)
        assert not sys1.autonomous
        assert not sys1.forcing.is_static()

    def test_from_config(self):
        symfam = SymbolFamily.from_config(
            {"kind": "phase", "system": "forced-scalar", "count": 8})
        assert len(symfam.symbols) == 8
        with pytest.raises(UsageError, match="phase"):
            SymbolFamily.from_config({"kind": "orbit"})
        with pytest.raises(UsageError, match="phase"):
            SymbolFamily.from_config([1, 2, 3])
        with pytest.raises(UsageError):
            SymbolFamily.phase_family("forced-scalar", 0)
        with pytest.raises(UsageError, match="no phase family"):
            SymbolFamily.phase_family("heat")


# ---------------------------------------------------------------------------
# shift identity


class TestShiftIdentity:
    def test_scalar_family_shift_is_exact(self, scalar_family):
        fam = scalar_family.system(0.0)
        x = fam.scalar(0.3)
        for sigma in (0.0, scalar_family.symbols[5]):
            for s in (0.7, 2.3, -1.1):
                defect = shift_identity_defect(scalar_family, sigma, s,
                                               -1.0, 2.0, x)
                assert defect <= 1e-12

    def test_autonomous_family_shift_is_trivial(self):
        symfam = SymbolFamily.phase_family("branch2", 4)
        fam = symfam.system(0.0)
        x = fam.space.state([0], [0.5])
        assert shift_identity_defect(symfam, 0.0, 1.3, -1.0, 1.0, x) <= 1e-12

    def test_order_validation(self, scalar_family):
        fam = scalar_family.system(0.0)
        with pytest.raises(UsageError):
            shift_identity_defect(scalar_family, 0.0, 0.0, 1.0, 0.0,
                                  fam.scalar(0.0))


# ---------------------------------------------------------------------------
# per-symbol pullback limits


class TestPerSymbol:
    def test_phase_zero_limit_is_one_half(self, scalar_family):
        sched = PullbackSchedule.geometric(0.0, n=10)
        om = per_symbol_pullback(scalar_family, 0.0, scalar_seeds(scalar_family),
                                 sched)
        assert om.converged and len(om.points) == 1
        assert float(om.points[0].val[0, 0].real) == pytest.approx(0.5, abs=1e-9)
        assert "symbol=" in om.note

    def test_each_symbol_hits_its_particular_value(self, scalar_family):
        sched = PullbackSchedule.geometric(0.0, n=10)
        seeds = scalar_seeds(scalar_family)
        for sigma in scalar_family.symbols[:4]:
            om = per_symbol_pullback(scalar_family, sigma, seeds, sched)
            want = 0.5 * (math.cos(sigma) + math.sin(sigma))
            assert om.converged
            assert float(om.points[0].val[0, 0].real) == pytest.approx(
                want, abs=1e-9)


# ---------------------------------------------------------------------------
# uniform omega and union inclusion


class TestUniform:
    def test_uniform_set_fills_the_swept_interval(self, scalar_family):
        # the limit set is a continuum, so convergence is judged at the
        # net resolution, not at the sharp point tolerance
        om = uniform_omega(scalar_family, scalar_seeds(scalar_family), n=10,
                           tol=0.1)
        assert om.converged
        vals = sorted(float(p.val[0, 0].real) for p in om.points)
        half = math.sqrt(2.0) / 2.0
        assert vals[0] >= -half - 1e-6 and vals[-1] <= half + 1e-6
        # extremes are reached at the net resolution, and consecutive
        # survivors gap by at most the 32-sample wheel's value spacing
        # (amplitude times the phase step) plus the net coarseness
        assert vals[0] <= -half + 2.0 * om.eps_net
        assert vals[-1] >= half - 2.0 * om.eps_net
        wheel_step = half * TWO_PI / 32.0
        gaps = [b - a for a, b in zip(vals, vals[1:])]
        assert max(gaps) <= wheel_step + 2.0 * om.eps_net

    def test_union_included_and_equal_for_closed_wheel(self, scalar_family):
        rep = union_inclusion_check(scalar_family,
                                    scalar_seeds(scalar_family),
                                    schedule=PullbackSchedule.geometric(0.0, n=10))
        assert rep.verdict == "included"
        assert rep.union_in_uniform <= rep.threshold
        assert rep.uniform_in_union <= rep.threshold
        assert rep.equal
        assert rep.closed_sample
        assert "is closed" in rep.note

    def test_autonomous_wheel_collapses_to_one_system(self):
        symfam = SymbolFamily.phase_family("branch2", 4)
        fam = symfam.system(0.0)
        seeds = fam.sample_states(6, np.random.default_rng(0))
        om = uniform_omega(symfam, seeds, n=10)
        assert om.converged and len(om.points) == 1
        zero = fam.space.zero_state()
        assert fam.space.weak_dist(om.points[0], zero) <= om.eps_net
        rep = union_inclusion_check(symfam, seeds,
                                    schedule=PullbackSchedule.geometric(0.0, n=10))
        assert rep.verdict == "included" and rep.equal

    def test_validation(self, scalar_family):
        with pytest.raises(UsageError):
            uniform_omega(scalar_family, [])
        with pytest.raises(UsageError):
            uniform_omega(scalar_family, scalar_seeds(scalar_family), n=2)

    @pytest.mark.parametrize("kw", [{"metric": "bogus"}, {"eps_net": 0.0},
                                    {"tol": -1.0}])
    def test_bad_arguments_fail_before_integration(self, scalar_family,
                                                   monkeypatch, kw):
        def no_integration(*args, **kwargs):
            raise AssertionError("integrated before checking the arguments")

        monkeypatch.setattr(ges.omega, "pullback_image", no_integration)
        with pytest.raises(UsageError):
            uniform_omega(scalar_family, scalar_seeds(scalar_family), n=4, **kw)
