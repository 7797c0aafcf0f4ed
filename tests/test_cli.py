"""End-to-end tests for the `ges` command-line driver.

Every test drives ``ges.cli.main`` in process with an isolated output
directory, then checks three contracts: the exit code, the artifact
files (names plus JSON/CSV schema), and determinism (same inputs, same
bytes, regardless of worker count).
"""

import argparse
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ges
import ges.cli
import ges.systems.nse
import ges.verify
from ges.cli import ExperimentConfig, _omega_exit, _verdict_exit, build_parser, main
from ges.errors import ForcingFormatError, UsageError
from ges.omega import OmegaApprox, attraction_diagnostic
from ges.systems import make_system
from ges.systems.nse import ForcingProfile


def run(tmp_path, *argv):
    out = tmp_path / "out"
    code = main([*argv, "--out", str(out)])
    return code, out


def _reject_constant(name):
    raise ValueError(f"artifact holds the non-strict JSON constant {name}")


def read_json(out, name):
    """Parse an artifact as strict JSON: NaN and Infinity are refused."""
    return json.loads((out / name).read_text(), parse_constant=_reject_constant)


# ---------------------------------------------------------------------------
# exit-code contract + artifact schema, one subcommand at a time


class TestOmegaCommand:
    def test_heat_weak_converges_with_exit_zero(self, tmp_path, capsys):
        code, out = run(tmp_path, "omega", "--system", "heat")
        assert code == 0
        obj = read_json(out, "omega_heat_weak.json")
        assert obj["schema"] == 1
        assert obj["kind"] == "omega"
        assert obj["system"] == "heat"
        assert obj["metric"] == "weak"
        assert obj["converged"] is True
        assert len(obj["points"]) >= 1
        assert obj["profile"][-1][1] <= obj["tol"]
        csv = (out / "profile_heat_weak.csv").read_text().splitlines()
        assert csv[0] == "s,semidist,metric,system,t"
        assert len(csv) == 1 + len(obj["profile"])
        assert "converged=True" in capsys.readouterr().out

    def test_line_escape_is_inconclusive_exit_two(self, tmp_path):
        code, out = run(tmp_path, "omega", "--system", "line", "--n", "10")
        assert code == 2
        obj = read_json(out, "omega_line_weak.json")
        assert obj["converged"] is False
        assert obj["points"] == []
        assert "no convergence" in obj["note"]
        vals = [d for _, d in obj["profile"]]
        assert vals == sorted(vals)  # drift grows monotonically with depth
        assert vals[-1] == pytest.approx(1.6**10 - 1.6, rel=1e-9)

    def test_bump_plateau_is_inconclusive_exit_two(self, tmp_path):
        code, out = run(tmp_path, "omega", "--system", "bump",
                        "--metric", "weak")
        assert code == 2
        obj = read_json(out, "omega_bump_weak.json")
        assert obj["converged"] is False
        assert len(obj["points"]) >= 1  # survivors exist, they just plateau


def omega_record(profile, points=(), converged=False, note=""):
    return OmegaApprox("nse", 0.0, "weak", 0.05, 0.05, list(points),
                       [(-2.0 * (i + 1), d) for i, d in enumerate(profile)],
                       converged, note)


class TestOmegaExit:
    """Exit 3 needs a growing profile; an empty net alone is inconclusive."""

    @pytest.mark.parametrize("profile,expected,code", [
        ((0.0, 0.354, 0.370), True, 2),       # flat: too shallow a ladder
        ((0.0, 0.2, 0.5, 1.1), True, 3),      # grows over its last half
        ((0.0, 0.2, 0.5, 1.1), False, 2),     # no attractor registered
        ((0.3, 0.3, 0.3), True, 2),           # plateau above tol
        ((0.0, float("inf"), float("inf")), True, 2),
    ])
    def test_empty_survivor_set(self, profile, expected, code):
        assert _omega_exit(omega_record(profile), expected, 0.05) == code

    def test_growing_profile_with_points_fails(self):
        om = omega_record((0.01, 0.2, 0.5), points=[object()])
        assert _omega_exit(om, True, 0.05) == 3

    def test_converged(self):
        om = omega_record((0.0, 0.0, 0.0), points=[object()], converged=True)
        assert _omega_exit(om, True, 0.05) == 0

    def test_nse_omega_prints_the_note(self, tmp_path, capsys, monkeypatch):
        om = omega_record((0.0, 0.354, 0.370),
                          note="no convergence at this depth")
        monkeypatch.setattr(ges.cli, "omega_pullback", lambda *a, **kw: om)
        code, out = run(tmp_path, "nse", "omega", "--n", "3")
        assert code == 2
        first = capsys.readouterr().out.splitlines()[0]
        assert first == ("omega nse weak: converged=False points=0 final=0.37 "
                         "note='no convergence at this depth'")
        assert read_json(out, "omega_nse_weak.json")["note"] == om.note
        assert (out / "profile_nse_weak.csv").exists()


class TestAttractCommand:
    def test_heat_weak_zero_target_attracts(self, tmp_path):
        code, out = run(tmp_path, "attract", "--system", "heat")
        assert code == 0
        obj = read_json(out, "attract_heat_weak.json")
        assert obj["kind"] == "attraction"
        assert obj["verdict"] == "attracts"
        csv = (out / "attract_heat_weak.csv").read_text().splitlines()
        assert csv[0] == "s,semidist,metric,system,t"

    def test_strong_witnesses_fail_where_no_attractor_expected(self, tmp_path):
        code, out = run(tmp_path, "attract", "--system", "heat",
                        "--metric", "strong", "--witness")
        assert code == 0  # "fails" agrees with the registry expectation
        obj = read_json(out, "attract_heat_strong.json")
        assert obj["verdict"] == "fails"
        assert min(d for _, d in obj["profile"]) >= 0.5 - 1e-6

    def test_empty_omega_target_keeps_the_ladder_artifacts(self, tmp_path, capsys):
        argv = ("--system", "nse", "--n", "3", "--n-seeds", "2")
        code, out = run(tmp_path / "attract", "attract", "--target", "omega", *argv)
        assert code == 2
        last = capsys.readouterr().out.splitlines()[-1]
        assert last == "omega approximation is empty; nothing to attract to"
        assert read_json(out, "omega_nse_weak.json")["points"] == []
        names = ["omega_nse_weak.json", "profile_nse_weak.csv"]
        assert sorted(p.name for p in out.iterdir()) == names
        _, want = run(tmp_path / "omega", "omega", *argv)
        assert [(out / n).read_bytes() for n in names] == \
            [(want / n).read_bytes() for n in names]

    @pytest.mark.parametrize("argv", [
        ("--system", "heat"), ("--system", "bump"), ("--system", "branch2"),
        ("--system", "single"), ("--system", "forced-scalar"),
        ("--system", "nse", "--n", "3", "--n-seeds", "2", "--delta", "2"),
    ], ids=["heat", "bump", "branch2", "single", "forced-scalar", "nse"])
    def test_omega_target_report_equals_a_second_diagnostic_run(self, tmp_path,
                                                               monkeypatch, argv):
        """The report read off the omega ladder's profile is the one that
        attraction_diagnostic gives on the same seeds against its points."""
        ladders = []
        omega_ladder = ges.cli._omega_ladder
        monkeypatch.setattr(ges.cli, "_omega_ladder",
                            lambda *a: ladders.append(omega_ladder(*a)) or ladders[-1])
        code, out = run(tmp_path, "attract", "--target", "omega", *argv)
        [om] = ladders
        assert om.points
        cfg = ExperimentConfig.build(build_parser().parse_args(["attract", *argv]))
        fam = make_system(cfg.system)
        want = attraction_diagnostic(fam, cfg.schedule(), om.points,
                                     n_seeds=cfg.n_seeds, metric=cfg.metric,
                                     tol=cfg.tol, rng=cfg.rng(),
                                     branches=cfg.branches, workers=cfg.threads)
        stem = f"attract_{cfg.system}_{cfg.metric}"
        assert (out / f"{stem}.json").read_text() == want.to_json()
        assert (out / f"{stem}.csv").read_text() == want.profile_csv()
        assert code == _verdict_exit(want.verdict, "attracts",
                                     bool(fam.expectations["weak_attractor"]))

    def test_witness_flag_is_heat_only(self, tmp_path):
        code, _ = run(tmp_path, "attract", "--system", "bump", "--witness")
        assert code == 64

    @pytest.mark.parametrize("argv", [
        ("--system", "bump"),
        ("--system", "nse", "--n", "3", "--n-seeds", "2"),
    ], ids=["bump", "nse"])
    def test_witness_flag_is_refused_before_anything_is_built(self, tmp_path,
                                                             monkeypatch, capsys,
                                                             argv):
        built = []
        monkeypatch.setattr(ges.cli, "make_system", built.append)
        code, out = run(tmp_path, "attract", "--target", "omega", "--witness", *argv)
        assert code == 64
        assert capsys.readouterr().err.startswith("error: --witness seeds exist")
        assert built == [] and not out.exists()


class TestVerifyCommand:
    def test_metrics_suite_passes(self, tmp_path, capsys):
        code, out = run(tmp_path, "verify", "metrics", "--seed", "7")
        assert code == 0
        obj = read_json(out, "verify_metrics.json")
        assert obj["verdict"] == "pass"
        assert capsys.readouterr().out.splitlines()[-2].startswith(
            "suite metrics: pass")

    def test_metrics_suite_ignores_the_system(self, tmp_path):
        _, plain = run(tmp_path / "a", "verify", "metrics", "--seed", "7")
        code, scoped = run(tmp_path / "b", "verify", "metrics", "--seed", "7",
                           "--system", "heat")
        assert code == 0
        assert (plain / "verify_metrics.json").read_bytes() == \
            (scoped / "verify_metrics.json").read_bytes()

    def test_invariance_suite_evolves_the_branch2_zero_state(self, tmp_path):
        code, out = run(tmp_path, "verify", "invariance", "--system", "branch2")
        assert code == 0
        assert read_json(out, "verify_invariance.json")["verdict"] == "pass"

    def test_unknown_suite_is_usage_error(self, tmp_path):
        code, _ = run(tmp_path, "verify", "does-not-exist")
        assert code == 64

    def test_tracking_suite_checks_bump_in_the_strong_metric(self, monkeypatch):
        # a started profile at shift 100 shares no slot with any registered
        # complete trajectory; at the suite's deep starts both sit past the
        # weak truncation radius, so only the strong metric can see it
        real = ges.verify.bump_state
        monkeypatch.setattr(ges.verify, "bump_state", lambda space, r, t:
                            real(space, 100.0 if r == 6.0 else r, t))
        [res] = ges.verify.suite_tracking(0, system="bump")
        assert not res.ok and res.info["verdict"] == "fails"
        assert res.info["max_weak_sup"] == 0.0
        assert res.info["max_strong_sup"] == pytest.approx(math.sqrt(2.0))

    @pytest.mark.parametrize("system", ["bump", "single"])
    def test_tracking_suite_reports_the_strong_sup(self, system):
        [res] = ges.verify.suite_tracking(0, system=system)
        assert res.ok and res.info["max_strong_sup"] <= 1e-13

    def test_all_suites_run_the_checks_that_cover_the_system(self, tmp_path,
                                                              capsys):
        code, out = run(tmp_path, "verify", "all", "--system", "heat")
        assert code == 0
        names = [r["name"] for r in read_json(out, "verify_all.json")["results"]]
        metrics = [r.name for r in ges.verify.suite_metrics(0)]
        assert names == metrics + ["compose heat", "heat norm decay",
                                   "heat zero family full", "tracking heat"]
        # no suite has a contract for the line system
        capsys.readouterr()
        code, out = run(tmp_path / "line", "verify", "all", "--system", "line")
        assert code == 64
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    def test_config_file_system_restricts_the_suite(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"system": "nse"}))
        code, _ = run(tmp_path / "a", "verify", "uniform", "--config", str(cfg))
        assert code == 64  # as with --system nse
        cfg.write_text(json.dumps({"system": "wavelets"}))
        code, _ = run(tmp_path / "c", "verify", "metrics", "--config", str(cfg))
        assert code == 64  # an unknown system, as the flag refuses it
        cfg.write_text(json.dumps({"system": "heat"}))
        code, out = run(tmp_path / "b", "verify", "energy", "--config", str(cfg))
        assert code == 0
        results = read_json(out, "verify_energy.json")["results"]
        assert [r["name"] for r in results] == ["heat norm decay"]


class TestNseCommand:
    def test_info_reports_frozen_constants(self, tmp_path):
        code, out = run(tmp_path, "nse", "info")
        assert code == 0
        obj = read_json(out, "nse_info.json")
        assert obj["kind"] == "nse-info"
        assert obj["retained_modes"] == 256
        assert obj["l2b_bound"] == pytest.approx(1.0, rel=1e-12)
        assert obj["absorbing_radius"] == pytest.approx(
            2.0 / (1.0 - math.exp(-1.0)), rel=1e-12)
        assert obj["entry_time_from_2R"] == pytest.approx(
            1.558305421877021, abs=1e-12)
        assert obj["normality"] == [[0.25, 0.25], [0.5, 0.5], [1.0, 1.0]]

    def test_absorbing_runs_every_asked_seed(self, tmp_path):
        code, out = run(tmp_path, "nse", "absorbing", "--n-seeds", "9")
        assert code == 0
        assert read_json(out, "nse_absorbing.json")["seeds"] == 9

    def test_energy_tolerance_scales_with_the_energy(self, tmp_path, capsys):
        """Under this four-mode force |u|^2 reaches about 69 and the integral
        residual 2.5e-6, above the absolute 1e-6.  The residual is the
        trapezoid rule's error on the sampled integrals, not the solver's:
        it falls 4x each time the 8,001-sample grid's spacing halves."""
        path = tmp_path / "force.json"
        path.write_text(json.dumps({"modes": [
            {"k": [1, 0, 0], "amp": [1, 0]}, {"k": [-1, 0, 0], "amp": [1, 0]},
            {"k": [0, 1, 0], "amp": [0, 1]}, {"k": [0, -1, 0], "amp": [0, -1]}]}))
        code, out = run(tmp_path, "nse", "energy", "--forcing", str(path))
        assert code == 0
        assert read_json(out, "nse_energy.json")["verdict"] == "holds"
        assert "max_residual=2.497" in capsys.readouterr().out

    def test_forcing_file_that_is_not_json(self, tmp_path):
        bad = tmp_path / "force.json"
        bad.write_text("this is not json {")
        code, _ = run(tmp_path, "nse", "info", "--forcing", str(bad))
        assert code == 65

    def test_forcing_file_without_modes_key(self, tmp_path):
        bad = tmp_path / "force.json"
        bad.write_text(json.dumps({"nu": 1.0}))
        code, _ = run(tmp_path, "nse", "info", "--forcing", str(bad))
        assert code == 65

    @pytest.mark.parametrize("action", ["info", "energy"])
    def test_non_finite_forcing_amplitude(self, tmp_path, capsys, action):
        bad = tmp_path / "force.json"
        nan = float("nan")
        bad.write_text(json.dumps({"modes": [{"k": [1, 0, 0], "amp": [nan, 0]},
                                             {"k": [-1, 0, 0], "amp": [nan, 0]}]}))
        code, out = run(tmp_path, "nse", action, "--forcing", str(bad))
        assert code == 65
        err = capsys.readouterr().err
        assert "non-finite" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_a_viscosity_below_the_overflow_still_runs(self, tmp_path):
        # nu * kmax^2 is finite at kmax 4; nu = 1e308 is refused below
        code, _ = run(tmp_path, "nse", "info", "--nu", "1e307")
        assert code == 0

    # a forcing whose translational bound overflows to inf
    HUGE = {"modes": [{"k": [1, 0, 0], "amp": [1e300, 0]},
                      {"k": [-1, 0, 0], "amp": [1e300, 0]}]}

    @pytest.mark.parametrize("argv,forcing,code", [
        (("info", "--nu", "1e-300"), None, 64),
        (("energy", "--nu", "1e-300"), None, 64),
        (("info", "--nu", "inf"), None, 64),
        (("info", "--nu", "nan"), None, 64),
        (("info",), HUGE, 65),
        (("energy",), HUGE, 65),
        (("info",), {"modes": [{"k": [1e400, 0, 0], "amp": [1, 0]}]}, 65),
        (("info",), {"modes": [{"k": [1.5, 0, 0], "amp": [1, 0]}]}, 65),
        (("info",), {"modes": [{"k": [1, 0, 0], "amp": [1, 0],
                                "time": {"kind": "sampled", "times": [0, 1, 1],
                                         "values": [[0, 0], [1, 0], [2, 0]]}}]}, 65),
        (("info", "--nu", "1e308"), None, 64),
    ])
    def test_set_up_overflow(self, tmp_path, capsys, argv, forcing, code):
        flags = ()
        if forcing is not None:
            path = tmp_path / "force.json"
            path.write_text(json.dumps(forcing))
            flags = ("--forcing", str(path))
        got, out = run(tmp_path, "nse", *argv, *flags)
        assert got == code
        err = capsys.readouterr().err
        assert "error: " in err and err.count("\n") == 1
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ("omega", "--n", "3", "--n-seeds", "1", "--delta", "2"),
        ("energy",),
    ], ids=["omega", "energy"])
    def test_non_finite_solver_output_is_a_blow_up(self, tmp_path, capsys,
                                                   monkeypatch, argv):
        real = ges.systems.nse.solve_ivp

        def last_sample_nan(*args, **kwargs):
            sol = real(*args, **kwargs)
            sol.y[:, -1] = math.nan
            return sol

        monkeypatch.setattr(ges.systems.nse, "solve_ivp", last_sample_nan)
        code, out = run(tmp_path, "nse", *argv)
        assert code == 70
        err = capsys.readouterr().err
        assert err.startswith("blow-up: ") and err.count("\n") == 1
        assert not out.exists()

    def test_failed_solve_is_a_blow_up(self, tmp_path):
        """A right-hand side that turns NaN shrinks the step below ten ulps
        of t; the solve reports failure after 350 calls, not a hang.  A
        fresh process shows the whole stderr: one line, no warning."""
        root = Path(__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(root / "src")}
        out = tmp_path / "out"
        res = subprocess.run([sys.executable, "-c", _NAN_AFTER_100, str(out)],
                             env=env, capture_output=True, text=True, timeout=120)
        assert res.stdout == "70 350\n"
        assert res.stderr.startswith("blow-up: integration failed: ")
        assert res.stderr.count("\n") == 1
        assert not out.exists()


_NAN_AFTER_100 = """
import math
import sys
import ges.cli
import ges.kernels
real = ges.kernels.nse_bilinear
calls = []
def nan_after_100(*args):
    calls.append(1)
    out = real(*args)
    return out * math.nan if len(calls) > 100 else out
ges.kernels.nse_bilinear = nan_after_100
code = ges.cli.main(["nse", "omega", "--n", "3", "--n-seeds", "1", "--delta", "2",
                     "--out", sys.argv[1]])
print(code, len(calls))
"""


class TestUniformCommand:
    def test_default_phase_family_union_equals_uniform(self, tmp_path):
        code, out = run(tmp_path, "uniform")
        assert code == 0
        obj = read_json(out, "uniform_forced-scalar.json")
        assert obj["kind"] == "uniform-inclusion"
        assert obj["base"] == "forced-scalar"
        assert obj["symbols"] == 32
        assert obj["verdict"] == "included"
        assert obj["equal"] is True
        assert obj["union_in_uniform"] <= obj["threshold"]
        assert obj["uniform_in_union"] <= obj["threshold"]

    def test_empty_side_semidistances_are_written_as_null(self, tmp_path, capsys):
        # no per-symbol point survives a net this fine on three tiers, so
        # both semidistances have an empty side
        code, out = run(tmp_path, "uniform", "--count", "4", "--eps-net", "1e-14",
                        "--n", "3")
        assert code == 2
        obj = read_json(out, "uniform_forced-scalar.json")
        assert obj["union_in_uniform"] is None
        assert obj["uniform_in_union"] is None
        assert "union_in_uniform=inf reverse=inf" in capsys.readouterr().out

    def test_the_asked_seed_count_is_used(self, tmp_path, monkeypatch):
        """A flag or config-file n_seeds is honoured for every base; unset,
        the scalar grid takes 24 seeds and a sampled base 6."""
        seen = []

        def spy(symfam, seeds, **kwargs):
            seen.append(len(seeds))
            raise UsageError("stop after the seeds")

        monkeypatch.setattr(ges.cli, "union_inclusion_check", spy)
        for system, given, want in (("branch2", 12, 12), ("branch2", None, 6),
                                    ("forced-scalar", None, 24),
                                    ("forced-scalar", 5, 5)):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({} if given is None else {"n_seeds": given}))
            flag = () if given is None else ("--n-seeds", str(given))
            seen.clear()
            for argv in (flag, ("--config", str(cfg))):
                run(tmp_path, "uniform", "--system", system, "--count", "4", *argv)
            assert seen == [want, want], system

    def test_a_system_without_a_phase_wheel_is_refused(self, tmp_path, capsys):
        code, out = run(tmp_path, "uniform", "--system", "heat", "--count", "4")
        assert code == 64
        assert capsys.readouterr().err == \
            "error: no phase family for base system 'heat'\n"
        assert not out.exists()


class TestInvarianceCommand:
    def test_heat_zero_family_is_invariant(self, tmp_path):
        code, out = run(tmp_path, "invariance", "--system", "heat",
                        "--kind", "full")
        assert code == 0
        obj = read_json(out, "invariance_heat_full.json")
        assert obj["kind"] == "invariance"
        assert obj["verdict"] == "invariant"

    def test_the_given_tolerance_is_used(self, tmp_path):
        _, out = run(tmp_path / "a", "invariance", "--system", "heat")
        assert read_json(out, "invariance_heat_full.json")["tol"] == 0.05
        _, out = run(tmp_path / "b", "invariance", "--system", "heat",
                     "--tol", "0.01")
        assert read_json(out, "invariance_heat_full.json")["tol"] == 0.01


# ---------------------------------------------------------------------------
# usage errors (every bad invocation exits 64, never raises)


class TestUsageErrors:
    def test_no_subcommand(self):
        assert main([]) == 64

    def test_unknown_subcommand(self, tmp_path, capsys):
        code, out = run(tmp_path, "bogus")
        assert code == 64
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not out.exists()

    def test_unknown_system(self, tmp_path):
        code, _ = run(tmp_path, "omega", "--system", "wavelets")
        assert code == 64

    def test_threads_must_be_positive(self, tmp_path):
        code, _ = run(tmp_path, "omega", "--system", "heat", "--threads", "0")
        assert code == 64

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("flags", [
        ("--tol", "-1"),
        ("--tol", "0"),
        ("--rho", "1.0"),
        ("--n", "2"),
        ("--delta", "0"),
        ("--eps-net", "0"),
        ("--n", "2000"),                   # rho**i overflows
        ("--rho", "1e200"),
        ("--delta", "1e308", "--rho", "10"),  # delta * rho**i overflows
        ("--n", "100000000", "--rho", "1.0000001"),  # past MAX_TIERS
    ])
    def test_bad_numeric_parameters(self, tmp_path, capsys, flags):
        code, out = run(tmp_path, "omega", "--system", "single", *flags)
        assert code == 64
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ("invariance", "--system", "heat", "--metric", "strong"),
        ("invariance", "--system", "heat", "--t0", "1"),
        ("invariance", "--system", "heat", "--delta", "2"),
        ("invariance", "--system", "heat", "--rho", "2"),
        ("invariance", "--system", "heat", "--n", "4"),
        ("invariance", "--system", "heat", "--eps-net", "0.1"),
        ("invariance", "--system", "heat", "--n-seeds", "4"),
        ("invariance", "--system", "heat", "--branches", "first"),
        ("verify", "metrics", "--tol", "0.5"),
        ("uniform", "--count", "4", "--branches", "first"),
        ("uniform", "--family", "f.json"),
    ], ids=lambda argv: f"{argv[0]}{argv[-2]}")
    def test_flags_a_command_does_not_read_are_refused(self, tmp_path, capsys, argv):
        code, out = run(tmp_path, *argv)
        assert code == 64
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    def test_config_file_missing(self, tmp_path):
        code, _ = run(tmp_path, "omega", "--config",
                      str(tmp_path / "nope.json"))
        assert code == 64

    def test_config_file_must_hold_an_object(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2, 3]")
        code, _ = run(tmp_path, "omega", "--config", str(cfg))
        assert code == 64

    @pytest.mark.parametrize("values", [
        {"n": "abc"},
        {"tol": True},
        {"n": 3.5},
        {"delta": float("nan")},
        {"seed": -1},
        {"n_seeds": -3},
        {"threads": 0},
        {"threads": None},
        {"t0": 10 ** 400},  # an integer past the float range
    ])
    def test_config_file_values_are_checked(self, tmp_path, capsys, values):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(values))
        code, out = run(tmp_path, "omega", "--system", "single", "--config", str(cfg))
        assert code == 64
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    def test_unknown_config_key_is_named(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_seed": 4, "tol": 0.5}))
        code, out = run(tmp_path, "omega", "--system", "single", "--config", str(cfg))
        assert code == 64
        assert capsys.readouterr().err == "error: unknown config key 'n_seed'\n"
        assert not out.exists()

    @pytest.mark.parametrize("kmax", ["0", "-1"])
    def test_nse_cutoff_below_one(self, tmp_path, capsys, kmax):
        code, _ = run(tmp_path, "nse", "info", "--kmax", kmax)
        assert code == 64
        err = capsys.readouterr().err
        assert "kmax" in err
        assert "Traceback" not in err


# ---------------------------------------------------------------------------
# configuration precedence: CLI flag > config file > defaults


class TestConfigPrecedence:
    def test_config_file_value_is_used(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"system": "line", "n": 5}))
        code, out = run(tmp_path, "omega", "--config", str(cfg))
        assert code == 2
        obj = read_json(out, "omega_line_weak.json")
        assert len(obj["profile"]) == 5

    def test_cli_flag_overrides_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"system": "line", "n": 5}))
        code, out = run(tmp_path, "omega", "--config", str(cfg), "--n", "6")
        assert code == 2
        obj = read_json(out, "omega_line_weak.json")
        assert len(obj["profile"]) == 6
        assert obj["profile"][-1][1] == pytest.approx(1.6**6 - 1.6, rel=1e-9)

    @pytest.mark.parametrize("argv", [
        ("verify", "metrics"),
        ("invariance", "--system", "heat"),
    ], ids=lambda argv: argv[0])
    def test_keys_a_command_does_not_read_are_ignored(self, tmp_path, argv):
        # one file may serve several commands: neither builds a schedule
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 2, "rho": 0.5}))
        code, _ = run(tmp_path, *argv, "--config", str(cfg))
        assert code == 0

    def test_build_precedence_and_nse_defaults(self):
        def ns(**kw):
            base = dict.fromkeys(
                ("config", "system", "metric", "t0", "delta", "rho", "n",
                 "eps_net", "tol", "n_seeds", "branches", "seed", "out",
                 "threads"))
            base.update(kw)
            return argparse.Namespace(**base)

        assert ExperimentConfig.build(ns(system="heat")).n == 16
        cfg = ExperimentConfig.build(ns(system="nse"))
        assert (cfg.n, cfg.n_seeds) == (6, 6)
        cfg = ExperimentConfig.build(ns(system="nse", n=4))
        assert (cfg.n, cfg.n_seeds) == (4, 6)

    def test_build_precedence_with_config_file(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"tol": 0.5, "n": 8}))

        ns = argparse.Namespace(
            config=str(cfg_file), system=None, metric=None, t0=None,
            delta=None, rho=None, n=None, eps_net=None, tol=0.25,
            n_seeds=None, branches=None, seed=None, out=None, threads=None)
        cfg = ExperimentConfig.build(ns)
        assert cfg.tol == 0.25  # CLI wins
        assert cfg.n == 8  # config file fills the gap
        assert cfg.rho == 1.6  # defaults fill the rest


# ---------------------------------------------------------------------------
# fuzz of the two JSON inputs: a value or the input's own error, nothing else

_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats()
            | st.text(max_size=4))
_JSON = st.recursive(
    _SCALARS,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=12)
_NUMBERS = st.integers(-3, 3) | st.floats(-1e3, 1e3)
_NEAR_NUMBERS = _NUMBERS | _SCALARS
_TIME = st.fixed_dictionaries({"kind": st.sampled_from(["const", "sin", "sampled"])
                                       | _JSON}, optional={
    "omega": _NEAR_NUMBERS,
    "phase": _NEAR_NUMBERS,
    "times": st.lists(_NEAR_NUMBERS, min_size=2, max_size=4) | _JSON,
    "values": (st.lists(st.lists(_NEAR_NUMBERS, min_size=2, max_size=3),
                        min_size=2, max_size=4) | _JSON),
})
_MODE = st.fixed_dictionaries({
    "k": st.lists(st.integers(-3, 3), min_size=3, max_size=3)
         | st.lists(_NEAR_NUMBERS, max_size=4) | _JSON,
    "amp": st.lists(_NEAR_NUMBERS, min_size=2, max_size=3) | _JSON,
}, optional={"time": _TIME | _JSON})
_FORCING = (st.fixed_dictionaries({"modes": st.lists(_MODE | _JSON, max_size=3)})
            | _JSON)
# field names with values near and far from their types; threads is only
# validated here, never used to start workers
_CONFIG = st.dictionaries(
    st.sampled_from([f.name for f in ExperimentConfig.__dataclass_fields__.values()])
    | st.text(max_size=6),
    _NUMBERS | st.sampled_from(["heat", "weak", "all", "first", "."]) | _JSON,
    max_size=6)


class TestJsonInputFuzz:
    @settings(max_examples=300, deadline=None)
    @given(_FORCING)
    def test_forcing_dict_gives_a_profile_or_a_forcing_error(self, obj):
        try:
            prof = ForcingProfile.from_dict(obj)
        except ForcingFormatError:
            return
        assert isinstance(prof, ForcingProfile)

    @settings(max_examples=200, deadline=None)
    @given(_CONFIG)
    def test_config_file_gives_a_config_or_a_usage_error(self, tmp_path_factory,
                                                         values):
        path = tmp_path_factory.getbasetemp() / "fuzz_cfg.json"
        path.write_text(json.dumps(values))
        # every field declared but unset, as omega's parser leaves them
        fields = dict.fromkeys(ExperimentConfig.__dataclass_fields__)
        args = argparse.Namespace(config=str(path), **fields)
        try:
            cfg = ExperimentConfig.build(args)
        except UsageError:
            return
        assert isinstance(cfg, ExperimentConfig)


# ---------------------------------------------------------------------------
# determinism: identical inputs give identical bytes


class TestDeterminism:
    def artifacts(self, out):
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    def test_repeat_runs_are_byte_identical(self, tmp_path):
        code1, out1 = run(tmp_path / "a", "omega", "--system", "bump",
                          "--seed", "3")
        code2, out2 = run(tmp_path / "b", "omega", "--system", "bump",
                          "--seed", "3")
        assert code1 == code2
        assert self.artifacts(out1) == self.artifacts(out2)

    def test_seed_changes_the_output(self, tmp_path):
        _, out1 = run(tmp_path / "a", "omega", "--system", "bump",
                      "--seed", "3")
        _, out2 = run(tmp_path / "b", "omega", "--system", "bump",
                      "--seed", "4")
        assert (out1 / "omega_bump_weak.json").read_bytes() != \
               (out2 / "omega_bump_weak.json").read_bytes()

    @pytest.mark.parametrize("argv", [
        ("omega", "--system", "heat"),
        ("attract", "--system", "heat", "--witness"),
        ("invariance", "--system", "bump", "--kind", "quasi"),
        ("verify", "tracking"),
        ("attract", "--system", "nse", "--target", "omega", "--n", "3",
         "--n-seeds", "2", "--delta", "2"),
        ("nse", "absorbing", "--n-seeds", "3"),
        ("verify", "energy", "--system", "heat"),
    ], ids=["omega-heat", "attract-heat-witness", "invariance-bump-quasi",
            "verify-tracking", "attract-nse-omega", "nse-absorbing",
            "verify-energy-heat"])
    def test_worker_count_never_changes_results(self, tmp_path, argv):
        code1, out1 = run(tmp_path / "a", *argv, "--threads", "1")
        code2, out2 = run(tmp_path / "b", *argv, "--threads", "4")
        assert code1 == code2
        assert self.artifacts(out1) == self.artifacts(out2)

    def test_worker_count_never_changes_nse_results(self, tmp_path):
        argv = ("nse", "omega", "--n", "3", "--n-seeds", "2")
        code1, out1 = run(tmp_path / "a", *argv, "--threads", "1")
        code2, out2 = run(tmp_path / "b", *argv, "--threads", "2")
        assert code1 == code2
        assert self.artifacts(out1) == self.artifacts(out2)


# ---------------------------------------------------------------------------
# start-up: numpy is the only runtime dependency

def _run_fresh(script, tmp_path):
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    res = subprocess.run([sys.executable, "-c", script, str(tmp_path / "out")],
                         env=env, capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr


_CLOSED_FORM = """
import sys
import ges, ges.cli
out = sys.argv[1]
assert ges.cli.main(["omega", "--system", "heat", "--n-seeds", "8", "--out", out]) == 0
assert ges.cli.main(["attract", "--system", "bump", "--out", out]) == 3
loaded = [m for m in sys.modules if m.split(".")[0] == "scipy"]
assert not loaded, loaded[-3:]
from ges.systems import NSESystem, get_basis, make_system
assert get_basis.cache_info().currsize == 0  # no NSE basis was built
assert isinstance(make_system("nse"), NSESystem)
"""


def test_closed_form_commands_load_neither_nse_nor_scipy(tmp_path):
    _run_fresh(_CLOSED_FORM, tmp_path)


_NSE_WITHOUT_SCIPY = """
import sys
import ges.cli
assert ges.cli.main(["nse", "omega", "--n", "3", "--n-seeds", "1", "--delta", "2",
                     "--out", sys.argv[1]]) == 0
loaded = [m for m in sys.modules if m.split(".")[0] == "scipy"]
assert not loaded, loaded[-3:]
"""


def test_nse_commands_solve_without_scipy_integrate(tmp_path):
    _run_fresh(_NSE_WITHOUT_SCIPY, tmp_path)


# ---------------------------------------------------------------------------
# package metadata


def test_version_matches_pyproject():
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    found = re.search(r'^version = "([^"]+)"$', pyproject.read_text(), re.M)
    assert found is not None
    assert ges.__version__ == found.group(1)
