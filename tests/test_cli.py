"""End-to-end tests for the `ges` command-line driver.

Every test drives ``ges.cli.main`` in process with an isolated output
directory, then checks three contracts: the exit code, the artifact
files (names plus JSON/CSV schema), and determinism (same inputs, same
bytes, regardless of worker count).
"""

import argparse
import json
import math
import re
from pathlib import Path

import pytest

import ges
from ges.cli import ExperimentConfig, main


def run(tmp_path, *argv):
    out = tmp_path / "out"
    code = main([*argv, "--out", str(out)])
    return code, out


def read_json(out, name):
    return json.loads((out / name).read_text())


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

    def test_witness_flag_is_heat_only(self, tmp_path):
        code, _ = run(tmp_path, "attract", "--system", "bump", "--witness")
        assert code == 64


class TestVerifyCommand:
    def test_metrics_suite_passes(self, tmp_path, capsys):
        code, out = run(tmp_path, "verify", "metrics", "--seed", "7")
        assert code == 0
        obj = read_json(out, "verify_metrics.json")
        assert obj["verdict"] == "pass"
        assert capsys.readouterr().out.splitlines()[-2].startswith(
            "suite metrics: pass")

    def test_unknown_suite_is_usage_error(self, tmp_path):
        code, _ = run(tmp_path, "verify", "does-not-exist")
        assert code == 64


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
        assert obj["hermitian_forcing"] is True
        assert obj["normality"] == [[0.25, 0.25], [0.5, 0.5], [1.0, 1.0]]

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


class TestInvarianceCommand:
    def test_heat_zero_family_is_invariant(self, tmp_path):
        code, out = run(tmp_path, "invariance", "--system", "heat",
                        "--kind", "full")
        assert code == 0
        obj = read_json(out, "invariance_heat_full.json")
        assert obj["kind"] == "invariance"
        assert obj["verdict"] == "invariant"


# ---------------------------------------------------------------------------
# usage errors (every bad invocation exits 64, never raises)


class TestUsageErrors:
    def test_no_subcommand(self):
        assert main([]) == 64

    def test_unknown_system(self, tmp_path):
        code, _ = run(tmp_path, "omega", "--system", "wavelets")
        assert code == 64

    def test_threads_must_be_positive(self, tmp_path):
        code, _ = run(tmp_path, "omega", "--system", "heat", "--threads", "0")
        assert code == 64

    @pytest.mark.parametrize("flags", [
        ("--tol", "-1"),
        ("--tol", "0"),
        ("--rho", "1.0"),
        ("--n", "2"),
        ("--delta", "0"),
        ("--eps-net", "0"),
    ])
    def test_bad_numeric_parameters(self, tmp_path, flags):
        code, _ = run(tmp_path, "omega", "--system", "single", *flags)
        assert code == 64

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
    ])
    def test_config_file_values_are_checked(self, tmp_path, capsys, values):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(values))
        code, out = run(tmp_path, "omega", "--system", "single", "--config", str(cfg))
        assert code == 64
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
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

    def test_worker_count_never_changes_results(self, tmp_path):
        _, out1 = run(tmp_path / "a", "omega", "--system", "heat",
                      "--threads", "1")
        _, out2 = run(tmp_path / "b", "omega", "--system", "heat",
                      "--threads", "4")
        assert self.artifacts(out1) == self.artifacts(out2)

    def test_worker_count_never_changes_nse_results(self, tmp_path):
        argv = ("nse", "omega", "--n", "3", "--n-seeds", "2")
        code1, out1 = run(tmp_path / "a", *argv, "--threads", "1")
        code2, out2 = run(tmp_path / "b", *argv, "--threads", "2")
        assert code1 == code2
        assert self.artifacts(out1) == self.artifacts(out2)


# ---------------------------------------------------------------------------
# package metadata


def test_version_matches_pyproject():
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    found = re.search(r'^version = "([^"]+)"$', pyproject.read_text(), re.M)
    assert found is not None
    assert ges.__version__ == found.group(1)
