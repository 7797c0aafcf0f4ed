"""The benchmark's own tests.

    python3 -m pytest e2ebench -q

The first group is fast and runs no `ges` command.  The second runs each
workload's commands (a few minutes in all): artifacts must repeat byte for
byte, with tracing on or off; count-type layer metrics must repeat
exactly; and every check must pass on the held-out CLI seeds.
"""

from __future__ import annotations

import copy
import json
import sys

import pytest

import check
import run
import tracer
import workloads
from workloads import WORKLOADS

REFS = check.load_references()


# -- checks and references ----------------------------------------------------


def test_close_passes_roundoff_and_fails_a_wrong_answer():
    assert check.close(0.0634 * (1 + 1e-15), 0.0634)
    assert check.close(1e-13, 0.0)
    assert not check.close(0.0634 * (1 + 1e-3), 0.0634)
    assert not check.close(1e-9, 0.0)


@pytest.mark.parametrize("text", ['{"a": NaN}', '{"a": Infinity}', '{"a": -Infinity}',
                                  '{"a": 1e999}', '[1.0, {"b": [NaN]}]'])
def test_strict_json_rejects_non_finite_numbers(text):
    with pytest.raises(ValueError):
        check.strict_json(text)


def _perturbed(ref: dict, factor: float) -> dict:
    rec = copy.deepcopy(ref)
    for row in rec.get("profile", []):
        row[1] *= factor
    rec["point_norms"] = [x * factor for x in rec.get("point_norms", [])]
    for key in ("union_in_uniform", "uniform_in_union"):
        if key in rec:
            rec[key] *= factor
    return rec


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_reference_checks_pass_roundoff_and_fail_wrong_values(name):
    ref = REFS[name][str(WORKLOADS[name].cli_seeds(0)[0])]
    assert all(ok for _, ok in check.checks(_perturbed(ref, 1 + 2e-15), ref))
    if name != "verify-all":
        assert not all(ok for _, ok in check.checks(_perturbed(ref, 1 + 1e-4), ref))
    wrong = copy.deepcopy(ref)
    wrong["rc"] = 2
    assert not all(ok for _, ok in check.checks(wrong, ref))


def test_a_failed_verify_check_fails():
    ref = REFS["verify-all"]["7"]
    rec = copy.deepcopy(ref)
    rec["results"] = [[n, n != "symmetry"] for n, _ in ref["results"]]
    assert ("verify: symmetry", False) in check.checks(rec, ref)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_references_cover_every_listed_seed(name):
    w = WORKLOADS[name]
    reachable = {s for b in range(100) for s in w.cli_seeds(b)}
    held_out = set(w.cli_seeds(None))
    assert not reachable & held_out
    assert reachable | held_out == set(w.seeds)
    assert {str(s) for s in w.seeds} == set(REFS[name])
    for ref in REFS[name].values():
        assert ref["rc"] == 0
        assert all(ok for _, ok in ref.get("results", []))


def test_nse_seeds_are_the_first_in_the_energy_band():
    sys.path.insert(0, str(run.SRC))
    import numpy as np
    from ges.systems import make_system
    fam = make_system("nse")
    lo, hi = workloads.NSE_ENERGY_BAND
    seeds = WORKLOADS["nse-omega"].seeds
    in_band = [s for s in range(seeds[-1] + 1)
               if lo <= fam.space.strong_norm(fam.seed_labels(1, np.random.default_rng(s))[0])
               / fam.absorbing_set_radius() <= hi]
    assert tuple(in_band) == seeds


# -- the commands themselves ---------------------------------------------------


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_artifacts_and_counters_repeat_and_trace_is_consistent(name):
    bench = run.Run(WORKLOADS[name], REFS)
    seed = WORKLOADS[name].cli_seeds(0)[0]
    bench.command(seed)
    first = bench.command(seed, trace=True)["layers"]
    second = bench.command(seed, trace=True)["layers"]
    assert bench.failed == []  # includes byte-identical artifacts across all three
    assert {m: first[m] for m in tracer.COUNTS} == {m: second[m] for m in tracer.COUNTS}
    assert first["kernels.advection.calls"] == first["solver.nfev"]
    assert abs(first["trace.coverage"] - 1.0) <= run.COVERAGE_TOL
    if name in ("nse-omega", "verify-all"):
        assert first["solver.nfev"] > 0
    if name == "verify-all":
        lo, hi = workloads.VERIFY_NFEV_BAND
        assert lo <= first["solver.nfev"] <= hi


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_held_out_seeds_pass_every_check(name):
    bench = run.Run(WORKLOADS[name], REFS)
    for seed in WORKLOADS[name].cli_seeds(None):
        assert bench.command(seed) is not None
    assert bench.failed == [] and bench.attempted > 0


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    layers = tracer.Tracer().metrics(1.0)
    assert [m["name"] for m in spec["end_to_end"]] == ["wall_s", "setup_s", "peak_rss_mb"]
    assert {m["name"] for m in spec["per_layer"]} == set(layers) | {"trace.overhead_frac"}
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS) - set(workloads.BY_HAND)


def test_result_line_has_exactly_the_contract_keys(capsys):
    assert run.main(["--workload", "uniform-scalar", "--seed", "0",
                     "--seconds", "1", "--trace", "0"]) == 0
    last = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0
    assert set(last["metrics"]) == {"wall_s", "setup_s", "peak_rss_mb"}
