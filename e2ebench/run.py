"""End-to-end benchmark of the `ges` CLI.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its `src`.
Every command runs in a fresh process, single-threaded (`--threads 1` and
one BLAS thread), as a user runs the tool.  The last stdout line is one
JSON object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 repeats the workload's batch of CLI seeds (see workloads.py)
until S seconds are used and reports, with tracing off:
  wall_s       seconds inside ges.cli.main, per command
  setup_s      seconds to import ges.cli and make the workload's systems
               (median of at least SETUP_SAMPLES fresh processes)
  peak_rss_mb  peak resident memory of a command's process
wall_s and peak_rss_mb are means over the batch's seeds of the median over
rounds.  --trace 1 runs the batch's first seed once untraced and once
traced and reports the per-layer metrics of tracer.py, plus
trace.overhead_frac (traced wall / untraced wall - 1).

Every command's exit code and artifacts are checked against references.json
(check.py); a repeated seed must also reproduce its artifacts byte for byte.
`failed / attempted` is the run's fail_frac.  --held-out runs the held-out
batch of CLI seeds, which no --seed value selects.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import check
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".e2ebench_out"
SETUP_SAMPLES = 5
COMMAND_TIMEOUT_S = 170
COVERAGE_TOL = 0.05
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1", "GES_THREADS": "1"}


class Run:
    """Checks and per-command records of one benchmark run."""

    def __init__(self, workload, references: dict):
        self.workload = workload
        self.references = references
        self.attempted = 0
        self.failed = []
        self.digests: dict[int, str] = {}

    def record(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed.append(name)

    def worker(self, *args: str) -> dict:
        env = {**os.environ, **SINGLE_THREAD}
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(SRC), *args],
                              capture_output=True, text=True, env=env,
                              timeout=COMMAND_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
        return json.loads(proc.stdout.splitlines()[-1])

    def command(self, cli_seed: int, trace: bool = False) -> dict | None:
        """Run and check one command; None when its process failed."""
        OUT_ROOT.mkdir(exist_ok=True)
        out = Path(tempfile.mkdtemp(prefix=f"{self.workload.name}-", dir=OUT_ROOT))
        tag = f"seed {cli_seed}{' traced' if trace else ''}"
        try:
            try:
                rec = self.worker(self.workload.name, str(cli_seed), str(out),
                                  "1" if trace else "0")
            except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
                print(f"{tag}: command failed: {exc}", file=sys.stderr)
                self.record(f"{tag}: command ran", False)
                return None
            ref = self.references.get(self.workload.name, {}).get(str(cli_seed))
            self.record(f"{tag}: reference stored", ref is not None)
            try:
                summary = check.summarize(rec["rc"], out)
            except (ValueError, KeyError) as exc:
                print(f"{tag}: {exc}", file=sys.stderr)
                self.record(f"{tag}: strict JSON artifacts", False)
                return rec
            self.record(f"{tag}: strict JSON artifacts", True)
            if ref is not None:
                for name, ok in check.checks(summary, ref):
                    self.record(f"{tag}: {name}", ok)
            sha = check.digest(out)
            first = self.digests.setdefault(cli_seed, sha)
            self.record(f"{tag}: artifacts repeat byte for byte", sha == first)
            return rec
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def setup_samples(self, have: list[float]) -> list[float]:
        samples = list(have)
        while len(samples) < SETUP_SAMPLES:
            samples.append(self.worker(self.workload.name)["setup_s"])
        return samples


def _mean_of_medians(recs_by_seed: dict[int, list[dict]], key: str) -> float:
    return statistics.fmean(statistics.median(r[key] for r in recs)
                            for recs in recs_by_seed.values() if recs)


def timed(run: Run, seeds: list[int], seconds: float) -> tuple[dict, dict | None]:
    recs: dict[int, list[dict]] = {s: [] for s in seeds}
    t0 = perf_counter()
    rounds = 0
    while True:
        for s in seeds:
            rec = run.command(s)
            if rec is not None:
                recs[s].append(rec)
        rounds += 1
        elapsed = perf_counter() - t0
        if elapsed * (rounds + 1) / rounds > seconds:
            break
    done = [r for rs in recs.values() for r in rs]
    if not done:
        return {}, None
    setup = run.setup_samples([r["setup_s"] for r in done])
    metrics = {
        "wall_s": (_mean_of_medians(recs, "wall_s"), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (_mean_of_medians(recs, "rss_mb"), "MB"),
    }
    print(f"{len(done)} commands in {rounds} round(s) over CLI seeds {seeds}; "
          f"{len(setup)} set-ups")
    return metrics, done[0]


def traced(run: Run, seeds: list[int]) -> tuple[dict, dict | None]:
    plain = run.command(seeds[0])
    rec = run.command(seeds[0], trace=True)
    if plain is None or rec is None:
        return {}, None
    layers = rec["layers"]
    layers["trace.overhead_frac"] = rec["wall_s"] / plain["wall_s"] - 1.0
    run.record("trace: kernels.advection.calls == solver.nfev",
               layers["kernels.advection.calls"] == layers["solver.nfev"])
    run.record("trace: coverage within 5% of 1",
               abs(layers["trace.coverage"] - 1.0) <= COVERAGE_TOL)
    metrics = {name: (value, _unit(name)) for name, value in layers.items()}
    return metrics, rec


def _unit(name: str) -> str:
    last = name.rsplit(".", 1)[1]
    if last.endswith("bytes"):
        return "bytes"
    return {"self_s": "s", "span_time": "model_time", "pairs_per_call": "pairs/call",
            "yield": "ratio", "coverage": "ratio", "overhead_frac": "ratio"}.get(last, "count")


def _commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--held-out", action="store_true",
                    help="run the held-out batch of CLI seeds")
    args = ap.parse_args(argv)
    if not (SRC / "ges" / "cli.py").is_file():
        print(f"error: no ges package under {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    seeds = workload.cli_seeds(None if args.held_out else args.seed)
    meta = {"workload": workload.name, "seed": args.seed, "cli_seeds": seeds,
            "trace": args.trace, "commit": _commit(), "nproc": os.cpu_count(),
            "load_1min": os.getloadavg()[0], "cli_threads": 1, "blas_threads": 1}
    run = Run(workload, check.load_references())
    if args.trace:
        metrics, rec = traced(run, seeds)
    else:
        metrics, rec = timed(run, seeds, args.seconds)
    if rec is not None:
        meta.update({k: rec[k] for k in ("backend", "python", "numpy", "scipy")})
    print("meta " + json.dumps(meta, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:.6g} {unit}")
    fail_frac = len(run.failed) / run.attempted
    print(f"{'fail_frac':34s} {fail_frac:.6g} ({len(run.failed)} of {run.attempted} checks)")
    for name in run.failed:
        print(f"FAILED {name}")
    result = {"correct": not run.failed, "attempted": run.attempted,
              "failed": len(run.failed),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
