"""The benchmark's fixed `ges` CLI workloads and how a run picks its CLI seeds.

A workload lists the CLI seeds it may run, in batches of `batch`.  The
benchmark seed selects batch `seed mod (number of batches - 1)`; the last
batch is held out: no benchmark seed reaches it and `run.py --held-out`
runs it.  references.json holds a reference for every listed seed.

A command's cost depends on its CLI seed, so batches of two or three
average it where the seed's effect cannot be held fixed.  For `nse-omega`
it can: the solver's step count follows the energy of the sampled initial
field (nfev 1,956 to 2,688 over CLI seeds 0-11), so its seeds are the
first thirteen whose field has a strong norm between 0.55 and 0.70 of the
absorbing radius (`NSE_ENERGY_BAND`); the seed still picks the field's
shape.  `verify-all` spends ~90% of its time in the NSE solver, whose
step count over the whole suite ran from 1,736 to 4,460 over CLI seeds
0-53, so its seeds are the first ten whose total solver nfev lies in
`VERIFY_NFEV_BAND` (3,000 +- 5%).
"""

from __future__ import annotations

from dataclasses import dataclass

NSE_ENERGY_BAND = (0.55, 0.70)
VERIFY_NFEV_BAND = (2850, 3150)

# Runnable by name but left out of BENCHMARK.json: `uniform-scalar`'s input
# never changes with the seed, yet its wall_s spread (IQR/median over ten
# runs) reached 0.27 on a shared 2-vCPU host, past the 0.25 bound.  Its
# many tiny interpreter-bound calls follow the host's speed more than any
# other workload does.  Its layers (symbols, per-call cross kernels and
# state builds) are also exercised by verify-all.
BY_HAND = ("uniform-scalar",)


@dataclass(frozen=True)
class Workload:
    name: str
    args: tuple[str, ...]      # CLI arguments; --seed, --threads and --out follow
    systems: tuple[str, ...]   # make_system ids built during set-up
    seeds: tuple[int, ...]     # CLI seeds, in batches; the last batch is held out
    batch: int                 # CLI seeds per run
    why: str

    def cli_seeds(self, bench_seed: int | None) -> list[int]:
        """CLI seeds of one run; bench_seed None selects the held-out batch."""
        reachable = len(self.seeds) // self.batch - 1
        b = reachable if bench_seed is None else bench_seed % reachable
        return list(self.seeds[b * self.batch:(b + 1) * self.batch])

    def argv(self, cli_seed: int, out: str) -> list[str]:
        return [*self.args, "--seed", str(cli_seed), "--threads", "1", "--out", out]


ALL_SYSTEMS = ("branch2", "bump", "forced-scalar", "heat", "line", "nse", "single")

WORKLOADS = {w.name: w for w in (
    Workload(
        "nse-omega",
        ("nse", "omega", "--n", "3", "--n-seeds", "1", "--delta", "2",
         "--eps-net", "0.05", "--tol", "0.05"),
        ("nse",), seeds=(0, 4, 5, 9, 11, 17, 22, 38, 40, 44, 45, 52, 68), batch=1,
        why="a converging NSE pullback ladder; the advection kernel inside the "
            "ODE solver takes nearly all the time"),
    Workload(
        "verify-all", ("verify", "all"), ALL_SYSTEMS,
        seeds=(0, 5, 7, 13, 19, 22, 23, 25, 37, 40), batch=2,
        why="the installation check: chained NSE compositions, a dense energy "
            "trajectory and many small closed-form pack/cross calls"),
    Workload(
        "heat-omega", ("omega", "--system", "heat", "--n-seeds", "512"),
        ("heat",), seeds=tuple(range(15)), batch=3,
        why="large dense blocks: 8192 states packed onto 2049 slots; cross "
            "kernel, packing and survival filter, no solver"),
    Workload(
        "uniform-scalar", ("uniform", "--count", "128"), ("forced-scalar",),
        seeds=tuple(range(9)), batch=1,
        why="many tiny calls through the symbol layer: per-call overhead of "
            "state builds, cross kernels and pullback images"),
)}
