"""Timing comparison for the hot distance/advection kernels.

Runs each kernel under the pure-numpy implementation and (when
available) the numba-compiled one, on inputs shaped like the real
workloads: packed coefficient blocks for the cross-distance kernels (a
mid-size tier comparison, and the survival-filter shape of `ges omega
--system heat --n-seeds 512`: one state against a 512-state tier over
2,049 grid slots) and the truncated spectral basis for the advection
term, at the default cutoff kmax=4 and at kmax=6.  The advection term
has one padded-FFT implementation, so its two backend columns time the
same code.  JIT compilation happens in an untimed warmup pass, so the
table reports steady-state throughput only.

Usage:
    python3 benchmarks/bench_kernels.py [--repeat 50] [--seed 0]
"""

import argparse
import time

import numpy as np

from ges import backend, kernels
from ges.systems.nse import SpectralBasis


def time_call(fn, repeat):
    fn()  # warmup: triggers JIT compilation on the numba path
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def make_cases(rng):
    """(name, callable-factory) pairs sized like real ensembles."""
    # cross-distance blocks: 48 x 64 states over a 400-slot index union,
    # about what a deep pullback tier comparison packs together
    na, nb, slots = 48, 64, 400
    av = (rng.standard_normal((na, slots, 1))
          + 1j * rng.standard_normal((na, slots, 1)))
    bv = (rng.standard_normal((nb, slots, 1))
          + 1j * rng.standard_normal((nb, slots, 1)))
    qw = rng.uniform(0.5, 1.0, size=slots)
    ww = 2.0 ** (-np.abs(np.arange(slots) - slots // 2) / 40.0)

    # heat survival filter: one netted state against one 512-state tier
    grid = 2049
    hv = (rng.standard_normal((513, grid, 1))
          + 1j * rng.standard_normal((513, grid, 1)))
    hw = 2.0 ** (-np.abs(np.arange(grid) - grid // 2) / 64.0) / 64.0

    cases = [
        ("strong_cross", lambda: kernels.strong_cross(av, bv, qw)),
        ("weak_cross", lambda: kernels.weak_cross(av, bv, ww)),
        ("weak_cross/heat", lambda: kernels.weak_cross(hv[:1], hv[1:], hw)),
    ]
    for kmax in (4, 6):
        basis = SpectralBasis(kmax=kmax)
        vals = (rng.standard_normal((basis.m, 3))
                + 1j * rng.standard_normal((basis.m, 3)))
        cases.append((f"nse_bilinear/k{kmax}",
                      lambda b=basis, v=vals: kernels.nse_bilinear(
                          v, b.kvec, b.grid_index, b.grid_n)))
    return cases


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=50,
                    help="timed repetitions per kernel (best-of)")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    cases = make_cases(np.random.default_rng(args.seed))
    names = backend.available_backends()

    results = {}
    for name in names:
        prev = backend.set_backend(name)
        try:
            for case, fn in cases:
                results[(case, name)] = time_call(fn, args.repeat)
        finally:
            backend.set_backend(prev)

    print(f"{'kernel':<16}" + "".join(f"{n + ' (ms)':>14}" for n in names)
          + ("       speedup" if len(names) == 2 else ""))
    for case, _ in cases:
        row = f"{case:<16}"
        for name in names:
            row += f"{results[(case, name)] * 1e3:>14.3f}"
        if len(names) == 2:
            ratio = results[(case, names[1])] / results[(case, names[0])]
            row += f"{ratio:>13.1f}x"
        print(row)
    if "numba" not in names:
        print("numba is not importable here; numpy path only")


if __name__ == "__main__":
    main()
