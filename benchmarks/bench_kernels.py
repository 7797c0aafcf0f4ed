"""Timings of the hot distance/advection kernels and of state packing.

Runs each kernel on inputs shaped like the real workloads: packed
coefficient blocks for the cross-distance kernels (a mid-size complex
tier comparison, and a net pass of `ges omega --system heat --n-seeds
512`: one kept real state against 512 real states still live, over the
1,986 grid slots that run packs onto, since heat values are real and pack
into a float64 block),
the truncated spectral basis for the advection term, at the
default cutoff kmax=4 and at kmax=6, one DOP853 solve of the default NSE
system over one model-time unit (kmax=4; 245 right-hand-side calls at
--seed 0, so its time less 245 x nse_bilinear/k4 is the stepper's and
the right-hand side's own cost), `pack_states` on 1,024 heat tier
images (64 seeds at 16 times, so each seed's images share one index
array), and the omega step (net, survival filter and attraction
profile) on the tier block of a 128-seed heat ladder at the CLI's
default schedule, eps_net and metric (a quarter of the `--n-seeds 512`
block), and `energy_sample` of the default NSE system at 8,001 samples
over one unit (`verify all`'s energy trajectory is that long), whose
solve streams its samples through the three functionals.  Each case
draws its inputs from its own generator and runs once before the timed
repetitions; the table reports that first call's time (which holds the
case's table builds, scratch allocation and lazy imports), the best
time, and the peak of Python's traced allocations (tracemalloc) over one
more call.

Usage:
    python3 benchmarks/bench_kernels.py [--repeat 50] [--seed 0]
"""

import argparse
import time
import tracemalloc

import numpy as np

from ges import kernels
from ges.evolution import _image_tier, _tier_block
from ges.omega import PullbackSchedule, _omega_from_tiers, _tier_seeds
from ges.space import pack_states
from ges.systems.heat import HeatSystem
from ges.systems.nse import NSESystem, SpectralBasis


def time_call(fn, repeat):
    """The first call's time and the best of repeat more."""
    t0 = time.perf_counter()
    fn()
    first = time.perf_counter() - t0
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return first, best


def peak_mb(fn):
    """The tracemalloc peak of one call, in MB."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def _cross_blocks(rng):
    """48 x 64 states over a 400-slot index union, about what a deep
    pullback tier comparison packs together."""
    na, nb, slots = 48, 64, 400
    av = (rng.standard_normal((na, slots, 1))
          + 1j * rng.standard_normal((na, slots, 1)))
    bv = (rng.standard_normal((nb, slots, 1))
          + 1j * rng.standard_normal((nb, slots, 1)))
    return av, bv, slots


def strong_cross(rng):
    av, bv, slots = _cross_blocks(rng)
    qw = rng.uniform(0.5, 1.0, size=slots)
    return lambda: kernels.strong_cross(av, bv, qw)


def weak_cross(rng):
    av, bv, slots = _cross_blocks(rng)
    ww = 2.0 ** (-np.abs(np.arange(slots) - slots // 2) / 40.0)
    return lambda: kernels.weak_cross(av, bv, ww)


def weak_cross_heat(rng):
    """A heat net pass: one kept state against 512 states still live."""
    grid = 1986
    hv = rng.standard_normal((513, grid, 1))
    hw = 2.0 ** (-np.abs(np.arange(grid) - grid // 2) / 64.0) / 64.0
    return lambda: kernels.weak_cross(hv[:1], hv[1:], hw)


def pack_states_heat(rng):
    """What `ges omega --system heat` packs, at 1/8 the size."""
    heat = HeatSystem()
    tiers = [y for x in heat.sample_states(64, rng)
             for y in heat.evolve(0.0, x, np.linspace(0.05, 0.8, 16))]
    return lambda: pack_states(heat.space, tiers)


def omega_heat(rng):
    """Net, survival and profile of `ges omega --system heat --n-seeds 128`'s
    tier block."""
    heat = HeatSystem()
    sched = PullbackSchedule.geometric(0.0)
    ladder = [_image_tier(heat, seeds, s, sched.t) for s, seeds in zip(
        sched.starts, _tier_seeds(heat, None, None, 128, rng, sched.t, sched.starts))]
    block, tier_rows, _ = _tier_block(heat.space, ladder)
    return lambda: _omega_from_tiers(heat.system_id, block, tier_rows, sched.starts,
                                     sched.t, "weak", 0.05, 1e-3, "")


def nse_bilinear(kmax):
    def build(rng):
        b = SpectralBasis(kmax=kmax)
        # rows m // 2 on, one mode of each +-k pair, are a real field's
        v = (rng.standard_normal((b.m // 2, 3))
             + 1j * rng.standard_normal((b.m // 2, 3)))
        return lambda: kernels.nse_bilinear(v, b.kvec, b.grid_index, b.grid_n)
    return build


def dop853_nse(rng):
    """One solve as `ges nse omega` makes them: the default system, one seed."""
    nse = NSESystem()
    v0 = nse.dense_values(nse.sample_states(1, rng)[0])
    return lambda: nse._integrate(0.0, v0, [1.0])


def energy_nse(rng):
    """`verify all`'s energy trajectory: 8,001 samples of one seed's solve."""
    nse = NSESystem()
    x = nse.sample_states(1, rng)[0]
    return lambda: nse.energy_sample(0.0, x, 1.0, n=8001)


CASES = [("strong_cross", strong_cross), ("weak_cross", weak_cross),
         ("weak_cross/heat", weak_cross_heat), ("pack_states/heat", pack_states_heat),
         ("omega/heat", omega_heat),
         ("nse_bilinear/k4", nse_bilinear(4)), ("nse_bilinear/k6", nse_bilinear(6)),
         ("dop853/nse", dop853_nse), ("energy/nse", energy_nse)]


def make_cases(seed):
    """(name, callable) pairs sized like real ensembles.  Case i draws its
    inputs from its own generator, default_rng([seed, i]), so resizing one
    case moves no other case's inputs."""
    return [(name, build(np.random.default_rng([seed, i])))
            for i, (name, build) in enumerate(CASES)]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=50,
                    help="timed repetitions per kernel (best-of)")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    cases = make_cases(args.seed)
    print(f"{'kernel':<16}{'first (ms)':>12}{'time (ms)':>12}{'peak (MB)':>12}")
    for case, fn in cases:
        first, best = time_call(fn, args.repeat)
        print(f"{case:<16}{first * 1e3:>12.3f}{best * 1e3:>12.3f}{peak_mb(fn):>12.2f}")


if __name__ == "__main__":
    main()
