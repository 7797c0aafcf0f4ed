"""Axioms of the evolution contract, checked on every system.

Block consistency: evolve_block(x, starts, ts, b) gives the images
evolve(starts[k], x, [ts[k]], b), one for each k, in order, bit for bit:
both paths apply one autonomy rule, and one NSE solve reads every sample
off the dense output of one step sequence.  The NSE phase wheel's
time-dependent force at kmax 4 joins the systems here.

Sample independence: evolve(s, x, ts, b)[i] is evolve(s, x, [ts[i]], b)[0],
bit for bit: an NSE solve's steps depend only on its start and seed.

Concatenation: P(t, s) P(s, r) A holds P(t, r) A, so compose_check reads
0 up to rounding for every restriction-closed system; line is not one.
bump composes two shifts whose sum rounds otherwise than t - r, and NSE
solves its second leg from the middle images, so those two get their own
tolerances.

Closure: every state evolve returns is a seed of the same system, so it
evolves again.  An NSE state must be an exactly real field; the property
draws the NSE cutoff too, and one test re-evolves NSE states under two BLAS
threads, which sum the stepper's products in another order.

Translation: an autonomous family evolves from s + h to t + h as from s
to t, bit for bit.  Times lie on a 2^-20 grid, where s + h, t + h and
their difference are exact, so the property checks the systems and not
the rounding of the shift.

The shift identity: every symbol family evolves under sigma from r + h to
t + h as under the shifted symbol sigma + h from r to t.  The shifted
phase is reduced mod 2 pi, which rounds, so every base gets a tolerance
on the strong distance, as concatenation does.
"""

from __future__ import annotations

import os
import subprocess
import sys
from functools import cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ges.evolution import compose_check
from ges.symbols import SymbolFamily, shift_identity_defect
from ges.systems import SYSTEM_IDS, make_system

# the NSE phase wheel at sigma = pi / 2: a time-dependent force at kmax 4
WHEEL = "nse-wheel"
# longest sample span t - s; NSE solves stay short
SPAN = {"nse": 0.5, WHEEL: 0.5}
EXAMPLES = {"nse": 20, WHEEL: 20}
# largest compose_check value, an absolute strong distance
COMPOSE_TOLERANCE = {"bump": 1e-12, "nse": 1e-7}
# the translation property's time grid
GRID = 2.0 ** -20


@cache
def system(sid, kmax=2):
    if sid == WHEEL:
        return SymbolFamily("nse", 4).system(np.pi / 2)
    return make_system(sid, kmax=kmax) if sid == "nse" else make_system(sid)


@st.composite
def runs(draw, span):
    """Start and sample times, starts repeating so runs of equal starts form."""
    pool = draw(st.lists(st.floats(-6.0, 2.0), min_size=1, max_size=3))
    starts = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4))
    ts = [s + draw(st.floats(0.0, span)) for s in starts]
    return starts, ts


def seed_and_branch(fam, seed, branch, starts):
    """A sampled seed, and the branch if every start has it, else 0."""
    x = fam.sample_states(1, np.random.default_rng(seed))[0]
    if any(branch >= fam.branch_count(s, x) for s in starts):
        branch = 0
    return x, branch


def block_images(groups):
    for idx, vals in groups:
        for v in (vals() if callable(vals) else vals):
            yield idx, v


@pytest.mark.parametrize("sid", [*SYSTEM_IDS, WHEEL])
def test_block_images_are_one_evolve_each(sid):
    fam = system(sid)

    @settings(max_examples=EXAMPLES.get(sid, 40), derandomize=True, deadline=None,
              database=None)
    @given(runs(SPAN.get(sid, 3.0)), st.integers(0, 2 ** 16), st.integers(0, 1))
    def check(run, seed, branch):
        starts, ts = run
        x, branch = seed_and_branch(fam, seed, branch, starts)
        got = list(block_images(fam.evolve_block(x, starts, ts, branch)))
        want = [fam.evolve(s, x, [t], branch)[0] for s, t in zip(starts, ts)]
        assert len(got) == len(want)
        for (idx, v), w in zip(got, want):
            assert np.array_equal(idx, w.idx)
            assert np.array_equal(v, w.val)

    check()


@pytest.mark.parametrize("sid", [*SYSTEM_IDS, WHEEL])
def test_every_sample_is_its_own_evolve(sid):
    fam = system(sid)
    span = SPAN.get(sid, 3.0)

    @settings(max_examples=EXAMPLES.get(sid, 40), derandomize=True, deadline=None,
              database=None)
    @given(st.floats(-6.0, 2.0), st.lists(st.floats(0.0, span), min_size=1, max_size=4),
           st.integers(0, 2 ** 16), st.integers(0, 1))
    def check(s, offsets, seed, branch):
        ts = [s + d for d in offsets]
        x, branch = seed_and_branch(fam, seed, branch, [s])
        got = fam.evolve(s, x, ts, branch)
        assert len(got) == len(ts)
        for g, t in zip(got, ts):
            w = fam.evolve(s, x, [t], branch)[0]
            assert np.array_equal(g.idx, w.idx)
            assert np.array_equal(g.val, w.val)

    check()


def test_a_sample_does_not_depend_on_the_others_at_kmax_4():
    fam = system("nse", 4)
    x = fam.sample_states(1, np.random.default_rng(0))[0]
    want = fam.evolve(0.0, x, [1.3])[0].val
    assert np.array_equal(fam.evolve(0.0, x, [1.3, 5.0])[0].val, want)
    assert np.array_equal(fam.evolve(0.0, x, [0.4, 1.3, 9.0])[1].val, want)


@pytest.mark.parametrize("sid", [sid for sid in SYSTEM_IDS if sid != "line"])
def test_trajectories_concatenate(sid):
    fam = system(sid)
    tol = COMPOSE_TOLERANCE.get(sid, 1e-14)
    gap = SPAN.get(sid, 3.0) / 2

    @settings(max_examples=EXAMPLES.get(sid, 40), derandomize=True, deadline=None,
              database=None)
    @given(st.floats(-6.0, 2.0), st.floats(0.0, gap), st.floats(0.0, gap),
           st.integers(1, 3), st.integers(0, 2 ** 16))
    def check(r, first, second, count, seed):
        seeds = fam.sample_states(count, np.random.default_rng(seed))
        s = r + first
        assert compose_check(fam, seeds, r, s, s + second) <= tol

    check()


@pytest.mark.parametrize("sid", SYSTEM_IDS)
def test_evolved_states_evolve_again(sid):
    span = SPAN.get(sid, 3.0)
    # NSE rounds differently at every cutoff
    kmax = st.integers(1, 5) if sid == "nse" else st.just(2)

    @settings(max_examples=EXAMPLES.get(sid, 40), derandomize=True, deadline=None,
              database=None)
    @given(kmax, st.floats(-6.0, 2.0), st.lists(st.floats(0.0, span), min_size=1, max_size=3),
           st.floats(0.0, span), st.integers(0, 2 ** 16), st.integers(0, 1))
    def check(kmax, s, offsets, gap, seed, branch):
        fam = system(sid, kmax)
        ts = [s + d for d in offsets]
        x, branch = seed_and_branch(fam, seed, branch, [s])
        for y, t in zip(fam.evolve(s, x, ts, branch), ts):
            assert len(fam.evolve(t, y, [t + gap])) == 1

    check()


def grid_times(lo, hi):
    return st.integers(round(lo / GRID), round(hi / GRID)).map(lambda k: k * GRID)


@pytest.mark.parametrize("sid", [sid for sid in SYSTEM_IDS if system(sid).autonomous])
def test_autonomous_evolution_commutes_with_translation(sid):
    fam = system(sid)

    @settings(max_examples=EXAMPLES.get(sid, 40), derandomize=True, deadline=None,
              database=None)
    @given(grid_times(-6.0, 2.0), grid_times(0.0, SPAN.get(sid, 3.0)),
           grid_times(-4.0, 4.0), st.integers(0, 2 ** 16), st.integers(0, 1))
    def check(s, duration, h, seed, branch):
        t = s + duration
        x, branch = seed_and_branch(fam, seed, branch, [s, s + h])
        got = fam.evolve(s + h, x, [t + h], branch)[0]
        want = fam.evolve(s, x, [t], branch)[0]
        assert np.array_equal(got.idx, want.idx)
        assert np.array_equal(got.val, want.val)

    check()


@pytest.mark.parametrize("base", ["forced-scalar", "nse", "branch2"])
def test_symbol_shift_is_a_time_shift(base):
    symfam = SymbolFamily(base, 4)
    fam = symfam.system(0.0)
    tol = COMPOSE_TOLERANCE.get(base, 1e-14)

    @settings(max_examples=EXAMPLES.get(base, 40), derandomize=True, deadline=None,
              database=None)
    @given(st.sampled_from(symfam.symbols) | st.floats(0.0, 2.0 * np.pi),
           st.floats(-4.0, 4.0), st.floats(-6.0, 2.0),
           st.floats(0.0, SPAN.get(base, 3.0)), st.integers(0, 2 ** 16))
    def check(sigma, h, r, duration, seed):
        x = fam.sample_states(1, np.random.default_rng(seed))[0]
        assert shift_identity_defect(symfam, sigma, h, r, r + duration, x) <= tol

    check()


_REEVOLVE_AT_KMAX_6 = """
import numpy as np
from ges.systems.nse import NSESystem
fam = NSESystem(kmax=6)
ts = np.linspace(0.05, 0.3, 6)
for x in fam.sample_states(4, np.random.default_rng(0)):
    for y, t in zip(fam.evolve(0.0, x, ts), ts):
        fam.evolve(t, y, [t + 0.01])
"""


def test_nse_states_evolve_again_under_two_blas_threads():
    # 24 states at kmax 6; two OpenBLAS threads split the stepper's
    # products, and the states must stay exactly real whatever order they
    # sum in
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "OPENBLAS_NUM_THREADS": "2"}
    res = subprocess.run([sys.executable, "-c", _REEVOLVE_AT_KMAX_6], env=env,
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
