"""Axioms of the evolution contract, checked on every system.

Block consistency: evolve_block(x, starts, ts, b) gives the images
evolve(starts[k], x, [ts[k]], b), one for each k, in order.  Where both
paths do the same arithmetic the images agree bit for bit.  bump's block
evolves its autonomous shift t - s from time 0, which rounds otherwise
than the closed form from s, and the NSE block makes one solve for every
image, so those two agree within a relative tolerance.
"""

from __future__ import annotations

from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ges.systems import SYSTEM_IDS, make_system

# relative tolerance of a block image against its own evolve; 0 is bitwise
TOLERANCE = {"bump": 1e-12, "nse": 1e-7}
# longest sample span t - s; NSE solves stay short at kmax 2
SPAN = {"nse": 0.5}
EXAMPLES = {"nse": 20}


@cache
def system(sid):
    return make_system(sid, kmax=2) if sid == "nse" else make_system(sid)


@st.composite
def runs(draw, span):
    """Start and sample times, starts repeating so runs of equal starts form."""
    pool = draw(st.lists(st.floats(-6.0, 2.0), min_size=1, max_size=3))
    starts = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4))
    ts = [s + draw(st.floats(0.0, span)) for s in starts]
    return starts, ts


def block_images(groups):
    for idx, vals in groups:
        for v in (vals() if callable(vals) else vals):
            yield idx, v


@pytest.mark.parametrize("sid", SYSTEM_IDS)
def test_block_images_are_one_evolve_each(sid):
    fam = system(sid)
    tol = TOLERANCE.get(sid, 0.0)

    @settings(max_examples=EXAMPLES.get(sid, 40), derandomize=True, deadline=None,
              database=None)
    @given(runs(SPAN.get(sid, 3.0)), st.integers(0, 2 ** 16), st.integers(0, 1))
    def check(run, seed, branch):
        starts, ts = run
        x = fam.sample_states(1, np.random.default_rng(seed))[0]
        if any(branch >= fam.branch_count(s, x) for s in starts):
            branch = 0
        got = list(block_images(fam.evolve_block(x, starts, ts, branch)))
        want = [fam.evolve(s, x, [t], branch)[0] for s, t in zip(starts, ts)]
        assert len(got) == len(want)
        for (idx, v), w in zip(got, want):
            assert np.array_equal(idx, w.idx)
            if tol == 0.0:
                assert np.array_equal(v, w.val)
            else:
                scale = np.abs(w.val).max(initial=0.0)
                assert np.abs(v - w.val).max(initial=0.0) <= tol * scale

    check()
