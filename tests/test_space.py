"""Dual-metric space: worked distance values, axioms, nets, serialization.

Oracle values are closed-form evaluations of the contract formulas,
computed by hand and frozen here as literals.
"""

from __future__ import annotations

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ges import kernels
from ges import space as space_mod
from ges.errors import UsageError
from ges.space import (
    CoeffState,
    DualMetricSpace,
    PackedSet,
    _decode_keys,
    _encode_rows,
    epsilon_net,
    NetPivots,
    hausdorff_dist,
    net_rows,
    pack_groups,
    pack_states,
    set_semidist,
    set_semidists,
    state_to_json,
)
from ges.systems.heat import HeatSystem

SEQ = DualMetricSpace(tag="seq", index_dim=1, truncation_radius=32)
GRID = DualMetricSpace(tag="grid", grid_spacing=1.0 / 64, grid_extent=1024,
                       truncation_radius=1024)
LAT3 = DualMetricSpace(tag="lat3", index_dim=3, component_dim=3,
                       truncation_radius=4)


def e(n: int, scale: complex = 1.0):
    return SEQ.state([n], [scale])


ZERO = SEQ.zero_state()


# ---------------------------------------------------------------------------
# frozen worked values


class TestWorkedValues:
    def test_weak_unit_slot0(self):
        # w(0) = 1, t = 1 -> 1 * 1/2
        assert SEQ.weak_dist(e(0), ZERO) == pytest.approx(0.5, abs=1e-15)

    def test_weak_unit_slot3(self):
        # w(3) = 2^-3, t = 1 -> 0.0625
        assert SEQ.weak_dist(e(3), ZERO) == pytest.approx(0.0625, abs=1e-15)

    def test_weak_unit_slot5(self):
        assert SEQ.weak_dist(e(5), ZERO) == pytest.approx(0.015625, abs=1e-15)

    def test_weak_unit_slot9(self):
        assert SEQ.weak_dist(e(9), ZERO) == pytest.approx(0.0009765625, abs=1e-15)

    def test_weak_negative_slot_same_weight(self):
        assert SEQ.weak_dist(e(-5), ZERO) == pytest.approx(0.015625, abs=1e-15)

    def test_weak_two_slot_sum(self):
        # slots 0 and 1, both |delta| = 1: 1*(1/2) + (1/2)*(1/2)
        assert SEQ.weak_dist(e(0), e(1)) == pytest.approx(0.75, abs=1e-15)

    def test_weak_saturating_numerator(self):
        # t = 3 at slot 0 -> 3/(1+3)
        assert SEQ.weak_dist(e(0, 3.0), ZERO) == pytest.approx(0.75, abs=1e-15)

    def test_strong_two_unit_slots(self):
        assert SEQ.strong_dist(e(0), e(1)) == pytest.approx(math.sqrt(2), abs=1e-15)

    def test_strong_is_plain_l2_on_unit_quadrature(self):
        assert SEQ.strong_dist(e(0, 3.0), ZERO) == pytest.approx(3.0, abs=1e-15)
        assert SEQ.strong_norm(e(0, 3.0 + 4.0j)) == pytest.approx(5.0, abs=1e-14)

    def test_grid_quadrature_interior_and_boundary(self):
        h = 1.0 / 64
        interior = GRID.state([64], [1.0])
        boundary = GRID.state([1024], [1.0])
        assert GRID.strong_norm(interior) == pytest.approx(math.sqrt(h), abs=1e-15)
        assert GRID.strong_norm(boundary) == pytest.approx(math.sqrt(h / 2), abs=1e-15)

    def test_grid_weak_weight_decays_in_physical_frequency(self):
        # slot 64 sits at physical frequency 1, so w = h * 2^-1
        h = 1.0 / 64
        interior = GRID.state([64], [1.0])
        want = (h * 0.5) * 0.5  # weight times t/(1+t) at t=1
        assert GRID.weak_dist(interior, GRID.zero_state()) == pytest.approx(
            want, abs=1e-15)

    def test_lattice3_weight_uses_euclidean_magnitude(self):
        v = LAT3.state([[1, 1, 1]], [[1.0, 0.0, 0.0]])
        want = 2.0 ** (-math.sqrt(3.0)) * 0.5
        assert LAT3.weak_dist(v, LAT3.zero_state()) == pytest.approx(want, rel=1e-12)

    def test_tail_bound_seq_radius8(self):
        assert SEQ.weak_tail_bound(8) == pytest.approx(0.0078125, abs=1e-18)

    def test_tail_bound_monotone_and_positive(self):
        tails = [SEQ.weak_tail_bound(k) for k in (4, 8, 16, 32)]
        assert all(t > 0 for t in tails)
        assert all(a > b for a, b in zip(tails, tails[1:]))
        t3 = [LAT3.weak_tail_bound(k) for k in (2, 4, 8)]
        assert all(t > 0 for t in t3)
        assert t3[0] > t3[1] > t3[2]


# ---------------------------------------------------------------------------
# truncation honesty


class TestTruncation:
    def test_state_beyond_radius_carries_no_weight(self):
        narrow = SEQ.with_truncation(8)
        assert narrow.weak_dist(e(10), ZERO) == 0.0

    def test_truncated_value_within_tail_of_wide_value(self):
        narrow = SEQ.with_truncation(8)
        rng = np.random.default_rng(11)
        for _ in range(20):
            k = int(rng.integers(1, 6))
            idx = rng.choice(np.arange(-12, 13), size=k, replace=False)
            val = rng.uniform(-2, 2, size=k) + 1j * rng.uniform(-2, 2, size=k)
            a = SEQ.state(idx, val)
            lo = narrow.weak_dist(a, ZERO)
            hi = SEQ.weak_dist(a, ZERO)
            assert lo <= hi + 1e-15
            assert hi - lo <= narrow.weak_tail_bound() + 1e-15


# ---------------------------------------------------------------------------
# metric axioms (property-based)


def sparse_pairs():
    return st.lists(
        st.tuples(st.integers(-12, 12),
                  st.floats(-3, 3, allow_nan=False, allow_infinity=False),
                  st.floats(-3, 3, allow_nan=False, allow_infinity=False)),
        min_size=0, max_size=5,
        unique_by=lambda t: t[0])


def build(rows):
    idx = [r[0] for r in rows]
    val = [complex(r[1], r[2]) for r in rows]
    return SEQ.state(idx, val)


@settings(max_examples=60, deadline=None)
@given(sparse_pairs(), sparse_pairs(), sparse_pairs())
def test_metric_axioms(ra, rb, rc):
    a, b, c = build(ra), build(rb), build(rc)
    for metric in ("strong", "weak"):
        dab = SEQ.dist(a, b, metric)
        dba = SEQ.dist(b, a, metric)
        assert dab >= 0.0
        assert dab == dba  # exact symmetry
        assert SEQ.dist(a, a, metric) == 0.0
        dac = SEQ.dist(a, c, metric)
        dcb = SEQ.dist(c, b, metric)
        assert dab <= dac + dcb + 1e-12


@settings(max_examples=60, deadline=None)
@given(sparse_pairs(), sparse_pairs())
def test_weak_dominated_by_three_strong(ra, rb):
    a, b = build(ra), build(rb)
    assert SEQ.weak_dist(a, b) <= 3.0 * SEQ.strong_dist(a, b) + 1e-12


# ---------------------------------------------------------------------------
# set operations


class TestSetOps:
    def test_semidist_hand_value(self):
        a_set = [ZERO, e(0)]
        b_set = [ZERO]
        assert set_semidist(SEQ, a_set, b_set, "strong") == pytest.approx(1.0)
        assert set_semidist(SEQ, b_set, a_set, "strong") == 0.0

    def test_hausdorff_is_max_of_semidists(self):
        a_set = [ZERO, e(0)]
        b_set = [ZERO]
        assert hausdorff_dist(SEQ, a_set, b_set, "strong") == pytest.approx(1.0)

    def test_both_semidists_come_from_one_pack(self, monkeypatch):
        rng = np.random.default_rng(4)
        states = random_states(rng, SEQ3, shared=False)
        a_set, b_set = states[:7], states[7:]
        # each direction packed on its own, in its own order
        want = tuple(pack_states(SEQ3, x + y).semidist(
            np.arange(len(x)), np.arange(len(x), len(x) + len(y)), "weak")
            for x, y in ((a_set, b_set), (b_set, a_set)))
        packs = []
        monkeypatch.setattr(space_mod, "pack_states",
                            lambda *args: packs.append(1) or pack_states(*args))
        assert set_semidists(SEQ3, a_set, b_set, "weak") == want
        assert hausdorff_dist(SEQ3, a_set, b_set, "weak") == max(want)
        assert len(packs) == 2  # one per call

    def test_semidist_empty_raises(self):
        with pytest.raises(UsageError):
            set_semidist(SEQ, [], [ZERO], "strong")
        with pytest.raises(UsageError):
            set_semidist(SEQ, [ZERO], [], "strong")

    def test_semidist_permutation_invariant(self):
        rng = np.random.default_rng(3)
        a_set = [e(int(rng.integers(-5, 6)), float(rng.uniform(0.1, 2)))
                 for _ in range(5)]
        b_set = [e(int(rng.integers(-5, 6)), float(rng.uniform(0.1, 2)))
                 for _ in range(4)]
        base = set_semidist(SEQ, a_set, b_set, "weak")
        perm = set_semidist(SEQ, a_set[::-1], b_set[::-1], "weak")
        assert base == perm  # packing sorts the index union

    def test_net_keeps_first_representative(self):
        a, b, c = ZERO, e(0, 0.6), e(0, 1.0)
        net = epsilon_net(SEQ, [a, b, c], 0.5, "strong")
        assert net == [a, b]
        net_rev = epsilon_net(SEQ, [c, b, a], 0.5, "strong")
        assert net_rev == [c, a]

    def test_net_tie_absorbed_by_earlier_point(self):
        net = epsilon_net(SEQ, [ZERO, e(0, 0.5)], 0.5, "strong")
        assert net == [ZERO]

    def test_net_input_validation(self):
        with pytest.raises(UsageError):
            epsilon_net(SEQ, [], 0.1, "strong")
        with pytest.raises(UsageError):
            epsilon_net(SEQ, [ZERO], 0.0, "strong")

    def test_packed_rows_read_runs_as_views(self):
        p = pack_states(SEQ, [e(0, 0.5 * k) for k in range(6)])
        run = p._rows(np.arange(2, 5))
        assert np.shares_memory(run, p.vals)
        assert np.array_equal(run, p.vals[2:5])
        picked = p._rows(np.array([4, 1, 2]))
        assert not np.shares_memory(picked, p.vals)
        assert np.array_equal(picked, p.vals[[4, 1, 2]])
        with pytest.raises(IndexError):
            p._rows(np.arange(4, 7))

    def test_ball_violation_rejected_on_pack(self):
        small = DualMetricSpace(tag="ball", ball_radius=1.0)
        fat = small.state([0], [2.0])
        with pytest.raises(UsageError, match="ball radius"):
            pack_states(small, [fat])

    def test_unknown_metric_rejected(self):
        with pytest.raises(UsageError):
            SEQ.dist(ZERO, ZERO, "medium")


# ---------------------------------------------------------------------------
# greedy nets over packed rows


def naive_net(p, order, eps, metric):
    """First-come greedy net, one candidate and one pair per kernel call."""
    kept = []
    for i in order:
        if all(p.cross([i], [k], metric)[0, 0] > eps for k in kept):
            kept.append(int(i))
    return kept


class TestNetRows:
    @pytest.mark.parametrize("metric", ["strong", "weak"])
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_naive_greedy_net(self, metric, seed):
        rng = np.random.default_rng(seed)
        states = [SEQ.state(rng.choice(np.arange(-4, 5), size=3, replace=False),
                            rng.normal(scale=0.4, size=3)) for _ in range(40)]
        states += states[:5]  # exact repeats sit at distance 0
        p = pack_states(SEQ, states)
        for order in (np.arange(p.n_states), rng.permutation(p.n_states)):
            for eps in (0.02, 0.1, 0.3, 0.9):
                assert net_rows(p, order, eps, metric) == naive_net(p, order, eps, metric)

    @pytest.mark.parametrize("metric,states,want", [
        # strong distances 0.5, 1.0 and 0.5 along slot 0
        ("strong", [ZERO, e(0, 0.5), e(0, 1.0), e(0, 1.5)], [0, 2]),
        # weak distances 1/2 (a tie) and 3/4 from the zero state
        ("weak", [ZERO, e(0, 1.0), e(0, 3.0)], [0, 2]),
    ])
    def test_distance_exactly_eps_is_absorbed(self, metric, states, want):
        p = pack_states(SEQ, states)
        order = np.arange(p.n_states)
        assert net_rows(p, order, 0.5, metric) == want
        assert naive_net(p, order, 0.5, metric) == want

    def test_single_and_empty_orders(self):
        p = pack_states(SEQ, [ZERO, e(1)])
        assert net_rows(p, np.array([1]), 0.1, "weak") == [1]
        assert net_rows(p, np.array([], dtype=np.int64), 0.1, "weak") == []


def running_min_net(p, order, eps, metric):
    """The net with each kept row compared with every row after it."""
    order = np.asarray(order, dtype=np.int64)
    nearest = np.full(order.size, np.inf)
    kept, k = [], 0
    while k < order.size:
        kept.append(int(order[k]))
        if k + 1 == order.size:
            break
        rest = nearest[k + 1:]
        np.minimum(rest, p.cross(order[k:k + 1], order[k + 1:], metric)[0], out=rest)
        far = np.flatnonzero(rest > eps)
        if far.size == 0:
            break
        k += 1 + int(far[0])
    return kept


def random_packed(rng, n, u, c, real, grid=None):
    """n rows over u slots; on a grid of step 1/4 every distance sum is exact."""
    if grid:
        vals = rng.integers(-grid, grid + 1, size=(n, u, c)) / 4.0
        w = np.ones(u)
    else:
        vals = rng.normal(scale=0.3, size=(n, u, c))
        w = rng.uniform(0.1, 1.0, size=u)
    if not real:
        vals = vals + 1j * (rng.integers(-grid, grid + 1, size=(n, u, c)) / 4.0 if grid
                            else rng.normal(scale=0.3, size=(n, u, c)))
    return PackedSet(SEQ, np.arange(u)[:, None], vals, w, w)


class TestLiveListNet:
    @pytest.mark.parametrize("metric", ["strong", "weak"])
    @pytest.mark.parametrize("real", [True, False])
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_running_minimum_net(self, metric, real, seed):
        rng = np.random.default_rng(seed)
        p = random_packed(rng, 120, 7, 2, real)
        d = p.cross(np.arange(120), np.arange(120), metric)
        for order in (np.arange(120), rng.permutation(120)):
            for eps in np.quantile(d, [0.01, 0.05, 0.2, 0.5]):
                assert net_rows(p, order, eps, metric) == running_min_net(p, order, eps, metric)

    @pytest.mark.parametrize("metric", ["strong", "weak"])
    @pytest.mark.parametrize("real", [True, False])
    def test_distances_at_exactly_eps_are_absorbed(self, metric, real):
        # step-1/4 values on unit weights: every squared sum is exact, so each
        # eps below is a distance the net computes bit for bit
        rng = np.random.default_rng(7)
        p = random_packed(rng, 90, 3, 1, real, grid=3)
        order = rng.permutation(90)
        d = p.cross(np.arange(90), np.arange(90), metric)
        ties = 0
        for eps in np.unique(d)[1:12]:
            kept = net_rows(p, order, eps, metric)
            assert kept == running_min_net(p, order, eps, metric)
            ties += int(np.any(d[np.ix_(kept, order)] == eps))
        assert ties > 0

    @pytest.mark.parametrize("metric", ["strong", "weak"])
    def test_pivots_are_the_first_kept_row_within_eps(self, metric):
        rng = np.random.default_rng(3)
        p = random_packed(rng, 150, 5, 1, True)
        order = rng.permutation(150)
        d = p.cross(np.arange(150), np.arange(150), metric)
        eps = float(np.quantile(d, 0.1))
        piv = NetPivots()
        kept = net_rows(p, order, eps, metric, piv)
        assert kept == running_min_net(p, order, eps, metric)
        for i, row in enumerate(order):
            first = next(a for a, k in enumerate(kept) if d[k, row] <= eps)
            assert piv.pivot[i] == first
            assert piv.dist[i] == pytest.approx(d[kept[first], row], rel=1e-12, abs=0.0)
        assert np.allclose(piv.kept, d[np.ix_(kept, kept)], rtol=1e-12, atol=0.0)
        assert np.array_equal(piv.kept, piv.kept.T)


# ---------------------------------------------------------------------------
# packing


def reference_pack(space, states):
    """The one-pass packing form: stacked index rows, unique with first
    positions, one key lookup per state and unblocked norms, squared as the
    cross kernels square (re^2 + im^2).  The block is real when no value has
    a nonzero imaginary part."""
    stacked = np.vstack([s.idx for s in states])
    if stacked.shape[0] == 0:
        uniq_idx = np.empty((0, space.index_dim), dtype=np.int64)
        uniq_keys = np.empty(0, dtype=np.int64)
    else:
        uniq_keys, first = np.unique(_encode_rows(stacked), return_index=True)
        uniq_idx = stacked[first]
    real = not any(np.any(s.val.imag) for s in states)
    vals = np.zeros((len(states), uniq_idx.shape[0], space.component_dim),
                    dtype=np.float64 if real else np.complex128)
    for i, s in enumerate(states):
        if s.idx.shape[0]:
            vals[i, np.searchsorted(uniq_keys, _encode_rows(s.idx)), :] = (
                s.val.real if real else s.val)
    qw = space.quad_weights(uniq_idx)
    norms = np.sqrt((vals.real ** 2 + vals.imag ** 2).sum(axis=2) @ qw)
    return {"idx": uniq_idx, "vals": vals, "qw": qw,
            "ww": space.weak_weights(uniq_idx), "norms": norms}


def assert_packs_bitwise(packed, ref):
    for name, want in ref.items():
        got = getattr(packed, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name


SEQ3 = DualMetricSpace(tag="seq3", component_dim=3, truncation_radius=16)
LAT1 = DualMetricSpace(tag="lat1", index_dim=3, truncation_radius=3)


def random_rows(rng, space, n):
    """n distinct index rows of the space in random (unsorted) order."""
    if space.index_dim == 1:
        return rng.choice(np.arange(-20, 21), size=n, replace=False)[:, None]
    pool = np.stack(np.meshgrid(*[np.arange(-3, 4)] * 3, indexing="ij"), -1)
    pool = pool.reshape(-1, 3)
    return pool[rng.choice(len(pool), size=n, replace=False)]


def random_states(rng, space, shared):
    """Tiers of a few seeds; with shared=True a seed's images share its idx."""
    c = space.component_dim
    states = [space.zero_state()]
    for _ in range(5):
        n = int(rng.integers(1, 12))
        seed = space.state(random_rows(rng, space, n),
                           rng.normal(size=(n, c)) + 1j * rng.normal(size=(n, c)))
        for _ in range(3):
            idx = seed.idx if shared else seed.idx.copy()
            states.append(space.state(idx, seed.val * rng.uniform(0.1, 1.0)))
    states.append(space.zero_state())
    order = rng.permutation(len(states))
    return [states[i] for i in order]


class TestPackStates:
    @pytest.mark.parametrize("space", [SEQ, SEQ3, LAT1, LAT3, GRID],
                             ids=lambda s: s.tag)
    @pytest.mark.parametrize("shared", [True, False])
    def test_matches_one_pass_form_bitwise(self, space, shared):
        rng = np.random.default_rng(len(space.tag) + 10 * shared)
        states = random_states(rng, space, shared)
        ids = {id(s.idx) for s in states}
        assert len(ids) < len(states) if shared else len(ids) == len(states)
        assert_packs_bitwise(pack_states(space, states), reference_pack(space, states))

    @pytest.mark.parametrize("space", [SEQ, SEQ3, LAT3], ids=lambda s: s.tag)
    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    def test_norm_is_the_strong_distance_to_zero(self, space, real):
        rng = np.random.default_rng(len(space.tag) + 10 * real)
        states = random_states(rng, space, shared=False)
        if real:
            states = [space.state(s.idx, s.val.real) for s in states]
        p = pack_states(space, states + [space.zero_state()])
        assert p.vals.dtype == (np.float64 if real else np.complex128)
        zero = p.n_states - 1
        for r in range(p.n_states):
            assert (p.norms[r].tobytes()
                    == p.cross([r], [zero], "strong")[0, 0].tobytes()), r

    @pytest.mark.parametrize("space", [SEQ, LAT3], ids=lambda s: s.tag)
    def test_all_empty_states(self, space):
        states = [space.zero_state(), space.zero_state()]
        p = pack_states(space, states)
        assert p.idx.shape == (0, space.index_dim)
        assert p.vals.shape == (2, 0, space.component_dim)
        assert_packs_bitwise(p, reference_pack(space, states))

    def test_state_of_the_wrong_index_dimension_rejected(self):
        flat = CoeffState("lat3", np.array([[1]]), np.ones((1, 3)))
        with pytest.raises(UsageError, match="dimension"):
            pack_states(LAT3, [flat])

    @pytest.mark.parametrize("d", [1, 3])
    def test_keys_round_trip_at_the_axis_bounds(self, d):
        top = (1 << 20) - 1
        corners = np.array(np.meshgrid(*[[-top, -(1 << 20), -1, 0, 1, top]] * d,
                                       indexing="ij")).reshape(d, -1).T
        keys = _encode_rows(np.ascontiguousarray(corners))
        assert np.array_equal(_decode_keys(keys, d), corners)
        # keys order rows lexicographically
        assert np.array_equal(np.argsort(keys, kind="stable"),
                              np.lexsort(corners.T[::-1]))

    # n < 4 is one block; otherwise n = 4k, 4k+1, 4k+2, 4k+3 around one or
    # three block boundaries.  Each norm is the product on its row alone.
    @pytest.mark.parametrize("c", [1, 3])
    @pytest.mark.parametrize("blocks,extra", [(0, 1), (0, 2), (0, 3), (1, 0), (1, 1),
                                              (1, 2), (1, 3), (3, 1), (3, 2), (3, 3),
                                              (3, 4)])
    def test_blocked_norms_equal_one_product(self, monkeypatch, c, blocks, extra):
        monkeypatch.setattr(kernels, "_BLOCK_CELLS", 96)
        u = 11
        n = blocks * kernels._block_rows(u, c) + extra
        rng = np.random.default_rng(10 * n + c)
        vals = rng.normal(size=(n, u, c)) + 1j * rng.normal(size=(n, u, c))
        qw = rng.uniform(0.0, 1.0, size=u)
        idx = np.arange(u)[:, None]
        p = PackedSet(SEQ, idx, vals, qw, qw)
        alone = [PackedSet(SEQ, idx, vals[i:i + 1], qw, qw).norms[0] for i in range(n)]
        assert p.norms.tobytes() == np.array(alone).tobytes()
        want = np.sqrt((np.abs(vals) ** 2).sum(axis=2) @ qw)
        assert np.allclose(p.norms, want, rtol=1e-15, atol=0.0)

    # n = 4k .. 4k+4 around a block edge: 8 rows per block at c = 1, 4 at c = 3
    @pytest.mark.parametrize("c", [1, 3])
    @pytest.mark.parametrize("n", [8, 9, 10, 11, 12])
    def test_real_block_norms_equal_complex_block_norms(self, monkeypatch, c, n):
        monkeypatch.setattr(kernels, "_BLOCK_CELLS", 96)
        u = 11
        rng = np.random.default_rng(10 * n + c)
        vals = rng.normal(size=(n, u, c))
        cvals = vals.astype(np.complex128)
        cvals.imag[rng.random(vals.shape) < 0.5] = -0.0
        qw = rng.uniform(0.0, 1.0, size=u)
        real = PackedSet(SEQ, np.arange(u)[:, None], vals, qw, qw)
        cplx = PackedSet(SEQ, np.arange(u)[:, None], cvals, qw, qw)
        assert real.norms.tobytes() == cplx.norms.tobytes()
        rows = np.arange(n)
        for metric in ("strong", "weak"):
            assert (real.cross(rows[:3], rows, metric).tobytes()
                    == cplx.cross(rows[:3], rows, metric).tobytes())

    # n = 4k .. 4k+4 around block edges: 8 rows per block at c = 1, 4 at c = 3
    @pytest.mark.parametrize("real", [True, False])
    @pytest.mark.parametrize("c", [1, 3])
    @pytest.mark.parametrize("n", [8, 9, 10, 11, 12, 16, 17, 18, 19, 20])
    def test_scattered_rows_equal_one_call_on_their_copy(self, monkeypatch, real, c, n):
        monkeypatch.setattr(kernels, "_BLOCK_CELLS", 96)
        u = 11
        rng = np.random.default_rng(10 * n + c)
        vals = rng.normal(size=(3 * n, u, c))
        if not real:
            vals = vals + 1j * rng.normal(size=vals.shape)
        w = rng.uniform(0.0, 1.0, size=u)
        p = PackedSet(SEQ, np.arange(u)[:, None], vals, w, w)
        rows_a = rng.choice(3 * n, size=3, replace=False)
        rows_b = np.sort(rng.choice(3 * n, size=n, replace=False))
        rows_b[0] = rows_b[1] - 2  # never a run
        for rows in (rows_b, rng.permutation(rows_b)):
            assert p.cross(rows_a, rows, "strong").tobytes() == kernels.strong_cross(
                vals[rows_a], vals[rows], w).tobytes()
            assert p.cross(rows_a, rows, "weak").tobytes() == kernels.weak_cross(
                vals[rows_a], vals[rows], w).tobytes()

    # the heat shape at the full block budget: 12 rows per block
    @pytest.mark.parametrize("real", [True, False])
    def test_scattered_rows_equal_consecutive_rows(self, real):
        rng = np.random.default_rng(6)
        n, u = 60, 2049
        vals = rng.normal(size=(n, u, 1))
        if not real:
            vals = vals + 1j * rng.normal(size=vals.shape)
        w = rng.uniform(0.0, 1.0, size=u)
        p = PackedSet(SEQ, np.arange(u)[:, None], vals, w, w)
        rows_a = np.array([3, 40])
        run = p.cross(rows_a, np.arange(n), "weak")
        for rows in (np.arange(1, n, 2), rng.permutation(n)[:29], np.array([5, 7, 2])):
            assert p.cross(rows_a, rows, "weak").tobytes() == run[:, rows].tobytes()
        # each norm is its row's alone
        assert p.norms[17] == PackedSet(SEQ, p.idx, vals[17:18], w, w).norms[0]

    # cross loops over its shorter row list: tall calls run transposed
    @pytest.mark.parametrize("metric", ["strong", "weak"])
    @pytest.mark.parametrize("real", [True, False])
    @pytest.mark.parametrize("c", [1, 3])
    def test_cross_is_the_transpose_of_the_swapped_call(self, monkeypatch, metric,
                                                        real, c):
        monkeypatch.setattr(kernels, "_BLOCK_CELLS", 96)  # 8 or 4 rows per block
        u, n = 11, 40
        rng = np.random.default_rng(c + 2 * real)
        vals = rng.normal(size=(n, u, c))
        if not real:
            vals = vals + 1j * rng.normal(size=vals.shape)
        qw, ww = rng.uniform(0.0, 1.0, size=(2, u))
        p = PackedSet(SEQ, np.arange(u)[:, None], vals, qw, ww)
        kernel = kernels.strong_cross if metric == "strong" else kernels.weak_cross
        w = qw if metric == "strong" else ww

        def rows(k, run):
            if run:
                start = int(rng.integers(0, n - k + 1))
                return np.arange(start, start + k)
            got = rng.permutation(n)[:k]
            if k > 1 and p._run(got) is not None:
                got = got[::-1].copy()
            return got

        # tall, wide and square, with row counts off whole groups of four
        for na, nb in ((1, 13), (13, 1), (5, 18), (18, 5), (7, 7), (9, 9), (2, 3)):
            for run_a in (True, False):
                for run_b in (True, False):
                    ra, rb = rows(na, run_a), rows(nb, run_b)
                    ab = p.cross(ra, rb, metric)
                    ba = p.cross(rb, ra, metric)
                    assert ab.shape == (na, nb)
                    assert ab.tobytes() == np.ascontiguousarray(ba.T).tobytes()
                    assert ab.tobytes() == kernel(vals[ra], vals[rb], w).tobytes()

    def test_tall_cross_puts_the_short_side_on_the_left(self, monkeypatch):
        rng = np.random.default_rng(4)
        vals = rng.normal(size=(30, 5, 1))
        w = np.ones(5)
        p = PackedSet(SEQ, np.arange(5)[:, None], vals, w, w)
        left = []
        weak_cross = kernels.weak_cross

        def spy(av, bv, w):
            left.append(av.shape[0])
            return weak_cross(av, bv, w)

        monkeypatch.setattr(kernels, "weak_cross", spy)
        assert p.cross(np.arange(30), [3, 7], "weak").shape == (30, 2)
        assert p.cross([3, 7], np.arange(0, 30, 2), "weak").shape == (2, 15)
        assert left == [2, 2]

    def test_scattered_rows_are_gathered_one_block_at_a_time(self):
        rng = np.random.default_rng(5)
        n, u = 800, 1986
        vals = rng.normal(size=(n, u, 1))
        w = rng.uniform(0.0, 1.0, size=u)
        p = PackedSet(SEQ, np.arange(u)[:, None], vals, w, w)
        rows = np.arange(0, n, 2)
        block = (kernels._block_rows(u, 1) + 3) * u * 8
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            d = p.cross([1], rows, "weak")
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert d.tobytes() == kernels.weak_cross(vals[1:2], vals[rows], w).tobytes()
        # the gathered block and the kernel's buffers for one block, not the
        # 400 gathered rows (6.4 MB)
        assert peak <= 4 * block < vals[rows].nbytes / 4

    def test_block_is_real_unless_some_value_is_complex(self):
        real = [e(0, 0.5), e(2, -0.25), SEQ.state([1], [complex(0.75, -0.0)]), ZERO]
        p = pack_states(SEQ, real)
        assert p.vals.dtype == np.float64
        mixed = pack_states(SEQ, real + [e(1, 0.5j)])
        assert mixed.vals.dtype == np.complex128
        assert np.array_equal(mixed.vals[:4], p.vals)
        assert mixed.norms[:4].tobytes() == p.norms.tobytes()

    def test_packed_state_serializes_as_from_a_complex_block(self):
        rng = np.random.default_rng(3)
        states = [SEQ.state(rng.choice(np.arange(-6, 7), size=4, replace=False),
                            rng.normal(size=4)) for _ in range(6)]
        states.append(SEQ.state([3], [complex(-1.5, -0.0)]))
        p = pack_states(SEQ, states)
        assert p.vals.dtype == np.float64
        cplx = PackedSet(SEQ, p.idx, p.vals.astype(np.complex128), p.qw, p.ww)
        for row in range(p.n_states):
            assert (json.dumps(state_to_json(p.state(row)))
                    == json.dumps(state_to_json(cplx.state(row))))

    def test_deferred_groups_fill_the_block(self):
        a, b = SEQ.state([0, 2], [1.0, -0.5]), SEQ.state([1], [0.25])
        runs = [((2, 0), [(a.idx, lambda: np.stack([a.val, 2 * a.val]))]),
                ((1,), [(b.idx, b.val[None] * 1j)])]
        p = pack_groups(SEQ, 3, runs)
        want = pack_states(SEQ, [SEQ.state(a.idx, 2 * a.val), SEQ.state(b.idx, b.val * 1j), a])
        assert p.vals.dtype == np.complex128
        assert p.vals.tobytes() == want.vals.tobytes()
        real = pack_groups(SEQ, 3, runs[:1] + [((1,), [(b.idx, lambda: b.val[None])])])
        assert real.vals.dtype == np.float64
        with pytest.raises(UsageError, match="rows"):
            pack_groups(SEQ, 3, [((0, 1), [(a.idx, a.val[None])])])
        with pytest.raises(UsageError, match="rows"):
            pack_groups(SEQ, 3, [((0,), [(a.idx, np.stack([a.val, a.val]))])])

    def test_deferred_complex_group_turns_the_block_complex(self):
        a, b = SEQ.state([0], [0.5]), SEQ.state([1], [0.5j])
        runs = [((0,), [(a.idx, lambda: a.val[None])]),
                ((1,), [(b.idx, lambda: b.val[None])])]
        p = pack_groups(SEQ, 2, runs)
        assert p.vals.dtype == np.complex128
        assert p.vals.tobytes() == pack_states(SEQ, [a, b]).vals.tobytes()

    @pytest.mark.parametrize("shared", [True, False])
    def test_peak_memory_stays_near_the_block(self, shared):
        fam = HeatSystem()
        rng = np.random.default_rng(0)
        states = []
        for x in fam.sample_states(32, rng):
            for y in fam.evolve(0.0, x, np.linspace(0.05, 0.8, 16)):
                states.append(y if shared else fam.space.state(y.idx.copy(), y.val))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            p = pack_states(fam.space, states)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert p.n_states == 512
        assert peak <= 1.5 * p.vals.nbytes


# ---------------------------------------------------------------------------
# state validation


class TestStateValidation:
    def test_duplicate_indices_rejected(self):
        with pytest.raises(UsageError, match="duplicate"):
            SEQ.state([1, 1], [1.0, 2.0])

    def test_unsorted_3d_duplicate_indices_rejected(self):
        idx = [[1, 0, -2], [0, 3, 1], [-1, 0, 0], [0, 3, 1]]
        with pytest.raises(UsageError, match="duplicate"):
            LAT3.state(idx, np.ones((4, 3)))
        assert LAT3.state(idx[:3], np.ones((3, 3))).idx.shape[0] == 3

    def test_lattice_key_collision_refused(self):
        # 21 bits per axis: (0, 0, 2^21) and (0, 1, 0) would share one key
        unit = DualMetricSpace(tag="unit3", index_dim=3)
        with pytest.raises(UsageError, match="outside"):
            unit.state([[0, 0, 2 ** 21]], [1.0])
        with pytest.raises(UsageError, match="outside"):
            unit.state([[0, 0, 2 ** 21], [0, 1, 0]], [1.0, 1.0])
        a, b = unit.state([[0, 0, 2 ** 20 - 1]], [1.0]), unit.state([[0, 1, 0]], [1.0])
        assert unit.strong_dist(a, b) == math.sqrt(2)

    @pytest.mark.parametrize("row", [[0, 0, 1 << 20], [-(1 << 20) - 1, 0, 0],
                                     [0, 1 << 40, 0]])
    def test_lattice_index_range_on_every_route(self, row):
        with pytest.raises(UsageError, match="outside"):
            LAT3.state([row], np.ones((1, 3)))
        with pytest.raises(UsageError, match="outside"):
            CoeffState("lat3", np.array([row]), np.ones((1, 3)))
        edge = [[-(1 << 20), (1 << 20) - 1, 0]]
        assert LAT3.state(edge, np.ones((1, 3))).idx.shape[0] == 1

    def test_nonfinite_rejected(self):
        with pytest.raises(UsageError):
            SEQ.state([0], [float("inf")])

    def test_wrong_index_dimension_rejected(self):
        with pytest.raises(UsageError):
            SEQ.state([[1, 2]], [1.0])

    def test_wrong_component_count_rejected(self):
        with pytest.raises(UsageError):
            LAT3.state([[1, 0, 0]], [[1.0, 2.0]])

    def test_wrong_tag_rejected(self):
        with pytest.raises(UsageError, match="tagged"):
            GRID.check_member(e(0))

    def test_grid_index_outside_extent_rejected(self):
        with pytest.raises(UsageError, match="grid"):
            GRID.state([2000], [1.0])

    def test_space_constructor_validation(self):
        with pytest.raises(UsageError):
            DualMetricSpace(tag="bad", index_dim=2)
        with pytest.raises(UsageError):
            DualMetricSpace(tag="bad", weak_kind="medium")
        with pytest.raises(UsageError):
            DualMetricSpace(tag="bad", grid_spacing=0.1)  # extent missing


# ---------------------------------------------------------------------------
# serialization


class TestSerialization:
    def test_real_scalar_roundtrip_uses_bare_numbers(self):
        st0 = SEQ.state([2, -3], [1.5, -0.25])
        obj = state_to_json(st0)
        assert obj["val"] == [1.5, -0.25]

    def test_complex_scalar_roundtrip(self):
        st0 = SEQ.state([1], [1.0 + 2.0j])
        obj = state_to_json(st0)
        assert obj["val"] == [[1.0, 2.0]]

    def test_three_component_roundtrip(self):
        st0 = LAT3.state([[1, 0, 0]], [[1.0 + 1.0j, 2.0, -1.0j]])
        obj = state_to_json(st0)
        assert obj["val"] == [[1.0, 1.0, 2.0, 0.0, 0.0, -1.0]]

    def test_empty_state_roundtrip(self):
        assert state_to_json(ZERO) == {"space": "seq", "idx": [], "val": []}
