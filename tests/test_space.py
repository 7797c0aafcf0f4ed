"""Dual-metric space: worked distance values, axioms, nets, serialization.

Oracle values are closed-form evaluations of the contract formulas,
computed by hand and frozen here as literals.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ges.errors import UsageError
from ges.space import (
    DualMetricSpace,
    epsilon_net,
    hausdorff_dist,
    net_rows,
    pack_states,
    set_semidist,
    state_from_json,
    state_to_json,
)

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
        assert LAT3.state(idx[:3], np.ones((3, 3))).n_coeffs == 3

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
            DualMetricSpace(tag="bad", weight_base=1.0)
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
        back = state_from_json(obj, SEQ)
        assert SEQ.strong_dist(st0, back) == 0.0

    def test_complex_scalar_roundtrip(self):
        st0 = SEQ.state([1], [1.0 + 2.0j])
        obj = state_to_json(st0)
        assert obj["val"] == [[1.0, 2.0]]
        back = state_from_json(obj, SEQ)
        assert SEQ.strong_dist(st0, back) == 0.0

    def test_three_component_roundtrip(self):
        st0 = LAT3.state([[1, 0, 0]], [[1.0 + 1.0j, 2.0, -1.0j]])
        obj = state_to_json(st0)
        assert obj["val"] == [[1.0, 1.0, 2.0, 0.0, 0.0, -1.0]]
        back = state_from_json(obj, LAT3)
        assert LAT3.strong_dist(st0, back) == 0.0

    def test_empty_state_roundtrip(self):
        back = state_from_json(state_to_json(ZERO), SEQ)
        assert back.n_coeffs == 0

    def test_malformed_object_rejected(self):
        with pytest.raises(UsageError, match="malformed"):
            state_from_json({"idx": [[0]]}, SEQ)

    def test_tag_mismatch_rejected(self):
        obj = state_to_json(e(0))
        with pytest.raises(UsageError):
            state_from_json(obj, GRID)

    def test_odd_value_row_rejected(self):
        obj = {"space": "seq", "idx": [[0]], "val": [[1.0, 2.0, 3.0]]}
        with pytest.raises(UsageError):
            state_from_json(obj, SEQ)
