"""Sparse coefficient states over a phase space carrying two metrics.

States are finite coefficient families over integer multi-indices (grid
frequencies, lattice wave vectors, or plain sequence slots).  A
DualMetricSpace fixes how those coefficients are measured:

* the strong metric is the quadrature-weighted l2 distance,
* the weak metric is the bounded-difference series
      sum_k  w(k) * t_k / (1 + t_k),   t_k = |a_k - b_k|,
  with geometric weights w(k) = pref * base^(-scale*|k|) evaluated up to
  the truncation radius.  The discarded part of the series is bounded by
  weak_tail_bound, so the truncated value is exact for states supported
  inside the truncation window and otherwise a lower value within that
  bound of the full series.

Grid-sampled continuum spaces (the diffusion example) set grid_spacing;
the quadrature is then the trapezoid rule on the frequency grid and the
weak weights decay in the physical frequency h*j rather than the raw
slot index.  A space may also declare weak_kind="strong", used by the
scalar counterexample whose two metrics coincide.

Set operations (semidistance, Hausdorff, greedy epsilon nets) run on
packed dense blocks so the pairwise work happens inside the kernels
module, which dispatches between the numba and numpy backends.  A run of
consecutive packed rows reaches the kernels as a view, not a copy, which
is why the omega layer packs its tier images deepest tier first: the net
then visits rows in storage order and every tier is one such run.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

import numpy as np

from . import kernels
from .errors import UsageError

BALL_SLACK = 1e-9


# ---------------------------------------------------------------------------
# states


@dataclass(frozen=True)
class CoeffState:
    """Immutable sparse coefficient vector tagged with its space."""

    space_tag: str
    idx: np.ndarray  # (n, d) int64, rows unique
    val: np.ndarray  # (n, c) complex128

    def __post_init__(self):
        object.__setattr__(self, "idx", np.ascontiguousarray(self.idx, dtype=np.int64))
        object.__setattr__(self, "val", np.ascontiguousarray(self.val, dtype=np.complex128))
        if self.idx.ndim != 2 or self.val.ndim != 2:
            raise UsageError("state arrays must be (n, d) indices and (n, c) values")
        if self.idx.shape[0] != self.val.shape[0]:
            raise UsageError("index and value counts differ")
        if not np.all(np.isfinite(self.val.view(np.float64))):
            raise UsageError("non-finite coefficient in state")
        if self.idx.shape[0] > 1:
            keys = np.sort(_encode_rows(self.idx))
            if np.any(keys[1:] == keys[:-1]):
                raise UsageError("duplicate indices in state")

    @property
    def n_coeffs(self) -> int:
        return self.idx.shape[0]


def _encode_rows(idx: np.ndarray) -> np.ndarray:
    """Collision-free int64 key per index row (order is irrelevant)."""
    if idx.shape[0] == 0:
        return np.empty(0, dtype=np.int64)
    if idx.shape[1] == 1:
        return idx[:, 0].copy()
    # bounded lattices only (|k| < 2^20 per axis is far beyond any use here)
    base = np.int64(1) << np.int64(21)
    off = np.int64(1) << np.int64(20)
    key = idx[:, 0] + off
    for c in range(1, idx.shape[1]):
        key = key * base + (idx[:, c] + off)
    return key


# ---------------------------------------------------------------------------
# spaces


@dataclass(frozen=True)
class DualMetricSpace:
    """Phase-space geometry: index layout, quadrature and series weights."""

    tag: str
    index_dim: int = 1
    component_dim: int = 1
    weight_base: float = 2.0
    truncation_radius: int = 32
    ball_radius: float | None = None
    grid_spacing: float | None = None
    grid_extent: int | None = None
    weak_kind: str = "series"  # "series" | "strong"

    def __post_init__(self):
        if self.weight_base <= 1.0:
            raise UsageError("weight_base must exceed 1")
        if self.index_dim not in (1, 3):
            raise UsageError("index_dim must be 1 or 3")
        if self.weak_kind not in ("series", "strong"):
            raise UsageError("weak_kind must be 'series' or 'strong'")
        if (self.grid_spacing is None) != (self.grid_extent is None):
            raise UsageError("grid_spacing and grid_extent come together")

    # -- state construction -------------------------------------------------

    def state(self, idx, val) -> CoeffState:
        """Build and validate a state on this space.

        idx: (n,) ints for 1-D spaces or (n, index_dim) rows.
        val: (n,) scalars or (n, component_dim) rows, real or complex.
        """
        a = np.asarray(idx, dtype=np.int64)
        if a.ndim == 1:
            a = a[:, None]
        if a.ndim != 2 or (a.size and a.shape[1] != self.index_dim):
            raise UsageError(f"indices must have dimension {self.index_dim}")
        if a.size == 0:
            a = a.reshape(0, self.index_dim)
        v = np.asarray(val, dtype=np.complex128)
        if v.ndim == 1:
            v = v[:, None]
        if v.size == 0:
            v = v.reshape(0, self.component_dim)
        if v.shape[1] != self.component_dim:
            raise UsageError(f"values must have {self.component_dim} components")
        st = CoeffState(self.tag, a, v)
        self._check_indices(st)
        return st

    def zero_state(self) -> CoeffState:
        return self.state(np.empty((0, self.index_dim)), np.empty((0, self.component_dim)))

    def _check_indices(self, st: CoeffState) -> None:
        if self.grid_extent is not None and st.idx.size:
            if np.abs(st.idx).max() > self.grid_extent:
                raise UsageError("index outside the sampled grid")

    def check_member(self, st: CoeffState) -> CoeffState:
        if st.space_tag != self.tag:
            raise UsageError(f"state tagged {st.space_tag!r} handed to space {self.tag!r}")
        return st

    # -- per-index weights ---------------------------------------------------

    def quad_weights(self, idx: np.ndarray) -> np.ndarray:
        """Strong-metric quadrature weight per index row."""
        if self.grid_spacing is None:
            return np.ones(idx.shape[0], dtype=np.float64)
        w = np.full(idx.shape[0], self.grid_spacing, dtype=np.float64)
        w[np.abs(idx[:, 0]) == self.grid_extent] = 0.5 * self.grid_spacing
        return w

    def weak_weights(self, idx: np.ndarray) -> np.ndarray:
        """Series weight per index row; zero beyond the truncation radius."""
        if self.weak_kind == "strong":
            return self.quad_weights(idx)
        if idx.shape[0] == 0:
            return np.empty(0, dtype=np.float64)
        if self.index_dim == 1:
            mag = np.abs(idx[:, 0]).astype(np.float64)
            inside = np.abs(idx[:, 0]) <= self.truncation_radius
        else:
            mag = np.sqrt((idx.astype(np.float64) ** 2).sum(axis=1))
            inside = np.abs(idx).max(axis=1) <= self.truncation_radius
        scale = self.grid_spacing if self.grid_spacing is not None else 1.0
        pref = self.grid_spacing if self.grid_spacing is not None else 1.0
        w = pref * self.weight_base ** (-scale * mag)
        w[~inside] = 0.0
        return w

    def weak_tail_bound(self, radius: int | None = None) -> float:
        """Upper bound on the weak-series mass beyond the truncation radius.

        Each series term is w(k) * t/(1+t) <= w(k), so truncating at K
        changes the value by at most this bound.  For 3-D lattices the
        bound sums sup-norm shells, which dominates the Euclidean-decay
        weights since |k|_2 >= |k|_inf.
        """
        if self.weak_kind == "strong":
            return 0.0
        k = self.truncation_radius if radius is None else radius
        b = self.weight_base
        if self.index_dim == 1:
            scale = self.grid_spacing if self.grid_spacing is not None else 1.0
            pref = self.grid_spacing if self.grid_spacing is not None else 1.0
            r = b ** (-scale)
            return pref * 2.0 * r ** (k + 1) / (1.0 - r)
        total = 0.0
        m = k + 1
        while True:
            term = (24.0 * m * m + 2.0) * b ** (-m)
            total += term
            if term < 1e-300 or m > 100000:
                break
            m += 1
        return total

    def with_truncation(self, radius: int) -> "DualMetricSpace":
        return replace(self, truncation_radius=radius)

    # -- pair metrics ---------------------------------------------------------

    def strong_norm(self, a: CoeffState) -> float:
        self.check_member(a)
        self._check_indices(a)
        q = self.quad_weights(a.idx)
        return float(np.sqrt((np.abs(a.val) ** 2).sum(axis=1) @ q))

    def strong_dist(self, a: CoeffState, b: CoeffState) -> float:
        p = pack_states(self, [a, b])
        return float(kernels.strong_cross(p.vals[:1], p.vals[1:], p.qw)[0, 0])

    def weak_dist(self, a: CoeffState, b: CoeffState) -> float:
        p = pack_states(self, [a, b])
        if self.weak_kind == "strong":
            return float(kernels.strong_cross(p.vals[:1], p.vals[1:], p.ww)[0, 0])
        return float(kernels.weak_cross(p.vals[:1], p.vals[1:], p.ww)[0, 0])

    def dist(self, a: CoeffState, b: CoeffState, metric: str) -> float:
        if metric == "strong":
            return self.strong_dist(a, b)
        if metric == "weak":
            return self.weak_dist(a, b)
        raise UsageError(f"unknown metric {metric!r}")


# ---------------------------------------------------------------------------
# packed set operations


@dataclass
class PackedSet:
    """States densified onto the union of their index rows."""

    space: DualMetricSpace
    idx: np.ndarray  # (u, d)
    vals: np.ndarray  # (n, u, c)
    qw: np.ndarray  # (u,)
    ww: np.ndarray  # (u,)
    norms: np.ndarray = field(init=False)

    def __post_init__(self):
        sq = (np.abs(self.vals) ** 2).sum(axis=2) @ self.qw
        self.norms = np.sqrt(np.maximum(sq, 0.0))

    @property
    def n_states(self) -> int:
        return self.vals.shape[0]

    def _rows(self, rows) -> np.ndarray:
        """vals at the given rows; a run of consecutive rows is a view."""
        rows = np.asarray(rows)
        if (rows.ndim == 1 and rows.size and rows.dtype.kind in "iu"
                and rows[0] >= 0 and rows[-1] < self.n_states
                and np.all(np.diff(rows) == 1)):
            return self.vals[rows[0]:rows[-1] + 1]
        return np.ascontiguousarray(self.vals[rows])

    def cross(self, rows_a: np.ndarray, rows_b: np.ndarray, metric: str) -> np.ndarray:
        av = self._rows(rows_a)
        bv = self._rows(rows_b)
        if metric == "strong":
            return kernels.strong_cross(av, bv, self.qw)
        if metric == "weak":
            if self.space.weak_kind == "strong":
                return kernels.strong_cross(av, bv, self.ww)
            return kernels.weak_cross(av, bv, self.ww)
        raise UsageError(f"unknown metric {metric!r}")

    def semidist(self, rows_a, rows_b, metric: str) -> float:
        """sup over rows_a of the distance to the nearest rows_b member."""
        rows_a = np.asarray(rows_a, dtype=np.int64)
        rows_b = np.asarray(rows_b, dtype=np.int64)
        if rows_a.size == 0 or rows_b.size == 0:
            raise UsageError("semidistance of an empty set is undefined")
        d = self.cross(rows_a, rows_b, metric)
        return float(np.max(np.min(d, axis=1)))

    def state(self, row: int) -> CoeffState:
        keep = np.abs(self.vals[row]).max(axis=1) > 0.0
        return self.space.state(self.idx[keep], self.vals[row][keep])


def pack_states(space: DualMetricSpace, states: Sequence[CoeffState],
                check_ball: bool = True) -> PackedSet:
    """Densify states onto their sorted index union.

    The union rows are sorted by encoded key, so all downstream summation
    orders depend only on the set of indices, never on input order.
    """
    states = list(states)
    if not states:
        raise UsageError("cannot pack an empty state list")
    for s in states:
        space.check_member(s)
        space._check_indices(s)
    stacked = np.vstack([s.idx for s in states]) if states else None
    if stacked.shape[0] == 0:
        uniq_idx = np.empty((0, space.index_dim), dtype=np.int64)
        uniq_keys = np.empty(0, dtype=np.int64)
    else:
        keys = _encode_rows(stacked)
        uniq_keys, first = np.unique(keys, return_index=True)
        uniq_idx = stacked[first]
    u = uniq_idx.shape[0]
    c = space.component_dim
    vals = np.zeros((len(states), u, c), dtype=np.complex128)
    for i, s in enumerate(states):
        if s.idx.shape[0]:
            pos = np.searchsorted(uniq_keys, _encode_rows(s.idx))
            vals[i, pos, :] = s.val
    packed = PackedSet(space, uniq_idx, vals,
                       space.quad_weights(uniq_idx), space.weak_weights(uniq_idx))
    if check_ball and space.ball_radius is not None:
        worst = packed.norms.max(initial=0.0)
        if worst > space.ball_radius + BALL_SLACK:
            raise UsageError(
                f"state with strong norm {worst:.6g} exceeds the ball radius "
                f"{space.ball_radius:.6g} of space {space.tag!r}")
    return packed


def set_semidist(space: DualMetricSpace, a_set: Iterable[CoeffState],
                 b_set: Iterable[CoeffState], metric: str) -> float:
    """sup_{a in A} inf_{b in B} dist(a, b) in the chosen metric."""
    a_set, b_set = list(a_set), list(b_set)
    if not a_set or not b_set:
        raise UsageError("semidistance needs non-empty sets")
    p = pack_states(space, a_set + b_set)
    na = len(a_set)
    return p.semidist(np.arange(na), np.arange(na, p.n_states), metric)


def hausdorff_dist(space: DualMetricSpace, a_set, b_set, metric: str) -> float:
    return max(set_semidist(space, a_set, b_set, metric),
               set_semidist(space, b_set, a_set, metric))


def epsilon_net(space: DualMetricSpace, states: Sequence[CoeffState],
                eps: float, metric: str) -> list[CoeffState]:
    """Greedy first-come epsilon net of the states, visited in input order.

    The rule, ties included, is net_rows'.
    """
    states = list(states)
    if not states:
        raise UsageError("cannot build a net over an empty set")
    if eps <= 0:
        raise UsageError("eps must be positive")
    p = pack_states(space, states)
    return [states[i] for i in net_rows(p, np.arange(p.n_states), eps, metric)]


def net_rows(p: PackedSet, order: np.ndarray, eps: float, metric: str) -> list[int]:
    """Greedy first-come net over packed rows, visiting them in the given order.

    A row is kept iff it is farther than eps from every row kept before
    it, so the output is a deterministic function of the order.  Ties
    (distance exactly eps) are absorbed by the earlier representative.
    Each kept row is compared once with every row after it; a running
    minimum holds each later row's distance to its nearest kept row.
    """
    order = np.asarray(order, dtype=np.int64)
    nearest = np.full(order.size, np.inf)
    kept: list[int] = []
    k = 0
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


# ---------------------------------------------------------------------------
# serialization


def state_to_json(st: CoeffState) -> dict:
    """Portable dict form: {"space", "idx", "val"}.

    Value encoding per row: a bare number for real scalars, [re, im] for
    complex scalars, and [re0, im0, re1, im1, re2, im2] for 3-component
    fields.
    """
    vals = []
    for row in st.val:
        if row.shape[0] == 1:
            z = complex(row[0])
            if z.imag == 0.0:
                vals.append(z.real)
            else:
                vals.append([z.real, z.imag])
        else:
            flat = []
            for z in row:
                flat.extend((float(z.real), float(z.imag)))
            vals.append(flat)
    return {"space": st.space_tag, "idx": st.idx.tolist(), "val": vals}


def state_from_json(obj: dict, space: DualMetricSpace | None = None) -> CoeffState:
    try:
        tag = obj["space"]
        idx = np.asarray(obj["idx"], dtype=np.int64)
        raw = obj["val"]
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"malformed state object: {exc}") from exc
    if idx.size == 0:
        idx = idx.reshape(0, space.index_dim if space is not None else 1)
    rows = []
    for item in raw:
        if isinstance(item, (int, float)):
            rows.append([complex(item)])
        elif len(item) == 2:
            rows.append([complex(item[0], item[1])])
        elif len(item) % 2 == 0:
            rows.append([complex(item[2 * i], item[2 * i + 1]) for i in range(len(item) // 2)])
        else:
            raise UsageError("value rows must be scalars or even-length lists")
    c = len(rows[0]) if rows else (space.component_dim if space is not None else 1)
    val = np.asarray(rows, dtype=np.complex128).reshape(len(rows), c)
    if space is not None:
        if tag != space.tag:
            raise UsageError(f"state tagged {tag!r} does not live on space {space.tag!r}")
        return space.state(idx, val)
    return CoeffState(tag, idx, val)
