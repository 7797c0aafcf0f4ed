"""Sparse coefficient states over a phase space carrying two metrics.

States are finite coefficient families over integer multi-indices (grid
frequencies, lattice wave vectors, or plain sequence slots).  A
DualMetricSpace fixes how those coefficients are measured:

* the strong metric is the quadrature-weighted l2 distance,
* the weak metric is the bounded-difference series
      sum_k  w(k) * t_k / (1 + t_k),   t_k = |a_k - b_k|,
  with the base-2 geometric weights w(k) = pref * 2^(-scale*|k|) of
  Cheskidov & Foias, evaluated up to the truncation radius.  The
  discarded part of the series is bounded by weak_tail_bound, so the
  truncated value is exact for states supported inside the truncation
  window and otherwise a lower value within that bound of the full
  series.

Grid-sampled continuum spaces (the diffusion example) set grid_spacing;
the quadrature is then the trapezoid rule on the frequency grid and the
weak weights decay in the physical frequency h*j rather than the raw
slot index.  A space may also declare weak_kind="strong", used by the
scalar counterexample whose two metrics coincide.

Set operations (semidistance, Hausdorff, greedy epsilon nets) run on
packed dense blocks so the pairwise work happens inside the kernels
module; pair distances go through the same path.  Every product runs on
whole groups of four rows, so a distance depends only on its two rows
(and the index union they are packed on).  A run of consecutive packed
rows reaches the kernels as a view, not a copy, which is why the omega
layer packs its tier images deepest tier first: the net then visits rows
in storage order and every tier is one such run.

One scatter packer, pack_groups, builds every block; pack_states is its
case of one state per group, and the omega ladders hand it each seed's
images as one group whose values may be computed only once the block
exists.  Packing holds little beyond the block itself: index rows are
encoded once per distinct index array (groups that share one array object
share the work), no stacked copy of all rows is made, and a norm is the
kernel's strong distance to the zero row.  While the block is built, the
memory held beside it is one 4-byte slot array per distinct index array
and one deferred group.  The block is float64 when every value is real,
complex128 otherwise; the two give bitwise the same norms and distances.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

import numpy as np

from . import kernels
from .errors import UsageError

BALL_SLACK = 1e-9

#: the index rows of a one-slot state, slot 0: shared by every image a
#: scalar system hands out, so packing encodes them once per block
SCALAR_SLOT = np.zeros((1, 1), dtype=np.int64)
SCALAR_SLOT.flags.writeable = False


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
        # lattice keys hold 21 bits per axis (see _encode_rows)
        if self.idx.shape[1] > 1 and self.idx.size and (
                self.idx.min() < -(1 << 20) or self.idx.max() >= 1 << 20):
            raise UsageError("lattice index outside [-2^20, 2^20) in state")
        if self.idx.shape[0] > 1:
            keys = np.sort(_encode_rows(self.idx))
            if np.any(keys[1:] == keys[:-1]):
                raise UsageError("duplicate indices in state")


def _encode_rows(idx: np.ndarray) -> np.ndarray:
    """Collision-free int64 key per index row; keys sort rows lexicographically.

    Lattice rows take 21 bits per axis, so every coordinate must lie in
    [-2^20, 2^20); CoeffState refuses any other.
    """
    if idx.shape[0] == 0:
        return np.empty(0, dtype=np.int64)
    if idx.shape[1] == 1:
        return idx[:, 0].copy()
    base = np.int64(1) << np.int64(21)
    off = np.int64(1) << np.int64(20)
    key = idx[:, 0] + off
    for c in range(1, idx.shape[1]):
        key = key * base + (idx[:, c] + off)
    return key


def _decode_keys(keys: np.ndarray, d: int) -> np.ndarray:
    """(n, d) index rows of the keys: the inverse of _encode_rows."""
    if d == 1:
        return keys.reshape(-1, 1)
    off = np.int64(1) << np.int64(20)
    rows = np.empty((keys.shape[0], d), dtype=np.int64)
    rest = keys.copy()
    for c in range(d - 1, 0, -1):
        np.bitwise_and(rest, (1 << 21) - 1, out=rows[:, c])
        rows[:, c] -= off
        rest >>= 21
    np.subtract(rest, off, out=rows[:, 0])
    return rows


# ---------------------------------------------------------------------------
# spaces


@dataclass(frozen=True)
class DualMetricSpace:
    """Phase-space geometry: index layout, quadrature and series weights."""

    tag: str
    index_dim: int = 1
    component_dim: int = 1
    truncation_radius: int = 32
    ball_radius: float | None = None
    grid_spacing: float | None = None
    grid_extent: int | None = None
    weak_kind: str = "series"  # "series" | "strong"

    def __post_init__(self):
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
        self._check_indices(st.idx)
        return st

    def zero_state(self) -> CoeffState:
        return self.state(np.empty((0, self.index_dim)), np.empty((0, self.component_dim)))

    def _check_indices(self, idx: np.ndarray) -> None:
        if idx.size and idx.shape[1] != self.index_dim:
            raise UsageError(f"indices must have dimension {self.index_dim}")
        if self.grid_extent is not None and idx.size:
            if np.abs(idx).max() > self.grid_extent:
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
        w = pref * 2.0 ** (-scale * mag)
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
        if self.index_dim == 1:
            scale = self.grid_spacing if self.grid_spacing is not None else 1.0
            pref = self.grid_spacing if self.grid_spacing is not None else 1.0
            r = 2.0 ** (-scale)
            return pref * 2.0 * r ** (k + 1) / (1.0 - r)
        total = 0.0
        m = k + 1
        while True:
            term = (24.0 * m * m + 2.0) * 2.0 ** (-m)
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
        self._check_indices(a.idx)
        q = self.quad_weights(a.idx)
        return float(np.sqrt((np.abs(a.val) ** 2).sum(axis=1) @ q))

    def strong_dist(self, a: CoeffState, b: CoeffState) -> float:
        return self.dist(a, b, "strong")

    def weak_dist(self, a: CoeffState, b: CoeffState) -> float:
        return self.dist(a, b, "weak")

    def dist(self, a: CoeffState, b: CoeffState, metric: str) -> float:
        return float(pack_states(self, [a, b]).cross([0], [1], metric)[0, 0])


# ---------------------------------------------------------------------------
# packed set operations


@dataclass
class PackedSet:
    """States densified onto the union of their index rows."""

    space: DualMetricSpace
    idx: np.ndarray  # (u, d)
    vals: np.ndarray  # (n, u, c): float64 when every value is real, else complex128
    qw: np.ndarray  # (u,)
    ww: np.ndarray  # (u,)
    norms: np.ndarray = field(init=False)

    def __post_init__(self):
        # a norm is the strong distance to the zero row
        zero = np.zeros((1, *self.vals.shape[1:]))
        self.norms = kernels.strong_cross(zero, self.vals, self.qw)[0]

    @property
    def n_states(self) -> int:
        return self.vals.shape[0]

    def check_ball(self) -> None:
        """UsageError when some row's strong norm leaves the space's ball."""
        cap = self.space.ball_radius
        worst = self.norms.max(initial=0.0)
        if cap is not None and worst > cap + BALL_SLACK:
            raise UsageError(
                f"state with strong norm {worst:.6g} exceeds the ball radius "
                f"{cap:.6g} of space {self.space.tag!r}")

    def _run(self, rows: np.ndarray) -> np.ndarray | None:
        """A view of vals when rows is a run of consecutive rows, else None."""
        if (rows.ndim == 1 and rows.size and rows.dtype.kind in "iu"
                and rows[0] >= 0 and rows[-1] < self.n_states
                and np.all(np.diff(rows) == 1)):
            return self.vals[rows[0]:rows[-1] + 1]
        return None

    def _rows(self, rows) -> np.ndarray:
        """vals at the given rows; a run of consecutive rows is a view."""
        rows = np.asarray(rows)
        run = self._run(rows)
        return run if run is not None else np.ascontiguousarray(self.vals[rows])

    def cross(self, rows_a: np.ndarray, rows_b: np.ndarray, metric: str) -> np.ndarray:
        """(len(rows_a), len(rows_b)) distances in the chosen metric.

        The kernels loop in Python over their left rows, so the shorter
        row list goes on the left: a call with more rows_a than rows_b
        returns the transpose of cross(rows_b, rows_a).  d(a, b) and
        d(b, a) have the same bits (the kernels square or take the modulus
        of a - b), so the side changes no value.  Runs of consecutive rows
        reach the kernel as views.  Scattered left rows are gathered whole;
        scattered right rows one kernel block at a time, so the gathered
        rows never exceed one block beside the packed set.  A distance
        depends only on its two rows, so it has the same bits gathered or
        not.
        """
        if metric not in ("strong", "weak"):
            raise UsageError(f"unknown metric {metric!r}")
        if np.size(rows_a) > np.size(rows_b):
            return self.cross(rows_b, rows_a, metric).T
        strong = metric == "strong" or self.space.weak_kind == "strong"
        kernel = kernels.strong_cross if strong else kernels.weak_cross
        w = self.qw if metric == "strong" else self.ww
        av = self._rows(rows_a)
        rows_b = np.asarray(rows_b)
        bv = self._run(rows_b)
        if bv is not None:
            return kernel(av, bv, w)
        step = kernels._block_rows(*self.vals.shape[1:])
        out = np.empty((av.shape[0], rows_b.size), dtype=np.float64)
        for s in range(0, rows_b.size, step):
            out[:, s:s + step] = kernel(av, self.vals[rows_b[s:s + step]], w)
        return out

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


def pack_groups(space: DualMetricSpace, n_states: int, runs) -> PackedSet:
    """Scatter groups of states onto their sorted index union.

    runs holds (rows, groups) pairs.  Each group is an (idx, vals) pair
    whose states take the next len(vals) entries of rows: vals[k] holds a
    state's values on the index rows idx, so vals is (k, len(idx), c).  A
    group may give vals as a callable instead, which is called once, after
    the block is allocated; values computed that way go straight into the
    block and never all exist beside it.

    The union rows are sorted by encoded key, so all downstream summation
    orders depend only on the set of indices, never on input order.  Each
    distinct idx array object is encoded and located on the union once;
    beyond the block, the memory held while it is built is one slot array
    per distinct index array and one deferred group at a time.  The block
    is float64 when every value has a zero imaginary part, which changes no
    distance or norm: x + 0.0 == x.  A deferred group with a nonzero
    imaginary part turns the block complex.  The block is not checked
    against the ball: pack_states checks its own, and evolution._tier_block
    checks its own after the blow-up guard.
    """
    runs = list(runs)
    which: dict[int, int] = {}  # id of an idx array -> its place in arrays
    arrays = []
    real = True
    for _, groups in runs:
        for idx, vals in groups:
            if id(idx) not in which:
                space._check_indices(idx)
                which[id(idx)] = len(arrays)
                arrays.append(idx)
            if real and not callable(vals) and vals.dtype.kind == "c":
                real = not np.count_nonzero(vals.imag)
    keys = [_encode_rows(a) for a in arrays]
    uniq_keys = np.unique(np.concatenate(keys))
    # a union never reaches 2^31 rows, so 4-byte slots halve what sits beside the block
    slots = [np.searchsorted(uniq_keys, k).astype(np.int32) for k in keys]
    del keys  # only the slot arrays outlive this point beside the block
    uniq_idx = _decode_keys(uniq_keys, space.index_dim)
    del uniq_keys
    block = np.zeros((n_states, uniq_idx.shape[0], space.component_dim),
                     dtype=np.float64 if real else np.complex128)
    for rows, groups in runs:
        k = 0
        for idx, vals in groups:
            if callable(vals):
                vals = vals()
                if real and vals.dtype.kind == "c" and np.count_nonzero(vals.imag):
                    block, real = block.astype(np.complex128), False
            if real and vals.dtype.kind == "c":
                vals = vals.real
            slot = slots[which[id(idx)]]
            for row, v in zip(rows[k:], vals):
                block[row, slot] = v
            k += len(vals)
        if k != len(rows):
            raise UsageError(f"{k} packed states for {len(rows)} rows")
    return PackedSet(space, uniq_idx, block,
                     space.quad_weights(uniq_idx), space.weak_weights(uniq_idx))


def pack_states(space: DualMetricSpace, states: Sequence[CoeffState]) -> PackedSet:
    """Densify states onto their sorted index union: pack_groups with one
    state per group, then the ball check.  States that share one idx array
    object (the images of one seed, or every state of a fixed spectral
    basis) share its encoding.
    """
    states = list(states)
    if not states:
        raise UsageError("cannot pack an empty state list")
    for s in states:
        space.check_member(s)
    packed = pack_groups(space, len(states),
                         [((i,), [(s.idx, s.val[None])]) for i, s in enumerate(states)])
    packed.check_ball()
    return packed


def set_semidists(space: DualMetricSpace, a_set: Iterable[CoeffState],
                  b_set: Iterable[CoeffState], metric: str) -> tuple[float, float]:
    """Both semidistances, A to B and B to A, from one pack and one cross
    matrix (d(a, b) and d(b, a) have the same bits)."""
    a_set, b_set = list(a_set), list(b_set)
    if not a_set or not b_set:
        raise UsageError("semidistance needs non-empty sets")
    p = pack_states(space, a_set + b_set)
    na = len(a_set)
    d = p.cross(np.arange(na), np.arange(na, p.n_states), metric)
    return float(d.min(axis=1).max()), float(d.min(axis=0).max())


def set_semidist(space: DualMetricSpace, a_set: Iterable[CoeffState],
                 b_set: Iterable[CoeffState], metric: str) -> float:
    """sup_{a in A} inf_{b in B} dist(a, b) in the chosen metric."""
    return set_semidists(space, a_set, b_set, metric)[0]


def hausdorff_dist(space: DualMetricSpace, a_set, b_set, metric: str) -> float:
    return max(set_semidists(space, a_set, b_set, metric))


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


@dataclass
class NetPivots:
    """Distances net_rows computed anyway, kept for pivot lower bounds.

    For each place i of the visiting order, pivot[i] is the place in the
    kept list of the first kept row within eps of order[i], and dist[i]
    their distance; a kept row is its own pivot at distance 0.  kept[a, b]
    is the distance between kept rows a and b (symmetric, zero diagonal).
    """

    pivot: np.ndarray | None = None
    dist: np.ndarray | None = None
    kept: np.ndarray | None = None


def net_rows(p: PackedSet, order: np.ndarray, eps: float, metric: str,
             pivots: NetPivots | None = None) -> list[int]:
    """Greedy first-come net over packed rows, visiting them in the given order.

    A row is kept iff it is farther than eps from every row kept before
    it, so the output is a deterministic function of the order.  Ties
    (distance exactly eps) are absorbed by the earlier representative.

    A live list holds the rows still farther than eps from every kept row.
    The next kept row is the first live one, and it is compared only with
    the live rows after it: a row that came within eps of some kept row can
    never be kept, so comparing it again could not change the net.  A row
    leaves the live list at its pivot, the first kept row within eps of it.
    Each kept row was live when every earlier kept row was compared with
    the rows after it, so the pass also computes every kept-to-kept
    distance.  When pivots is given, net_rows fills it with the pivots and
    those distances (see NetPivots).  Until the kept-to-kept matrix is
    built, it holds each pass's distances to the rows left live, so a net
    of K rows holds of order K^2 floats.
    """
    order = np.asarray(order, dtype=np.int64)
    live = np.arange(order.size)
    pivot = np.zeros(order.size, dtype=np.int64)
    dist = np.zeros(order.size, dtype=np.float64)
    kept: list[int] = []
    places = []  # where each kept row sits in the order
    passes = []  # per kept row: the rows it left live and their distances to it
    while live.size:
        k, live = live[0], live[1:]
        a = len(kept)
        pivot[k] = a
        kept.append(int(order[k]))
        places.append(k)
        if not live.size:
            break
        d = p.cross(order[k:k + 1], order[live], metric)[0]
        far = d > eps
        pivot[live[~far]] = a
        dist[live[~far]] = d[~far]
        live = live[far]
        if pivots is not None:
            passes.append((live, d[far]))
    if pivots is not None:
        between = np.zeros((len(kept), len(kept)), dtype=np.float64)
        for a, (rows, d) in enumerate(passes):
            # every later kept row was still live, so it sits in rows
            between[a, a + 1:] = d[np.searchsorted(rows, places[a + 1:])]
            between[a + 1:, a] = between[a, a + 1:]
        pivots.pivot, pivots.dist, pivots.kept = pivot, dist, between
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
