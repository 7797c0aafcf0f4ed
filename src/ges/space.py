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
packed sets so the pairwise work happens inside the kernels module; pair
distances go through the same path.  Every product runs on whole groups
of four rows, so a distance depends only on its two dense rows (and the
index union they are packed on).  A large packed set keeps each row as
its span of the union, and the kernels still get dense blocks (see
PackedSet).  A run of consecutive rows that each cover the whole union
reaches them as a view, not a copy, which is why the omega layer packs
its tier images deepest tier first: the net then visits rows in storage
order and every tier is one such run when the set keeps rows whole.

One packer, pack_groups, builds every packed set; pack_states is its case
of one state per group, and the omega ladders hand it each seed's images
as one group whose values may be computed only once the set is allocated
(a Deferred).  Packing holds little beyond the values themselves (see
pack_groups), and a norm is the kernel's strong distance to the zero row.
The values are float64 when every value is real, complex128 otherwise;
the two give bitwise the same norms and distances.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Sequence

import numpy as np

from . import kernels
from .errors import UsageError

BALL_SLACK = 1e-9

#: kernel blocks of rows that a packed set kept as spans makes dense per
#: kernel call: each call allocates the kernel's scratch arrays afresh, and
#: one block per call made `ges omega --system heat --n-seeds 512` ~12% slower
_FILL_BLOCKS = 4

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
        return idx[:, 0]
    base = np.int64(1) << np.int64(21)
    off = np.int64(1) << np.int64(20)
    key = idx[:, 0] + off
    for c in range(1, idx.shape[1]):
        key = key * base + (idx[:, c] + off)
    return key


def sorted_unique(a: np.ndarray) -> np.ndarray:
    """The sorted distinct entries of a NaN-free 1-D array: np.unique(a) bit
    for bit, by one sort and a mask of changes.  np.unique imports numpy.ma
    on its first call in a process, and hashes int64 keys more slowly than
    this sorts them."""
    return _drop_repeats(np.sort(a))


def _drop_repeats(a: np.ndarray) -> np.ndarray:
    """The distinct entries of a sorted 1-D array, in order."""
    keep = np.empty(a.size, dtype=bool)
    keep[:1] = True
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]


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


@dataclass(frozen=True)
class Deferred:
    """The values of count states of one packing group, which fn() gives as
    a (count, len(idx), c) array once pack_groups has allocated the packed
    set (see pack_groups)."""

    count: int
    fn: Callable[[], np.ndarray]

    def __len__(self) -> int:
        return self.count

    def __call__(self) -> np.ndarray:
        return self.fn()


@dataclass
class PackedSet:
    """States on the sorted union of their index rows, each row kept as its span.

    Row r holds the union slots lo[r] .. lo[r] + length[r] - 1, in union
    order, at vals[start[r]:start[r] + length[r]]; its other slots are zero.
    The spans lie in row order, so a run of consecutive rows that each cover
    the whole union (lo 0, length u) is one dense (m, u, c) block of vals:
    a set whose every row does so is stored exactly as a dense block.
    Whatever the kernels see is dense: a run of such rows reaches them as a
    view, any other rows as dense rows filled from their spans.
    """

    space: DualMetricSpace
    idx: np.ndarray  # (u, d)
    vals: np.ndarray  # (sum(length), c): float64 when every value is real, else complex128
    lo: np.ndarray  # (n,) int64
    start: np.ndarray  # (n,) int64
    length: np.ndarray  # (n,) int64
    qw: np.ndarray  # (u,)
    ww: np.ndarray  # (u,)
    norms: np.ndarray = field(init=False)
    _dense: np.ndarray | None = field(init=False, repr=False)  # vals as (n, u, c)

    def __post_init__(self):
        u, c = len(self.idx), self.vals.shape[1]
        # no span is longer than u, so the spans fill n u slots only when
        # every row covers the whole union
        full = len(self.vals) == self.n_states * u
        self._dense = self.vals.reshape(self.n_states, u, c) if full else None
        # a norm is the strong distance to the zero row
        zero = np.zeros((1, u, c))
        self.norms = (kernels.strong_cross(zero, self._dense, self.qw) if full else
                      self._cross(zero, np.arange(self.n_states), kernels.strong_cross,
                                  self.qw))[0]

    @property
    def n_states(self) -> int:
        return len(self.lo)

    def check_ball(self) -> None:
        """UsageError when some row's strong norm leaves the space's ball."""
        cap = self.space.ball_radius
        worst = self.norms.max(initial=0.0)
        if cap is not None and worst > cap + BALL_SLACK:
            raise UsageError(
                f"state with strong norm {worst:.6g} exceeds the ball radius "
                f"{cap:.6g} of space {self.space.tag!r}")

    def _run(self, rows: np.ndarray) -> np.ndarray | None:
        """The rows as an (m, u, c) view of vals when every row of the set
        covers the whole union and rows is a run of consecutive rows, else
        None."""
        if (self._dense is not None and rows.ndim == 1 and rows.size
                and rows.dtype.kind in "iu" and rows[0] >= 0 and rows[-1] < self.n_states
                and np.all(np.diff(rows) == 1)):
            return self._dense[rows[0]:rows[-1] + 1]
        return None

    def _spans(self, rows: np.ndarray) -> list[tuple[int, int, int]]:
        """(lo, start, length) of each of the rows."""
        return list(zip(self.lo[rows].tolist(), self.start[rows].tolist(),
                        self.length[rows].tolist()))

    def _rows(self, rows) -> np.ndarray:
        """The rows as a dense (m, u, c) block: a view when _run gives one,
        else a new array, gathered from a dense set or filled from spans."""
        rows = np.asarray(rows)
        run = self._run(rows)
        if run is not None:
            return run
        if self._dense is not None:
            return self._dense[rows]
        out = np.zeros((rows.size, len(self.idx), self.vals.shape[1]), self.vals.dtype)
        for row, (lo, s, n) in zip(out, self._spans(rows)):
            row[lo:lo + n] = self.vals[s:s + n]
        return out

    def _cross(self, av: np.ndarray, rows: np.ndarray, kernel, w: np.ndarray) -> np.ndarray:
        """kernel(av, the rows' dense block, w).  A run _run views takes one
        call.  Other rows of a dense set are gathered one kernel block at a
        time.  Other rows of a set kept as spans are written into one reused
        zero buffer of _FILL_BLOCKS kernel blocks, a call per buffer: a
        buffer row is cleared only where its last span reaches past the
        next one written there."""
        bv = self._run(rows)
        if bv is not None:
            return kernel(av, bv, w)
        u, c = len(self.idx), self.vals.shape[1]
        step = kernels._block_rows(u, c)
        out = np.empty((av.shape[0], rows.size), dtype=np.float64)
        if self._dense is not None:
            for s in range(0, rows.size, step):
                out[:, s:s + step] = kernel(av, self._dense[rows[s:s + step]], w)
            return out
        step *= _FILL_BLOCKS
        buf = np.zeros((min(step, rows.size), u, c), self.vals.dtype)
        held = [(0, 0)] * len(buf)  # the span each buffer row holds
        spans, vals, buf_rows = self._spans(rows), self.vals, list(buf)
        for s in range(0, rows.size, step):
            block = spans[s:s + step]
            for i, (row, (lo, start, n), (a, m)) in enumerate(zip(buf_rows, block, held)):
                if a < lo or a + m > lo + n:
                    row[a:a + m] = 0.0
                row[lo:lo + n] = vals[start:start + n]
                held[i] = lo, n
            out[:, s:s + step] = kernel(av, buf[:len(block)], w)
        return out

    def cross(self, rows_a: np.ndarray, rows_b: np.ndarray, metric: str) -> np.ndarray:
        """(len(rows_a), len(rows_b)) distances in the chosen metric.

        The kernels loop in Python over their left rows, so the shorter
        row list goes on the left: a call with more rows_a than rows_b
        returns the transpose of cross(rows_b, rows_a).  d(a, b) and
        d(b, a) have the same bits (the kernels square or take the modulus
        of a - b), so the side changes no value.  The left rows are made
        dense whole, the right rows one kernel block at a time (see _cross);
        a run of rows that cover the whole union is a view on either side.
        A distance depends only on its two dense rows, so it has the same
        bits however they were made dense.
        """
        if metric not in ("strong", "weak"):
            raise UsageError(f"unknown metric {metric!r}")
        if np.size(rows_a) > np.size(rows_b):
            return self.cross(rows_b, rows_a, metric).T
        strong = metric == "strong" or self.space.weak_kind == "strong"
        kernel = kernels.strong_cross if strong else kernels.weak_cross
        w = self.qw if metric == "strong" else self.ww
        return self._cross(self._rows(rows_a), np.asarray(rows_b), kernel, w)

    def semidist(self, rows_a, rows_b, metric: str) -> float:
        """sup over rows_a of the distance to the nearest rows_b member."""
        rows_a = np.asarray(rows_a, dtype=np.int64)
        rows_b = np.asarray(rows_b, dtype=np.int64)
        if rows_a.size == 0 or rows_b.size == 0:
            raise UsageError("semidistance of an empty set is undefined")
        d = self.cross(rows_a, rows_b, metric)
        return float(np.max(np.min(d, axis=1)))

    def state(self, row: int) -> CoeffState:
        lo, s, n = int(self.lo[row]), int(self.start[row]), int(self.length[row])
        span = self.vals[s:s + n]
        keep = np.abs(span).max(axis=1) > 0.0
        return self.space.state(self.idx[lo:lo + n][keep], span[keep])


def pack_groups(space: DualMetricSpace, n_states: int, runs) -> PackedSet:
    """Write groups of states onto their sorted index union.

    runs holds (rows, groups) pairs, and names each row at most once.  Each
    group is an (idx, vals) pair whose states take the next len(vals)
    entries of rows: vals[k] holds a state's values on the index rows idx,
    so vals is (k, len(idx), c).  A group may give vals as a Deferred
    instead, which is called once, after the packed set is allocated;
    values computed that way go straight into it and never all exist
    beside it.

    The union rows are sorted by encoded key, so all downstream summation
    orders depend only on the set of indices, never on input order.  The
    union is the distinct concatenated keys (empty when every state is
    zero).  Each distinct idx array object is encoded and located on the
    union once.  A set of more rows than PackedSet.cross makes dense at a
    time keeps each row as its span: the union slots from the first to the
    last of its idx array's, none for a row no group fills.  A smaller set
    would save no memory that way and keeps every row whole.  The values
    are laid out in row order in one array, allocated as zeros (a large
    array's zero pages come from the system, so no pass writes them) and
    written row by row.  Beyond it, the memory held while it is built is
    three int64s of bookkeeping per row, a 4-byte place array per distinct
    idx array whose slots do not fill its span in order, and one deferred
    group.  The values are float64 when every value has a zero imaginary
    part, which changes no distance or norm: x + 0.0 == x.  A deferred
    group with a nonzero imaginary part turns them complex.  The set is
    not checked against the ball: pack_states checks its own, and
    evolution._tier_block checks its own after the blow-up guard.
    """
    which: dict[int, int] = {}  # id of an idx array -> its place in arrays
    arrays = []
    filled = []  # per group: (its rows, the place of its idx array, vals)
    real = True
    for rows, groups in runs:
        k = 0
        for idx, vals in groups:
            a = which.get(id(idx))
            if a is None:
                space._check_indices(idx)
                a = which[id(idx)] = len(arrays)
                arrays.append(idx)
            if real and not callable(vals) and vals.dtype.kind == "c":
                real = not np.count_nonzero(vals.imag)
            filled.append((rows[k:k + len(vals)], a, vals))
            k += len(vals)
        if k != len(rows):
            raise UsageError(f"{k} packed states for {len(rows)} rows")
    keys = [_encode_rows(a) for a in arrays]
    union = np.concatenate(keys)
    union.sort()  # in place: sorted_unique would sort a copy
    uniq_keys = _drop_repeats(union)
    del union
    u = len(uniq_keys)
    # crossing rows kept as spans makes up to this many of them dense, so a
    # set no larger keeps its rows whole: as spans it would save no memory
    whole = n_states <= _FILL_BLOCKS * kernels._block_rows(u, space.component_dim)
    spans = []  # per distinct idx array: (first slot, span length, slots in the span or None)
    for key in keys:
        slot = np.searchsorted(uniq_keys, key)
        if whole:
            lo, hi = 0, u - 1
        else:
            lo, hi = (int(slot.min()), int(slot.max())) if slot.size else (0, -1)  # else a zero state
        in_order = hi - lo + 1 == slot.size and bool(np.all(slot[1:] > slot[:-1]))
        # a union never reaches 2^31 rows, so 4-byte places halve what sits beside the spans
        spans.append((lo, hi - lo + 1, None if in_order else (slot - lo).astype(np.int32)))
    del keys
    uniq_idx = _decode_keys(uniq_keys, space.index_dim)
    del uniq_keys
    lo = [0] * n_states
    length = [u if whole else 0] * n_states
    for rows, a, _ in filled:
        a, n, _ = spans[a]
        for row in rows:
            lo[row], length[row] = a, n
    lo, length = np.array(lo, dtype=np.int64), np.array(length, dtype=np.int64)
    start = np.zeros(n_states + 1, dtype=np.int64)
    np.cumsum(length, out=start[1:])
    # a large array's zero pages come from the system: no pass writes the zeros
    flat = np.zeros((start.item(-1), space.component_dim),
                    dtype=np.float64 if real else np.complex128)
    for rows, a, vals in filled:
        if callable(vals):
            vals = vals()
            if len(vals) != len(rows):
                raise UsageError(f"{len(vals)} deferred states for {len(rows)}")
            if real and vals.dtype.kind == "c" and np.count_nonzero(vals.imag):
                flat, real = flat.astype(np.complex128), False
        if real and vals.dtype.kind == "c":
            vals = vals.real
        _, n, place = spans[a]
        if place is not None:  # index once per group, not once per row
            place = place.astype(np.intp)
        for row, v in zip(rows, vals):
            at = start.item(row)
            if place is None:
                flat[at:at + n] = v
            else:
                flat[at:at + n][place] = v
    del spans, filled  # the places go before the norm pass
    return PackedSet(space, uniq_idx, flat, lo, start[:-1], length,
                     space.quad_weights(uniq_idx), space.weak_weights(uniq_idx))


def pack_states(space: DualMetricSpace, states: Sequence[CoeffState]) -> PackedSet:
    """Pack states onto their sorted index union: pack_groups with one
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
