"""Hot numeric kernels.

Every kernel takes packed dense arrays (see space.pack_states) so the
inner loops stay free of Python objects:

* strong_cross  -- pairwise quadrature-weighted l2 distances
* weak_cross    -- pairwise weighted bounded-difference series
* nse_bilinear  -- truncated convolution of the advection term with
                   Leray projection, evaluated by zero-padded FFTs

The two cross kernels ship as numba loops and pure-numpy fallbacks.  The
numpy fallbacks walk bv in fixed blocks of rows through preallocated
buffers, so their temporaries stay cache-sized whatever the set size.
Blocking changes no summation order: every distance is bitwise what one
unblocked pass gives, and repeated runs stay byte-identical.  The
advection term has a single FFT implementation under both backends.
"""

from __future__ import annotations

import numpy as np
import scipy.fft as sfft

from . import backend as _backend

try:
    from numba import njit

    HAS_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba
    HAS_NUMBA = False

    def njit(*args, **kwargs):
        def wrap(fn):
            return fn

        if args and callable(args[0]):
            return args[0]
        return wrap


# ---------------------------------------------------------------------------
# pairwise distances, numpy form
#
# Both numpy kernels share one blocked pass.  For each block of bv rows and
# each av row: diff -> re^2 + im^2 -> sum over components, then t @ w per
# row (strong: sqrt of that; weak: sqrt and t / (1 + t) before it).  A
# block's buffers take about 32 bytes per (row, index, component) cell, so
# _BLOCK_CELLS cells stay inside a core's L2 cache.  Blocks are a multiple
# of 4 rows long and the last one also takes the leftover tail of under 4
# rows: BLAS matrix-vector products take rows in groups of four plus such a
# tail, so each row falls in the same group as in one unblocked product and
# gets the same bits.  A block of one row would not: numpy hands a one-row
# product to a dot kernel, which sums in another order.

_BLOCK_CELLS = 1 << 15


def _block_rows(u: int, c: int) -> int:
    """bv rows per block for u indices of c components: 4k, at least 4."""
    return max(4, _BLOCK_CELLS // max(u * c, 1) // 4 * 4)


def _cross_np(av, bv, w, weak):
    na, u, c = av.shape
    nb = bv.shape[0]
    out = np.empty((na, nb), dtype=np.float64)
    rows = _block_rows(u, c)
    edges = [*range(0, max(nb - 3, 1), rows), nb]
    n = min(rows + 3, nb)
    diff = np.empty((n, u, c), dtype=np.complex128)
    parts = diff.view(np.float64)  # (n, u, 2c): real and imaginary parts
    sq = np.empty((n, u, c), dtype=np.float64)
    t = sq[:, :, 0] if c == 1 else np.empty((n, u), dtype=np.float64)
    den = np.empty((n, u), dtype=np.float64) if weak else None
    for s, e in zip(edges[:-1], edges[1:]):
        m = e - s
        for i in range(na):
            np.subtract(av[i], bv[s:e], out=diff[:m])
            np.multiply(parts[:m], parts[:m], out=parts[:m])
            np.add(parts[:m, :, 0::2], parts[:m, :, 1::2], out=sq[:m])
            if c > 1:
                np.add.reduce(sq[:m], axis=2, out=t[:m])
            tm = t[:m]
            if weak:
                np.sqrt(tm, out=tm)
                np.add(tm, 1.0, out=den[:m])
                np.divide(tm, den[:m], out=tm)
            np.matmul(tm, w, out=out[i, s:e])
    if not weak:
        np.sqrt(out, out=out)
    return out


def _strong_cross_np(av, bv, qw):
    return _cross_np(av, bv, qw, weak=False)


def _weak_cross_np(av, bv, ww):
    return _cross_np(av, bv, ww, weak=True)


# ---------------------------------------------------------------------------
# pairwise distances, numba form


@njit(cache=True, nogil=True)
def _strong_cross_nb(av, bv, qw):  # pragma: no cover - numba path
    na, u, c = av.shape
    nb = bv.shape[0]
    out = np.empty((na, nb), dtype=np.float64)
    for i in range(na):
        for j in range(nb):
            acc = 0.0
            for k in range(u):
                s = 0.0
                for m in range(c):
                    d = av[i, k, m] - bv[j, k, m]
                    s += d.real * d.real + d.imag * d.imag
                acc += qw[k] * s
            out[i, j] = np.sqrt(acc)
    return out


@njit(cache=True, nogil=True)
def _weak_cross_nb(av, bv, ww):  # pragma: no cover - numba path
    na, u, c = av.shape
    nb = bv.shape[0]
    out = np.empty((na, nb), dtype=np.float64)
    for i in range(na):
        for j in range(nb):
            acc = 0.0
            for k in range(u):
                s = 0.0
                for m in range(c):
                    d = av[i, k, m] - bv[j, k, m]
                    s += d.real * d.real + d.imag * d.imag
                t = np.sqrt(s)
                acc += ww[k] * t / (1.0 + t)
            out[i, j] = acc
    return out


_IMPL = {
    "numpy": {
        "strong_cross": _strong_cross_np,
        "weak_cross": _weak_cross_np,
    },
    "numba": {
        "strong_cross": _strong_cross_nb if HAS_NUMBA else _strong_cross_np,
        "weak_cross": _weak_cross_nb if HAS_NUMBA else _weak_cross_np,
    },
}


def _kernel(name):
    return _IMPL[_backend.backend()][name]


def strong_cross(av: np.ndarray, bv: np.ndarray, qw: np.ndarray) -> np.ndarray:
    """Pairwise strong distances between packed value blocks.

    av, bv: (n, u, c) complex arrays over a shared index union,
    qw: (u,) quadrature weights.  Returns an (na, nb) float matrix.
    """
    return _kernel("strong_cross")(av, bv, qw)


def weak_cross(av: np.ndarray, bv: np.ndarray, ww: np.ndarray) -> np.ndarray:
    """Pairwise weak distances, ww holding the per-index series weights."""
    return _kernel("weak_cross")(av, bv, ww)


# ---------------------------------------------------------------------------
# spectral advection term for the Galerkin velocity field
#
# out_k = -P_k [ sum_{p+q=k} (v_p . i q) v_q ]  with P_k = I - k k^T / |k|^2,
# evaluated pseudo-spectrally (Orszag 1971): scatter v and i k_l v onto a
# zero-padded n^3 grid, inverse-transform, form the advective product
# sum_l u_l d_l u_j pointwise, transform back and keep the retained modes.
# Every retained wave-vector component lies in [-kmax, kmax], so products
# reach at most 2 kmax and n >= 3 kmax + 1 keeps every alias off the
# retained set: the result is the sharply truncated convolution up to
# roundoff.  Complex transforms and the advective form make that hold for
# any complex input, Hermitian or not, solenoidal or not.


def nse_bilinear(vals, kvec, grid_index, n) -> np.ndarray:
    """Projected advection term -P(v . grad v) on the truncated mode set.

    vals: (m, 3) complex coefficients, kvec: (m, 3) wave vectors,
    grid_index: (m,) flat index of each mode on the padded n^3 grid.
    """
    spec = np.zeros((4, 3, n ** 3), dtype=np.complex128)
    spec[0][:, grid_index] = vals.T
    spec[1:][:, :, grid_index] = 1j * kvec.T[:, None, :] * vals.T
    # both buffers are private to this call, so the transforms may reuse them
    phys = sfft.ifftn(spec.reshape(4, 3, n, n, n), axes=(2, 3, 4), norm="forward",
                      overwrite_x=True)
    u = phys[0]
    adv = u[0] * phys[1] + u[1] * phys[2] + u[2] * phys[3]
    out = sfft.fftn(adv, axes=(1, 2, 3), norm="forward",
                    overwrite_x=True).reshape(3, n ** 3)
    out = out[:, grid_index].T
    ksq = (kvec * kvec).sum(axis=1)
    kd = (out * kvec).sum(axis=1) / ksq
    out -= kd[:, None] * kvec
    return -out
