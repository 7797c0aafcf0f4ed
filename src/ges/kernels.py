"""Hot numeric kernels.

Every kernel takes packed dense arrays (see space.pack_states) so the
inner loops stay free of Python objects:

* strong_cross  -- pairwise quadrature-weighted l2 distances
* weak_cross    -- pairwise weighted bounded-difference series
* nse_bilinear  -- truncated convolution of the advection term with
                   Leray projection, evaluated by zero-padded FFTs

The two cross kernels ship as numba loops and pure-numpy fallbacks; the
numpy fallbacks batch over rows so memory stays O(set size) and the
summation order is fixed, which keeps repeated runs byte-identical.  The
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
# pairwise strong distance


def _strong_cross_np(av, bv, qw):
    na = av.shape[0]
    nb = bv.shape[0]
    out = np.empty((na, nb), dtype=np.float64)
    for i in range(na):
        diff = av[i, None, :, :] - bv  # (nb, u, c)
        sq = (diff.real * diff.real + diff.imag * diff.imag).sum(axis=2)
        out[i, :] = np.sqrt(sq @ qw)
    return out


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


# ---------------------------------------------------------------------------
# pairwise weak distance


def _weak_cross_np(av, bv, ww):
    na = av.shape[0]
    nb = bv.shape[0]
    out = np.empty((na, nb), dtype=np.float64)
    for i in range(na):
        diff = av[i, None, :, :] - bv
        t = np.sqrt((diff.real * diff.real + diff.imag * diff.imag).sum(axis=2))
        out[i, :] = (t / (1.0 + t)) @ ww
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
