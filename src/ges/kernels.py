"""Hot numeric kernels.

Every kernel takes packed dense arrays (see space.pack_states) so the
inner loops stay free of Python objects:

* strong_cross  -- pairwise quadrature-weighted l2 distances
* weak_cross    -- pairwise weighted bounded-difference series
* nse_bilinear  -- truncated convolution of the advection term with
                   Leray projection, by 9 zero-padded real FFTs
                   (rotational form)

Each kernel has one numpy implementation.  The two cross kernels walk
bv in fixed blocks of rows through preallocated buffers, so their
temporaries stay cache-sized whatever the set size.  Every product runs
on whole groups of four rows, so a distance depends only on its two rows:
no blocking, split, order or gather of bv moves a bit.  The cross kernels
take real (float64) or complex blocks; a real pair gives bitwise the
distances of its complex copy.  The module imports numpy only.
"""

from __future__ import annotations

import threading

import numpy as np

# ---------------------------------------------------------------------------
# pairwise distances
#
# Both cross kernels share one blocked pass.  For each block of bv rows and
# each av row: diff -> re^2 + im^2 -> sum over components, then t @ w per
# row (strong: sqrt of that; weak: sqrt and t / (1 + t) before it).  When
# both blocks are real, diff^2 is that squared term directly: im^2 would be
# +0.0 and x + 0.0 == x, so the bits match the complex pass.  A block's
# buffers take at most about 32 bytes per (row, index, component) cell, so
# _BLOCK_CELLS cells stay inside a core's L2 cache.  BLAS matrix-vector
# products sum rows in groups of four and a tail of under four (numpy a
# lone row) in another order, so a short block is padded with zero rows to
# whole groups: a distance then depends only on its two rows.

_BLOCK_CELLS = 1 << 15


def _block_rows(u: int, c: int) -> int:
    """bv rows per block for u indices of c components: 4k, at least 4."""
    return max(4, _BLOCK_CELLS // max(u * c, 1) // 4 * 4)


def _round4(n: int) -> int:
    return -(-n // 4) * 4


def _cross(av, bv, w, weak):
    na, u, c = av.shape
    nb = bv.shape[0]
    out = np.empty((na, _round4(nb)), dtype=np.float64)
    rows = _block_rows(u, c)
    n = min(rows, _round4(nb))
    real = not (np.iscomplexobj(av) or np.iscomplexobj(bv))
    diff = np.empty((n, u, c), dtype=np.float64 if real else np.complex128)
    parts = None if real else diff.view(np.float64)  # (n, u, 2c): re and im parts
    sq = diff if real else np.empty((n, u, c), dtype=np.float64)
    t = sq[:, :, 0] if c == 1 else np.empty((n, u), dtype=np.float64)
    den = np.empty((n, u), dtype=np.float64) if weak else None
    for s in range(0, nb, rows):
        m = min(rows, nb - s)
        m4 = _round4(m)
        t[m:m4] = 0.0  # padding: nothing below writes these rows
        for i in range(na):
            np.subtract(av[i], bv[s:s + m], out=diff[:m])
            if real:
                np.multiply(diff[:m], diff[:m], out=sq[:m])
            else:
                np.multiply(parts[:m], parts[:m], out=parts[:m])
                np.add(parts[:m, :, 0::2], parts[:m, :, 1::2], out=sq[:m])
            if c > 1:
                np.add.reduce(sq[:m], axis=2, out=t[:m])
            tm = t[:m]
            if weak:
                np.sqrt(tm, out=tm)
                np.add(tm, 1.0, out=den[:m])
                np.divide(tm, den[:m], out=tm)
            np.matmul(t[:m4], w, out=out[i, s:s + m4])
    if not weak:
        np.sqrt(out, out=out)
    return out[:, :nb]


def strong_cross(av: np.ndarray, bv: np.ndarray, qw: np.ndarray) -> np.ndarray:
    """Pairwise strong distances between packed value blocks.

    av, bv: (n, u, c) real or complex arrays over a shared index union,
    qw: (u,) quadrature weights.  Returns an (na, nb) float matrix.
    """
    return _cross(av, bv, qw, weak=False)


def weak_cross(av: np.ndarray, bv: np.ndarray, ww: np.ndarray) -> np.ndarray:
    """Pairwise weak distances, ww holding the per-index series weights."""
    return _cross(av, bv, ww, weak=True)


# ---------------------------------------------------------------------------
# spectral advection term for the Galerkin velocity field
#
# out_k = -P_k [ sum_{p+q=k} (v_p . i q) v_q ]  with P_k = I - k k^T / |k|^2,
# evaluated pseudo-spectrally (Orszag 1971) in rotational form: inverse-
# transform v and w_k = i k x v_k on a zero-padded n^3 grid (6 FFTs), form
# w x u, transform back (3 FFTs) and keep the retained modes.  As
# (u . grad) u = grad(u . u / 2) + w x u, P_k removes the gradient.  Products
# of retained modes reach 2 kmax per component, so n >= 3 kmax + 1 keeps
# every alias off the retained set: the result is the truncated convolution
# up to roundoff.
#
# The field is real (v_{-k} = conj(v_k)), so the transforms are real ones
# on the half grid kx >= 0, stored in (kz, ky, kx) order.  The sorted mode
# list is symmetric under k -> -k (row m - 1 - i holds -k of row i), so
# rows m // 2 on hold one mode of each +-k pair: the kernel takes those
# rows and returns them.  Every one of them has kx >= 0; the other half of
# the kx = 0 plane is scattered as their conjugates.  Each thread keeps its
# transform arrays across calls: --threads evolves seeds in parallel, and
# arrays allocated per call made the heap top shrink and refault.

_THREAD = threading.local()


def nse_bilinear(vals, kvec, grid_index, n) -> np.ndarray:
    """Projected advection term -P(v . grad v) on the truncated mode set.

    vals: (m // 2, 3) complex coefficients of a real field on rows m // 2
    on of the sorted mode list (one mode of each +-k pair), kvec: (m, 3)
    wave vectors in sorted order, grid_index: (m,) flat index on the (n, n,
    n // 2 + 1) half grid of the slot that holds each mode or its mirror.
    Returns the term on the same m // 2 rows.
    """
    bufs = vars(_THREAD)
    if n not in bufs:
        bufs[n] = (np.empty((2, 3, n, n, n // 2 + 1), dtype=np.complex128),
                   np.empty((2, 3, n, n, n)), np.empty((3, n, n, n)))
    spec, uw, rot = bufs[n]
    h = len(grid_index) // 2
    lo = int(np.searchsorted(kvec[:, 0], 0.0))  # first row with kx >= 0
    # rows lo to h - 1 are the kx = 0 mirrors of rows h on, in reverse order
    rows = np.concatenate([np.conj(vals[:h - lo][::-1]), vals])
    spec.fill(0.0)
    flat = spec.reshape(2, 3, -1)
    flat[0][:, grid_index[lo:]] = rows.T
    flat[1][:, grid_index[lo:]] = 1j * np.cross(kvec[lo:], rows).T
    np.fft.ifft(spec, axis=2, norm="forward", out=spec)
    np.fft.ifft(spec, axis=3, norm="forward", out=spec)
    np.fft.irfft(spec, n, axis=4, norm="forward", out=uw)
    u, w = uw
    for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        np.subtract(w[b] * u[c], w[c] * u[b], out=rot[a])
    half = spec[0]
    np.fft.rfft(rot, axis=3, norm="forward", out=half)
    np.fft.fft(half, axis=2, norm="forward", out=half)
    np.fft.fft(half, axis=1, norm="forward", out=half)
    top = half.reshape(3, -1)[:, grid_index[h:]].T
    k = kvec[h:]
    kd = (top * k).sum(axis=1) / (k * k).sum(axis=1)
    return kd[:, None] * k - top  # -P_k of the product
