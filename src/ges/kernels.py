"""Hot numeric kernels.

Every kernel takes packed dense arrays (see space.pack_states) so the
inner loops stay free of Python objects:

* strong_cross  -- pairwise quadrature-weighted l2 distances
* weak_cross    -- pairwise weighted bounded-difference series
* nse_bilinear  -- truncated convolution of the advection term with
                   Leray projection, by 9 zero-padded FFTs (rotational form)

Each kernel has one numpy implementation.  The two cross kernels walk
bv in fixed blocks of rows through preallocated buffers, so their
temporaries stay cache-sized whatever the set size.  Blocking changes no
summation order: every distance is bitwise what one unblocked pass
gives, and repeated runs stay byte-identical.  The cross kernels take
real (float64) or complex blocks; a real pair gives bitwise the distances
of its complex copy.

The module imports numpy only.  nse_bilinear imports scipy.fft inside its
body, so a command that builds no NSE system never loads scipy; after the
first call the import is a dictionary lookup (~0.6 us against ~430 us for
one kernel call at kmax = 4).
"""

from __future__ import annotations

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


def _block_edges(n: int, rows: int) -> list[int]:
    """Edges of blocks of `rows` rows over n; the last also takes a tail of < 4."""
    return [*range(0, max(n - 3, 1), rows), n]


def _cross(av, bv, w, weak):
    na, u, c = av.shape
    nb = bv.shape[0]
    out = np.empty((na, nb), dtype=np.float64)
    rows = _block_rows(u, c)
    edges = _block_edges(nb, rows)
    n = min(rows + 3, nb)
    real = not (np.iscomplexobj(av) or np.iscomplexobj(bv))
    diff = np.empty((n, u, c), dtype=np.float64 if real else np.complex128)
    parts = None if real else diff.view(np.float64)  # (n, u, 2c): re and im parts
    sq = diff if real else np.empty((n, u, c), dtype=np.float64)
    t = sq[:, :, 0] if c == 1 else np.empty((n, u), dtype=np.float64)
    den = np.empty((n, u), dtype=np.float64) if weak else None
    for s, e in zip(edges[:-1], edges[1:]):
        m = e - s
        for i in range(na):
            np.subtract(av[i], bv[s:e], out=diff[:m])
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
            np.matmul(tm, w, out=out[i, s:e])
    if not weak:
        np.sqrt(out, out=out)
    return out


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
# (u . grad) u = grad(u . u / 2) + w x u takes no conjugate, it holds for any
# complex input, and P_k removes the gradient.  Products of retained modes
# reach 2 kmax per component, so n >= 3 kmax + 1 keeps every alias off the
# retained set: the result is the truncated convolution up to roundoff.


def nse_bilinear(vals, kvec, grid_index, n) -> np.ndarray:
    """Projected advection term -P(v . grad v) on the truncated mode set.

    vals: (m, 3) complex coefficients, kvec: (m, 3) wave vectors,
    grid_index: (m,) flat index of each mode on the padded n^3 grid.
    """
    import scipy.fft as sfft

    spec = np.zeros((2, 3, n ** 3), dtype=np.complex128)
    spec[0][:, grid_index] = vals.T
    spec[1][:, grid_index] = 1j * np.cross(kvec, vals).T
    # both buffers are private to this call, so the transforms may reuse them
    u, w = sfft.ifftn(spec.reshape(2, 3, n, n, n), axes=(2, 3, 4), norm="forward",
                      overwrite_x=True)
    rot = np.empty_like(u)
    for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        np.subtract(w[b] * u[c], w[c] * u[b], out=rot[a])
    out = sfft.fftn(rot, axes=(1, 2, 3), norm="forward",
                    overwrite_x=True).reshape(3, n ** 3)
    out = out[:, grid_index].T
    ksq = (kvec * kvec).sum(axis=1)
    kd = (out * kvec).sum(axis=1) / ksq
    out -= kd[:, None] * kvec
    return -out
