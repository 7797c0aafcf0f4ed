"""Hot numeric kernels.

Every kernel takes packed dense arrays (see space.pack_states) so the
inner loops stay free of Python objects:

* strong_cross  -- pairwise quadrature-weighted l2 distances
* weak_cross    -- pairwise weighted bounded-difference series
* nse_bilinear  -- truncated convolution of the advection term with
                   Leray projection (rotational form), by separable
                   partial DFTs over the retained frequency lines

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
from functools import lru_cache

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
# evaluated pseudo-spectrally (Orszag 1971) in rotational form: take v and
# w_k = i k x v_k to an n^3 grid, form w x u there, and take the product
# back to the retained modes.  As (u . grad) u = grad(u . u / 2) + w x u,
# P_k removes the gradient.  Products of retained modes reach 2 kmax per
# component, so n >= 3 kmax + 1 keeps every alias off the retained set: the
# result is the truncated convolution up to roundoff.
#
# Only the 2 kmax + 1 frequency lines -kmax..kmax of each axis hold a
# retained mode, so each transform is a separable partial DFT: one small
# dense matrix per axis, applied by np.matmul.  The sorted mode list is
# symmetric under k -> -k (row m - 1 - i holds -k of row i), so rows m // 2
# on hold one mode of each +-k pair, all with kx >= 0: the kernel takes
# those rows and returns them.  They sit in a (kz, ky, kx) cube of
# (2 kmax + 1, 2 kmax + 1, kmax + 1) lines, and as v_k e^{ik.x} + v_{-k}
# e^{-ik.x} = 2 Re(v_k e^{ik.x}), the real field is 2 Re of the cube's sum:
# no mirror mode is stored.  With K = kmax, the stages are
#
#   inverse  z: one GEMM over the cube        (n x 2K+1) complex
#            y: one GEMM per field            (n x 2K+1) complex
#            x: one GEMM, 2 Re on every kx    (2(K+1) x n) real on (re, im)
#   forward  x: one GEMM, 1 / n^3 folded in   (n x 2(K+1)) real
#            y: one GEMM per component        (2K+1 x n) complex
#            z: one GEMM onto the cube        (2K+1 x n) complex
#
# O(n^3 K) multiply-adds per call.  A transpose between the z and y stages
# of each direction puts the next stage's axis first.  The y stages run
# per field, so every field is contiguous on the grid.  Around the GEMMs a
# call does
#
#   scatter  w = i k x v as one whole-array expression over the kernel
#            rows, then one flat put of v and w into the cube
#   product  the cube's six fields are u0 w0 u1 w1 u2 w2, so the inverse x
#            stage leaves u and w interleaved on the grid; one copy of its
#            first four fields behind the sixth extends them cyclically,
#            and w x u (w_j u_l - w_l u_j for cyclic i j l) is three ufunc
#            calls on stride-2 views of the ten fields
#   gather   one flat take of the kernel rows out of the forward z stage,
#            then the Leray projection
#
# Each element goes through the same operations as in a form that writes
# one component at a time, so the bits do not depend on this arrangement.
# What depends only on (n, kmax) is built once, on the first call for that
# pair (the contract fixes kvec and grid_index for a kmax): the DFT stage
# matrices, and the index table of the kernel rows' k, its two cyclic
# column permutations and |k|^2, the flat cube cells of the scatter and
# the flat cells of the gather.  Both are read-only and shared by threads.
# The scatter writes the same cube cells on every call and no other, so the
# cube is zeroed once, when it is allocated, and needs no fill per call.
# Each thread keeps its own scratch arrays across calls (--threads evolves
# seeds in parallel, and arrays allocated per call made the heap top
# shrink and refault).

_THREAD = threading.local()
_TABLES: dict = {}  # (n, kmax) -> what _index_table returns


@lru_cache(maxsize=8)
def _dft_matrices(n: int, kmax: int):
    """The stage matrices on n points and lines -kmax..kmax (kx 0..kmax):
    inverse e^{+i k x} (n, 2 kmax + 1), forward e^{-i k x} (2 kmax + 1, n),
    the inverse x stage (2 (kmax + 1), n) acting on (re, im) pairs, and the
    forward x stage (n, 2 (kmax + 1)) with the 1 / n^3 normalisation."""
    j = np.arange(n)
    k = np.arange(-kmax, kmax + 1)
    kx = np.arange(kmax + 1)
    inv = np.exp((2j * np.pi / n) * (np.outer(j, k) % n))
    fwd = np.exp((-2j * np.pi / n) * (np.outer(k, j) % n))
    theta = (2 * np.pi / n) * (np.outer(kx, j) % n)
    cos, sin = np.cos(theta), np.sin(theta)
    inv_x = np.empty((2 * kmax + 2, n))
    inv_x[0::2], inv_x[1::2] = 2.0 * cos, -2.0 * sin  # 2 Re((a + ib) e^{i theta})
    fwd_x = np.empty((n, 2 * kmax + 2))
    fwd_x[:, 0::2], fwd_x[:, 1::2] = cos.T / n ** 3, -sin.T / n ** 3
    for a in (inv, fwd, inv_x, fwd_x):
        a.flags.writeable = False
    return inv, fwd, inv_x, fwd_x


def _index_table(kvec, grid_index, n: int, kmax: int):
    """The kernel rows' k, k[:, (1, 2, 0)], k[:, (2, 0, 1)] and |k|^2, the
    flat cube cells of (u, w) as a (2 h, 3) array (u rows first), and the
    flat cells of the forward z stage's (kz, component, ky, kx) output as
    an (h, 3) array, for the h = m // 2 kernel rows; cached per (n, kmax)."""
    table = _TABLES.get((n, kmax))
    if table is None:
        p, q = 2 * kmax + 1, kmax + 1
        h = len(grid_index) // 2
        kz, kyx = np.divmod(grid_index[h:], p * q)
        k = kvec[h:].copy()
        c = np.arange(3)
        u_cell = (kz * 6 * p * q + kyx)[:, None] + 2 * c * p * q
        table = (k, k[:, [1, 2, 0]], k[:, [2, 0, 1]], (k * k).sum(axis=1),
                 np.concatenate([u_cell, u_cell + p * q]),
                 (kz * 3 * p * q + kyx)[:, None] + c * p * q)
        for a in table:
            a.flags.writeable = False
        table = _TABLES.setdefault((n, kmax), table)
    return table


def _scratch(n: int, kmax: int):
    bufs = vars(_THREAD)
    key = (n, kmax)
    if key not in bufs:
        p, q, c = 2 * kmax + 1, kmax + 1, np.complex128
        bufs[key] = (
            np.zeros((p, 6, p, q), c),   # the cube: (kz, field, ky, kx)
            np.empty((n, 6, p, q), c),   # (z, field, ky, kx)
            np.empty((6, p, n, q), c),   # (field, ky, z, kx)
            np.empty((6, n, n, q), c),   # (field, y, z, kx)
            np.empty((10, n, n, n)),     # u0 w0 u1 w1 u2 w2 u0 w0 u1 w1: (field, y, z, x)
            np.empty((3, n, n, n)),      # w x u: (component, y, z, x)
            np.empty((3, n, n, n)),
            np.empty((3, n, n, q), c),   # (component, y, z, kx)
            np.empty((3, p, n, q), c),   # (component, ky, z, kx)
            np.empty((n, 3, p, q), c),   # (z, component, ky, kx)
            np.empty((p, 3, p, q), c))   # (kz, component, ky, kx)
    return bufs[key]


def nse_bilinear(vals, kvec, grid_index, n) -> np.ndarray:
    """Projected advection term -P(v . grad v) on the truncated mode set.

    vals: (m // 2, 3) complex coefficients of a real field on rows m // 2
    on of the sorted mode list (one mode of each +-k pair), kvec: (m, 3)
    wave vectors in sorted order, which ends at (kmax, 0, 0), grid_index:
    (m,) flat index on the (2 kmax + 1, 2 kmax + 1, kmax + 1) cube of
    (kz, ky, kx) lines of each mode, or of its mirror if kx < 0, n: the
    points per direction of the grid the product is formed on.  Returns
    the term on the same m // 2 rows.  kvec and grid_index are those of
    the cutoff's SpectralBasis: what the kernel derives from them is
    cached per (n, kmax).
    """
    kmax = int(kvec[-1, 0])
    p, q = 2 * kmax + 1, kmax + 1  # lines on the y and z axes, on the x axis
    inv, fwd, inv_x, fwd_x = _dft_matrices(n, kmax)
    k, k_a, k_b, ksq, scatter, gather = _index_table(kvec, grid_index, n, kmax)
    cube, iz, iz_t, iy, uw, rot, tmp, fx, fy, fy_t, fz = _scratch(n, kmax)
    # w = i k x v, whole-array: (k1 v2 - k2 v1, k2 v0 - k0 v2, k0 v1 - k1 v0)
    w = 1j * (k_a * vals.take((2, 0, 1), axis=1) - k_b * vals.take((1, 2, 0), axis=1))
    cube.put(scatter, np.concatenate([vals, w]))
    np.matmul(inv, cube.reshape(p, -1), out=iz.reshape(n, -1))
    np.copyto(iz_t, iz.transpose(1, 2, 0, 3))
    np.matmul(inv, iz_t.reshape(6, p, -1), out=iy.reshape(6, n, -1))
    np.matmul(iy.reshape(-1, q).view(np.float64), inv_x, out=uw[:6].reshape(-1, n))
    np.copyto(uw[6:], uw[:4])
    np.multiply(uw[3:8:2], uw[4:9:2], out=rot)  # w1 u2, w2 u0, w0 u1
    np.multiply(uw[5:10:2], uw[2:7:2], out=tmp)  # w2 u1, w0 u2, w1 u0
    np.subtract(rot, tmp, out=rot)
    np.matmul(rot.reshape(-1, n), fwd_x, out=fx.reshape(-1, q).view(np.float64))
    np.matmul(fwd, fx.reshape(3, n, -1), out=fy.reshape(3, p, -1))
    np.copyto(fy_t, fy.transpose(2, 0, 1, 3))
    np.matmul(fwd, fy_t.reshape(n, -1), out=fz.reshape(p, -1))
    top = fz.take(gather)
    tk = top * k
    kd = (tk[:, 0] + tk[:, 1] + tk[:, 2]) / ksq  # the order of tk.sum(axis=1)
    return kd[:, None] * k - top  # -P_k of the product
