"""Cross kernels, and the advection kernel's bits.

Every product runs on whole groups of four rows, so a distance depends
only on its two rows: each entry of a cross matrix must have the bits of
the kernel on its pair alone, whatever else shares the call.  The plain
row-at-a-time numpy form kept below checks the values.  The advection
kernel is checked bit for bit against a stage-by-stage form kept below,
and against the convolution pair sum in tests/test_systems.py."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ges import backend, kernels
from ges.systems.nse import SpectralBasis, get_basis


# ---------------------------------------------------------------------------
# a distance depends only on its two rows


def random_block(rng, n, u, c):
    return rng.normal(size=(n, u, c)) + 1j * rng.normal(size=(n, u, c))


def strong_rows(av, bv, qw):
    out = np.empty((av.shape[0], bv.shape[0]))
    for i in range(av.shape[0]):
        diff = av[i, None, :, :] - bv
        sq = (diff.real * diff.real + diff.imag * diff.imag).sum(axis=2)
        out[i, :] = np.sqrt(sq @ qw)
    return out


def weak_rows(av, bv, ww):
    out = np.empty((av.shape[0], bv.shape[0]))
    for i in range(av.shape[0]):
        diff = av[i, None, :, :] - bv
        t = np.sqrt((diff.real * diff.real + diff.imag * diff.imag).sum(axis=2))
        out[i, :] = (t / (1.0 + t)) @ ww
    return out


def pairs_alone(kernel, av, bv, w):
    """The kernel on each pair of rows in a call of its own."""
    out = np.empty((av.shape[0], bv.shape[0]))
    for i in range(av.shape[0]):
        for j in range(bv.shape[0]):
            out[i, j] = kernel(av[i:i + 1], bv[j:j + 1], w)[0, 0]
    return out


KERNELS = {"strong": (kernels.strong_cross, strong_rows),
           "weak": (kernels.weak_cross, weak_rows)}


# A small block budget gives many blocks, 8 rows each at c = 1 and 4 at
# c = 3, and last blocks of every length modulo 4.
@pytest.mark.parametrize("c", [1, 3])
@pytest.mark.parametrize("na,blocks,extra", [(1, 0, 3), (4, 0, 1), (1, 3, 1),
                                             (3, 2, 1), (2, 2, 0), (5, 1, 3),
                                             (1, 1, 2)])
def test_blocked_kernels_equal_row_at_a_time(monkeypatch, c, na, blocks, extra):
    monkeypatch.setattr(kernels, "_BLOCK_CELLS", 96)
    u = 11
    rows = kernels._block_rows(u, c)
    assert rows % 4 == 0
    nb = blocks * rows + extra
    rng = np.random.default_rng(100 * c + nb)
    av = random_block(rng, na, u, c)
    bv = random_block(rng, nb, u, c)
    bv[0] = av[0]  # an exact zero distance
    w = rng.uniform(0.0, 1.0, size=u)
    for kernel, reference in KERNELS.values():
        got = kernel(av, bv, w)
        assert got.shape == (na, nb) and got[0, 0] == 0.0
        assert got.tobytes() == pairs_alone(kernel, av, bv, w).tobytes()
        assert np.allclose(got, reference(av, bv, w), rtol=1e-14, atol=0.0)


# Full block budget: 2976 rows per block at (u, c) = (11, 1), 12 at
# (2049, 1), 4 at (2049, 3), 40 at (256, 3) and 16 at (1986, 1), so bv
# spans blocks and ends in a short one.
SHAPES = [(11, 1, 5955), (2049, 1, 41), (2049, 3, 9), (256, 3, 125), (1986, 1, 23)]


@pytest.mark.parametrize("metric", sorted(KERNELS))
@pytest.mark.parametrize("real", [True, False])
@pytest.mark.parametrize("u,c,nb", SHAPES)
def test_splitting_or_permuting_bv_moves_no_bit(metric, real, u, c, nb):
    kernel = KERNELS[metric][0]
    rng = np.random.default_rng(u + nb + c + real)
    block = rng.normal(size=(nb + 2, u, c)) if real else random_block(rng, nb + 2, u, c)
    av, bv = block[:2], block[2:]
    w = rng.uniform(0.0, 1.0, size=u)
    full = kernel(av, bv, w)
    perm = rng.permutation(nb)
    assert kernel(av, bv[perm], w).tobytes() == full[:, perm].tobytes()
    cuts = [0, *np.sort(rng.choice(np.arange(1, nb), size=4, replace=False)), nb]
    cuts.insert(2, cuts[1] + 1)  # a piece of one row
    pieces = [kernel(av, bv[s:e], w) for s, e in zip(cuts[:-1], cuts[1:]) if e > s]
    assert np.hstack(pieces).tobytes() == full.tobytes()
    rows = rng.choice(nb, size=7, replace=False)
    assert (pairs_alone(kernel, av, bv[rows], w).tobytes()
            == full[:, rows].tobytes())


@pytest.mark.parametrize("metric", sorted(KERNELS))
@pytest.mark.parametrize("real", [True, False])
@pytest.mark.parametrize("u,c,nb", SHAPES[1:4])
def test_self_cross_is_exactly_symmetric(metric, real, u, c, nb):
    kernel = KERNELS[metric][0]
    rng = np.random.default_rng(u + nb + c)
    bv = rng.normal(size=(nb, u, c)) if real else random_block(rng, nb, u, c)
    d = kernel(bv, bv, rng.uniform(0.0, 1.0, size=u))
    assert np.array_equal(d, d.T)
    assert not np.diagonal(d).any()


def with_zero_imag(rng, block):
    """block as complex values whose imaginary parts are +0.0 or -0.0."""
    out = block.astype(np.complex128)
    out.imag[rng.random(block.shape) < 0.5] = -0.0
    return out


# nb = 4k .. 4k+4 around a block edge: blocks hold 8 rows at c = 1 and 4 at
# c = 3 under the 96-cell budget
@pytest.mark.parametrize("c", [1, 3])
@pytest.mark.parametrize("nb", [8, 9, 10, 11, 12])
def test_real_blocks_equal_complex_blocks(monkeypatch, c, nb):
    monkeypatch.setattr(kernels, "_BLOCK_CELLS", 96)
    u = 11
    rng = np.random.default_rng(10 * c + nb)
    av = rng.normal(size=(3, u, c))
    bv = rng.normal(size=(nb, u, c))
    bv[0] = av[0]  # an exact zero distance
    w = rng.uniform(0.0, 1.0, size=u)
    avc, bvc = with_zero_imag(rng, av), with_zero_imag(rng, bv)
    assert np.signbit(avc.imag).any() and not np.signbit(avc.imag).all()
    for kernel in (kernels.strong_cross, kernels.weak_cross):
        got = kernel(av, bv, w)
        assert got.tobytes() == kernel(avc, bvc, w).tobytes()
        assert got.tobytes() == kernel(av, bvc, w).tobytes()  # mixed: complex pass


def test_blocked_kernels_below_one_block_at_full_budget():
    rng = np.random.default_rng(7)
    u, c = 2049, 1
    nb = kernels._block_rows(u, c) - 3
    av = random_block(rng, 2, u, c)
    bv = random_block(rng, nb, u, c)
    w = 2.0 ** -np.abs(np.arange(u) - u // 2)
    assert np.array_equal(kernels.weak_cross(av, bv, w), weak_rows(av, bv, w))
    assert np.array_equal(kernels.strong_cross(av, bv, w),
                          strong_rows(av, bv, w))


def test_blocked_kernels_handle_empty_blocks():
    rng = np.random.default_rng(8)
    av = random_block(rng, 2, 5, 1)
    assert kernels.weak_cross(av, av[:0], np.ones(5)).shape == (2, 0)
    assert kernels.strong_cross(av[:0], av, np.ones(5)).shape == (0, 2)
    empty = np.zeros((2, 0, 1), dtype=np.complex128)
    assert np.array_equal(kernels.weak_cross(empty, empty, np.ones(0)),
                          np.zeros((2, 2)))


# ---------------------------------------------------------------------------
# the advection kernel: bit for bit its stage-by-stage form


def stagewise_bilinear(vals, kvec, grid_index, n):
    """The advection kernel one stage at a time, on arrays of its own: the
    divmod of grid_index, a zeroed cube in field order u0 u1 u2 w0 w1 w2,
    i k x v one component at a time, w x u one component at a time, and a
    fancy-index gather.  It shares only the DFT matrices with the kernel."""
    kmax = int(kvec[-1, 0])
    p, q, c = 2 * kmax + 1, kmax + 1, np.complex128
    inv, fwd, inv_x, fwd_x = kernels._dft_matrices(n, kmax)
    h = len(grid_index) // 2
    kz, kyx = np.divmod(grid_index[h:], p * q)
    k = kvec[h:]
    k0, k1, k2 = k.T
    v0, v1, v2 = vals.T
    cube = np.zeros((p, 6, p, q), c)
    cells = cube.reshape(p, 6, p * q)
    cells[kz, :3, kyx] = vals
    cells[kz, 3, kyx] = 1j * (k1 * v2 - k2 * v1)
    cells[kz, 4, kyx] = 1j * (k2 * v0 - k0 * v2)
    cells[kz, 5, kyx] = 1j * (k0 * v1 - k1 * v0)
    iz = np.matmul(inv, cube.reshape(p, -1)).reshape(n, 6, p, q)
    iz_t = np.ascontiguousarray(iz.transpose(1, 2, 0, 3))
    iy = np.matmul(inv, iz_t.reshape(6, p, -1)).reshape(6, n, n, q)
    uw = np.matmul(iy.reshape(-1, q).view(np.float64), inv_x).reshape(6, n, n, n)
    u, w = uw[:3], uw[3:]
    rot = np.empty((3, n, n, n))
    for i, j, l in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        rot[i] = w[j] * u[l] - w[l] * u[j]
    fx = np.matmul(rot.reshape(-1, n), fwd_x).view(c).reshape(3, n, n, q)
    fy = np.matmul(fwd, fx.reshape(3, n, -1)).reshape(3, p, n, q)
    fy_t = np.ascontiguousarray(fy.transpose(2, 0, 1, 3))
    fz = np.matmul(fwd, fy_t.reshape(n, -1)).reshape(p, 3, p, q)
    top = fz.reshape(p, 3, p * q)[kz, :, kyx]
    kd = (top * k).sum(axis=1) / (k * k).sum(axis=1)
    return kd[:, None] * k - top


def kernel_fields(rng, h):
    """Random fields on h kernel rows: dense, sparse (most rows zero) and
    rescaled by powers of ten far from one."""
    for _ in range(2):
        yield rng.normal(size=(h, 3)) + 1j * rng.normal(size=(h, 3))
        v = rng.normal(size=(h, 3)) + 1j * rng.normal(size=(h, 3))
        v[rng.random(h) < 0.85] = 0.0
        yield v
        yield ((rng.normal(size=(h, 3)) + 1j * rng.normal(size=(h, 3)))
               * 10.0 ** rng.integers(-40, 40))


@pytest.mark.parametrize("kmax", [1, 2, 3, 4, 5, 6])
def test_advection_kernel_equals_its_stagewise_form(kmax):
    # a fresh basis is not get_basis's: the kernel's tables hang on no basis
    rng = np.random.default_rng(50 + kmax)
    for basis in (SpectralBasis(kmax), get_basis(kmax)):
        args = (basis.kvec, basis.grid_index, basis.grid_n)
        for v in kernel_fields(rng, basis.m // 2):
            got = kernels.nse_bilinear(v, *args)
            assert got.tobytes() == stagewise_bilinear(v, *args).tobytes()
        assert not kernels.nse_bilinear(np.zeros_like(v), *args).any()


def test_backend_is_numpy():
    # run records name the kernel implementation that produced them
    assert backend.backend() == "numpy"


def test_bench_kernels_script_runs():
    # run the script as a program, with this checkout's package first on the path
    root = Path(__file__).resolve().parents[1]
    launch = ("import runpy, sys; sys.path.insert(0, sys.argv.pop(1)); "
              "sys.argv.pop(0); runpy.run_path(sys.argv[0], run_name='__main__')")
    out = subprocess.run([sys.executable, "-c", launch, str(root / "src"),
                          str(root / "benchmarks" / "bench_kernels.py"),
                          "--repeat", "1"],
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert lines[0].split() == ["kernel", "first", "(ms)", "time", "(ms)", "peak", "(MB)"]
    assert [ln.split()[0] for ln in lines[1:]] == [
        "strong_cross", "weak_cross", "weak_cross/heat", "pack_states/heat",
        "omega/heat", "nse_bilinear/k4", "nse_bilinear/k6", "dop853/nse",
        "energy/nse"]
    assert all(float(x) >= 0.0 for ln in lines[1:] for x in ln.split()[1:])
    assert all(len(ln.split()) == 4 for ln in lines[1:])
