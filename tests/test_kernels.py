"""Cross kernels.

The blocked cross kernels must give bitwise the numbers of the plain
row-at-a-time numpy form kept below as the reference.  The advection
kernel is checked against the convolution pair sum in
tests/test_systems.py."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ges import backend, kernels


# ---------------------------------------------------------------------------
# blocked kernels against the row-at-a-time form


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


# A small block budget gives many blocks on inputs small enough that BLAS
# runs every matrix-vector product on one thread.  On large inputs a
# threaded BLAS splits the reference's long products between threads,
# which can move their last bits.
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
    strong = kernels.strong_cross(av, bv, w)
    weak = kernels.weak_cross(av, bv, w)
    assert strong.shape == weak.shape == (na, nb)
    assert np.array_equal(strong, strong_rows(av, bv, w))
    assert np.array_equal(weak, weak_rows(av, bv, w))


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
    assert lines[0].split() == ["kernel", "time", "(ms)"]
    assert [ln.split()[0] for ln in lines[1:]] == [
        "strong_cross", "weak_cross", "weak_cross/heat", "pack_states/heat",
        "net_survive/heat", "nse_bilinear/k4", "nse_bilinear/k6", "rk45/nse"]
    assert all(float(ln.split()[1]) >= 0.0 for ln in lines[1:])
