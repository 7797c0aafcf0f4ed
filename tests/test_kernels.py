"""Cross kernels.

The blocked numpy kernels must give bitwise the numbers of the plain
row-at-a-time numpy form kept below as the reference.  Backend
agreement: the numba cross kernels and the numpy fallbacks must produce
the same numbers on identical inputs.  The advection kernel has one
implementation; tests/test_systems.py checks it against the convolution
pair sum."""

from __future__ import annotations

import numpy as np
import pytest

from ges import backend, kernels


needs_numba = pytest.mark.skipif(
    not backend.HAVE_NUMBA, reason="numba backend not importable")


# ---------------------------------------------------------------------------
# blocked numpy kernels against the row-at-a-time form


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
    strong = kernels._strong_cross_np(av, bv, w)
    weak = kernels._weak_cross_np(av, bv, w)
    assert strong.shape == weak.shape == (na, nb)
    assert np.array_equal(strong, strong_rows(av, bv, w))
    assert np.array_equal(weak, weak_rows(av, bv, w))


def test_blocked_kernels_below_one_block_at_full_budget():
    rng = np.random.default_rng(7)
    u, c = 2049, 1
    nb = kernels._block_rows(u, c) - 3
    av = random_block(rng, 2, u, c)
    bv = random_block(rng, nb, u, c)
    w = 2.0 ** -np.abs(np.arange(u) - u // 2)
    assert np.array_equal(kernels._weak_cross_np(av, bv, w), weak_rows(av, bv, w))
    assert np.array_equal(kernels._strong_cross_np(av, bv, w),
                          strong_rows(av, bv, w))


def test_blocked_kernels_handle_empty_blocks():
    rng = np.random.default_rng(8)
    av = random_block(rng, 2, 5, 1)
    assert kernels._weak_cross_np(av, av[:0], np.ones(5)).shape == (2, 0)
    assert kernels._strong_cross_np(av[:0], av, np.ones(5)).shape == (0, 2)
    empty = np.zeros((2, 0, 1), dtype=np.complex128)
    assert np.array_equal(kernels._weak_cross_np(empty, empty, np.ones(0)),
                          np.zeros((2, 2)))


# ---------------------------------------------------------------------------
# numba against numpy


@pytest.fixture
def both_backends():
    """Yield a runner that evaluates a kernel call under each backend."""

    def run(fn, *args):
        prev = backend.set_backend("numpy")
        try:
            a = fn(*args)
            backend.set_backend("numba")
            b = fn(*args)
        finally:
            backend.set_backend(prev)
        return a, b

    return run


def random_block(rng, n, u, c):
    return rng.normal(size=(n, u, c)) + 1j * rng.normal(size=(n, u, c))


@needs_numba
def test_strong_cross_agrees(both_backends):
    rng = np.random.default_rng(0)
    av = random_block(rng, 5, 17, 1)
    bv = random_block(rng, 7, 17, 1)
    qw = rng.uniform(0.1, 1.0, size=17)
    a, b = both_backends(kernels.strong_cross, av, bv, qw)
    assert a.shape == (5, 7)
    np.testing.assert_allclose(a, b, rtol=0, atol=1e-13)


@needs_numba
def test_strong_cross_agrees_multicomponent(both_backends):
    rng = np.random.default_rng(1)
    av = random_block(rng, 4, 9, 3)
    bv = random_block(rng, 6, 9, 3)
    qw = rng.uniform(0.1, 1.0, size=9)
    a, b = both_backends(kernels.strong_cross, av, bv, qw)
    np.testing.assert_allclose(a, b, rtol=0, atol=1e-13)


@needs_numba
def test_weak_cross_agrees(both_backends):
    rng = np.random.default_rng(2)
    av = random_block(rng, 6, 21, 1)
    bv = random_block(rng, 3, 21, 1)
    ww = rng.uniform(0.0, 1.0, size=21)
    a, b = both_backends(kernels.weak_cross, av, bv, ww)
    assert a.shape == (6, 3)
    np.testing.assert_allclose(a, b, rtol=0, atol=1e-13)


@needs_numba
def test_set_backend_validation_and_restore():
    prev = backend.backend()
    with pytest.raises(ValueError):
        backend.set_backend("gpu")
    assert backend.backend() == prev
    assert "numpy" in backend.available_backends()


@needs_numba
@pytest.mark.parametrize("flag,want", [("0", "numpy"), ("off", "numpy"),
                                       ("1", "numba")])
def test_env_flag_selects_backend_at_import(flag, want):
    import subprocess
    import sys

    out = subprocess.run(
        [sys.executable, "-c", "from ges import backend; print(backend.backend())"],
        env={"GES_NUMBA": flag, "PATH": "/usr/bin:/bin"},
        capture_output=True, text=True, check=True)
    assert out.stdout.strip() == want
