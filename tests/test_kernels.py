"""Backend agreement: the numba cross kernels and the numpy fallbacks
must produce the same numbers on identical inputs.  The advection kernel
has one implementation; tests/test_systems.py checks it against the
convolution pair sum."""

from __future__ import annotations

import numpy as np
import pytest

from ges import backend, kernels


pytestmark = pytest.mark.skipif(
    not backend.HAVE_NUMBA, reason="numba backend not importable")


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


def test_strong_cross_agrees(both_backends):
    rng = np.random.default_rng(0)
    av = random_block(rng, 5, 17, 1)
    bv = random_block(rng, 7, 17, 1)
    qw = rng.uniform(0.1, 1.0, size=17)
    a, b = both_backends(kernels.strong_cross, av, bv, qw)
    assert a.shape == (5, 7)
    np.testing.assert_allclose(a, b, rtol=0, atol=1e-13)


def test_strong_cross_agrees_multicomponent(both_backends):
    rng = np.random.default_rng(1)
    av = random_block(rng, 4, 9, 3)
    bv = random_block(rng, 6, 9, 3)
    qw = rng.uniform(0.1, 1.0, size=9)
    a, b = both_backends(kernels.strong_cross, av, bv, qw)
    np.testing.assert_allclose(a, b, rtol=0, atol=1e-13)


def test_weak_cross_agrees(both_backends):
    rng = np.random.default_rng(2)
    av = random_block(rng, 6, 21, 1)
    bv = random_block(rng, 3, 21, 1)
    ww = rng.uniform(0.0, 1.0, size=21)
    a, b = both_backends(kernels.weak_cross, av, bv, ww)
    assert a.shape == (6, 3)
    np.testing.assert_allclose(a, b, rtol=0, atol=1e-13)


def test_set_backend_validation_and_restore():
    prev = backend.backend()
    with pytest.raises(ValueError):
        backend.set_backend("gpu")
    assert backend.backend() == prev
    assert "numpy" in backend.available_backends()


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
