"""Shared fixtures: a plain sequence space, sparse-state helpers, a
per-image evolution oracle and evolve_block's groups as flat images."""

from __future__ import annotations

import numpy as np
import pytest

import ges.systems.nse as nse_module
from ges.space import DualMetricSpace


@pytest.fixture(scope="session")
def seq_space() -> DualMetricSpace:
    """1-D integer-slot space with unit quadrature and base-2 weights."""
    return DualMetricSpace(tag="seq", index_dim=1, truncation_radius=32)


def basis_state(space: DualMetricSpace, n: int, scale: float = 1.0):
    return space.state([n], [scale])


def random_sparse_state(space: DualMetricSpace, rng: np.random.Generator,
                        max_slots: int = 6, radius: int = 12,
                        amp: float = 2.0):
    k = int(rng.integers(0, max_slots + 1))
    idx = rng.choice(np.arange(-radius, radius + 1), size=k, replace=False)
    val = rng.uniform(-amp, amp, size=k) + 1j * rng.uniform(-amp, amp, size=k)
    return space.state(idx, val)


def image_states(fam, seeds, t: float, s: float, branches: str = "all"):
    """The image P(t, s) seeds as states, one fam.evolve per (seed, branch)
    in that order, through every branch or the first: an oracle that never
    packs, for comparison with the packed image path."""
    return [fam.evolve(s, x, [t], branch=b)[0]
            for x in seeds
            for b in range(fam.branch_count(s, x) if branches == "all" else 1)]


def flat_images(groups):
    """(idx, values) per image of evolve_block's packing groups, in order."""
    return [(idx, v) for idx, vals in groups
            for v in (vals() if callable(vals) else vals)]


def counting_solves(monkeypatch):
    """Wrap the NSE module's solve_ivp; returns the list of call starts."""
    calls = []
    real = nse_module.solve_ivp

    def counting(fun, t_span, *args, **kwargs):
        calls.append(t_span[0])
        return real(fun, t_span, *args, **kwargs)

    monkeypatch.setattr(nse_module, "solve_ivp", counting)
    return calls
