"""Model systems: each exposes a TrajectoryFamily over a dual-metric space.

The NSE module (and with it scipy.fft, the only scipy module the package
uses) loads only when something asks for it: make_system("nse") imports
NSESystem on demand, and the re-exported NSE names below resolve through
the module __getattr__ (PEP 562), so `from ges.systems import NSESystem`
still works.  A command on the closed-form systems imports numpy only.
"""

from __future__ import annotations

from ..errors import UsageError
from .branch import BranchSystem
from .bump import BumpSystem, SingleTrajectorySystem, bump_state, make_bump_space
from .heat import (HeatSystem, band_profile, band_witness, heat_evolve,
                   high_band_seed, make_heat_space)
from .line import LineSystem
from .scalar import ForcedScalarSystem

_NSE_NAMES = ("ForcingMode", "ForcingProfile", "NSESystem", "absorbing_entry_time",
              "absorbing_radius", "default_forcing", "get_basis")

_REGISTRY = {
    "single": SingleTrajectorySystem,
    "bump": BumpSystem,
    "heat": HeatSystem,
    "line": LineSystem,
    "branch2": BranchSystem,
    "nse": lambda **kwargs: __getattr__("NSESystem")(**kwargs),  # imported on demand
    "forced-scalar": ForcedScalarSystem,
}

SYSTEM_IDS = tuple(sorted(_REGISTRY))


def __getattr__(name: str):
    if name in _NSE_NAMES:
        from . import nse
        return getattr(nse, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def make_system(system_id: str, **kwargs):
    try:
        cls = _REGISTRY[system_id]
    except KeyError:
        raise UsageError(
            f"unknown system {system_id!r}; known: {', '.join(SYSTEM_IDS)}") from None
    return cls(**kwargs)


__all__ = [
    "BranchSystem", "BumpSystem", "ForcedScalarSystem", "ForcingMode",
    "ForcingProfile", "HeatSystem", "LineSystem", "NSESystem",
    "SingleTrajectorySystem", "SYSTEM_IDS", "absorbing_entry_time",
    "absorbing_radius", "band_profile", "band_witness", "bump_state",
    "default_forcing", "get_basis", "heat_evolve", "high_band_seed",
    "make_bump_space", "make_heat_space", "make_system",
]
