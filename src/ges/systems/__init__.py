"""Model systems: each exposes a TrajectoryFamily over a dual-metric space.

make_system builds one by its id; SYSTEM_IDS lists the ids.  Every system
runs on numpy alone.
"""

from __future__ import annotations

from ..errors import UsageError
from .branch import BranchSystem
from .bump import BumpSystem, SingleTrajectorySystem, bump_state, make_bump_space
from .heat import (HeatSystem, band_profile, band_witness, high_band_seed,
                   make_heat_space)
from .line import LineSystem
from .nse import (ForcingMode, ForcingProfile, NSESystem, absorbing_entry_time,
                  absorbing_radius, default_forcing, get_basis)
from .scalar import ForcedScalarSystem

_REGISTRY = {
    "single": SingleTrajectorySystem,
    "bump": BumpSystem,
    "heat": HeatSystem,
    "line": LineSystem,
    "branch2": BranchSystem,
    "nse": NSESystem,
    "forced-scalar": ForcedScalarSystem,
}

SYSTEM_IDS = tuple(sorted(_REGISTRY))


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
    "default_forcing", "get_basis", "high_band_seed",
    "make_bump_space", "make_heat_space", "make_system",
]
