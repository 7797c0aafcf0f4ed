"""Numerical toolkit for generalized evolutionary systems.

Trajectory families on a dual-metric (strong/weak) coefficient space,
pullback omega-limit approximation over finite start schedules,
attraction / invariance / tracking / energy diagnostics, a set of
closed-form model systems plus a Galerkin-truncated incompressible-flow
model, nonautonomous symbol families, and a deterministic CLI (`ges`).
"""

from .errors import BlowUpError, ForcingFormatError, UnsupportedError, UsageError
from .space import (CoeffState, DualMetricSpace, epsilon_net, hausdorff_dist,
                    pack_states, set_semidist, state_to_json)
from .evolution import (EnergyCheckReport, TrajectoryFamily, TrajectorySample,
                        compose_check, energy_inequality_check,
                        weak_c_convergence_check)
from .omega import (AttractionReport, InvarianceReport, MinimalityReport,
                    OmegaApprox, PACReport, PullbackSchedule, TrackingReport,
                    attraction_diagnostic, forward_omega, invariance_check,
                    minimality_check, omega_pullback, pac_check,
                    tracking_check)
from .symbols import (SymbolFamily, UnionInclusionReport, per_symbol_pullback,
                      shift_identity_defect, uniform_omega,
                      union_inclusion_check)
from .systems import SYSTEM_IDS, make_system
from .verify import SUITES, SuiteReport, run_suite

__version__ = "0.1.0"

__all__ = [
    "BlowUpError", "ForcingFormatError", "UnsupportedError", "UsageError",
    "CoeffState", "DualMetricSpace", "epsilon_net", "hausdorff_dist",
    "pack_states", "set_semidist", "state_to_json",
    "EnergyCheckReport", "TrajectoryFamily", "TrajectorySample",
    "compose_check", "energy_inequality_check", "weak_c_convergence_check",
    "AttractionReport", "InvarianceReport", "MinimalityReport", "OmegaApprox",
    "PACReport", "PullbackSchedule", "TrackingReport",
    "attraction_diagnostic", "forward_omega", "invariance_check",
    "minimality_check", "omega_pullback", "pac_check", "tracking_check",
    "SymbolFamily", "UnionInclusionReport", "per_symbol_pullback",
    "shift_identity_defect", "uniform_omega", "union_inclusion_check",
    "SYSTEM_IDS", "make_system",
    "SUITES", "SuiteReport", "run_suite",
    "__version__",
]
