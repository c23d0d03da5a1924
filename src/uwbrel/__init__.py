"""Relative localization of two wireless nodes from multipath components
observed in their UWB channels to shared observer nodes.

Submodules: geom (virtual-source geometry and the columnar MPC set),
chansim (stochastic scenario generation), likelihood (soft indicators and 2D maximization), distest
(distance estimators), posest (relative-position estimators), assoc
(MPC association), evalcli (Monte-Carlo harness and CLI).
"""

from . import assoc, chansim, distest, evalcli, geom, likelihood, posest
from .errors import (
    AntiparallelDirections,
    ConfigError,
    DegenerateGeometry,
    DegenerateObjective,
    InsufficientMpcs,
    InvalidParams,
    NotPositiveDefinite,
    PermutationCapExceeded,
    RankDeficient,
    UwbrelError,
)
from .geom import SPEED_OF_LIGHT, Observations, Scenario, complete_mpc

__version__ = "0.1.0"

__all__ = [
    "assoc", "chansim", "distest", "evalcli", "geom", "likelihood", "posest",
    "AntiparallelDirections", "ConfigError", "DegenerateGeometry",
    "DegenerateObjective", "InsufficientMpcs", "InvalidParams",
    "NotPositiveDefinite", "PermutationCapExceeded", "RankDeficient",
    "UwbrelError", "SPEED_OF_LIGHT", "Observations", "Scenario", "complete_mpc",
    "__version__",
]
