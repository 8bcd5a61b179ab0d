"""curveswarm: rigid formations on closed planar curves.

Multi-start damped Gauss-Newton search for regular polygons inscribed on a
closed curve, plus a lifted feedback-linearizing sweep controller and mission
simulator that drives a team of extended unicycles around the curve and into
the formation vertices with blended pose regulation and collision avoidance.
"""

from .control import ControllerParams, ControlError, make_params
from .curves import (
    Curve,
    CurveError,
    FrenetFrame,
    SingularPointError,
    catalog_names,
    make_curve,
)
from .finder import FinderConfig, FormationSolution, find_formation, multistart
from .sim import (
    MissionConfig,
    MissionError,
    MissionMetrics,
    run_mission,
)

__all__ = [
    "NUMBA_ENABLED",
    "ControlError",
    "ControllerParams",
    "Curve",
    "CurveError",
    "FinderConfig",
    "FormationSolution",
    "FrenetFrame",
    "MissionConfig",
    "MissionError",
    "MissionMetrics",
    "SingularPointError",
    "catalog_names",
    "find_formation",
    "make_curve",
    "make_params",
    "multistart",
    "run_mission",
]

__version__ = "0.1.0"

# the kernels run on plain numpy; tools that report the backend read this flag
NUMBA_ENABLED = False
