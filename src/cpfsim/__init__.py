"""Coordinated path following for speed-constrained fixed-wing UAVs.

Library layout:

* ``paths`` - directed planar paths (circle, line, clamped cubic B-spline)
  with arc-length point/tangent/curvature/projection queries;
* ``error_frame`` - path-following error, its batched dynamics and the
  region classification driving the hybrid dispatch;
* ``param_design`` - coordination-set parameter design (grid optimization)
  and validation of the admissibility inequalities;
* ``control_laws`` - the coordinated in-set law with speed reset, the
  near-time-optimal and robust outer laws, and the hybrid supervisor;
* ``coordination`` - pre-neighbor relations, spacing and overtake events;
* ``simulator`` - deterministic fixed-step multi-UAV simulation with
  tracing and metrics;
* ``verification`` - randomized suites for the closed-loop guarantees and
  the escape-set demonstration;
* ``cli`` - the ``cpfsim`` command.
"""

from .control_laws import (ControlCommand, CoordinationChi, LinearChi, build_chi,
                           comparison_admissible, comparison_system_trajectory,
                           coord_control, hybrid_supervisor, sat)
from .coordination import (OvertakeEvent, chain_coordination, detect_overtaking,
                           update_pre_neighbors)
from .error_frame import PathError, Region, classify, compute_error, switching_value
from .exceptions import (ConfigError, CpfsimError, CurvatureBoundExceeded,
                         DegenerateSpline, Infeasible, OutsideUniverse,
                         ProjectionAmbiguous, TableTooLarge, WrongRegion)
from .param_design import (CoordParams, SpeedLimits, coordination_rate_bound,
                           design_coordination_set)
from .paths import (CirclePath, LinePath, Path, Projection, SplinePath,
                    waypoints_from_lonlat, wrap_angle)
from .simulator import Metrics, Scenario, Trace, UavSpec, UavState, run_scenario
from .verification import EscapeReport, escape_demo, in_escape_set

__version__ = "0.1.0"
