"""Exception types shared across the package."""


class CpfsimError(Exception):
    """Base class for all package errors."""


class ConfigError(CpfsimError):
    """Scenario/parameter configuration is malformed or inconsistent."""


class DegenerateSpline(CpfsimError):
    """B-spline has a (locally) vanishing first derivative."""


class CurvatureBoundExceeded(CpfsimError):
    """Constructed path violates the declared curvature bound."""


class TableTooLarge(CpfsimError, ValueError):
    """A path's lookup table would exceed its size cap."""


class ProjectionAmbiguous(CpfsimError):
    """Closest-point projection is not unique within tolerance."""


class WrongRegion(CpfsimError):
    """A control law was invoked outside the region it is defined for."""


class OutsideUniverse(CpfsimError):
    """Path-following error left the supervised universe (|rho| > rho_universe)."""


class Infeasible(CpfsimError):
    """No parameter set satisfies the design constraints."""
