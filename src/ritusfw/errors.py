"""Exception types shared across the package."""


class RitusFWError(Exception):
    """Base class for all package-specific errors."""


class ConfigurationError(RitusFWError):
    """Invalid or unsupported configuration (bad variant, bad grid request, ...)."""


class ArgumentError(RitusFWError, ValueError):
    """An argument is outside the documented range."""


class DomainError(RitusFWError):
    """Evaluation outside the domain where a profile is defined."""


class UnsupportedProfileError(RitusFWError):
    """Operation only defined for a subset of profile kinds."""


class TruncationError(RitusFWError):
    """More levels requested than the grid / spectrum resolves."""


class PairingError(RitusFWError):
    """Partner-channel eigenvalues fail to pair up (or grids differ)."""


class DiscretizationError(RitusFWError):
    """The discretization produced eigenvalues inconsistent with a bound-state problem."""


class ConditioningError(RitusFWError):
    """Linear solve would be dominated by a nearby pole."""
