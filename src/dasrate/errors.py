"""Exception hierarchy shared across the package, each with its CLI exit code."""


class DasRateError(Exception):
    """Base class for all package-specific failures."""


class ConfigError(DasRateError):
    """Malformed or inconsistent scenario configuration / CLI usage."""
    exit_code = 2


class CapacityError(DasRateError):
    """Candidate enumeration would exceed the configured search budget."""
    exit_code = 3


class NumericalFailureError(DasRateError):
    """A quadrature's error estimate exceeded its budget."""
    exit_code = 5
