"""Exception hierarchy shared across the package."""


class DasRateError(Exception):
    """Base class for all package-specific failures."""


class ConfigError(DasRateError):
    """Malformed or inconsistent scenario configuration / CLI usage."""


class CapacityError(DasRateError):
    """Candidate enumeration would exceed the configured search budget."""


class DegenerateGainsError(DasRateError):
    """Pathloss gains remained tied after the deterministic separation guard."""


class NumericalFailureError(DasRateError):
    """A quadrature's error estimate exceeded its budget."""
