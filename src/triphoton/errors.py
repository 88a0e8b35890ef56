"""Exception hierarchy shared by the whole package.

The CLI maps these onto exit codes: ConfigError and InvalidParameterError
(and an OSError, such as a missing input file) -> 2, the numerical family
(NumericalDomainError, DispersionDomainError, SamplingError) -> 3.
"""


class TriphotonError(Exception):
    """Base class for all package-specific errors."""


class InvalidParameterError(TriphotonError, ValueError):
    """A physical or numerical parameter is outside its admissible range."""


class NumericalDomainError(TriphotonError, ArithmeticError):
    """A quadrature or numerical evaluation produced a non-finite sample.

    Carries the offending abscissa when known (``offending_value``).
    """

    def __init__(self, message, offending_value=None):
        super().__init__(message)
        self.offending_value = offending_value


class DispersionDomainError(NumericalDomainError):
    """1 + Re(chi) <= 0 somewhere, so the refractive index is undefined."""


class SamplingError(NumericalDomainError):
    """A spectral grid is too coarse for the requested time-domain range.

    ``required_size`` holds the minimum admissible node count when known.
    """

    def __init__(self, message, required_size=None):
        super().__init__(message)
        self.required_size = required_size


class RangeError(TriphotonError, ValueError):
    """A requested offset or line lies outside a sampled range."""


class EstimationError(TriphotonError, RuntimeError):
    """A statistical estimator has no valid support (e.g. feature fills grid)."""


class ConfigError(TriphotonError, ValueError):
    """Configuration file is malformed: unknown key, bad unit, missing value."""

    def __init__(self, message, key=None, line=None):
        self.message = message
        if key is not None:
            message = f"{message} (key '{key}'" + (f", line {line})" if line else ")")
        super().__init__(message)
        self.key = key
        self.line = line
