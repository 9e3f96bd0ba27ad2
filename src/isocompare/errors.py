"""Exception types shared across the package.

Input and precondition problems raise ValidationError subclasses (CLI exit
code 2); failures of the numerical machinery itself raise NumericalError
subclasses (CLI exit code 3).
"""


class IsoCompareError(Exception):
    """Base class for all package errors."""


class ValidationError(IsoCompareError):
    """Invalid input: bad parameters, malformed data, violated preconditions."""


class DomainError(ValidationError):
    """Coordinate outside the metric's domain, or an argument outside the
    mathematical domain of a formula (e.g. nonpositive area)."""


class SingularPointError(DomainError):
    """Evaluation requested at a pole where the warp factor vanishes."""


class UnsupportedPointError(DomainError):
    """Evaluation outside the sample window of a tabulated warp."""


class EmptyPathError(ValidationError):
    """Phase-plane path degenerate: the requested mass leaves no room for
    a positive starting height."""


class ConfigError(ValidationError):
    """Malformed run configuration; message carries the offending line."""


class NumericalError(IsoCompareError):
    """A numerical routine failed to meet its accuracy contract."""


class QuadratureError(NumericalError):
    """A quadrature rule returned a value that is not finite: the integrand
    left its domain (a nonpositive height under a square root) at a node."""
