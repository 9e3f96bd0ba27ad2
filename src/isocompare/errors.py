"""Exception types shared across the package.

Input and precondition problems raise ValidationError subclasses (CLI exit
code 2); failures of the numerical machinery itself raise NumericalError
subclasses (CLI exit code 3).  ``in_doubles`` is the package's one range
check: it decides which of the two a quantity that has left the doubles is.
"""

import math
import sys

import numpy as np


class IsoCompareError(Exception):
    """Base class for all package errors."""


class ValidationError(IsoCompareError):
    """Invalid input: bad parameters, malformed data, violated preconditions.
    key: the config key at fault (a tuple for a rule on several) or None,
    which ``cli.main`` puts, after its line, in front of the message."""

    def __init__(self, message: str = "", key: str | tuple | None = None):
        super().__init__(message)
        self.key = key


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
    """Malformed run configuration; key names the offending config key."""


class NumericalError(IsoCompareError):
    """A numerical routine failed to meet its accuracy contract."""


class QuadratureError(NumericalError):
    """A quadrature rule returned a value that is not finite: the integrand
    left its domain (a nonpositive height under a square root) at a node."""


def in_doubles(compute, quantities, keys: dict, at: dict | None = None,
               normal: bool = False) -> list:
    """compute()'s values, one per (name, power) of quantities, computed under
    one np.errstate, if each is in the doubles.  A value not finite (an
    OverflowError from Python floats fails the first), or with normal one
    below the normal doubles (whose 12-digit print has unsound digits), is
    exit 3: "[at <coord>=<v>, ]the <name> overflows a double | is below the
    normal doubles (<key>=<v>, ...)[; lower|raise <first key but n>]", at the
    first failing entry of the coordinates at.  power is the quantity's power
    in that key, 0 for no one power; at a positive power a value 0 throughout
    is exit 2: "the <name> underflows to 0 (...); raise <every key but n>".
    Values past the quantities are returned unchecked."""
    with np.errstate(all="ignore"):
        try:
            values = compute()
        except OverflowError:
            values, at = [np.inf] * len(quantities), None
        for (name, power), value in zip(quantities, values):
            value = np.asarray(value)
            # a finite sum has every entry finite; one that is not is looked into
            if not math.isfinite(value.sum()) and (bad := ~np.isfinite(value)).any():
                error, verb = NumericalError, "overflows a double"
            elif normal and (bad := np.abs(value) < sys.float_info.min).any():
                error, verb, power = NumericalError, "is below the normal doubles", -power
            elif power > 0 and value.size and not value.any():
                error, verb, power, at = ValidationError, "underflows to 0", -power, None
            else:
                continue
            where = ", ".join(f"{k}={np.broadcast_to(c, bad.shape)[bad][0]:g}"
                              for k, c in (at or {}).items())
            named = ", ".join(f"{k}={v:g}" if isinstance(v, float) else f"{k}={v}"
                              for k, v in keys.items())
            size = [k for k in keys if k != "n"][:None if error is ValidationError else 1]
            raise error("".join([
                f"at {where}, " if where else "", f"the {name} {verb}",
                f" ({named})" if named else "",
                f"; {'lower' if power > 0 else 'raise'} {' or '.join(size)}"
                if power and size else ""]))
    return values
