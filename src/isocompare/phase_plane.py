"""Phase-plane machinery for the sharp Ricci volume bound.

The profile transform x = A(V)^(n/(n-1)) has volume units; with y = dx/dV the
profile becomes a path from (0, y0) to (x0, 0) in the (x, y) plane, where
y0 = n omega^(1/(n-1)) at a smooth pole (omega the unit S^(n-1) area) and

    vol(M)/2 = integral of dx / y   along the path.

A Ricci lower bound Ric >= ric0 > 0 makes the mass

    m(V) = y0^2 - y^2 - (n^2 ric0 / (n-1)) x^(2/n)

nondecreasing, zero at V = 0 on smooth manifolds.  Constant-mass extremal
paths y^2 = y0^2 - m0 - (n^2 ric0/(n-1)) x^(2/n) therefore bound the volume,
the bound is largest at m0 = 0, and its value is the round-sphere volume: the
sharp comparison bound, which ``volume_from_path`` gives in closed form.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import EmptyPathError, NumericalError, ValidationError
from .quadrature import sin_power
from .warped import Profile, log_sphere_area, sphere_area

__all__ = [
    "PhaseCurve", "PhasePath",
    "start_height", "mass_coefficient", "phase_curve", "ricci_mass",
    "extremal_path", "volume_from_path", "bishop_bound",
]


def start_height(n: int) -> float:
    """Phase height y(0) of a profile at a smooth pole: n omega^(1/(n-1)).

    From n = 439 on omega is subnormal or 0, and the root is taken in logs.
    """
    omega = sphere_area(n - 1)
    if omega < sys.float_info.min:
        return n * math.exp(log_sphere_area(n - 1) / (n - 1))
    return n * omega ** (1.0 / (n - 1))


def mass_coefficient(n: int, ric0: float) -> float:
    """Coefficient n^2 ric0 / (n-1) multiplying x^(2/n) in the mass."""
    return n * n * ric0 / (n - 1)


@dataclass
class PhaseCurve:
    """Transformed profile samples: x = A^(n/(n-1)), y = dx/dV."""

    n: int
    x: np.ndarray
    y: np.ndarray


def phase_curve(profile: Profile) -> PhaseCurve:
    """Transform a profile to (x, y) phase samples on its volume grid.

    The slope is exact from the profile's warp slope:
    y = n omega^(1/(n-1)) f'(t), the chain rule through dV = A dt.  An x
    beyond the doubles is a NumericalError naming F and n.
    """
    n = profile.n
    a = profile.a_values
    interior = a[1:-1]
    if np.any(interior <= 0):
        raise ValidationError("profile areas must be positive in the interior")
    power = n / (n - 1.0)
    with np.errstate(over="ignore"):
        x = a ** power
    if not np.all(np.isfinite(x)):
        raise NumericalError(f"F = A^(n/(n-1)) overflows a double at n = {n}, "
                             f"A_max = {float(np.max(a)):g}")
    y = start_height(n) * profile.warp_slope
    return PhaseCurve(n=n, x=x, y=y)


def ricci_mass(curve: PhaseCurve, ric0: float) -> np.ndarray:
    """Mass at each sample of a profile's phase curve under the Ricci floor
    ric0; nondecreasing in V whenever the generating metric honestly
    satisfies the Ricci bound.

    The additive constant is the smooth-pole value y0^2 = n^2 omega^(2/(n-1)),
    the unique normalization vanishing at V = 0 for smooth models; models with
    cone points keep a positive mass at V = 0, as they should.
    """
    if ric0 <= 0:
        raise ValidationError(f"ric0 must be positive, got {ric0}")
    n = curve.n
    y0_sq = start_height(n) ** 2
    return y0_sq - curve.y ** 2 - mass_coefficient(n, ric0) * curve.x ** (2.0 / n)


def _in_range(value, what: str, n: int, ric0: float):
    """value if it is a normal double, else a NumericalError naming what
    left the range (below it a 12-digit print carries unsound digits)."""
    if not np.isfinite(value):
        raise NumericalError(f"{what} overflows a double at n = {n}, ric0 = {ric0:g}")
    if value < sys.float_info.min:
        raise NumericalError(
            f"{what} is below the normal doubles at n = {n}, ric0 = {ric0:g}")
    return value


@dataclass
class PhasePath:
    """Extremal constant-mass path from (0, y0) to (x0, 0), kept as its
    closed form: y^2 = y0^2 - (n^2 ric0/(n-1)) x^(2/n)."""

    m0: float
    x0: float
    y0: float
    n: int
    ric0: float


def extremal_path(n: int, ric0: float, m0: float) -> PhasePath:
    """Closed-form extremal path of constant mass m0:
    y(x)^2 = y0^2 - m0 - (n^2 ric0/(n-1)) x^(2/n), ending at x0 where y = 0.
    """
    if n < 3:
        raise ValidationError(f"n must be >= 3, got {n}")
    if ric0 <= 0:
        raise ValidationError(f"ric0 must be positive, got {ric0}")
    if m0 < 0:
        raise ValidationError(f"m0 must be nonnegative, got {m0}")
    y0_sq = start_height(n) ** 2
    if m0 >= y0_sq:
        raise EmptyPathError(
            f"mass {m0:g} >= squared start height {y0_sq:g}; path is empty")
    b = mass_coefficient(n, ric0)
    c = y0_sq - m0
    with np.errstate(over="ignore"):  # a Python float would raise instead
        x0 = _in_range(np.float64(c / b) ** (n / 2.0), "path end x0", n, ric0)
    # exact start height on the zero-mass path, not sqrt(y0^2) roundoff
    y_start = start_height(n) if m0 == 0.0 else math.sqrt(c)
    return PhasePath(m0=m0, x0=x0, y0=y_start, n=n, ric0=ric0)


def volume_from_path(path: PhasePath) -> float:
    """Total volume 2 * integral dx / y along the path, in closed form: with
    x = u^n and u = u0 sin(theta) the half volume is n u0^(n-1) / sqrt(b)
    times int_0^(pi/2) sin^(n-1), b the mass coefficient.
    """
    n = path.n
    u0 = path.x0 ** (1.0 / n)
    with np.errstate(over="ignore"):
        volume = 2.0 * (n * u0 ** (n - 1) / math.sqrt(mass_coefficient(n, path.ric0))
                        * sin_power(n - 1, 0.5 * math.pi))
    return float(_in_range(volume, "volume", n, path.ric0))


def bishop_bound(n: int, ric0: float) -> float:
    """Sharp volume bound under Ric >= ric0: the zero-mass extremal volume.

    Larger mass shrinks the extremal volume, so the supremum over m0 >= 0
    sits at m0 = 0, where the path is the round sphere's and the value is the
    comparison sphere's volume.
    """
    return volume_from_path(extremal_path(n, ric0, 0.0))
