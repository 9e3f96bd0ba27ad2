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
sharp comparison bound, which ``volume_from_path`` gives in closed form.  On
sampled paths the dx/y integrand has an inverse-square-root zero at x0,
handled by the fixed endpoint rule in ``quadrature``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (EmptyPathError, NumericalError, ResolutionError,
                     ValidationError)
from .quadrature import sqrt_endpoint
from .warped import (MonotoneCubic, Profile, log_sphere_area, sin_power_integral,
                     sphere_area)

__all__ = [
    "PhaseCurve", "MassFunction", "PhasePath",
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
    v: np.ndarray
    x: np.ndarray
    y: np.ndarray


@dataclass
class MassFunction:
    """Mass samples along volume; nondecreasing whenever the generating
    metric honestly satisfies the Ricci bound."""

    v_grid: np.ndarray
    m_values: np.ndarray


def _fit_origin_slope(v: np.ndarray, x: np.ndarray, total: float) -> float:
    """Least-squares slope of x ~ slope * v over the leading samples.

    Uses up to the first ten interior samples, all required to sit inside the
    first 2% of the total volume so the linear model is honest; fewer than
    three such samples cannot anchor the slope.
    """
    window = np.nonzero((v > 0) & (v <= 0.02 * total))[0][:10]
    if window.size < 3:
        raise ResolutionError(
            "fewer than 3 profile samples inside the first 2% of volume; "
            "cannot anchor the origin slope")
    vv, xx = v[window], x[window]
    return float(np.dot(vv, xx) / np.dot(vv, vv))


def _difference_slopes(v: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Three-point derivative of x(v) on a nonuniform grid."""
    y = np.empty_like(x)
    dm = v[1:-1] - v[:-2]
    dp = v[2:] - v[1:-1]
    y[1:-1] = (-dp / (dm * (dm + dp)) * x[:-2]
               + (dp - dm) / (dm * dp) * x[1:-1]
               + dm / (dp * (dm + dp)) * x[2:])
    d0, d1 = v[1] - v[0], v[2] - v[1]
    y[0] = (-(2 * d0 + d1) / (d0 * (d0 + d1)) * x[0]
            + (d0 + d1) / (d0 * d1) * x[1]
            - d0 / (d1 * (d0 + d1)) * x[2])
    e0, e1 = v[-1] - v[-2], v[-2] - v[-3]
    y[-1] = ((2 * e0 + e1) / (e0 * (e0 + e1)) * x[-1]
             - (e0 + e1) / (e0 * e1) * x[-2]
             + e0 / (e1 * (e0 + e1)) * x[-3])
    return y


def phase_curve(profile: Profile) -> PhaseCurve:
    """Transform a profile to (x, y) phase samples on its volume grid.

    When the profile carries foliation data the slope is exact:
    y = n omega^(1/(n-1)) f'(t), the chain rule through dV = A dt.  Otherwise
    y comes from centered differences on the volume grid, with the pole-end
    slope anchored by fitting x ~ y0 * v over the first decade of samples.
    """
    n = profile.n
    a = profile.a_values
    interior = a[1:-1]
    if np.any(interior <= 0):
        raise ValidationError("profile areas must be positive in the interior")
    power = n / (n - 1.0)
    x = a ** power

    if profile.warp_slope is not None:
        y = start_height(n) * np.asarray(profile.warp_slope, dtype=float)
    else:
        y = _difference_slopes(profile.v_grid, x)
        total = profile.total_volume
        if a[0] == 0.0:
            y[0] = _fit_origin_slope(profile.v_grid, x, total)
        if a[-1] == 0.0:
            vr = total - profile.v_grid[::-1]
            y[-1] = -_fit_origin_slope(vr, x[::-1], total)
    return PhaseCurve(n=n, v=profile.v_grid.copy(), x=x, y=y)


def ricci_mass(profile: Profile, ric0: float) -> MassFunction:
    """Mass of a sampled profile under the Ricci floor ric0.

    The additive constant is the smooth-pole value y0^2 = n^2 omega^(2/(n-1)),
    the unique normalization vanishing at V = 0 for smooth models; models with
    cone points keep a positive mass at V = 0, as they should.
    """
    if ric0 <= 0:
        raise ValidationError(f"ric0 must be positive, got {ric0}")
    curve = phase_curve(profile)
    n = profile.n
    y0_sq = start_height(n) ** 2
    m = y0_sq - curve.y ** 2 - mass_coefficient(n, ric0) * curve.x ** (2.0 / n)
    return MassFunction(v_grid=curve.v.copy(), m_values=m)


@dataclass
class PhasePath:
    """Extremal constant-mass path from (0, y(0)) to (x0, 0).

    Closed-form paths keep (n, ric0) so the height is evaluable anywhere;
    sampled paths fall back to the monotone cubic (PCHIP) interpolant of y^2,
    ``warped.MonotoneCubic``.
    """

    x: np.ndarray
    y: np.ndarray
    m0: float
    x0: float
    y0: float
    n: int | None = None
    ric0: float | None = None

    def height_squared(self, x):
        """y^2 at arbitrary x in [0, x0]."""
        if self.n is not None and self.ric0 is not None:
            b = mass_coefficient(self.n, self.ric0)
            return self.y0 ** 2 - b * np.asarray(x, dtype=float) ** (2.0 / self.n)
        return MonotoneCubic(self.x, self.y ** 2)(x)


def extremal_path(n: int, ric0: float, m0: float, samples: int = 513) -> PhasePath:
    """Closed-form extremal path of constant mass m0.

    y(x)^2 = y0^2 - m0 - (n^2 ric0/(n-1)) x^(2/n), sampled as x = x0 s^n so the
    points crowd toward the singular endpoint.
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
        x0 = np.float64(c / b) ** (n / 2.0)
    if not np.isfinite(x0):
        raise NumericalError(
            f"path end x0 overflows a double at n = {n}, ric0 = {ric0:g}")
    if x0 < sys.float_info.min:
        raise NumericalError(
            f"path end x0 is below the normal doubles at n = {n}, ric0 = {ric0:g}")
    s = np.linspace(0.0, 1.0, samples)
    x = x0 * s ** n
    y = np.sqrt(c * (1.0 - s * s))
    # exact start height on the zero-mass path, not sqrt(y0^2) roundoff
    y_start = start_height(n) if m0 == 0.0 else float(np.sqrt(c))
    y[0] = y_start
    return PhasePath(x=x, y=y, m0=m0, x0=x0, y0=y_start, n=n, ric0=ric0)


def volume_from_path(path: PhasePath) -> float:
    """Total volume 2 * integral dx / y along the path.

    Closed-form paths are integrated exactly: with x = u^n and
    u = u0 sin(theta) the half volume is n u0^(n-1) / sqrt(b) times
    int_0^(pi/2) sin^(n-1), b the mass coefficient.  Sampled paths
    integrate the monotone interpolant p of y^2 piece by piece as
    sqrt((x0 - x) / p(x)) (x0 - x)^(-1/2) with the fixed endpoint rule of
    ``quadrature``; the error is that of the interpolant.
    """
    if path.n is not None and path.ric0 is not None:
        n = path.n
        u0 = path.x0 ** (1.0 / n)
        with np.errstate(over="ignore"):
            half = (n * u0 ** (n - 1) / math.sqrt(mass_coefficient(n, path.ric0))
                    * sin_power_integral(n - 1, 0.5 * math.pi))
            if not np.isfinite(2.0 * half):
                raise NumericalError(
                    f"volume overflows a double at n = {n}, ric0 = {path.ric0:g}")
            if 2.0 * half < sys.float_info.min:
                raise NumericalError(
                    f"volume is below the normal doubles at n = {n}, ric0 = {path.ric0:g}")
    else:
        x0 = path.x0

        def g(x, spare, out):
            np.sqrt((x0 - x) / path.height_squared(x), out=out)

        half = sqrt_endpoint(g, path.x[:-1], path.x[1:], x0).sum()
    return float(2.0 * half)


def bishop_bound(n: int, ric0: float) -> float:
    """Sharp volume bound under Ric >= ric0: the zero-mass extremal volume.

    Larger mass shrinks the extremal volume, so the supremum over m0 >= 0
    sits at m0 = 0, where the path is the round sphere's and the value is the
    comparison sphere's volume.
    """
    return volume_from_path(extremal_path(n, ric0, 0.0))
