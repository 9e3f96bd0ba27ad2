"""Sharp volume bound for 3-manifolds under joint scalar and Ricci floors.

Normalization is the unit round 3-sphere: scalar floor R0 = 6, Ricci constant
Ric0 = 2, comparison volume V0 = 2 pi^2.  For a manifold with R >= 6 and
Ric >= eps * 2, the profile A(V) of isoperimetric regions obeys two
differential inequalities:

    ricci:   A'' <= -(1/A) (A'^2 / 2 + 2 eps)
    scalar:  A'' <= 4 pi / A^2 - (1/A) (3 A'^2 / 4 + 3)

(the 4 pi is the Gauss-Bonnet total 2 pi chi of a connected genus-0 slice).
In phase coordinates x = A^(3/2), y = dx/dV these transform to

    ricci:   d(y^2)/dx <= -6 eps x^(-1/3)
    scalar:  d(y^2)/dx <= (36 pi - y^2) / (3 x) - 9 x^(-1/3)

whose equality curves are

    ricci:   y^2 = 36 pi - m0 - 9 eps x^(2/3)          (constant ricci mass m0)
    scalar:  y^2 = 36 pi - 9 x^(2/3) - K x^(-1/3)      (constant scalar mass K)

with both masses nondecreasing along any admissible profile and vanishing at
V = 0 on smooth manifolds.  The volume-maximizing admissible path, for a
termination area z = A_max in [4 pi / (3 - 2 eps), 4 pi], descends fast near
x = 0 (scalar constraint slack there), rides the ricci equality curve up to
the switch

    x_sw = sqrt(z) (4 pi - z) / (2 (1 - eps)),

which is exactly where the scalar mass of the ricci leg peaks, and finishes
on the scalar equality curve through that point, which terminates at
x = z^(3/2).  Matching at the switch fixes

    m0 = 27 (1 - eps) x_sw^(2/3),      K = 18 (1 - eps) x_sw,

and the bound is

    alpha(eps) = sup_z (1/pi^2) [ I_ricci(0, x_sw) + I_scalar(x_sw, z^(3/2)) ]

with I_* the dx/y integrals along the legs.  At z = 4 pi / (3 - 2 eps) the
path is the pure ricci curve of the cone-point football family, value
1 / ((3 - 2 eps) sqrt(eps)); at z = 4 pi it is the round sphere, value 1.
The cone family crosses 1 at eps_c = (2 - sqrt(3)) / 2 ~ 0.1339746, where
3 - 2 eps = 1 + sqrt(3) and sqrt(eps) = (sqrt(3) - 1) / 2.  alpha(eps) = 1
exactly for eps above eps0 ~ 0.13472776, which lies above eps_c: between
the two an interior z still beats both ends.  alpha grows without bound as
eps -> 0, the long-cylinder regime.

The supremum over z is taken for a whole array of eps at once, from the
stationarity condition dV/dz = 0: a 33-point scan with points graded toward
the narrow interior peak near z_lo, then three safeguarded root steps on
dV/dz in two brackets per eps, each step one array call over every eps, so a
sweep costs as many calls as a single eps.

The supremum is usually displayed in a closed form that cannot be evaluated
as written: its switch point z^((4 pi - eps)/2) / (2 (1 - eps)) puts the
Gauss-Bonnet constant into an exponent, and ``as_written_bound`` proves that
on the whole bracket it lies past the path's end x = z^(3/2), by a factor of
more than 200, so the displayed integrals have no domain.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .errors import DomainError, NumericalError, ValidationError
from .phase_plane import PhasePath, extremal_path, start_height
from .quadrature import sqrt_endpoint
from .warped import curvature_bounds, cylinder, sin_squared_integral, total_volume

__all__ = [
    "EULER_CHARACTERISTIC_SPHERE", "GAUSS_BONNET_TOTAL",
    "R0_UNIT", "RIC0_UNIT", "V0_UNIT",
    "FootballSpec", "AlphaResult", "Epsilon0Bracket", "CylinderGrowth",
    "scalar_odi_rhs", "ricci_odi_rhs",
    "alpha_oracle", "alpha_result", "as_written_bound", "oracle_path",
    "epsilon0", "cylinder_growth",
]

# Gauss-Bonnet total curvature of a connected genus-0 isoperimetric slice:
# 2 pi chi(S^2).  Named so the 4 pi in the scalar inequality is never inlined.
EULER_CHARACTERISTIC_SPHERE = 2
GAUSS_BONNET_TOTAL = 2.0 * math.pi * EULER_CHARACTERISTIC_SPHERE

R0_UNIT = 6.0
RIC0_UNIT = 2.0
V0_UNIT = 2.0 * math.pi ** 2


@dataclass(frozen=True)
class FootballSpec:
    """Problem data: Ricci fraction eps in (0, 1] at unit-sphere normalization."""

    epsilon: float
    r0: float = R0_UNIT
    ric0: float = RIC0_UNIT
    v0: float = V0_UNIT

    def __post_init__(self):
        if not 0.0 < self.epsilon <= 1.0:
            raise ValidationError(f"epsilon must lie in (0, 1], got {self.epsilon}")


def scalar_odi_rhs(area: float, area_prime: float, r0: float = R0_UNIT) -> float:
    """Upper bound for A''(V) from the scalar curvature floor."""
    if area <= 0:
        raise DomainError(f"area must be positive, got {area}")
    return (GAUSS_BONNET_TOTAL / area ** 2
            - (0.75 * area_prime ** 2 + 0.5 * r0) / area)


def ricci_odi_rhs(area: float, area_prime: float, epsilon: float,
                  ric0: float = RIC0_UNIT) -> float:
    """Upper bound for A''(V) from the fractional Ricci floor."""
    if area <= 0:
        raise DomainError(f"area must be positive, got {area}")
    return -(0.5 * area_prime ** 2 + epsilon * ric0) / area


# ---------------------------------------------------------------------------
# oracle: the two-leg extremal construction

_Y0_SQ = start_height(3) ** 2          # 36 pi
_Z_MAX = GAUSS_BONNET_TOTAL            # termination area of the round sphere
_ROUND_HALF_VOLUME = math.pi ** 2      # the half volume at z = 4 pi
_SCAN = 33                             # z values scanned per eps
# s = (z - z_lo) / (4 pi - z_lo) of the graded points over the seed 0.14 eps^2
# (1 + 5 eps), within 10% of the interior peak's s up to eps0 (0.98 of it at
# 1e-5, 0.94 at 0.05, 1.00 at 0.1345)
_GRADED = 2.0 ** np.arange(-4.0, 5.0)
_STEPS = 3                             # safeguarded steps on dV/dz per bracket

# 1 - eps below which eps is taken as 1: the oracle returns the round
# sphere, the supremum for every eps above eps0 ~ 0.1347 (within 8e-15 of 1,
# where the bracket is about 100 ulps of 4 pi wide, the scan returned a z an
# ulp below 4 pi and a switch point amplified by 1 / (1 - eps)), and
# ``as_written_bound`` inf, as the verbatim switch divides by 2 (1 - eps).
_NEAR_ONE = 1e-12


def _z_bracket(eps):
    """(z_lo, 4 pi): the termination areas of the cone-point football and of
    the round sphere, z_lo elementwise over eps."""
    return _Z_MAX / (3.0 - 2.0 * eps), _Z_MAX


def _legs(z, eps):
    """Switch abscissa and the two leg constants (x_sw, m0, K)."""
    x_sw = np.sqrt(z) * (_Z_MAX - z) / (2.0 * (1.0 - eps))
    m0 = 27.0 * (1.0 - eps) * x_sw ** (2.0 / 3.0)
    k = 18.0 * (1.0 - eps) * x_sw
    return x_sw, m0, k


def _scalar_leg_integral(u0, length, k, bracket):
    """dx/y along the scalar equality curve from u0 - length to its zero u0,
    in u = x^(1/3), u0 = sqrt(z), and its z-derivative at fixed w.

    The height factors as y^2 = (u0 - u) Q(u) with Q(u) = 9 (u0 + u)
    - K / (u u0) smooth and positive, so the integral is
    int 3 u^2 Q(u)^(-1/2) (u0 - u)^(-1/2) du, which the fixed rule of
    ``quadrature`` integrates to double precision.  It is taken in
    v = u - u0 on [-length, 0], so that the leg's length enters exactly
    rather than as a difference of two numbers near u0.  At z = z_lo the
    leg has length zero and the rule returns exactly 0.

    In the rule's variable w, u = u0 - w^2, the leg is 2 int 3 u^2 Q^(-1/2)
    dw.  Its integrand's z-derivative at fixed w is the second integrand on
    the same nodes, (3 u / u0) Q^(-3/2) (bracket + 9 u / 2
    - (K / (u u0)) (5 + u / u0) / 4), given bracket = 9 u0 + (dK/dz) / 2.
    Returns (leg, the integral over w of that derivative).
    """
    def g(u, spare, out):
        # node-major and in place; the leg keeps the order of 3 u^2 / sqrt(Q(u))
        leg, slope = out
        np.add(u, u0, out=u)                 # u = u0 + v
        np.multiply(u, u0, out=spare)
        np.divide(k, spare, out=spare)       # K / (u u0)
        np.divide(u, u0, out=leg)
        leg *= 0.25
        leg += 1.25
        leg *= spare
        np.multiply(u, 4.5, out=slope)
        slope += bracket
        slope -= leg
        slope *= u
        slope /= u0
        np.add(u, u0, out=leg)
        leg *= 9.0
        leg -= spare
        np.sqrt(leg, out=leg)                # sqrt(Q(u))
        np.multiply(leg, leg, out=spare)
        spare *= leg
        slope /= spare
        slope *= 3.0
        np.multiply(u, 3.0, out=spare)
        spare *= u
        np.divide(spare, leg, out=leg)

    return sqrt_endpoint(g, -length, 0.0, 0.0, integrands=2)


def _half_volume_at(eps):
    """The half-volume bound V and its slope dV/dz as functions of
    termination areas z in [z_lo, 4 pi], at Ricci fractions eps < 1 that
    broadcast against z; the terms that depend on eps alone are computed
    once.

    The ricci leg y^2 = c - b u^2, b = 9 eps, u = x^(1/3), runs from 0 to
    u_sw = x_sw^(1/3); u = sqrt(c/b) sin(theta) makes it
    3 c / b^(3/2) int_0^theta sin^2 with tan(theta) = u_sw sqrt(b) / y_sw.
    Near z_lo = 4 pi / (3 - 2 eps) the switch nears that curve's own zero,
    where theta -> pi/2 and arcsin would lose half the digits, and c, y_sw^2
    and the scalar leg's length sqrt(z) - u_sw are differences of nearly
    equal numbers.  With q = x_sw / z_lo^(3/2), r = q^(1/3) and
    36 pi = 9 (3 - 2 eps) z_lo they are sums of nonnegative terms:

        c = b u_sw^2 + y_sw^2,   y_sw^2 = 36 pi (1 - r^2),
        1 - r^2 = (1 - q) (1 + r) / (1 + r + r^2),
        sqrt(z) - u_sw = delta + sqrt(z_lo) (1 - q) / (1 + r + r^2),

    and where q > 1/8, 1 - q itself comes from d = z - z_lo,

        1 - q = d (d + sqrt(z_lo) delta + 2 eps z_lo)
                / (2 (1 - eps) z_lo^(3/2) (sqrt(z) + sqrt(z_lo))),

    with delta = sqrt(z) - sqrt(z_lo) = d / (sqrt(z) + sqrt(z_lo)); x_sw is
    then z_lo^(3/2) q, so that both legs see the same z.  Elsewhere 1 - q
    and sqrt(z) - u_sw are computed as written.  At z = 4 pi (x_sw = 0) the
    ricci leg is empty and the value is the round sphere's closed form,
    int_0^sqrt(4 pi) u^2 (4 pi - u^2)^(-1/2) du = pi^2, whatever the
    rounding of the rule's weights.

    The slope.  K = 18 (1 - eps) x_sw = 9 u0 (4 pi - z), u0 = sqrt(z), so
    dK/dz = -9 (3 d + 2 eps z_lo) / (2 u0), and c = 36 pi - m0 moves by
    dc/dz = -(dK/dz) / u_sw.  The ricci leg's derivative in c at fixed u_sw
    is -(3 / (2 b^(3/2))) (tan(theta) - theta); the scalar leg, in w, moves
    its end w = sqrt(length) and its integrand.  The two boundary terms at
    the switch, 3 u_sw^2 / y_sw du_sw/dz, cancel; the tan(theta) term and
    the scalar end's 3 u_sw^2 / (2 u0 y_sw) combine, by
    z_lo - u_sw^2 = z_lo (1 - r^2), into terms with no 1 / y_sw left:

        dV/dz = [ (3 d + 2 eps z_lo) theta / (sqrt(eps) u_sw)
                  - 9 d / y_sw ] / (4 eps u0)
                - z_lo y_sw / (24 pi u0) + (scalar leg's integrand term),

    where d / y_sw -> 0 at z_lo (y_sw^2 is d times a positive factor) and
    theta / u_sw -> sqrt(b) / y_sw at z = 4 pi, both taken as those limits.
    At z_lo the slope is pi / (4 sqrt(eps)).
    """
    z_lo = _Z_MAX / (3.0 - 2.0 * eps)
    two_gap = 2.0 * (1.0 - eps)
    nine_gap = 9.0 * two_gap
    root_lo = np.sqrt(z_lo)
    top = z_lo * root_lo
    near_top, slope_lo, denominator = top / 8.0, eps * 2.0 * z_lo, two_gap * top
    b = 9.0 * eps
    with np.errstate(divide="ignore", over="ignore"):
        # at one eps a numpy scalar's power, C's pow as for a float's b ** 1.5;
        # numpy's array power rounds about 1 b in 20 an ulp apart from it
        scale = 3.0 / np.asarray(b)[()] ** 1.5
        # the ricci leg is at most 36 pi scale, a double while b > 1.5e-204
        finite = np.isfinite(_Y0_SQ * scale).all()
    if not finite:
        raise NumericalError(f"alpha at eps = {float(np.min(eps))!r}: the ricci "
                             "leg's scale 3 / (9 eps)^(3/2) overflows a double")
    root_b = np.sqrt(b)
    # theta / u_sw at z = 4 pi, and factors of the slope's terms
    ratio_top, four_eps = root_b / math.sqrt(_Y0_SQ), 4.0 * eps

    single = np.ndim(eps) == 0

    def half_volume(z):
        # in place where the shapes allow, and each name dropped after its
        # last use, so that few batch-sized arrays are alive at once; every
        # step keeps the operation order of the formulas above
        z = np.asarray(z, dtype=float)
        if single and z.ndim == 0:
            return tuple(a[0] for a in half_volume(z.reshape(1)))
        root = np.sqrt(z)
        roots = root + root_lo
        d = z - z_lo
        delta = d / roots
        x_sw = root * (_Z_MAX - z) / two_gap
        near = x_sw > near_top
        # 1 - q, from d where q > 1/8
        one_minus_q = 1.0 - x_sw / top
        from_d = root_lo * delta
        from_d += d
        from_d += slope_lo
        from_d *= d
        roots *= denominator
        from_d /= roots
        np.copyto(one_minus_q, from_d, where=near)
        del roots, from_d
        np.copyto(x_sw, top - top * one_minus_q, where=near)
        u_sw = np.cbrt(x_sw)
        # 1 - r = (1 - q) / (1 + r + r^2)
        r = u_sw / root_lo
        one_plus_r = 1.0 + r
        r *= r
        r += one_plus_r
        one_minus_r = one_minus_q / r
        del one_minus_q, r
        # y_sw^2 = 36 pi (1 - r) (1 + r), as (27 - 18 eps) z_lo = 36 pi
        y_sq = 9.0 * _Z_MAX * one_minus_r
        y_sq *= one_plus_r
        length = root - u_sw
        np.copyto(length, delta + root_lo * one_minus_r, where=near)
        del near, delta, one_minus_r, one_plus_r
        # ricci leg 3 c / b^(3/2) int_0^theta sin^2, c = b u_sw^2 + y_sw^2
        y_sw = np.sqrt(y_sq)
        theta = np.arctan2(u_sw * root_b, y_sw)
        ricci_leg = b * u_sw
        ricci_leg *= u_sw
        ricci_leg += y_sq
        ricci_leg *= scale
        del y_sq
        # the slope's ricci and switch terms, from the docstring's formula
        excess = 3.0 * d + slope_lo          # 3 d + 2 eps z_lo = 3 z - 4 pi
        slope = np.divide(theta, u_sw, out=np.full(theta.shape, ratio_top),
                          where=u_sw > 0.0)
        slope = (slope * excess * (3.0 / root_b)
                 - 9.0 * np.divide(d, y_sw, out=d, where=d > 0.0)) / four_eps
        slope = (slope - z_lo / (6.0 * _Z_MAX) * y_sw) / root
        del d, u_sw, y_sw
        ricci_leg *= sin_squared_integral(theta)     # theta in [0, pi/2]
        del theta
        x_sw *= nine_gap                     # K = 18 (1 - eps) x_sw
        bracket = 9.0 * root - 2.25 * excess / root  # 9 u0 + (dK/dz) / 2
        scalar_leg, scalar_slope = _scalar_leg_integral(root, length, x_sw, bracket)
        del root, length, x_sw, excess, bracket
        ricci_leg += scalar_leg
        np.copyto(ricci_leg, _ROUND_HALF_VOLUME, where=z == _Z_MAX)
        slope += scalar_slope
        return ricci_leg, slope

    return half_volume


@dataclass
class AlphaResult:
    """Volume ratio bound at one eps, its maximizer and its path's constants."""

    epsilon: float
    alpha_oracle: float = math.nan
    z_argmax: float = math.nan
    switch_x: float = math.nan
    ricci_mass_const: float = math.nan
    scalar_mass_const: float = math.nan
    multimodal: bool = False
    # a thunk of the batch's sign counts, cached on first read, and the row
    _signs: Callable = field(default=lambda: (None,), repr=False, compare=False)
    _row: int = field(default=0, repr=False, compare=False)

    @property
    def rhs_sign_changes(self) -> int | None:
        """Sign changes of (scalar - ricci) descent bounds along the path."""
        return self._signs()[self._row]


def _batch(epsilon):
    """epsilon as a 1-D float array, and whether it was a single number."""
    eps = np.asarray(epsilon, dtype=float)
    if eps.ndim > 1:
        raise ValidationError("epsilon must be a number or a 1-D sequence")
    bad = eps[~((eps > 0.0) & (eps <= 1.0))].reshape(-1)
    if bad.size:
        raise ValidationError(f"epsilon must lie in (0, 1], got {float(bad[0])}")
    return eps.reshape(-1), eps.ndim == 0


def _grid(lo, hi, num: int, out=None):
    """num evenly spaced points from lo to hi on a new last axis, both ends
    exact (hi is 4 pi on the last cell, where x_sw must be exactly 0),
    written into out when it is given."""
    lo = np.asarray(lo, dtype=float)
    z = np.multiply(((hi - lo) / (num - 1))[..., None], np.arange(num), out=out)
    z += lo[..., None]
    z[..., -1] = hi
    return z


def _supremum(eps):
    """Maximum of the half volume over z for each eps < 1 of a 1-D array:
    (maximum, argmax, whether the scan saw more than one interior peak).

    One call takes V and dV/dz on a 33-point scan, which carries the z = 4 pi
    end and the multimodal flag, and on the ``_GRADED`` points around the
    narrow interior peak, in the first scan cell.  Two brackets per eps: the
    first + to - sign change of dV/dz (the interior peak nearest z_lo), and
    the side of the argmax that dV/dz points to (one point at an end
    maximum).  Each takes _STEPS steps of Chandrupatla's (1997) method on
    dV/dz in t = sqrt(z - z_lo), where dV/dz ~ a - b t is smooth: inverse
    quadratic interpolation where his test admits it, else bisection.  The
    end with the smaller |dV/dz| is a bracket's argmax.  Each step is one
    array call over every eps and both brackets.
    """
    z_lo, z_hi = _z_bracket(eps)
    origin, rows = z_lo[:, None], np.arange(eps.size)[:, None]
    half_volume = _half_volume_at(eps[:, None])
    scan = _grid(z_lo, z_hi, _SCAN)
    s = np.minimum((0.14 * eps * eps * (1.0 + 5.0 * eps))[:, None] * _GRADED,
                   1.0 / (_SCAN - 1))       # in the first scan cell, in order
    graded = origin + (z_hi - z_lo)[:, None] * s
    z = np.concatenate((scan[:, :1], graded, scan[:, 1:]), axis=1)
    del scan, s, graded             # few batch-sized arrays alive per call
    f, slope = half_volume(z)
    vals = np.concatenate((f[:, :1], f[:, _GRADED.size + 1:]), axis=1)   # scan values
    interior = vals[:, 1:-1]
    peaks = np.sum((interior > vals[:, :-2]) & (interior > vals[:, 2:]), axis=-1)
    k, last = np.argmax(f, axis=-1)[:, None], z.shape[1] - 1
    change = (slope[:, :-1] > 0.0) & (slope[:, 1:] <= 0.0)
    first = np.argmax(change, axis=-1)[:, None]
    first = np.where(change[rows, first], first, last)
    side = slope[rows, k]
    lo = np.hstack((k - ((side < 0.0) & (k > 0)), first))
    hi = np.hstack((k + ((side > 0.0) & (k < last)), np.minimum(first + 1, last)))
    # Chandrupatla's points as rows (z, dV/dz, V, t): p1 the newest, p2 the
    # bracket's other end, p3 the point last dropped, on p1's side
    table = np.stack((z, slope, f, np.sqrt(z - origin)))
    z_scan, f_scan = z[rows, k][:, 0], f[rows, k][:, 0]
    p1, p2, p3 = (table[:, rows, i] for i in (hi, lo, np.minimum(hi + 1, last)))
    del z, f, slope, vals, interior, table
    for _ in range(_STEPS):
        (x1, f1, _, t1), (x2, f2, _, t2), (_, f3, _, t3) = p1, p2, p3
        with np.errstate(divide="ignore", invalid="ignore"):
            xi, phi = (t1 - t2) / (t3 - t2), (f1 - f2) / (f3 - f2)
            t = (f1 / (f2 - f1) * f3 / (f2 - f3)
                 + (t3 - t1) / (t2 - t1) * f1 / (f3 - f1) * f2 / (f3 - f2))
        t = t1 + (t2 - t1) * np.where(
            (phi * phi < xi) & ((1.0 - phi) ** 2 < 1.0 - xi), t, 0.5)
        x = np.clip(origin + t * t, np.minimum(x1, x2), np.maximum(x1, x2))
        value, fx = half_volume(x)
        keep = (fx > 0.0) == (f1 > 0.0)
        p3, p2 = np.where(keep, p1, p2), np.where(keep, p2, p1)
        p1 = np.stack((x, fx, value, np.sqrt(x - origin)))
    best = np.where(np.abs(p1[1]) <= np.abs(p2[1]), p1, p2)
    pick = np.argmax(best[2], axis=-1)[:, None]
    z_best, f_best = best[0][rows, pick][:, 0], best[2][rows, pick][:, 0]
    # a gain within roundoff of the scan's 4 pi is no gain (as eps -> 1, z an
    # ulp off 4 pi amplifies the switch point by 1 / (1 - eps)); elsewhere the
    # refined point wins unless it is below the scan's best beyond roundoff
    roundoff = 4.0 * np.finfo(float).eps
    stay = np.where(z_scan == z_hi, f_best <= f_scan * (1.0 + roundoff),
                    f_best < f_scan * (1.0 - roundoff))
    return np.where(stay, f_scan, f_best), np.where(stay, z_scan, z_best), peaks > 1


def _rhs_difference_sign_changes(eps, z, num: int = 401):
    """Sign changes of (scalar - ricci) phase-space descent bounds along the
    oracle path at each (eps, z) of two 1-D arrays; exactly one for eps < 1
    on interior z.  A zero takes the sign before it, so only strict changes
    count."""
    x_sw, m0, _k = _legs(z, eps)
    e, x_sw, m0 = eps[:, None], x_sw[:, None], m0[:, None]
    xs = _grid(z ** 1.5 * 1e-6, z ** 1.5 * (1 - 1e-9), num)
    u = np.cbrt(xs)
    x_m1_3, u = 1.0 / u, u * u               # x^(-1/3), x^(2/3)
    # y^2 = Y0^2 - m0 - 9 eps x^(2/3) up to x_sw, and beyond it
    # Y0^2 - 9 x^(2/3) - 18 (1 - eps) x_sw x^(-1/3)
    y_sq = np.where(xs <= x_sw, (_Y0_SQ - m0) - 9.0 * e * u,
                    (_Y0_SQ - 9.0 * u) - 18.0 * (1.0 - e) * x_sw * x_m1_3)
    # scalar - ricci = (Y0^2 - y^2) / (3 x) - 9 x^(-1/3) - (-6 eps x^(-1/3))
    signs = np.sign((_Y0_SQ - y_sq) / (3.0 * xs) - 9.0 * x_m1_3 - -6.0 * e * x_m1_3)
    last = np.maximum.accumulate((signs != 0) * np.arange(num), axis=-1)
    filled = np.take_along_axis(signs, last, axis=-1)
    return np.count_nonzero(filled[:, 1:] * filled[:, :-1] < 0, axis=-1)


def alpha_oracle(epsilon):
    """Sharp volume ratio bound alpha(eps) from the two-leg construction.

    epsilon is one number, giving one AlphaResult, or a 1-D sequence, giving
    a list in the same order; all eps of a sequence share each array call.
    """
    eps, single = _batch(epsilon)
    results = [AlphaResult(epsilon=float(e)) for e in eps]
    inner = 1.0 - eps >= _NEAR_ONE
    if inner.any():
        e = eps[inner]
        best, z_arg, multimodal = _supremum(e)
        x_sw, m0, k = _legs(z_arg, e)
        signs = cache(lambda: _rhs_difference_sign_changes(e, z_arg).tolist())
        rows = zip(best.tolist(), z_arg.tolist(), x_sw.tolist(), m0.tolist(),
                   k.tolist(), multimodal.tolist())
        for j, (i, row) in enumerate(zip(np.flatnonzero(inner), rows)):
            r = results[i]
            (value, r.z_argmax, r.switch_x, r.ricci_mass_const,
             r.scalar_mass_const, r.multimodal) = row
            r.alpha_oracle, r._signs, r._row = value / math.pi ** 2, signs, j
    for i in np.flatnonzero(~inner):
        # eps within _NEAR_ONE of 1: the round sphere
        results[i] = AlphaResult(
            results[i].epsilon, alpha_oracle=1.0, z_argmax=_Z_MAX, switch_x=0.0,
            ricci_mass_const=0.0, scalar_mass_const=0.0, _signs=lambda: (0,))
    return results[0] if single else results


def alpha_result(epsilon):
    """The values ``football-alpha`` prints: ``alpha_oracle`` at each eps.

    epsilon is one number or a 1-D sequence, as for ``alpha_oracle``.
    """
    return alpha_oracle(epsilon)


def oracle_path(epsilon: float, z: float | None = None,
                samples: int = 1025) -> PhasePath:
    """Phase-plane samples of the oracle's extremal path at (eps, z).

    z defaults to the maximizer.  At eps = 1 the path is the zero-mass
    round-sphere extremal, closed form included.
    """
    if epsilon == 1.0:
        return extremal_path(3, RIC0_UNIT, 0.0, samples=samples)
    if z is None:
        z = alpha_oracle(epsilon).z_argmax
    x_sw, m0, k = (float(v) for v in _legs(z, epsilon))
    u0 = math.sqrt(z)
    u_sw = min(float(np.cbrt(x_sw)), u0)
    c = _Y0_SQ - m0
    # each leg is sampled in the variable that makes it smooth, u = x^(1/3):
    # the ricci leg y^2 = c - 9 eps u^2 as u = sqrt(c / (9 eps)) sin(theta),
    # the scalar leg y^2 = (u0 - u) Q(u) as u = u0 - w^2.  An empty leg gets
    # no samples: the ricci leg at z = 4 pi, the scalar leg at z = z_lo.
    n_ricci = 0 if u_sw == 0.0 else samples - 1 if u_sw == u0 else samples // 2
    u_e = math.sqrt(c / (9.0 * epsilon))
    theta = (math.asin(min(u_sw / u_e, 1.0))
             * np.linspace(0.0, 1.0, n_ricci, endpoint=False))
    w = math.sqrt(u0 - u_sw) * np.linspace(1.0, 0.0, samples - n_ricci)
    u = u0 - w * w
    q = 9.0 * (u0 + u) - (k / (u * u0) if k else 0.0)
    x = np.concatenate([(u_e * np.sin(theta)) ** 3, u ** 3])
    x[-1] = z ** 1.5
    y = np.concatenate([math.sqrt(c) * np.cos(theta), w * np.sqrt(q)])
    return PhasePath(x=x, y=y, m0=m0, x0=x[-1], y0=math.sqrt(c))


# ---------------------------------------------------------------------------
# the published closed form cannot be evaluated as written


def as_written_bound(epsilon):
    """Least ratio of the published switch point to the path's end: the
    minimum over z in [z_lo, 4 pi] of y(z) / z^(3/2), with the verbatim
    y(z) = z^((4 pi - eps) / 2) / (2 (1 - eps)).

    The ratio is z^((4 pi - eps - 3) / 2) / (2 (1 - eps)), increasing in z,
    so the minimum is its value at z_lo = 4 pi / (3 - 2 eps), at least
    (4 pi / 3)^4.28 / 2 > 200 for every eps in (0, 1).  So the verbatim
    switch lies past the end x = z^(3/2) of every admissible path and the
    displayed integrals have no domain.  inf where 1 - eps < ``_NEAR_ONE``.

    epsilon is one number, giving a float, or a 1-D sequence, giving an
    array in the same order.
    """
    eps, single = _batch(epsilon)
    # the verbatim exponent (4 pi - eps) / 2 as it rounds, less 3/2 exactly
    power = 0.5 * ((_Z_MAX - eps) - 3.0)
    with np.errstate(divide="ignore"):
        bound = _z_bracket(eps)[0] ** power / (2.0 * (1.0 - eps))
    bound[1.0 - eps < _NEAR_ONE] = math.inf
    return float(bound[0]) if single else bound


# ---------------------------------------------------------------------------
# the threshold constant and the cylinder counterexample


@dataclass
class Epsilon0Bracket:
    """Bisection bracket for the threshold where alpha first exceeds 1."""

    lo: float
    hi: float
    iterations: int
    method: str
    no_root: bool = False
    evaluations: list[tuple[float, float]] = field(default_factory=list)


def epsilon0(method: str = "oracle", tol: float = 5e-4,
             search: tuple[float, float] = (0.05, 0.5)) -> Epsilon0Bracket:
    """Bracket the threshold eps0 by bisection on alpha(eps) - 1.

    The search interval starts below the known football excess region and at
    the proven upper bound 1/2.  The bracket narrows to tol or to adjacent
    doubles.  The verbatim formula cannot be evaluated at any eps
    (``as_written_bound``), so ``as-written`` reports no root at once.
    """
    if method in ("as_written", "as-written"):
        return Epsilon0Bracket(lo=math.nan, hi=math.nan, iterations=0,
                               method=method, no_root=True)
    if method != "oracle":
        raise ValidationError(f"unknown method {method!r}: use oracle | as-written")

    lo, hi = search
    evals = []

    def above(eps: float) -> bool:
        a = alpha_oracle(eps).alpha_oracle
        evals.append((eps, a))
        return a > 1.0

    if not above(lo) or above(hi):
        return Epsilon0Bracket(lo=math.nan, hi=math.nan, iterations=0,
                               method=method, no_root=True, evaluations=evals)
    iterations = 0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:       # adjacent doubles
            break
        if above(mid):
            lo = mid
        else:
            hi = mid
        iterations += 1
    return Epsilon0Bracket(lo=lo, hi=hi, iterations=iterations, method=method,
                           evaluations=evals)


@dataclass(frozen=True)
class CylinderGrowth:
    length: float
    volume: float
    ric_inf: float
    scalar_inf: float


def cylinder_growth(lengths, radius: float = 1.0) -> list[CylinderGrowth]:
    """Volumes and curvature infima of unit-sphere cylinders [0, N] x S^2.

    Volume grows linearly in N while the minimal Ricci eigenvalue stays 0, so
    no positive Ricci fraction is ever satisfied: the scalar floor alone
    cannot bound volume.
    """
    lengths = list(lengths)
    if any(l <= 0 for l in lengths):
        raise ValidationError("cylinder lengths must be positive")
    if any(b <= a for a, b in zip(lengths, lengths[1:])):
        raise ValidationError("cylinder lengths must be increasing")
    rows = []
    for length in lengths:
        metric = cylinder(radius, float(length))
        with np.errstate(over="ignore"):
            vol = total_volume(metric)
        if not math.isfinite(vol):
            raise NumericalError(
                f"cylinder volume overflows a double at length {length:g}")
        bounds = curvature_bounds(metric, grid_size=65)
        rows.append(CylinderGrowth(length=float(length), volume=vol,
                                   ric_inf=bounds.ric_min,
                                   scalar_inf=bounds.scalar_min))
    return rows
