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
stationarity condition dV/dz = 0: a 20-point scan from z_lo to 4 pi, graded
toward the narrow interior peak near z_lo and clustered about its predicted
place, then two safeguarded root steps on dV/dz in one bracket per eps.  The
scan and the first step are one array call each over every eps and the
second step's point is taken unevaluated, so a sweep costs as many calls as
a single eps: two.

The supremum is usually displayed in a closed form that cannot be evaluated
as written: its switch point z^((4 pi - eps)/2) / (2 (1 - eps)) puts the
Gauss-Bonnet constant into an exponent, and ``as_written_bound`` proves that
on the whole bracket it lies past the path's end x = z^(3/2), by a factor of
more than 200, so the displayed integrals have no domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import NumericalError, ValidationError
from .phase_plane import start_height
from .quadrature import sin_power, sqrt_endpoint

__all__ = [
    "EULER_CHARACTERISTIC_SPHERE", "GAUSS_BONNET_TOTAL",
    "AlphaResult", "Epsilon0Bracket",
    "alpha_oracle", "as_written_bound", "epsilon0",
]

# Gauss-Bonnet total curvature of a connected genus-0 isoperimetric slice:
# 2 pi chi(S^2).  Named so the 4 pi in the scalar inequality is never inlined.
EULER_CHARACTERISTIC_SPHERE = 2
GAUSS_BONNET_TOTAL = 2.0 * math.pi * EULER_CHARACTERISTIC_SPHERE


# ---------------------------------------------------------------------------
# oracle: the two-leg extremal construction

_Y0_SQ = start_height(3) ** 2          # 36 pi
_Z_MAX = GAUSS_BONNET_TOTAL            # termination area of the round sphere
_ROUND_HALF_VOLUME = math.pi ** 2      # the half volume at z = 4 pi
# s = (z - z_lo) / (4 pi - z_lo) of the scan's graded points over the seed
# 0.14 eps^2 (1 + 5 eps), capped at 1/32: the powers of 2 from 1/16 to 16
# and a cluster about the seed, at which the interior peak lies up to eps0
# (its s is 0.98 seed at 1e-5, 0.94 at 0.05, 1.00 at 0.1345), so that the
# first + to - change of dV/dz falls between two cluster points, 1-2% of
# the seed apart.  No cluster point repeats the seed: a repeated point
# would hand Chandrupatla's step a repeated third point, which forces a
# bisection
_CLUSTER = np.array([0.90, 0.92, 0.94, 0.96, 0.98, 0.99, 1.01, 1.03])
_GRADED = np.sort(np.concatenate((2.0 ** np.arange(-4.0, 5.0), _CLUSTER)))
_STEPS = 2          # safeguarded steps on dV/dz, the last one unevaluated

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


def _switch_x(z, eps):
    """The switch abscissa x_sw, where the ricci leg meets the scalar leg."""
    return np.sqrt(z) * (_Z_MAX - z) / (2.0 * (1.0 - eps))


def _scalar_leg_integral(u0, length, k, excess):
    """dx/y along the scalar equality curve from u0 - length to its zero u0,
    in u = x^(1/3), u0 = sqrt(z), and its z-derivative at fixed w, given
    K and excess = 3 z - 4 pi.

    The height factors as y^2 = (u0 - u) Q(u) with Q(u) = 9 (u0 + u)
    - K / (u u0) smooth and positive, so the integral is
    int 3 u^2 Q(u)^(-1/2) (u0 - u)^(-1/2) du, which the fixed rule of
    ``quadrature`` integrates to double precision.  It is taken in
    v = u - u0 on [-length, 0], so that the leg's length enters exactly
    rather than as a difference of two numbers near u0.  At z = z_lo the
    leg has length zero and the rule returns exactly 0.  Near the switch at
    small eps, Q is about 18 eps u0, a difference of two terms near 18 u0
    as written; by K = 9 u0 (4 pi - z) it is the sum
    Q = 9 (excess + v (3 u0 + v)) / u, whose parts are each of Q's size.

    In the rule's variable w, u = u0 - w^2, the leg is 2 int 3 u^2 Q^(-1/2)
    dw.  Its integrand's z-derivative at fixed w is the second integrand on
    the same nodes, (3 u / u0) Q^(-3/2) (bracket + 9 u / 2
    - (K / (u u0)) (5 + u / u0) / 4), where bracket = 9 u0 + (dK/dz) / 2
    = 9 u0 - 9 excess / (4 u0).  Returns (leg, the integral over w of that
    derivative).
    """
    bracket = 9.0 * u0 - 2.25 * excess / u0

    def g(v, spare, out):
        # node-major and in place
        leg, slope = out
        np.multiply(u0, 3.0, out=leg)
        leg += v
        leg *= v
        leg += excess                        # Q u / 9
        np.add(v, u0, out=v)                 # u = u0 + v
        leg /= v
        leg *= 9.0                           # Q(u)
        np.multiply(v, u0, out=spare)
        np.divide(k, spare, out=spare)       # K / (u u0)
        np.divide(v, u0, out=slope)
        slope *= 0.25
        slope += 1.25
        slope *= spare
        np.multiply(v, 4.5, out=spare)
        spare += bracket
        spare -= slope
        spare *= v
        spare /= u0
        np.sqrt(leg, out=leg)                # sqrt(Q(u))
        np.multiply(leg, leg, out=slope)
        slope *= leg
        np.divide(spare, slope, out=slope)
        slope *= 3.0
        np.multiply(v, 3.0, out=spare)
        spare *= v
        np.divide(spare, leg, out=leg)

    return sqrt_endpoint(g, length)


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
        scale = 3.0 / b ** 1.5
        # the ricci leg is at most 36 pi scale, a double while b > 1.5e-204
        finite = np.isfinite(_Y0_SQ * scale).all()
    if not finite:
        raise NumericalError(f"alpha at eps = {float(np.min(eps))!r}: the ricci "
                             "leg's scale 3 / (9 eps)^(3/2) overflows a double")
    root_b = np.sqrt(b)
    # theta / u_sw at z = 4 pi, and factors of the slope's terms
    ratio_top, four_eps = root_b / math.sqrt(_Y0_SQ), 4.0 * eps

    def half_volume(z):
        # one expression per formula above, in its operation order
        z = np.asarray(z, dtype=float)
        root = np.sqrt(z)
        roots = root + root_lo
        d = z - z_lo
        delta = d / roots
        x_sw = root * (_Z_MAX - z) / two_gap
        near = x_sw > near_top
        # 1 - q, from d where q > 1/8
        one_minus_q = np.where(
            near, (root_lo * delta + d + slope_lo) * d / (roots * denominator),
            1.0 - x_sw / top)
        x_sw = np.where(near, top - top * one_minus_q, x_sw)
        u_sw = np.cbrt(x_sw)
        # 1 - r = (1 - q) / (1 + r + r^2)
        r = u_sw / root_lo
        one_plus_r = 1.0 + r
        one_minus_r = one_minus_q / (r * r + one_plus_r)
        # y_sw^2 = 36 pi (1 - r) (1 + r), as (27 - 18 eps) z_lo = 36 pi
        y_sq = 9.0 * _Z_MAX * one_minus_r * one_plus_r
        length = np.where(near, delta + root_lo * one_minus_r, root - u_sw)
        # ricci leg 3 c / b^(3/2) int_0^theta sin^2, c = b u_sw^2 + y_sw^2,
        # theta in [0, pi/2]
        y_sw = np.sqrt(y_sq)
        theta = np.arctan2(u_sw * root_b, y_sw)
        ricci_leg = (b * u_sw * u_sw + y_sq) * scale * sin_power(2, theta)
        # the slope's ricci and switch terms, from the docstring's formula
        excess = 3.0 * d + slope_lo          # 3 d + 2 eps z_lo = 3 z - 4 pi
        ratio = np.divide(theta, u_sw, out=np.full(theta.shape, ratio_top),
                          where=u_sw > 0.0)
        over_y = np.divide(d, y_sw, out=np.zeros_like(d), where=d > 0.0)
        slope = ((ratio * excess * (3.0 / root_b) - 9.0 * over_y) / four_eps
                 - z_lo / (6.0 * _Z_MAX) * y_sw) / root
        k = x_sw * nine_gap                  # K = 18 (1 - eps) x_sw
        scalar_leg, scalar_slope = _scalar_leg_integral(root, length, k, excess)
        volume = np.where(z == _Z_MAX, _ROUND_HALF_VOLUME, ricci_leg + scalar_leg)
        return volume, slope + scalar_slope

    return half_volume


class AlphaResult(NamedTuple):
    """What ``football-alpha`` prints: per eps, the volume ratio bound, its
    maximizer z and the switch point of the maximizing path; floats for one
    eps, 1-D arrays for a sequence."""

    epsilon: float | np.ndarray
    alpha_oracle: float | np.ndarray
    z_argmax: float | np.ndarray
    switch_x: float | np.ndarray


def _batch(epsilon):
    """epsilon as a new 1-D float array, and whether it was a single number."""
    eps = np.array(epsilon, dtype=float)
    if eps.ndim > 1:
        raise ValidationError("epsilon must be a number or a 1-D sequence")
    bad = eps[~((eps > 0.0) & (eps <= 1.0))].reshape(-1)
    if bad.size:
        raise ValidationError(f"epsilon must lie in (0, 1], got {float(bad[0])}")
    return eps.reshape(-1), eps.ndim == 0


def _scan(eps):
    """The supremum's scan, one increasing row of z per eps of a 1-D array:
    z_lo, the ``_GRADED`` points, s = 1/32 and 4 pi."""
    z_lo, z_hi = _z_bracket(eps)
    origin, span = z_lo[:, None], (z_hi - z_lo)[:, None]
    s = np.minimum((0.14 * eps * eps * (1.0 + 5.0 * eps))[:, None] * _GRADED,
                   1.0 / 32.0)
    return np.hstack((origin, origin + span * s, origin + span / 32.0,
                      np.full_like(origin, z_hi)))


def _supremum(eps):
    """Maximum of the half volume over z for each eps < 1 of a 1-D array:
    (maximum, argmax).

    dV/dz is pi / (4 sqrt(eps)) > 0 at z_lo.  Up to eps0 it turns negative
    past the interior peak, which from eps ~ 1e-7 on lies between two of the
    ``_CLUSTER`` points; above eps0 no z beats pi^2 at z = 4 pi.  So one
    call takes V and dV/dz at the 20 z per eps of ``_scan``.  The first + to
    - change of dV/dz brackets the peak (without one, as above eps ~ 0.252,
    the bracket is the point 4 pi).  From its ends and the point past it,
    gathered once, _STEPS steps of Chandrupatla's (1997) method on dV/dz in
    t = sqrt(z - z_lo), where dV/dz ~ a - b t is smooth, run on 1-D arrays:
    inverse quadratic interpolation where his test admits it, else
    bisection.  The last step's point is not evaluated: where it is an
    inverse quadratic step it is the argmax, elsewhere the end with the
    smaller |dV/dz| is.  The maximum is V at that end: after one step from
    a bracket 1-2% of the seed wide its z is within 3e-10 relative of the
    root, where V is flat.  The one evaluated step is one array call over
    every eps; a batch with no change makes none.
    """
    z = _scan(eps)
    origin, rows, last = z[:, 0], np.arange(eps.size), z.shape[1] - 1
    half_volume = _half_volume_at(eps[:, None])
    v, f = half_volume(z)               # V and dV/dz
    k = np.argmax(v, axis=-1)
    change = (f[:, :-1] > 0.0) & (f[:, 1:] <= 0.0)
    lo = np.where(change.any(axis=-1), np.argmax(change, axis=-1), last)
    hi = np.minimum(lo + 1, last)
    # Chandrupatla's points (z, dV/dz, V, t): p1 = (x1, f1, v1, t1) the newest,
    # p2 the bracket's other end, p3 the point last dropped, on p1's side
    columns = hi, lo, np.minimum(hi + 1, last)
    (x1, x2, x3), (f1, f2, f3) = ([a[rows, c] for c in columns] for a in (z, f))
    t1, t2, t3 = (np.sqrt(x - origin) for x in (x1, x2, x3))
    v1, v2, z_scan, f_scan = v[rows, hi], v[rows, lo], z[rows, k], v[rows, k]
    steps = _STEPS if change.any() else 0
    for step in range(steps):
        with np.errstate(divide="ignore", invalid="ignore"):
            xi, phi = (t1 - t2) / (t3 - t2), (f1 - f2) / (f3 - f2)
            t = (f1 / (f2 - f1) * f3 / (f2 - f3)
                 + (t3 - t1) / (t2 - t1) * f1 / (f3 - f1) * f2 / (f3 - f2))
        quadratic = (phi * phi < xi) & ((1.0 - phi) ** 2 < 1.0 - xi)
        t = t1 + (t2 - t1) * np.where(quadratic, t, 0.5)
        x = np.clip(origin + t * t, np.minimum(x1, x2), np.maximum(x1, x2))
        if step == steps - 1:
            break               # the last point is the argmax, not evaluated
        value, fx = (a[:, 0] for a in half_volume(x[:, None]))
        keep = (fx > 0.0) == (f1 > 0.0)
        f3, t3 = np.where(keep, f1, f2), np.where(keep, t1, t2)
        x2, f2, v2, t2 = (np.where(keep, p2, p1) for p1, p2 in
                          zip((x1, f1, v1, t1), (x2, f2, v2, t2)))
        x1, f1, v1, t1 = x, fx, value, np.sqrt(x - origin)
    near = np.abs(f1) <= np.abs(f2)
    z_best, f_best = np.where(near, x1, x2), np.where(near, v1, v2)
    if steps:
        z_best = np.where(quadratic, x, z_best)
    # a gain within roundoff of the scan's 4 pi is no gain (as eps -> 1, z an
    # ulp off 4 pi amplifies the switch point by 1 / (1 - eps)); elsewhere the
    # refined point wins unless it is below the scan's best beyond roundoff,
    # as below eps ~ 1e-7, where the peak is within a few ulps of z_lo
    roundoff = 4.0 * np.finfo(float).eps
    stay = np.where(z_scan == _Z_MAX, f_best <= f_scan * (1.0 + roundoff),
                    f_best < f_scan * (1.0 - roundoff))
    return np.where(stay, f_scan, f_best), np.where(stay, z_scan, z_best)


def alpha_oracle(epsilon) -> AlphaResult:
    """Sharp volume ratio bound alpha(eps) from the two-leg construction.

    epsilon is one number, giving an AlphaResult of floats, or a 1-D
    sequence, giving one of arrays in the same order; all eps of a sequence
    share each array call.
    """
    eps, single = _batch(epsilon)
    # eps within _NEAR_ONE of 1 is the round sphere, as eps = 1
    alpha, z_arg, x_sw = (np.full_like(eps, a) for a in (1.0, _Z_MAX, 0.0))
    inner = 1.0 - eps >= _NEAR_ONE
    if inner.any():
        e = eps[inner]
        best, z_arg[inner] = _supremum(e)
        alpha[inner], x_sw[inner] = best / math.pi ** 2, _switch_x(z_arg[inner], e)
    result = AlphaResult(eps, alpha, z_arg, x_sw)
    return AlphaResult(*(float(a[0]) for a in result)) if single else result


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
# the threshold constant


@dataclass
class Epsilon0Bracket:
    """Bisection bracket for the threshold where alpha first exceeds 1."""

    lo: float
    hi: float
    iterations: int
    method: str
    no_root: bool = False
    evaluations: list[tuple[float, float]] = field(default_factory=list)


_EPS0_SEARCH = (0.05, 0.5)


def epsilon0(method: str = "oracle", tol: float = 5e-4) -> Epsilon0Bracket:
    """Bracket the threshold eps0 by bisection on alpha(eps) - 1.

    The search interval, ``_EPS0_SEARCH``, starts below the known football
    excess region and at the proven upper bound 1/2.  The bracket narrows
    to tol or to adjacent doubles.  The verbatim formula cannot be
    evaluated at any eps (``as_written_bound``), so ``as-written`` reports
    no root at once.
    """
    if method == "as-written":
        return Epsilon0Bracket(lo=math.nan, hi=math.nan, iterations=0,
                               method=method, no_root=True)
    if method != "oracle":
        raise ValidationError(f"unknown method {method!r}: use oracle | as-written")

    lo, hi = _EPS0_SEARCH
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
