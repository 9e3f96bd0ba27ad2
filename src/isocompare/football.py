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
alpha(eps) = 1 exactly for eps above a constant near 0.1347 and grows without
bound as eps -> 0, the long-cylinder regime.

The supremum over z is taken for a whole array of eps at once: a 33-point
scan, fixed zoom rounds into two brackets per eps (the scan argmax's
neighbours, and the first scan cell, where a narrow interior peak sits near
the threshold) and a least-squares parabola vertex, each step one array call
over every eps, so a sweep costs as many calls as a single eps.

``alpha_as_written`` audits a verbatim transcription of the closed form this
supremum is usually displayed as; the transcribed switch-point formula is
dimensionally garbled, so every domain violation it incurs is recorded and
reported against the oracle rather than patched.  A violation is kept as a
kind and the numbers of its scan point; its message is formatted only when
read, and the CLI prints a count per kind and the first message per eps.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, NumericalError, ValidationError
from .phase_plane import PhasePath, extremal_path, start_height
from .quadrature import sqrt_endpoint
from .warped import curvature_bounds, cylinder, sin_power_integral, total_volume

__all__ = [
    "EULER_CHARACTERISTIC_SPHERE", "GAUSS_BONNET_TOTAL",
    "R0_UNIT", "RIC0_UNIT", "V0_UNIT",
    "FootballSpec", "AlphaResult", "DomainViolations", "Epsilon0Bracket",
    "CylinderGrowth",
    "scalar_odi_rhs", "ricci_odi_rhs",
    "alpha_oracle", "alpha_as_written", "alpha_result", "oracle_path",
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
_SCAN = 33                             # z values scanned per eps
_ZOOM = 17                             # z values per bracket in a zoom round
_STOP = 1e-6                           # z spacing at which zooming stops
# A round narrows each bracket to the two cells around its argmax, so the
# spacing falls by (_ZOOM - 1) / 2 per round.  The round count is set by the
# widest first bracket, two scan cells at eps -> 0, so that every eps of a
# batch gets the same rounds and no result depends on the rest of its batch.
# Final spacings then lie between _STOP / 8 and _STOP, where the vertex of
# the last round's parabola is off the argmax by about 1e-10 at eps = 0.05:
# the fit's cubic bias grows as spacing^2 (6e-9 at 8e-6) and its roundoff
# as 1 / spacing^2 (2e-9 at 6e-8).
_ROUNDS = 1 + math.ceil(
    math.log(2.0 * (_Z_MAX - _Z_MAX / 3.0) / (_SCAN - 1) / (_ZOOM - 1) / _STOP)
    / math.log((_ZOOM - 1) / 2))

# 1 - eps below which both routes take eps as 1.  The oracle returns the
# round sphere, the supremum for every eps above eps0 ~ 0.1347: within 8e-15
# of 1, where the bracket is about 100 ulps of 4 pi wide, the scan returned
# a z an ulp below 4 pi and a switch point amplified by 1 / (1 - eps).  The
# verbatim switch formula divides by 2 (1 - eps).
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


def _power_arc_integral(c, b: float, u):
    """int_0^u 3 v^2 (c - b v^2)^(-1/2) dv in closed form: with
    v = sqrt(c/b) sin(theta) it is 3 c / b^(3/2) int sin^2(theta) dtheta.
    c and b must be positive."""
    theta = np.arcsin(np.minimum(u * np.sqrt(b / c), 1.0))
    return 3.0 * c / b ** 1.5 * sin_power_integral(2, theta)


def _scalar_leg_integral(u0, length, k):
    """dx/y along the scalar equality curve from u0 - length to its zero u0,
    in u = x^(1/3), u0 = sqrt(z).

    The height factors as y^2 = (u0 - u) Q(u) with Q(u) = 9 (u0 + u)
    - K / (u u0) smooth and positive, so the integral is
    int 3 u^2 Q(u)^(-1/2) (u0 - u)^(-1/2) du, which the fixed rule of
    ``quadrature`` integrates to double precision.  It is taken in
    v = u - u0 on [-length, 0], so that the leg's length enters exactly
    rather than as a difference of two numbers near u0.  At z = z_lo the
    leg has length zero and the rule returns exactly 0.
    """
    u0_, k_ = np.asarray(u0)[..., None], np.asarray(k)[..., None]

    def g(v):
        u = u0_ + v
        return 3.0 * u * u / np.sqrt(9.0 * (u0_ + u) - k_ / (u * u0_))

    return sqrt_endpoint(g, -length, 0.0, 0.0)


def _half_volume_at(eps):
    """The half-volume bound as a function of termination areas z in
    [z_lo, 4 pi], at Ricci fractions eps < 1 that broadcast against z; the
    terms that depend on eps alone are computed once.

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
    and sqrt(z) - u_sw are computed as written, which keeps the whole
    round-sphere leg at z = 4 pi (x_sw = 0) exact.
    """
    z_lo = _Z_MAX / (3.0 - 2.0 * eps)
    two_gap = 2.0 * (1.0 - eps)
    root_lo = np.sqrt(z_lo)
    top = z_lo * root_lo
    near_top, slope_lo, denominator = top / 8.0, eps * 2.0 * z_lo, two_gap * top
    b = 9.0 * eps
    root_b, scale = np.sqrt(b), 3.0 / b ** 1.5

    def half_volume(z):
        z = np.asarray(z, dtype=float)
        root = np.sqrt(z)
        roots = root + root_lo
        x_sw = root * (_Z_MAX - z) / two_gap
        near = x_sw > near_top
        d = z - z_lo
        delta = d / roots
        one_minus_q = np.where(
            near, d * (d + root_lo * delta + slope_lo) / (denominator * roots),
            1.0 - x_sw / top)
        x_sw = np.where(near, top - top * one_minus_q, x_sw)
        u_sw = np.cbrt(x_sw)
        r = u_sw / root_lo
        one_minus_r = one_minus_q / (1.0 + r + r * r)
        # (27 - 18 eps) z_lo = 36 pi
        y_sq = 9.0 * _Z_MAX * one_minus_r * (1.0 + r)
        theta = np.arctan2(u_sw * root_b, np.sqrt(y_sq))
        ricci_leg = scale * (b * u_sw * u_sw + y_sq) * sin_power_integral(2, theta)
        length = np.where(near, delta + root_lo * one_minus_r, root - u_sw)
        return ricci_leg + _scalar_leg_integral(root, length, 9.0 * two_gap * x_sw)

    return half_volume


@dataclass
class AlphaResult:
    """Volume ratio bound at one eps, oracle and verbatim-formula values."""

    epsilon: float
    alpha_oracle: float = math.nan
    alpha_as_written: float = math.nan
    z_argmax: float = math.nan
    discrepancy: float = math.nan
    switch_x: float = math.nan
    ricci_mass_const: float = math.nan
    scalar_mass_const: float = math.nan
    rhs_sign_changes: int | None = None
    multimodal: bool = False
    degenerate_formula: bool = False
    domain_violations: Sequence[str] = ()
    z_argmax_as_written: float = math.nan


def _batch(epsilon):
    """epsilon as a 1-D float array, and whether it was a single number."""
    eps = np.asarray(epsilon, dtype=float)
    if eps.ndim > 1:
        raise ValidationError("epsilon must be a number or a 1-D sequence")
    bad = eps[~((eps > 0.0) & (eps <= 1.0))].reshape(-1)
    if bad.size:
        raise ValidationError(f"epsilon must lie in (0, 1], got {float(bad[0])}")
    return eps.reshape(-1), eps.ndim == 0


def _unbatch(results: list, single: bool):
    return results[0] if single else results


def _grid(lo, hi, num: int):
    """num evenly spaced points from lo to hi on a new last axis, both ends
    exact (hi is 4 pi on the last cell, where x_sw must be exactly 0)."""
    lo = np.asarray(lo, dtype=float)
    z = lo[..., None] + ((hi - lo) / (num - 1))[..., None] * np.arange(num)
    z[..., -1] = hi
    return z


# 5-point least-squares parabola on equal spacing, f ~ c0 + c1 t + c2 t^2 at
# t = -2..2: the closed-form normal equations give c1 and c2 as these weights
_SLOPE = np.array([-2.0, -1.0, 0.0, 1.0, 2.0]) / 10.0
_CURVATURE = np.array([2.0, -1.0, -2.0, -1.0, 2.0]) / 14.0


def _supremum(eps):
    """Maximum of the half volume over z for each eps < 1 of a 1-D array:
    (maximum, argmax, whether the scan saw more than one interior peak).

    A 33-point scan picks two brackets per eps: the neighbours of the scan
    argmax, and the first scan cell [z_0, z_1], where the narrow interior
    peak sits near the threshold (its width is a fraction of a cell there,
    so the scan alone can miss it).  Each of _ROUNDS zoom rounds samples
    _ZOOM evenly spaced z in every bracket and narrows it to the neighbours
    of its argmax.  A 5-point least-squares parabola through the last
    round's best points gives a vertex, evaluated once more; each eps keeps
    its largest value.  Every step is one array call over all eps and both
    brackets, so the number of calls does not depend on the batch.
    """
    half_volume = _half_volume_at(eps[:, None, None])
    zs = _grid(*_z_bracket(eps), _SCAN)
    vals = half_volume(zs[:, None])[:, 0]
    k = np.argmax(vals, axis=-1)
    rows = np.arange(eps.size)
    row, pair = rows[:, None], np.arange(2)
    lo = np.stack([zs[rows, np.maximum(k - 1, 0)], zs[:, 0]], axis=-1)
    hi = np.stack([zs[rows, np.minimum(k + 1, _SCAN - 1)], zs[:, 1]], axis=-1)
    for _ in range(_ROUNDS):
        z = _grid(lo, hi, _ZOOM)
        f = half_volume(z)
        j = np.argmax(f, axis=-1)
        lo = z[row, pair, np.maximum(j - 1, 0)]
        hi = z[row, pair, np.minimum(j + 1, _ZOOM - 1)]
    z_best, f_best = z[row, pair, j], f[row, pair, j]

    mid = np.clip(j, 2, _ZOOM - 3)
    window = f[row[..., None], pair[:, None], mid[..., None] + np.arange(-2, 3)]
    slope, curvature = window @ _SLOPE, window @ _CURVATURE
    with np.errstate(divide="ignore", invalid="ignore"):
        t = -slope / (2.0 * curvature)
    # only a concave fit with its vertex inside the window gives a new point;
    # otherwise the maximum sits at a bracket end, on a sample
    inside = (curvature < 0.0) & (np.abs(t) < 2.0)
    t = np.where(inside, t, 0.0)
    step = z[..., 1] - z[..., 0]
    z_vertex = np.clip(z[row, pair, mid] + t * step, z[..., 0], z[..., -1])
    f_vertex = half_volume(z_vertex[..., None])[..., 0]
    better = inside & (f_vertex > f_best)
    z_best = np.where(better, z_vertex, z_best)
    f_best = np.where(better, f_vertex, f_best)

    pick = np.argmax(f_best, axis=-1)
    f_best, z_best = f_best[rows, pick], z_best[rows, pick]
    # a gain within roundoff of the scan's best sample is no gain: it keeps a
    # maximum at 4 pi there when the bracket is narrower than the half
    # volume's resolution (eps -> 1), where z a few ulps off 4 pi would
    # give a switch point amplified by 1 / (1 - eps)
    f_scan = vals[rows, k]
    stay = f_best <= f_scan * (1.0 + 4.0 * np.finfo(float).eps)
    interior = vals[:, 1:-1]
    peaks = np.sum((interior > vals[:, :-2]) & (interior > vals[:, 2:]), axis=-1)
    return (np.where(stay, f_scan, f_best), np.where(stay, zs[rows, k], z_best),
            peaks > 1)


def _rhs_difference_sign_changes(eps, z, num: int = 401):
    """Sign changes of (scalar - ricci) phase-space descent bounds along the
    oracle path at each (eps, z) of two 1-D arrays; exactly one for eps < 1
    on interior z."""
    x_sw, m0, _k = _legs(z, eps)
    xs = _grid(z ** 1.5 * 1e-6, z ** 1.5 * (1 - 1e-9), num)
    e, x_sw, m0 = eps[:, None], x_sw[:, None], m0[:, None]
    u = np.cbrt(xs)
    x_2_3, x_m1_3 = u * u, 1.0 / u          # x^(2/3), x^(-1/3)
    ysq = np.where(xs <= x_sw,
                   _Y0_SQ - m0 - 9.0 * e * x_2_3,
                   _Y0_SQ - 9.0 * x_2_3 - 18.0 * (1.0 - e) * x_sw * x_m1_3)
    ricci = -6.0 * e * x_m1_3
    scalar = (_Y0_SQ - ysq) / (3.0 * xs) - 9.0 * x_m1_3
    signs = np.sign(scalar - ricci)
    # a zero takes the sign before it, so only strict changes count
    last = np.maximum.accumulate(
        np.where(signs != 0, np.arange(num), 0), axis=-1)
    signs = np.take_along_axis(signs, last, axis=-1)
    return np.count_nonzero(signs[:, 1:] * signs[:, :-1] < 0, axis=-1)


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
        changes = _rhs_difference_sign_changes(e, z_arg)
        rows = zip(best.tolist(), z_arg.tolist(), x_sw.tolist(), m0.tolist(),
                   k.tolist(), multimodal.tolist(), changes.tolist())
        for i, row in zip(np.flatnonzero(inner), rows):
            r = results[i]
            (value, r.z_argmax, r.switch_x, r.ricci_mass_const,
             r.scalar_mass_const, r.multimodal, r.rhs_sign_changes) = row
            r.alpha_oracle = value / math.pi ** 2
    for i in np.flatnonzero(~inner):
        # eps within _NEAR_ONE of 1: the round sphere
        results[i] = AlphaResult(
            results[i].epsilon, alpha_oracle=1.0, z_argmax=_Z_MAX, switch_x=0.0,
            ricci_mass_const=0.0, scalar_mass_const=0.0, rhs_sign_changes=0)
    return _unbatch(results, single)


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
# the published closed form, evaluated verbatim for audit

# Each kind of domain violation: a short name, for counts, and the template
# of its message, filled from the scan point's z, verbatim switch y, top
# z^(3/2) and the radicand constants r1, r2.  The last is the eps -> 1 case.
_VIOLATIONS = (
    ("over", "z={z:.6g}: switch y(z)={y:.6g} exceeds termination z^(3/2)={top:.6g}"),
    ("r1<=0", "z={z:.6g}: first radicand {r1:.6g} <= 0 at x=0"),
    ("r1cross", "z={z:.6g}: first radicand crosses zero inside [0, y(z)]"),
    ("r2<=0", "z={z:.6g}: second radicand constant {r2:.6g} <= 0"),
    ("r2cross", "z={z:.6g}: second radicand negative on a subinterval "
                "ending at z^(3/2)"),
    ("degenerate", "eps -> 1: switch formula divides by 2(1-eps)"),
)


class DomainViolations(Sequence):
    """The as-written audit's violation messages at one eps, in scan order.

    It holds a kind code (an index into ``_VIOLATIONS``) and the numbers
    (z, y, top, r1, r2) of its scan point per message, and formats a message
    only when it is read: an audit that is counted, not printed, builds no
    strings.  ``counts`` and ``summary`` report it in short.
    """

    __slots__ = ("_kinds", "_numbers")

    def __init__(self, kinds, numbers):
        self._kinds, self._numbers = kinds, numbers

    def __len__(self) -> int:
        return len(self._kinds)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        z, y, top, r1, r2 = self._numbers[index].tolist()
        return _VIOLATIONS[self._kinds[index]][1].format(
            z=z, y=y, top=top, r1=r1, r2=r2)

    def counts(self) -> dict[str, int]:
        """Messages per kind name, for the kinds that occur, in table order."""
        tally = np.bincount(self._kinds, minlength=len(_VIOLATIONS)).tolist()
        return {kind: n for (kind, _), n in zip(_VIOLATIONS, tally) if n}

    def summary(self) -> str:
        """The count of each kind, then the first message (of a nonempty
        sequence): ``over 33, r1<=0 33; z=4.33323: switch y(z)=...``."""
        counts = ", ".join(f"{kind} {n}" for kind, n in self.counts().items())
        return f"{counts}; {self[0]}"


_DEGENERATE = DomainViolations(np.array([len(_VIOLATIONS) - 1]),
                               np.full((1, 5), math.nan))


def _as_written_switch(z, eps):
    # verbatim: z^((4 pi - eps)/2) / (2 (1 - eps)); the exponent mixes the
    # Gauss-Bonnet constant into a power and is the suspected transcription
    # slip audited here.
    return z ** (0.5 * (4.0 * math.pi - eps)) / (2.0 * (1.0 - eps))


def alpha_as_written(epsilon):
    """Evaluate the published alpha(eps) display verbatim, recording every
    domain violation instead of clamping.

    epsilon is one number or a 1-D sequence, as for ``alpha_oracle``.  The
    checks run as masks over the (eps, z) scan.  Each eps keeps the kind
    code and the scan numbers of its violations, z by z in scan order, as a
    ``DomainViolations``, whose messages are formatted only when read.
    """
    eps, single = _batch(epsilon)
    results = [AlphaResult(epsilon=float(e)) for e in eps]
    degenerate = 1.0 - eps < _NEAR_ONE
    for i in np.flatnonzero(degenerate):
        results[i].degenerate_formula = True
        results[i].domain_violations = _DEGENERATE
    live = np.flatnonzero(~degenerate)
    if live.size == 0:
        return _unbatch(results, single)

    e = eps[live][:, None]
    zs = _grid(*_z_bracket(eps[live]), _SCAN)
    y_sw = _as_written_switch(zs, e)
    x_top = zs ** 1.5
    c1 = _Y0_SQ - 27.0 * (1.0 - e) * y_sw ** (2.0 / 3.0)
    c2 = _Y0_SQ - 18.0 * (1.0 - e) * y_sw ** (-1.0 / 3.0)
    over = y_sw > x_top
    first = np.where(c1 <= 0, 1,
                     np.where(c1 - 9.0 * e * y_sw ** (2.0 / 3.0) < 0, 2, -1))
    second = np.where(c2 <= 0, 3,
                      np.where(c2 - 9.0 * x_top ** (2.0 / 3.0) < 0, 4, -1))
    # up to three messages per (eps, z), in this order: the switch, the first
    # radicand, and the second where neither of those fails; a code indexes
    # _VIOLATIONS, -1 is no message
    codes = np.array((np.where(over, 0, -1), first,
                      np.where(over | (first >= 0), -1, second))).transpose(1, 2, 0)
    found = codes >= 0
    clean = ~found.any(axis=-1)
    at_eps, at_z, _ = np.nonzero(found)
    kinds = codes[found]
    numbers = np.array((zs, y_sw, x_top, c1, c2))[:, at_eps, at_z].T
    ends = np.cumsum(np.count_nonzero(found, axis=(1, 2))).tolist()
    for i, start, end in zip(live.tolist(), [0] + ends, ends):
        results[i].domain_violations = DomainViolations(kinds[start:end],
                                                        numbers[start:end])

    rows, cols = np.nonzero(clean)
    if rows.size:
        b = 9.0 * e[rows, 0]
        u_sw, u_top = y_sw[rows, cols] ** (1.0 / 3.0), x_top[rows, cols] ** (1.0 / 3.0)
        val = np.full(zs.shape, -np.inf)
        val[rows, cols] = (_power_arc_integral(c1[rows, cols], b, u_sw)
                           + _power_arc_integral(c2[rows, cols], 9.0, u_top)
                           - _power_arc_integral(c2[rows, cols], 9.0, u_sw))
        best = np.argmax(val, axis=-1)
        for row in np.unique(rows):
            r = results[live[row]]
            r.alpha_as_written = float(val[row, best[row]]) / math.pi ** 2
            r.z_argmax_as_written = float(zs[row, best[row]])
    return _unbatch(results, single)


def alpha_result(epsilon):
    """Oracle and verbatim values side by side with their discrepancy.

    epsilon is one number or a 1-D sequence, as for ``alpha_oracle``.
    """
    eps, single = _batch(epsilon)
    results = alpha_oracle(eps)
    for oracle, written in zip(results, alpha_as_written(eps)):
        oracle.alpha_as_written = written.alpha_as_written
        oracle.z_argmax_as_written = written.z_argmax_as_written
        oracle.domain_violations = written.domain_violations
        oracle.degenerate_formula = written.degenerate_formula
        if not math.isnan(written.alpha_as_written):
            oracle.discrepancy = abs(oracle.alpha_oracle - written.alpha_as_written)
    return _unbatch(results, single)


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
    the proven upper bound 1/2.  For the verbatim formula the predicate is
    typically never true, which is reported as no_root rather than an error.
    """
    if method == "oracle":
        def value(eps: float) -> float:
            return alpha_oracle(eps).alpha_oracle
    elif method in ("as_written", "as-written"):
        def value(eps: float) -> float:
            return alpha_as_written(eps).alpha_as_written
    else:
        raise ValidationError(f"unknown method {method!r}: use oracle | as-written")

    margin = 1e-8
    lo, hi = search
    evals = []

    def above(eps: float) -> bool:
        a = value(eps)
        evals.append((eps, a))
        return (not math.isnan(a)) and a > 1.0 + margin

    if not above(lo) or above(hi):
        return Epsilon0Bracket(lo=math.nan, hi=math.nan, iterations=0,
                               method=method, no_root=True, evaluations=evals)
    iterations = 0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
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
