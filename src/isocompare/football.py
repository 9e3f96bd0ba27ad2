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
alpha(eps) = 1 exactly for eps above a constant near 0.134 and grows without
bound as eps -> 0, the long-cylinder regime.

``alpha_as_written`` audits a verbatim transcription of the closed form this
supremum is usually displayed as; the transcribed switch-point formula is
dimensionally garbled, so every domain violation it incurs is recorded and
reported against the oracle rather than patched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize_scalar

from .errors import DomainError, ValidationError
from .phase_plane import PhasePath, extremal_path, start_height
from .quadrature import sqrt_endpoint
from .warped import curvature_bounds, cylinder, sin_power_integral, total_volume

__all__ = [
    "EULER_CHARACTERISTIC_SPHERE", "GAUSS_BONNET_TOTAL",
    "R0_UNIT", "RIC0_UNIT", "V0_UNIT",
    "FootballSpec", "AlphaResult", "Epsilon0Bracket", "CylinderGrowth",
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
_SCAN = 33                             # z values scanned before refinement


def _z_bracket(eps: float) -> tuple[float, float]:
    return _Z_MAX / (3.0 - 2.0 * eps), _Z_MAX


def _legs(z, eps: float):
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


def _scalar_leg_integral(x_sw, k, z):
    """dx/y along the scalar equality curve from x_sw to its zero z^(3/2).

    In u = x^(1/3) the height factors as y^2 = (u_0 - u) Q(u) with
    Q(u) = 9 (u_0 + u) - K / (u u_0) smooth and positive, so the integral is
    int 3 u^2 Q(u)^(-1/2) (u_0 - u)^(-1/2) du, which the fixed rule of
    ``quadrature`` integrates to double precision.  At z = z_lo the leg has
    length zero and the rule returns exactly 0.
    """
    u0 = np.sqrt(z)
    u_lo = np.minimum(np.cbrt(x_sw), u0)
    u0_, k_ = u0[..., None], np.asarray(k)[..., None]

    def g(u):
        return 3.0 * u * u / np.sqrt(9.0 * (u0_ + u) - k_ / (u * u0_))

    return sqrt_endpoint(g, u_lo, u0, u0)


def _half_volume(z, eps: float):
    """Half-volume bound for termination areas z (any array shape) at Ricci
    fraction eps < 1."""
    z = np.asarray(z, dtype=float)
    x_sw, m0, k = _legs(z, eps)
    ricci_leg = _power_arc_integral(_Y0_SQ - m0, 9.0 * eps, np.cbrt(x_sw))
    return ricci_leg + _scalar_leg_integral(x_sw, k, z)


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
    domain_violations: list[str] = field(default_factory=list)
    z_argmax_as_written: float = math.nan


def _supremum(eps: float):
    """Argmax of the half volume on the scan grid, refined by bounded
    golden-section search between its neighbours."""
    zs = np.linspace(*_z_bracket(eps), _SCAN)
    vals = _half_volume(zs, eps)
    k = int(np.nanargmax(vals))
    best_z, best = float(zs[k]), float(vals[k])
    res = minimize_scalar(lambda z: -float(_half_volume(z, eps)),
                          bounds=(zs[max(k - 1, 0)], zs[min(k + 1, _SCAN - 1)]),
                          method="bounded", options={"xatol": 1e-9})
    if -res.fun > best:
        best, best_z = float(-res.fun), float(res.x)
    interior = vals[1:-1]
    peaks = np.sum((interior > vals[:-2]) & (interior > vals[2:]))
    return best, best_z, bool(peaks > 1)


def _rhs_difference_sign_changes(eps: float, z: float, num: int = 401) -> int:
    """Sign changes of (scalar - ricci) phase-space descent bounds along the
    oracle path; exactly one for eps < 1 on interior z."""
    x_sw, m0, _k = _legs(z, eps)
    x0 = z ** 1.5
    xs = np.linspace(x0 * 1e-6, x0 * (1 - 1e-9), num)
    ysq = np.where(xs <= x_sw,
                   _Y0_SQ - m0 - 9.0 * eps * xs ** (2.0 / 3.0),
                   _Y0_SQ - 9.0 * xs ** (2.0 / 3.0)
                   - 18.0 * (1.0 - eps) * x_sw * xs ** (-1.0 / 3.0))
    ricci = -6.0 * eps * xs ** (-1.0 / 3.0)
    scalar = (_Y0_SQ - ysq) / (3.0 * xs) - 9.0 * xs ** (-1.0 / 3.0)
    signs = np.sign(scalar - ricci)
    signs = signs[signs != 0]
    return int(np.count_nonzero(np.diff(signs) != 0))


def alpha_oracle(epsilon: float) -> AlphaResult:
    """Sharp volume ratio bound alpha(eps) from the two-leg construction."""
    if not 0.0 < epsilon <= 1.0:
        raise ValidationError(f"epsilon must lie in (0, 1], got {epsilon}")
    result = AlphaResult(epsilon=epsilon)
    if epsilon == 1.0:
        # the z-bracket collapses to the round sphere
        result.alpha_oracle = 1.0
        result.z_argmax = _Z_MAX
        result.switch_x = 0.0
        result.ricci_mass_const = 0.0
        result.scalar_mass_const = 0.0
        result.rhs_sign_changes = 0
        return result

    best, z_arg, multimodal = _supremum(epsilon)
    x_sw, m0, k = (float(v) for v in _legs(z_arg, epsilon))
    result.alpha_oracle = best / math.pi ** 2
    result.z_argmax = z_arg
    result.switch_x = x_sw
    result.ricci_mass_const = m0
    result.scalar_mass_const = k
    result.multimodal = multimodal
    result.rhs_sign_changes = _rhs_difference_sign_changes(epsilon, z_arg)
    return result


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


def _as_written_switch(z: float, eps: float) -> float:
    # verbatim: z^((4 pi - eps)/2) / (2 (1 - eps)); the exponent mixes the
    # Gauss-Bonnet constant into a power and is the suspected transcription
    # slip audited here.
    return z ** (0.5 * (4.0 * math.pi - eps)) / (2.0 * (1.0 - eps))


def alpha_as_written(epsilon: float) -> AlphaResult:
    """Evaluate the published alpha(eps) display verbatim, recording every
    domain violation instead of clamping."""
    if not 0.0 < epsilon <= 1.0:
        raise ValidationError(f"epsilon must lie in (0, 1], got {epsilon}")
    result = AlphaResult(epsilon=epsilon)
    if 1.0 - epsilon < 1e-12:
        result.degenerate_formula = True
        result.domain_violations.append(
            "eps -> 1: switch formula divides by 2(1-eps)")
        return result

    zs = np.linspace(*_z_bracket(epsilon), _SCAN)
    best = math.nan
    best_z = math.nan
    for z in zs:
        y_sw = _as_written_switch(float(z), epsilon)
        x_top = float(z) ** 1.5
        violations = []
        if y_sw > x_top:
            violations.append(
                f"z={z:.6g}: switch y(z)={y_sw:.6g} exceeds termination "
                f"z^(3/2)={x_top:.6g}")
        c1 = _Y0_SQ - 27.0 * (1.0 - epsilon) * y_sw ** (2.0 / 3.0)
        if c1 <= 0:
            violations.append(
                f"z={z:.6g}: first radicand {c1:.6g} <= 0 at x=0")
        elif c1 - 9.0 * epsilon * y_sw ** (2.0 / 3.0) < 0:
            violations.append(
                f"z={z:.6g}: first radicand crosses zero inside [0, y(z)]")
        c2 = _Y0_SQ - 18.0 * (1.0 - epsilon) * y_sw ** (-1.0 / 3.0)
        if not violations:
            if c2 <= 0:
                violations.append(
                    f"z={z:.6g}: second radicand constant {c2:.6g} <= 0")
            elif c2 - 9.0 * x_top ** (2.0 / 3.0) < 0:
                violations.append(
                    f"z={z:.6g}: second radicand negative on a subinterval "
                    f"ending at z^(3/2)")
        if violations:
            result.domain_violations.extend(violations)
            continue
        u_sw, u_top = y_sw ** (1.0 / 3.0), x_top ** (1.0 / 3.0)
        val = float(_power_arc_integral(c1, 9.0 * epsilon, u_sw)
                    + _power_arc_integral(c2, 9.0, u_top)
                    - _power_arc_integral(c2, 9.0, u_sw))
        if math.isnan(best) or val > best:
            best, best_z = val, float(z)
    if not math.isnan(best):
        result.alpha_as_written = best / math.pi ** 2
        result.z_argmax_as_written = best_z
    return result


def alpha_result(epsilon: float) -> AlphaResult:
    """Oracle and verbatim values side by side with their discrepancy."""
    oracle = alpha_oracle(epsilon)
    written = alpha_as_written(epsilon)
    oracle.alpha_as_written = written.alpha_as_written
    oracle.z_argmax_as_written = written.z_argmax_as_written
    oracle.domain_violations = written.domain_violations
    oracle.degenerate_formula = written.degenerate_formula
    if not math.isnan(written.alpha_as_written):
        oracle.discrepancy = abs(oracle.alpha_oracle - written.alpha_as_written)
    return oracle


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
        vol = total_volume(metric)
        bounds = curvature_bounds(metric, grid_size=65)
        rows.append(CylinderGrowth(length=float(length), volume=vol,
                                   ric_inf=bounds.ric_min,
                                   scalar_inf=bounds.scalar_min))
    return rows
