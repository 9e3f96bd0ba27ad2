"""Desk-scale verification of the measure-theoretic estimates: the weighted
density monotonicity on analytic surfaces and the covering/cutoff error
budgets used to excise small neighborhoods of a singular set.

Surfaces are restricted to cases with closed-form Euclidean ball masses
(circles, round spheres, cones), which exercise the formulas exactly; the
cone is the dilation-invariant singularity model.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError, ValidationError
from .quadrature import sin_power
from .warped import sphere_area

__all__ = [
    "MonotonicityCase", "MonotonicityProfile", "RadiusFamily", "CutoffBudget",
    "unit_circle", "unit_sphere", "cone_over_circle",
    "monotonicity_profile", "cutoff_budget",
]


@dataclass(frozen=True)
class MonotonicityCase:
    """An analytic surface, a mean-curvature bound and a radius grid.

    lambda_ is the bound used in the weight e^(lambda rho).  Monotonicity is
    guaranteed whenever lambda_ is at least the surface's exact curvature
    scale: 1 for unit circles and spheres in the averaged convention, 0 for
    cones away from the apex.
    """

    kind: str            # circle | sphere | cone
    m: int               # surface dimension
    lambda_: float
    rho_grid: np.ndarray
    diameter: float
    angle: float | None = None

    def ball_mass(self, rho) -> np.ndarray:
        """Surface measure inside the Euclidean rho-ball, for each radius."""
        rho = np.atleast_1d(np.asarray(rho, dtype=float))
        if self.kind == "cone":
            return math.pi * math.sin(self.angle) * rho * rho
        # spherical cap cut by a chord-radius rho ball about a surface point;
        # the chord 2 sin(theta/2) resolves small caps, unlike cos theta
        theta = np.array([2.0 * math.asin(min(r / 2.0, 1.0)) for r in rho.tolist()])
        return sphere_area(self.m - 1) * sin_power(self.m - 1, theta)


def _check_grid(rho_grid) -> np.ndarray:
    rho = np.asarray(rho_grid, dtype=float)
    if rho.ndim != 1 or rho.size < 2:
        raise ValidationError("rho grid must be 1-d with >= 2 samples")
    if np.any(rho <= 0) or not np.all(np.diff(rho) > 0):
        raise ValidationError("rho grid must be positive and increasing")
    return rho


def unit_circle(lambda_: float, rho_grid) -> MonotonicityCase:
    """Unit circle in the plane; ball mass 4 arcsin(rho/2)."""
    return MonotonicityCase(kind="circle", m=1, lambda_=lambda_,
                            rho_grid=_check_grid(rho_grid), diameter=2.0)


def unit_sphere(lambda_: float, rho_grid, dim: int = 2) -> MonotonicityCase:
    """Unit dim-sphere in (dim+1)-space; for dim = 2 the ball mass is
    exactly pi rho^2, so the profile is pi e^(lambda rho)."""
    if dim < 1:
        raise ValidationError(f"sphere dimension must be >= 1, got {dim}")
    return MonotonicityCase(kind="sphere", m=dim, lambda_=lambda_,
                            rho_grid=_check_grid(rho_grid), diameter=2.0)


def cone_over_circle(angle: float, lambda_: float, rho_grid) -> MonotonicityCase:
    """Cone of half-aperture angle, base point at the apex; the mass is the
    unrolled sector area pi sin(angle) rho^2, dilation invariant."""
    if not 0.0 < angle < math.pi / 2.0:
        raise ValidationError(f"cone half-angle must lie in (0, pi/2), got {angle}")
    return MonotonicityCase(kind="cone", m=2, lambda_=lambda_,
                            rho_grid=_check_grid(rho_grid), diameter=math.inf,
                            angle=angle)


@dataclass
class MonotonicityProfile:
    values: np.ndarray
    clamped: np.ndarray  # True where rho exceeded the diameter


def monotonicity_profile(case: MonotonicityCase) -> MonotonicityProfile:
    """Samples of e^(lambda rho) rho^(-m) mass(E_rho); radii beyond the
    diameter are clamped to it and flagged.  exp, the power and the cap's
    arcsin are taken per radius with ``math``: numpy's array versions are an
    ulp off on some inputs, enough to move a printed digit.  A factor that
    overflows a double, e^(lambda rho) at the largest radius or rho^(-m) at
    the smallest, is a NumericalError that names its inputs.  So is a
    sample that cannot be formed as a positive normal double, the profile
    being positive at every radius: the weight's product overflowing (inf,
    or nan against a mass that underflows to 0), or either one underflowing
    (0 or subnormal).  The error names the first such radius and the case's
    keys."""
    rho = case.rho_grid
    clamped = rho > case.diameter
    try:
        weight = [math.exp(case.lambda_ * r) * r ** (-case.m) for r in rho.tolist()]
    except OverflowError:
        lo, hi = float(rho[0]), float(rho[-1])
        try:
            math.exp(case.lambda_ * hi)
        except OverflowError:
            raise NumericalError(f"e^(lambda rho) overflows a double at lambda = "
                                 f"{case.lambda_!r}, rho_max = {hi!r}") from None
        dim = "sphere_dim" if case.kind == "sphere" else "m"
        raise NumericalError(f"rho^(-m) overflows a double at rho_min = {lo!r}, "
                             f"{dim} = {case.m}") from None
    with np.errstate(over="ignore", invalid="ignore"):
        values = np.array(weight) * case.ball_mass(np.minimum(rho, case.diameter))
    bad = ~((values >= sys.float_info.min) & (values <= sys.float_info.max))
    if bad.any():
        k = int(np.argmax(bad))
        keys = [f"lambda = {case.lambda_!r}"]
        if case.kind == "sphere":
            keys.append(f"sphere_dim = {case.m}")
        elif case.kind == "cone":
            keys.append(f"angle = {case.angle!r}")
        raise NumericalError(
            f"the profile at rho = {float(rho[k])!r} cannot be formed in doubles "
            f"(got {float(values[k]):g}), at {', '.join(keys)}")
    return MonotonicityProfile(values=values, clamped=clamped)


# ---------------------------------------------------------------------------
# cutoff budgets


@dataclass
class RadiusFamily:
    """Covering radii for excising a singular set, with the named constants:
    c0 the cutoff-gradient constant (|grad eta_i| <= c0 / r_i), c the
    area-ratio constant, h the bubble's mean curvature."""

    radii: np.ndarray
    delta: float
    n: int
    c0: float
    c: float
    h: float = 0.0

    def __post_init__(self):
        self.radii = np.asarray(self.radii, dtype=float)

    def violations(self) -> list[str]:
        out = []
        if self.n < 8:
            out.append(f"n = {self.n} below minimum 8")
        if self.delta <= 0:
            out.append("delta must be positive")
        if self.radii.ndim != 1 or self.radii.size == 0:
            out.append("radii must be a nonempty 1-d collection")
            return out
        if np.any(self.radii <= 0):
            out.append("all radii must be positive")
        if np.any(self.radii > self.delta * (1 + 1e-12)):
            out.append("some radius exceeds delta")
        if self.n >= 8 and np.sum(self.radii ** (self.n - 7)) > 1.0 + 1e-12:
            out.append("sum of r_i^(n-7) exceeds 1")
        if min(self.c0, self.c) < 0 or self.h < 0:
            out.append("constants c0, c, h must be nonnegative")
        return out


@dataclass
class CutoffBudget:
    """Cutoff error budget with its certified bounds.

    The covering applies the area-ratio bound on doubled balls, so the
    certified bounds carry an explicit 2^(n-1) rather than absorbing it into
    the constants; c1 = c (h^2 delta^2 + c0^2) 2^(n-1) is the explicit
    Dirichlet constant."""

    area_term: float
    dirichlet_term: float
    c1: float
    area_bound: float        # c 2^(n-1) delta^6
    dirichlet_bound: float   # c1 delta^4
    area_ok: bool
    dirichlet_ok: bool
    admissible: bool
    violated: list[str] = field(default_factory=list)


def cutoff_budget(family: RadiusFamily) -> CutoffBudget:
    """Area and Dirichlet terms of the excision budget with delta-power bounds.

    area_term = c sum r_i^(n-1) <= c delta^6 sum r_i^(n-7) <= c 2^(n-1) delta^6;
    dirichlet_term = h^2 area_term 2^(n-1) + c0^2 c sum r_i^(n-3) <= c1 delta^4.
    An inadmissible family is flagged with the violated constraint named, the
    terms still reported; a budget that overflows a double is an error.
    """
    violated = family.violations()
    r = family.radii
    n, c, c0, h, delta = family.n, family.c, family.c0, family.h, family.delta
    try:
        doubling = 2.0 ** (n - 1)
        area_term = c * float(np.sum(r ** (n - 1)))
        dirichlet_term = h * h * area_term * doubling \
            + c0 * c0 * c * float(np.sum(r ** (n - 3)))
        c1 = c * (h * h * delta * delta + c0 * c0) * doubling
        area_bound = c * doubling * delta ** 6
        dirichlet_bound = c1 * delta ** 4
    except OverflowError:
        key = f"n = {n}" if n > 1024 else f"delta = {delta!r}"
        raise NumericalError(f"the cutoff budget overflows a double at {key}") from None
    if not all(map(math.isfinite, (area_term, dirichlet_term, c1, area_bound,
                                   dirichlet_bound))):
        raise NumericalError(
            f"the cutoff budget overflows a double at c = {c!r}, c0 = {c0!r}, "
            f"h = {h!r}, delta = {delta!r}")
    slack = 1.0 + 1e-12
    return CutoffBudget(
        area_term=area_term,
        dirichlet_term=dirichlet_term,
        c1=c1,
        area_bound=area_bound,
        dirichlet_bound=dirichlet_bound,
        area_ok=area_term <= area_bound * slack,
        dirichlet_ok=dirichlet_term <= dirichlet_bound * slack,
        admissible=not violated,
        violated=violated,
    )

