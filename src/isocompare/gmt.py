"""Desk-scale verification of the measure-theoretic estimates: the weighted
density monotonicity on analytic surfaces and the covering/cutoff error
budgets used to excise small neighborhoods of a singular set.

Surfaces are restricted to cases with closed-form Euclidean ball masses
(circles, round spheres, cones), which exercise the formulas exactly; the
cone is the dilation-invariant singularity model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError, in_doubles
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
        theta = 2.0 * np.array(list(map(math.asin, np.minimum(rho / 2.0, 1.0).tolist())))
        return sphere_area(self.m - 1) * sin_power(self.m - 1, theta)


def _check_grid(rho_grid) -> np.ndarray:
    rho = np.asarray(rho_grid, dtype=float)
    if rho.ndim != 1 or rho.size < 2:
        raise ValidationError("rho grid must be 1-d with >= 2 samples", key="rho_n")
    if not (rho[0] > 0.0 and (rho[1:] > rho[:-1]).all()):
        bad = np.flatnonzero(~np.isfinite(rho))  # ends whose spacing overflows
        raise ValidationError(
            f"the rho grid in rho_n={rho.size} points is not finite: point {bad[0]} "
            f"is {float(rho[bad[0]])!r}" if bad.size else
            f"the rho grid from rho_min={float(rho[0])!r} to rho_max={float(rho[-1])!r} "
            f"in rho_n={rho.size} points is not positive and increasing",
            key=("rho_min", "rho_max", "rho_n"))
    return rho


def unit_circle(lambda_: float, rho_grid) -> MonotonicityCase:
    """Unit circle in the plane; ball mass 4 arcsin(rho/2)."""
    return MonotonicityCase(kind="circle", m=1, lambda_=lambda_,
                            rho_grid=_check_grid(rho_grid), diameter=2.0)


def unit_sphere(lambda_: float, rho_grid, dim: int = 2) -> MonotonicityCase:
    """Unit dim-sphere in (dim+1)-space; for dim = 2 the ball mass is
    exactly pi rho^2, so the profile is pi e^(lambda rho)."""
    if dim < 1:
        raise ValidationError(f"sphere_dim must be >= 1, got {dim}", key="sphere_dim")
    return MonotonicityCase(kind="sphere", m=dim, lambda_=lambda_,
                            rho_grid=_check_grid(rho_grid), diameter=2.0)


def cone_over_circle(angle: float, lambda_: float, rho_grid) -> MonotonicityCase:
    """Cone of half-aperture angle, base point at the apex; the mass is the
    unrolled sector area pi sin(angle) rho^2, dilation invariant."""
    if not 0.0 < angle < math.pi / 2.0:
        raise ValidationError(f"angle must lie in (0, pi/2), got {angle}", key="angle")
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
    arcsin are libm's, taken per radius with ``math``: numpy's array versions
    are an ulp off on some inputs, enough to move a printed digit.  arcsin
    is mapped over the list of clipped radii, about a third of the time of a
    loop that clips each radius with ``min``; exp and the power share one
    comprehension, faster than two mapped lists made into two arrays.  The
    profile is positive at every radius, so each sample must be a normal
    double."""
    rho = case.rho_grid
    keys = {"lambda": case.lambda_, "rho_min": rho[0], "rho_max": rho[-1]}
    if case.kind != "circle":
        keys.update({"sphere_dim": case.m} if case.kind == "sphere"
                    else {"angle": case.angle})
    lam, power = case.lambda_, -case.m
    (values,) = in_doubles(
        lambda: [np.array([math.exp(lam * r) * r ** power for r in rho.tolist()])
                 * case.ball_mass(np.minimum(rho, case.diameter))],
        [("profile", 0)], keys, at={"rho": rho}, normal=True)
    return MonotonicityProfile(values=values, clamped=rho > case.diameter)


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

    @property
    def keys(self) -> dict:
        """The family's config keys, as a range failure names them."""
        r = f"[{self.radii.min():g}, {self.radii.max():g}]" if self.radii.size else "[]"
        return {"n": self.n, "delta": self.delta, "c0": self.c0, "c": self.c,
                "h": self.h, "radii": r}

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
        if self.n >= 8 and in_doubles(
                lambda: [np.sum(self.radii ** (self.n - 7))],
                [("sum of r_i^(n-7)", 0)], self.keys)[0] > 1.0 + 1e-12:
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

    def budget():
        outer, inner = float(np.sum(r ** (n - 1))), float(np.sum(r ** (n - 3)))
        doubling = 2.0 ** (n - 1)
        area_term = c * outer
        c1 = c * (h * h * delta * delta + c0 * c0) * doubling
        return [[area_term, h * h * area_term * doubling + c0 * c0 * c * inner, c1,
                 c * doubling * delta ** 6, c1 * delta ** 4, inner]]

    area_term, dirichlet_term, c1, area_bound, dirichlet_bound, _ = in_doubles(
        budget, [("cutoff budget", 0)], family.keys)[0]
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

