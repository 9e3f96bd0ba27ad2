"""Finite-difference verification of the variation formulas along the
unit-normal flow of geodesic spheres.

Flowing a slice outward at unit speed, the area and mean curvature satisfy

    dA/dt = H A,        dH/dt = -|Pi|^2 - Ric(nu, nu),

and reparameterizing by enclosed volume (dV = A dt, so A'(V) = H exactly),

    A''(V) = (-|Pi|^2 - Ric(nu, nu)) / A

on every warped model.  Each check compares a centered difference against the
closed-form right-hand side and reports a relative residual; residuals decay
at second order in the step for smooth warps away from the poles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .warped import WarpedMetric, curvature_at, slice_at


@dataclass
class VariationReport:
    """Residuals of the flow checks at one (t, h); nan marks fields the
    producing check does not fill."""

    t: float
    h: float
    residual_first: float = math.nan
    residual_h_dot: float = math.nan
    residual_second: float = math.nan
    order_estimate: float | None = None
    fd_value: float = math.nan
    analytic_value: float = math.nan


def _relative(fd: float, exact: float, floor: float = 0.0) -> float:
    """Relative residual with a physical scale floor, so points where both
    sides vanish to roundoff (symmetry points) read as zero rather than as
    ratios of noise."""
    scale = max(abs(fd), abs(exact), floor)
    if scale == 0.0:
        return 0.0
    return abs(fd - exact) / scale


def _stencil(metric: WarpedMetric, t: float, h: float):
    if h <= 0:
        raise DomainError(f"step h must be positive, got {h:g}")
    if not (metric.t_min < t - h and t + h < metric.t_max):
        raise DomainError(
            f"stencil [{t - h:g}, {t + h:g}] leaves ({metric.t_min:g}, {metric.t_max:g})")
    return slice_at(metric, t - h), slice_at(metric, t), slice_at(metric, t + h)


def check_first_variation(metric: WarpedMetric, t: float, h: float) -> VariationReport:
    """Centered dA/dt against H A; scale floor is the area per unit length."""
    lo, mid, hi = _stencil(metric, t, h)
    fd = (hi.area - lo.area) / (2.0 * h)
    exact = mid.mean_curvature * mid.area
    floor = mid.area / metric.t_max
    return VariationReport(t=t, h=h, residual_first=_relative(fd, exact, floor),
                           fd_value=fd, analytic_value=exact)


def check_mean_curvature_evolution(metric: WarpedMetric, t: float, h: float) -> VariationReport:
    """Centered dH/dt against -|Pi|^2 - Ric(nu, nu)."""
    lo, mid, hi = _stencil(metric, t, h)
    fd = (hi.mean_curvature - lo.mean_curvature) / (2.0 * h)
    exact = -mid.second_fundamental_norm_sq - curvature_at(metric, t).ric_radial
    return VariationReport(t=t, h=h, residual_h_dot=_relative(fd, exact),
                           fd_value=fd, analytic_value=exact)


def check_second_variation(metric: WarpedMetric, t: float, h: float) -> VariationReport:
    """Second difference of A over the volume parameter against
    (-|Pi|^2 - Ric(nu, nu)) / A.

    The stencil is nonuniform in V (dV = A dt), so the three-point formula
    carries the exact node spacings.
    """
    lo, mid, hi = _stencil(metric, t, h)
    d_lo = mid.volume - lo.volume
    d_hi = hi.volume - mid.volume
    fd = 2.0 * (lo.area * d_hi - mid.area * (d_lo + d_hi) + hi.area * d_lo) \
        / (d_lo * d_hi * (d_lo + d_hi))
    exact = (-mid.second_fundamental_norm_sq
             - curvature_at(metric, t).ric_radial) / mid.area
    return VariationReport(t=t, h=h, residual_second=_relative(fd, exact),
                           fd_value=fd, analytic_value=exact)


_CHECKS = {
    "first": (check_first_variation, "residual_first"),
    "h_dot": (check_mean_curvature_evolution, "residual_h_dot"),
    "second": (check_second_variation, "residual_second"),
}


def residual_sequence(metric: WarpedMetric, t: float, h: float, kind: str,
                      levels: int = 3) -> list[tuple[float, float]]:
    """(h, residual) pairs under successive step halving."""
    check, attr = _CHECKS[kind]
    out = []
    step = h
    for _ in range(levels):
        rep = check(metric, t, step)
        out.append((step, getattr(rep, attr)))
        step /= 2.0
    return out


def observed_order(*sequences: list[tuple[float, float]]) -> float:
    """Worst observed order over (h, residual) sequences.

    Each sequence's order is the least-squares slope of log residual vs log
    step; a sequence with fewer than two steps or a vanishing residual (flat
    cylinder checks) has none.  nan when no sequence has an order.
    """
    orders = []
    for pairs in sequences:
        hs = np.array([p[0] for p in pairs])
        rs = np.array([p[1] for p in pairs])
        if hs.size >= 2 and np.all(rs > 0):
            orders.append(float(np.polyfit(np.log(hs), np.log(rs), 1)[0]))
    return min(orders) if orders else math.nan


def convergence_order(metric: WarpedMetric, t: float, h: float, kind: str,
                      levels: int = 3) -> float:
    """Observed order of one check under step halving (see observed_order)."""
    if levels < 2:
        return math.nan
    return observed_order(residual_sequence(metric, t, h, kind, levels))


def variation_report(metric: WarpedMetric, t: float, h: float | None = None,
                     levels: int = 3) -> VariationReport:
    """All three residuals at (t, h) plus the worst observed order.

    Default step is 1e-3 t_max, balancing truncation against cancellation
    at double precision.  Each check runs once per level; the residuals at h
    are the first level's.
    """
    if h is None:
        h = 1e-3 * metric.t_max
    rep = VariationReport(t=t, h=h)
    sequences = []
    for kind, (_, attr) in _CHECKS.items():
        pairs = residual_sequence(metric, t, h, kind, max(levels, 1))
        setattr(rep, attr, pairs[0][1])
        sequences.append(pairs)
    order = observed_order(*sequences)
    rep.order_estimate = None if math.isnan(order) else order
    return rep
