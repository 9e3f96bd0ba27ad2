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
    """Slices at t - h, t, t + h and Ric(nu, nu) at t: all the checks read."""
    if h <= 0:
        raise DomainError(f"step h must be positive, got {h:g}")
    if not (metric.t_min < t - h and t + h < metric.t_max):
        raise DomainError(
            f"stencil [{t - h:g}, {t + h:g}] leaves ({metric.t_min:g}, {metric.t_max:g})")
    return (slice_at(metric, t - h), slice_at(metric, t), slice_at(metric, t + h),
            curvature_at(metric, t).ric_radial)


def _checks(metric: WarpedMetric, t: float, h: float) -> dict:
    """(fd, exact, residual) of each check at (t, h), all from one stencil,
    keyed by the VariationReport field of the residual.

    first: centered dA/dt against H A, with the area per unit length as the
    scale floor.  h_dot: centered dH/dt against -|Pi|^2 - Ric(nu, nu).
    second: second difference of A over the volume parameter against
    (-|Pi|^2 - Ric(nu, nu)) / A; the stencil is nonuniform in V (dV = A dt),
    so the three-point formula carries the exact node spacings.
    """
    lo, mid, hi, ric = _stencil(metric, t, h)
    h_dot = -mid.second_fundamental_norm_sq - ric
    d_lo = mid.volume - lo.volume
    d_hi = hi.volume - mid.volume
    second = 2.0 * (lo.area * d_hi - mid.area * (d_lo + d_hi) + hi.area * d_lo) \
        / (d_lo * d_hi * (d_lo + d_hi))
    out = {
        "residual_first": ((hi.area - lo.area) / (2.0 * h),
                           mid.mean_curvature * mid.area, mid.area / metric.t_max),
        "residual_h_dot": ((hi.mean_curvature - lo.mean_curvature) / (2.0 * h),
                           h_dot, 0.0),
        "residual_second": (second, h_dot / mid.area, 0.0),
    }
    return {attr: (fd, exact, _relative(fd, exact, floor))
            for attr, (fd, exact, floor) in out.items()}


def _report(metric: WarpedMetric, t: float, h: float, attr: str) -> VariationReport:
    fd, exact, residual = _checks(metric, t, h)[attr]
    return VariationReport(t=t, h=h, fd_value=fd, analytic_value=exact,
                           **{attr: residual})


def check_first_variation(metric: WarpedMetric, t: float, h: float) -> VariationReport:
    """Centered dA/dt against H A; scale floor is the area per unit length."""
    return _report(metric, t, h, "residual_first")


def check_mean_curvature_evolution(metric: WarpedMetric, t: float, h: float) -> VariationReport:
    """Centered dH/dt against -|Pi|^2 - Ric(nu, nu)."""
    return _report(metric, t, h, "residual_h_dot")


def check_second_variation(metric: WarpedMetric, t: float, h: float) -> VariationReport:
    """Second difference of A over the volume parameter against
    (-|Pi|^2 - Ric(nu, nu)) / A, on the nonuniform-in-V stencil."""
    return _report(metric, t, h, "residual_second")


def residual_table(metric: WarpedMetric, t: float, h: float,
                   levels: int = 3) -> list[tuple[float, float, float, float]]:
    """(h, first, h_dot, second) residual rows under successive step
    halving, one stencil per step."""
    return [(step, *(c[2] for c in _checks(metric, t, step).values()))
            for step in (h / 2.0 ** k for k in range(levels))]


def residual_sequence(metric: WarpedMetric, t: float, h: float, kind: str,
                      levels: int = 3) -> list[tuple[float, float]]:
    """(h, residual) pairs of one check, first, h_dot or second, under
    successive step halving."""
    column = 1 + ("first", "h_dot", "second").index(kind)
    return [(row[0], row[column]) for row in residual_table(metric, t, h, levels)]


def observed_order(table) -> float:
    """Worst observed order over the residual columns of (h, residual, ...)
    rows.

    Each column's order is the least-squares slope of log residual vs log
    step; a column with fewer than two steps or a vanishing residual (flat
    cylinder checks) has none.  nan when no column has an order.
    """
    orders = []
    if len(table) >= 2:
        hs = np.array([row[0] for row in table])
        for column in range(1, len(table[0])):
            rs = np.array([row[column] for row in table])
            if np.all(rs > 0):
                orders.append(float(np.polyfit(np.log(hs), np.log(rs), 1)[0]))
    return min(orders) if orders else math.nan


def convergence_order(metric: WarpedMetric, t: float, h: float, kind: str,
                      levels: int = 3) -> float:
    """Observed order of one check under step halving (see observed_order)."""
    return observed_order(residual_sequence(metric, t, h, kind, levels))


def variation_report(metric: WarpedMetric, t: float, h: float | None = None,
                     levels: int = 3) -> VariationReport:
    """All three residuals at (t, h) plus the worst observed order.

    Default step is 1e-3 t_max, balancing truncation against cancellation
    at double precision.  One stencil per level; the residuals at h are the
    first level's.
    """
    if h is None:
        h = 1e-3 * metric.t_max
    table = residual_table(metric, t, h, max(levels, 1))
    order = observed_order(table)
    _, first, h_dot, second = table[0]
    return VariationReport(t=t, h=h, residual_first=first, residual_h_dot=h_dot,
                           residual_second=second,
                           order_estimate=None if math.isnan(order) else order)
