"""Finite-difference verification of the variation formulas along the
unit-normal flow of geodesic spheres.

Flowing a slice outward at unit speed, the area and mean curvature satisfy

    dA/dt = H A,        dH/dt = -|Pi|^2 - Ric(nu, nu),

and reparameterizing by enclosed volume (dV = A dt, so A'(V) = H exactly),

    A''(V) = (-|Pi|^2 - Ric(nu, nu)) / A

on every warped model.  Each check compares a centered difference against the
closed-form right-hand side and reports a relative residual; residuals decay
at second order in the step for smooth warps away from the poles.

``stencil_table`` is the one kernel.  For T radii, L steps h / 2^k and the
three points t - h, t, t + h of each stencil, it makes one
``warped.pointwise`` call on the (T, L, 3) array of points, forms the three
checks of every (t, step) as array expressions, and fits the observed order
of every (t, check) column with a single ``np.polyfit`` whose right-hand
side is 2-D.  ``residual_table``, ``variation_report``,
``convergence_order`` and the ``check_*`` functions are views of it at one
t, and ``variation-check`` reads it once for all its t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError
from .warped import WarpedMetric, pointwise

KINDS = ("first", "h_dot", "second")

# deepest step level computed.  For every admissible t, t - h / 2^k rounds
# to t by k = 55 (t - h > t_min >= 0 gives t > h, and 2^-54 t is below half
# an ulp of t), where a volume increment vanishes and the table raises, so a
# deeper level is never reached
_MAX_LEVELS = 64


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


class StencilTable(NamedTuple):
    """The three checks at every (t, step), from one array pass (a named
    tuple, built faster than a frozen dataclass on a cold start).

    Axes: t (T radii), step (L steps h / 2^k) and check (``KINDS``: first,
    h_dot, second).  first: centered dA/dt against H A, with the area per
    unit length as the scale floor.  h_dot: centered dH/dt against
    -|Pi|^2 - Ric(nu, nu).  second: second difference of A over the volume
    parameter against (-|Pi|^2 - Ric(nu, nu)) / A; the stencil is
    nonuniform in V (dV = A dt), so the three-point formula carries the
    exact node spacings.  A residual is relative to the larger side (or
    the floor), and 0 where both sides vanish to roundoff.
    """

    t: np.ndarray           # (T,)
    h: np.ndarray           # (L,)
    fd: np.ndarray          # (T, L, 3) finite differences
    exact: np.ndarray       # (T, L, 3) closed-form right-hand sides
    residual: np.ndarray    # (T, L, 3)
    orders: np.ndarray      # (T, 3) observed order of each check, nan if none

    @property
    def order(self) -> np.ndarray:
        """Worst observed order at each t over the checks that have one;
        nan where none has."""
        worst = np.where(np.isnan(self.orders), np.inf, self.orders).min(axis=1)
        return np.where(np.isinf(worst), np.nan, worst)

    def rows(self) -> np.ndarray:
        """(t, h, first, h_dot, second, order) rows, t-major."""
        count, levels = self.residual.shape[:2]
        return np.column_stack((np.repeat(self.t, levels), np.tile(self.h, count),
                                self.residual.reshape(count * levels, 3),
                                np.repeat(self.order, levels)))


def _first(mask, ts, steps) -> tuple[float, float]:
    """(t, step) of the first true entry of a (T, L) mask, in table order."""
    i, k = np.unravel_index(np.argmax(mask), mask.shape)
    return float(ts[i]), float(steps[k])


def _orders(steps, residual):
    """Observed order of each (t, check) column: the least-squares slope of
    log residual against log step.  A column with fewer than two steps or a
    vanishing residual (flat cylinder checks) has none.  Only the columns
    that have one are fitted, so no log of 0 is taken."""
    orders = np.full((residual.shape[0], 3), np.nan)
    if steps.size >= 2:
        fits = (residual > 0).all(axis=1)
        if fits.any():
            columns = residual.transpose(1, 0, 2)[:, fits]
            orders[fits] = np.polyfit(np.log(steps), np.log(columns), 1)[0]
    return orders


def stencil_table(metric: WarpedMetric, t, h: float | None = None,
                  levels: int = 3) -> StencilTable:
    """The three checks at each t of t (a number or a sequence) under
    successive step halving, h, h/2, ..., h / 2^(levels-1), with every
    observed order.

    Default step is 1e-3 t_max, balancing truncation against cancellation
    at double precision.  A stencil that leaves the model, a step that is
    not positive, or a step so small that a volume increment vanishes
    raises DomainError, for the first such (t, step) in table order.
    """
    if h is None:
        h = 1e-3 * metric.t_max
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    steps = np.array([h / 2.0 ** k for k in range(min(levels, _MAX_LEVELS))])
    lo, hi = ts[:, None] - steps, ts[:, None] + steps
    bad = (steps <= 0) | ~((metric.t_min < lo) & (hi < metric.t_max))
    if bad.any():
        at, step = _first(bad, ts, steps)
        raise DomainError(
            f"step h must be positive, got {step:g}" if step <= 0 else
            f"stencil [{at - step:g}, {at + step:g}] leaves "
            f"({metric.t_min:g}, {metric.t_max:g})")
    p = pointwise(metric, np.stack((lo, np.broadcast_to(ts[:, None], lo.shape), hi),
                                   axis=-1))
    area, volume, mean = p.area, p.volume, p.mean_curvature
    d_lo = volume[..., 1] - volume[..., 0]
    d_hi = volume[..., 2] - volume[..., 1]
    spacing = d_lo * d_hi * (d_lo + d_hi)
    if (spacing == 0.0).any():
        at, step = _first(spacing == 0.0, ts, steps)
        raise DomainError(f"step {step:g} is below the volume's resolution at t={at:g}")
    mid_area = area[..., 1]
    h_dot = -p.second_fundamental_norm_sq[..., 1] - p.ric_radial[..., 1]
    second = 2.0 * (area[..., 0] * d_hi - mid_area * (d_lo + d_hi)
                    + area[..., 2] * d_lo) / spacing
    fd = np.stack(((area[..., 2] - area[..., 0]) / (2.0 * steps),
                   (mean[..., 2] - mean[..., 0]) / (2.0 * steps), second), axis=-1)
    exact = np.stack((mean[..., 1] * mid_area, h_dot, h_dot / mid_area), axis=-1)
    floor = np.zeros_like(fd)
    floor[..., 0] = mid_area / metric.t_max
    scale = np.maximum(np.maximum(np.abs(fd), np.abs(exact)), floor)
    residual = np.divide(np.abs(fd - exact), scale, out=np.zeros_like(scale),
                         where=scale != 0.0)
    return StencilTable(t=ts, h=steps, fd=fd, exact=exact, residual=residual,
                        orders=_orders(steps, residual))


def _report(metric: WarpedMetric, t: float, h: float, kind: str) -> VariationReport:
    table = stencil_table(metric, t, h, 1)
    k = KINDS.index(kind)
    return VariationReport(t=t, h=h, fd_value=float(table.fd[0, 0, k]),
                           analytic_value=float(table.exact[0, 0, k]),
                           **{f"residual_{kind}": float(table.residual[0, 0, k])})


def check_first_variation(metric: WarpedMetric, t: float, h: float) -> VariationReport:
    """Centered dA/dt against H A; scale floor is the area per unit length."""
    return _report(metric, t, h, "first")


def check_mean_curvature_evolution(metric: WarpedMetric, t: float, h: float) -> VariationReport:
    """Centered dH/dt against -|Pi|^2 - Ric(nu, nu)."""
    return _report(metric, t, h, "h_dot")


def check_second_variation(metric: WarpedMetric, t: float, h: float) -> VariationReport:
    """Second difference of A over the volume parameter against
    (-|Pi|^2 - Ric(nu, nu)) / A, on the nonuniform-in-V stencil."""
    return _report(metric, t, h, "second")


def residual_table(metric: WarpedMetric, t: float, h: float,
                   levels: int = 3) -> list[tuple[float, float, float, float]]:
    """(h, first, h_dot, second) residual rows under successive step
    halving."""
    table = stencil_table(metric, t, h, levels)
    return [(step, *row) for step, row in zip(table.h.tolist(),
                                               table.residual[0].tolist())]


def residual_sequence(metric: WarpedMetric, t: float, h: float, kind: str,
                      levels: int = 3) -> list[tuple[float, float]]:
    """(h, residual) pairs of one check, first, h_dot or second, under
    successive step halving."""
    column = 1 + KINDS.index(kind)
    return [(row[0], row[column]) for row in residual_table(metric, t, h, levels)]


def convergence_order(metric: WarpedMetric, t: float, h: float, kind: str,
                      levels: int = 3) -> float:
    """Observed order of one check under step halving: the least-squares
    slope of log residual vs log step, nan with fewer than two steps or a
    vanishing residual."""
    return float(stencil_table(metric, t, h, levels).orders[0, KINDS.index(kind)])


def variation_report(metric: WarpedMetric, t: float, h: float | None = None,
                     levels: int = 3) -> VariationReport:
    """All three residuals at (t, h) plus the worst observed order.

    Default step is 1e-3 t_max.  The residuals at h are the first level's.
    """
    if h is None:
        h = 1e-3 * metric.t_max
    table = stencil_table(metric, t, h, max(levels, 1))
    first, h_dot, second = table.residual[0, 0].tolist()
    order = float(table.order[0])
    return VariationReport(t=t, h=h, residual_first=first, residual_h_dot=h_dot,
                           residual_second=second,
                           order_estimate=None if math.isnan(order) else order)
