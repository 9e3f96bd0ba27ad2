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
side is 2-D.  ``variation-check`` reads it once for all its t.  The points,
the checks and the rows are each written into one preallocated contiguous
array, with the operands and order of the elementwise expressions kept.
"""

from __future__ import annotations

import sys
from typing import NamedTuple

import numpy as np

from .errors import DomainError, ValidationError, in_doubles
from .warped import WarpedMetric, pointwise

KINDS = ("first", "h_dot", "second")

# deepest step level computed.  For every admissible t, t - h / 2^k rounds
# to t by k = 55 (t - h > t_min >= 0 gives t > h, and 2^-54 t is below half
# an ulp of t), where a volume increment vanishes and the table raises, so a
# deeper level is never reached
_MAX_LEVELS = 64


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
        rows = np.empty(self.residual.shape[:2] + (6,))
        rows[..., 0], rows[..., 1] = self.t[:, None], self.h
        rows[..., 2:5], rows[..., 5] = self.residual, self.order[:, None]
        return rows.reshape(-1, 6)


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
    at double precision.  No t, or levels below 1, raises ValidationError.
    A stencil that leaves the model, a step that is not positive, or a step
    so small that a volume increment vanishes raises DomainError, and a
    stencil whose spacing or residual overflows, or whose spacing is below
    the normal doubles (a thin model), raises NumericalError, each for the
    first such (t, step) in table order.
    """
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    if not ts.size:
        raise ValidationError("the stencils need at least one t", key="t")
    if levels < 1:
        raise ValidationError(f"levels must be at least 1, got {levels}", key="levels")
    if h is not None and h <= 0:
        raise DomainError(f"step h must be positive, got {h:g}", key="h")
    t_min, t_max = metric.t_min, metric.t_max
    h = 1e-3 * t_max if h is None else h
    steps = np.array([h / 2.0 ** k for k in range(min(levels, _MAX_LEVELS))])
    points = np.empty((ts.size, steps.size, 3))
    lo = np.subtract(ts[:, None], steps, out=points[..., 0])
    hi = np.add(ts[:, None], steps, out=points[..., 2])
    points[..., 1] = ts[:, None]
    bad = (steps <= 0) | ~((t_min < lo) & (hi < t_max))
    if bad.any():
        at, step = _first(bad, ts, steps)
        raise DomainError(
            f"step h must be positive, got {step:g}" if step <= 0 else
            f"at t={at:g}, h={step:g}, the stencil [{at - step:g}, {at + step:g}] "
            f"leaves ({t_min:g}, {t_max:g})")
    p = pointwise(metric, points)

    def table():
        area, volume, mean = p.area, p.volume, p.mean_curvature
        d_lo = volume[..., 1] - volume[..., 0]
        d_hi = volume[..., 2] - volume[..., 1]
        spacing = d_lo * d_hi * (total := d_lo + d_hi)
        if (small := np.abs(spacing) < sys.float_info.min).any():
            at, step = _first(small, ts, steps)
            if d_lo[small][0] == 0.0 or d_hi[small][0] == 0.0:
                raise DomainError(
                    f"step {step:g} is below the volume's resolution at t={at:g}")
            # increments of a thin model whose product is not a normal double
            in_doubles(lambda: [spacing], [("stencil's volume spacing", 3 * metric.n)],
                       metric.size_keys, at={"t": ts[:, None], "h": steps}, normal=True)
        mid_area, width = area[..., 1], 2.0 * steps
        fd, exact = np.empty((2,) + spacing.shape + (3,))
        np.divide(area[..., 2] - area[..., 0], width, out=fd[..., 0])
        np.divide(mean[..., 2] - mean[..., 0], width, out=fd[..., 1])
        np.divide(2.0 * (area[..., 0] * d_hi - mid_area * total + area[..., 2] * d_lo),
                  spacing, out=fd[..., 2])
        np.multiply(mean[..., 1], mid_area, out=exact[..., 0])
        h_dot = np.subtract(-p.second_fundamental_norm_sq[..., 1], p.ric_radial[..., 1],
                            out=exact[..., 1])
        np.divide(h_dot, mid_area, out=exact[..., 2])
        scale = np.maximum(np.abs(fd), np.abs(exact))
        # the first check's floor: the area per unit length
        np.maximum(scale[..., 0], mid_area / t_max, out=scale[..., 0])
        residual = np.divide(np.abs(fd - exact), scale, out=np.zeros(scale.shape),
                             where=scale != 0.0)
        # a residual is nan where fd or exact is not finite: spacing + residual
        # leaves the doubles wherever any of the four does, and alone is checked
        return [spacing[..., None] + residual, fd, exact, residual]

    _, fd, exact, residual = in_doubles(
        table, [("variation stencil", 3 * metric.n)], metric.size_keys,
        at={"t": ts[:, None, None], "h": steps[:, None]})
    return StencilTable(t=ts, h=steps, fd=fd, exact=exact, residual=residual,
                        orders=_orders(steps, residual))

