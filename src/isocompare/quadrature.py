"""One fixed rule for integrals with an inverse-square-root endpoint zero.

Both volume bounds of the package are half-volumes, integrals of dx / y along
phase-plane paths, and each is smooth apart from one inverse-square-root zero
at the end of the path.  Written as

    int_a^b g(x) (c - x)^(-1/2) dx,    a <= b <= c, g smooth on [a, c],

the substitution x = c - w^2 turns it into 2 int g(c - w^2) dw over
[sqrt(c - b), sqrt(c - a)], a smooth integral in w, which one fixed
Gauss-Legendre rule integrates to double precision (Golub & Welsch 1969).

NODES is the smallest count at which the scalar leg of alpha reaches its
roundoff floor: worst relative error against 30-digit mpmath over ten z in
the bracket (graded toward z_lo, plus the maximizer) at each eps in
{5e-3, 0.05, 0.1345, 0.9}, same double inputs:

    nodes            4        8        12       16       20
    relative error   4e-5     1.5e-9   6e-13    3e-15    2.5e-15
"""

from __future__ import annotations

import numpy as np

from .errors import QuadratureError

__all__ = ["NODES", "sqrt_endpoint"]

NODES = 16
_T, _W = np.polynomial.legendre.leggauss(NODES)


def sqrt_endpoint(g, a, b, c):
    """int_a^b g(x) / sqrt(c - x) dx for c >= b, elementwise over the
    broadcast shape of a, b and c.

    g maps an array of abscissae of shape (*shape, NODES) to integrand values
    of the same shape.  It is evaluated at x = c only on an interval of length
    zero ending at c, where its value is multiplied by 0.
    """
    c = np.asarray(c, dtype=float)
    w_lo, w_hi = np.sqrt(c - b), np.sqrt(c - a)
    w = (0.5 * (w_hi + w_lo))[..., None] + (0.5 * (w_hi - w_lo))[..., None] * _T
    with np.errstate(invalid="ignore", divide="ignore"):
        out = (w_hi - w_lo) * (g(c[..., None] - w * w) @ _W)
    if not np.isfinite(out).all():
        raise QuadratureError(
            f"endpoint integral is not finite on {np.count_nonzero(~np.isfinite(out))} "
            f"of {out.size} intervals")
    return out
