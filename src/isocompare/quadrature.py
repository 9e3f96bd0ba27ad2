"""Quadrature helpers for integrands with inverse-square-root endpoint zeros.

Plain adaptive refinement stalls on integrands like 1/sqrt(b - x) near x = b.
The routines here factor the singular weight out and hand the smooth remainder
to QUADPACK's weighted rules.
"""

from __future__ import annotations

import math
from typing import Callable

from scipy.integrate import quad

from .errors import QuadratureError


def sqrt_endpoint(g: Callable[[float], float], a: float, b: float,
                  rel_tol: float = 1e-11) -> float:
    """Integral of g(x) / sqrt(b - x) over [a, b] for smooth g.

    g must stay finite up to x = b; the weight carries the singularity.
    """
    if b <= a:
        return 0.0
    val, err = quad(g, a, b, weight="alg", wvar=(0.0, -0.5),
                    epsabs=0.0, epsrel=rel_tol, limit=200)
    if err > 10 * rel_tol * max(abs(val), 1e-300) and err > 1e-12:
        raise QuadratureError(
            f"weighted integral on [{a:g}, {b:g}] reached error {err:.2e}, "
            f"requested relative {rel_tol:.1e}")
    return val


def inverse_sqrt_integral(p: Callable[[float], float], a: float, b: float,
                          rel_tol: float = 1e-10) -> float:
    """Integral of 1/sqrt(p(x)) over [a, b] where p has a simple zero at b.

    Writes 1/sqrt(p) = g(x)/sqrt(b - x) with g = sqrt((b - x)/p(x)); g has a
    finite limit at b, which QUADPACK never needs to evaluate directly.
    """
    def g(x: float) -> float:
        px = p(x)
        if px <= 0.0:
            # Roundoff right at the zero; the weighted rule samples strictly
            # inside, so treat as the one-sided limit.
            if b - x < 1e-12 * max(abs(b), 1.0):
                return 0.0
            raise QuadratureError(f"integrand nonpositive at x={x:g}")
        return math.sqrt((b - x) / px)

    return sqrt_endpoint(g, a, b, rel_tol=rel_tol)
