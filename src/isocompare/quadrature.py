"""Fixed Gauss-Legendre rules for the package's integrals (Golub & Welsch 1969).

``gauss_legendre(nodes)`` builds each rule once per node count.  Its nodes
and weights are the doubles nearest the exact ones: numpy's nodes, within an
ulp of the roots of P_n, take one Newton step in 40-digit decimal
arithmetic, and each weight is 2 / ((1 - x^2) P_n'(x)^2) there.  numpy's own
weights are off by up to 63 ulps at 16 nodes and 10,575 ulps at 64, which
alone held the 32-node ``sin_power`` at m = 64 to 1.7e-14 instead of 3.4e-15.

``sqrt_endpoint``: both volume bounds of the package are half-volumes,
integrals of dx / y along phase-plane paths, and each is smooth apart from
one inverse-square-root zero at the end of the path.  Written as

    int_a^b g(x) (c - x)^(-1/2) dx,    a <= b <= c, g smooth on [a, c],

the substitution x = c - w^2 turns it into 2 int g(c - w^2) dw over
[sqrt(c - b), sqrt(c - a)], a smooth integral in w, which one fixed rule
integrates to double precision.  One call may integrate several such g on
the same abscissae: alpha's half volume and its z-derivative, whose
integrand is the leg's differentiated under the integral in w.  NODES is
the smallest count at which the scalar leg of alpha reaches its roundoff
floor: worst relative error against 30-digit mpmath over ten z in the
bracket (graded toward z_lo, plus the maximizer) at each eps in
{5e-3, 0.05, 0.1345, 0.9}, same double inputs:

    nodes            4        8        12       16       20
    relative error   4e-5     1.5e-9   6e-13    3e-15    2.5e-15

Those ten z miss the end near 4 pi, where the scalar leg's K / (u u0) has
its pole at u = 0 just past the leg's end.  At 0.99, 0.995 and 0.999 of
the span, at eps = 0.05 and 0.1345, the 16-node half volume is up to
5.4e-15 relative off 40-digit mpmath and dV/dz up to 1.7e-11, against
about 1e-16 elsewhere.  No printed digit moves, since the maximizer is
never there.

The rule runs node-major.  For intervals of shape ``shape`` the abscissae
are one (NODES, *shape) array, so every elementwise step, and the integrand
``g``, which writes through ``out=``, runs over the contiguous batch axis
instead of broadcasting against a 16-long inner axis.  These arrays are
views of a ``Workspace``, one per thread, grown to the largest call so far
and never returned, so a call allocates no NODES x batch array.  The form
it replaces made about 16 of them per call, 287 KiB each at 66 eps, above
glibc's 128 KiB mmap threshold, so each came back as fresh pages.  The
values are copied back to (*shape, NODES) for the weighted sum ``@ _W``, a
BLAS matrix-vector product whose rounding depends on where a row sits in
its matrix: the round-sphere leg is pi^2 in the last row of 17 or 33 and
an ulp below it in a row of a 4-row block.  That holds under OpenBLAS
0.3.31's SkylakeX kernels, which an AVX-512 machine selects and the
goldens were made with, and under its Haswell kernels; but under Haswell
two golden ``variation-check`` digits move (ROADMAP item 5).
Keeping the layout the sum always had keeps every interval's sum, and every
half volume, bit for bit.

``sin_power``: int_0^theta sin^m for 0 <= theta <= pi, one rule in theta on
[0, phi], phi = min(theta, pi - theta), reflected about pi/2 as
2 half - part, where half = int_0^(pi/2) sin^m is the Wallis integral, which
is also the value at pi/2 exactly.  The integrand peaks at pi/2 with width
about 1/sqrt(m), so the node count grows with m.  Worst relative error
against 40-digit mpmath over 85 theta (graded toward 0 and pi within 1e-8,
37 points of [pi/3, pi/2], pi/2 -+ 1e-3 to 1e-12); ``*`` marks the count
chosen for the powers up to that row:

    m \\ nodes  16        24        32        48        64        80
    8          5.4e-16*  4.5e-16   4.3e-16   5.3e-16   2.7e-16   2.8e-16
    12         1.2e-15*  8.7e-16   6.6e-16   6.0e-16   4.6e-16   5.0e-16
    16         1.0e-14   1.5e-15   7.5e-16   1.4e-15   4.8e-16   6.7e-16
    48         7.5e-09   4.2e-15*  2.9e-15   3.4e-15   1.4e-15   1.8e-15
    56         5.1e-08   3.7e-14   3.6e-15   4.0e-15   1.8e-15   2.1e-15
    112        6.3e-04   5.1e-09   5.4e-15*  6.1e-15   4.6e-15   3.5e-15
    128        2.0e-03   8.3e-08   2.9e-14   6.9e-15   5.7e-15   3.7e-15
    256        9.6e-02   8.2e-04   7.7e-07   1.3e-14*  1.4e-14   8.3e-15
    320        2.0e-01   4.9e-03   2.0e-05   1.8e-12   1.9e-14   1.0e-14
    512        4.7e-01   4.6e-02   1.3e-03   2.6e-08   2.9e-14*  1.8e-14
    640        6.5e-01   1.1e-01   6.8e-03   1.4e-06   6.8e-12   2.5e-14
    768        7.7e-01   2.0e-01   2.1e-02   1.9e-05   7.9e-10   3.2e-14

The floor grows as about m * 4e-17: the rounding of each node's sin is
raised to the m-th power.  Above m = 512 the 64-node rule is kept and its
error grows (6.8e-12 at m = 640, 7.9e-10 at 768); no volume reaches those
powers except at theta = pi/2, where ``sin_power`` is exact and builds no
rule, because ``warped.sphere_area`` is 0 from dimension 491 on.

Weighted sums.  ``sin_power`` takes each theta's sum with ``np.vecdot``, one
BLAS dot product per row, so a batch of theta gives every theta the bits of
a call on that theta alone.  A matrix-vector ``@`` rounds about one row in
five of a batch differently from the same row on its own, and the variation
stencils, which evaluate every (t, step) point in one call, must give the
digits of the one-point ``warped.slice_at``.  ``sqrt_endpoint`` keeps the
matrix-vector ``@ _W`` described above: the printed digits of alpha and of
the sampled-path volumes were made with it.
"""

from __future__ import annotations

import math
import threading
from functools import lru_cache

import numpy as np

from .errors import QuadratureError

__all__ = ["NODES", "gauss_legendre", "sin_power", "sqrt_endpoint"]

NODES = 16
# numpy's weights, not ``gauss_legendre``'s: the printed digits of alpha
# were made with them.  alpha is within 4.4e-16 of the 50-digit reference
# at ten eps in [5e-3, 0.3] with either, and is exactly 1 above eps0 with
# either, since the round sphere's leg is the closed form pi^2 in ``football``
_T, _W = np.polynomial.legendre.leggauss(NODES)

# (largest power m, node count), from the table in the module docstring
_SIN_POWER_NODES = ((12, 16), (48, 24), (112, 32), (256, 48), (512, 64))


def _legendre(n: int, x):
    """P_n(x) and P_n'(x) by the three-term recurrence."""
    p0, p1 = 1, x
    for k in range(2, n + 1):
        p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
    return p1, n * (p0 - x * p1) / (1 - x * x)


@lru_cache(maxsize=None)
def gauss_legendre(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (ascending) and weights of the Gauss-Legendre rule on [-1, 1],
    each the double nearest its exact value.  Read-only arrays, built once
    per node count."""
    # imported here: alpha and the Bishop bound never build such a rule, and
    # their cold start skips the 1.6 ms import
    from decimal import Decimal, localcontext

    guess, _ = np.polynomial.legendre.leggauss(nodes)
    x_out, w_out = np.empty(nodes), np.empty(nodes)
    upper = nodes // 2              # the nonnegative nodes, by symmetry
    with localcontext() as ctx:
        ctx.prec = 40
        for i in range(upper, nodes):
            x = Decimal(float(guess[i]))
            p, dp = _legendre(nodes, x)
            x -= p / dp
            _, dp = _legendre(nodes, x)
            x_out[i], w_out[i] = float(x), float(2 / ((1 - x * x) * dp * dp))
    x_out[:upper] = -x_out[:nodes - upper - 1:-1]
    w_out[:upper] = w_out[:nodes - upper - 1:-1]
    x_out.flags.writeable = w_out.flags.writeable = False
    return x_out, w_out


class Workspace(threading.local):
    """Scratch arrays of doubles, one set per thread: a flat buffer grown on
    demand to the largest request so far.  A view taken from it is valid
    until the next ``take`` on the same thread; the kernels that take one
    never return it, and never run inside each other."""

    def __init__(self):
        self.buffer = np.empty(0)

    def take(self, count: int, shape: tuple) -> np.ndarray:
        """count arrays of the given shape, as one view of shape (count, *shape)."""
        size = count * math.prod(shape)
        if self.buffer.size < size:
            self.buffer = np.empty(size)
        return self.buffer[:size].reshape((count,) + shape)


# the scratch of the package's array kernel ``sqrt_endpoint``
WORKSPACE = Workspace()


def sqrt_endpoint(g, a, b, c, integrands: int = 1):
    """int_a^b g(x) / sqrt(c - x) dx for c >= b, elementwise over the
    broadcast shape of a, b and c.

    g(x, spare, out) writes the integrand's values at the node-major
    abscissae x, of shape (NODES, *shape), into out, of the same shape.
    x and spare are scratch that g may overwrite, and out may serve as
    scratch before the values go in; all three are views of this thread's
    ``WORKSPACE``, valid only during the call, so g takes none itself.
    g is evaluated at x = c only on
    an interval of length zero ending at c, where its value is multiplied
    by 0.

    With ``integrands`` k > 1, g writes k integrands on the same abscissae
    into out of shape (k, NODES, *shape), and the result has shape
    (k, *shape).  Each integrand's weighted sum is taken on its own, so
    the first gets the bits of a one-integrand call.
    """
    # names are dropped after their last use, so that few batch-sized
    # arrays are alive at once
    w_lo, w_hi = np.sqrt(c - b), np.sqrt(c - a)
    width = w_hi - w_lo
    mid = 0.5 * (w_hi + w_lo)
    del w_lo, w_hi
    shape, size = width.shape, width.size
    scratch = WORKSPACE.take(2 + 2 * integrands, (NODES,) + shape)
    x, spare = scratch[0], scratch[1]
    out, tables = scratch[2:2 + integrands], scratch[2 + integrands:]
    np.copyto(x, _T.reshape((NODES,) + (1,) * len(shape)))
    x *= 0.5 * width
    x += mid
    del mid
    x *= x
    np.subtract(c, x, out=x)
    result = np.empty((integrands,) + shape)
    with np.errstate(invalid="ignore", divide="ignore"):
        g(x, spare, out[0] if integrands == 1 else out)
        for i in range(integrands):
            # back to (*shape, NODES), the layout the weighted sum was fitted
            # in, so that each interval's sum keeps its order and its bits
            rows = tables[i].reshape(size, NODES)
            np.copyto(rows.T, out[i].reshape(NODES, size))
            result[i] = width * (rows.reshape(shape + (NODES,)) @ _W)
    bad = ~np.isfinite(result).all(axis=0)
    if bad.any():
        raise QuadratureError(
            f"endpoint integral is not finite on {np.count_nonzero(bad)} "
            f"of {bad.size} intervals")
    return result[0] if integrands == 1 else result


@lru_cache(maxsize=None)
def _half_sin_power(m: int) -> float:
    """int_0^(pi/2) sin^m = (1/2) B((m+1)/2, 1/2), the Wallis integral.

    Below m = 2048 it is the product in closed form, (pi/2) C(2k, k) / 4^k
    for m = 2k and 4^k / ((2k+1) C(2k, k)) for m = 2k + 1, with the integer
    ratio rounded once; above, the asymptotic series
    sqrt(pi / (2m)) (1 - 1/(4m) + 1/(32 m^2) + 5/(128 m^3) - 21/(2048 m^4)),
    whose next term is below 1e-17 relative there.
    """
    k, odd = divmod(m, 2)
    if m < 2048:
        c, four_k = math.comb(2 * k, k), 1 << 2 * k
        return four_k / ((2 * k + 1) * c) if odd else 0.5 * math.pi * (c / four_k)
    x = 1.0 / m
    return math.sqrt(0.5 * math.pi * x) * (
        1.0 + x * (-0.25 + x * (1.0 / 32.0 + x * (5.0 / 128.0 - x * 21.0 / 2048.0))))


def sin_power(m: int, theta):
    """int_0^theta sin^m for 0 <= theta <= pi, elementwise, with the node
    count the module docstring's table gives m (64 above m = 512).  Where
    theta is pi/2 exactly the result is the Wallis integral, and an input
    that is pi/2 throughout builds no rule."""
    theta = np.asarray(theta, dtype=float)
    half = _half_sin_power(m)
    at_half = theta == 0.5 * math.pi
    if at_half.all():
        return np.full(theta.shape, half)
    nodes = next((n for top, n in _SIN_POWER_NODES if m <= top), _SIN_POWER_NODES[-1][1])
    t, weights = gauss_legendre(nodes)
    h = 0.5 * np.minimum(theta, math.pi - theta)
    part = h * np.vecdot(np.sin(h[..., None] * (1.0 + t)) ** m, weights)
    return np.where(at_half, half, np.where(theta > 0.5 * math.pi, 2.0 * half - part, part))
