"""Fixed Gauss-Legendre rules for the package's integrals (Golub & Welsch 1969).

``gauss_legendre(nodes)`` builds each rule once per node count.  Its nodes
and weights are the doubles nearest the exact ones: numpy's nodes, within an
ulp of the roots of P_n, take one Newton step in 40-digit decimal
arithmetic, and each weight is 2 / ((1 - x^2) P_n'(x)^2) there.  numpy's own
weights are off by up to 63 ulps at 16 nodes and 10,575 ulps at 64, which
alone held the 32-node ``sin_power`` at m = 64 to 1.7e-14 instead of 3.4e-15.

``sqrt_endpoint``: both volume bounds of the package are half-volumes,
integrals of dx / y along phase-plane paths, and each is smooth apart from
one inverse-square-root zero at the end of the path.  Written on [-L, 0],
with the zero at 0, as

    int_(-L)^0 g(x) (-x)^(-1/2) dx,    g smooth on [-L, 0],

the substitution x = -w^2 turns it into 2 int_0^sqrt(L) g(-w^2) dw, a
smooth integral in w, which one fixed rule integrates to double precision.
Each call integrates two such g on the same abscissae: alpha's half volume
and its z-derivative, whose integrand is the leg's differentiated under the
integral in w.  NODES is
the smallest count at which the scalar leg of alpha reaches its roundoff
floor: worst relative error against 30-digit mpmath over ten z in the
bracket (graded toward z_lo, plus the maximizer) at each eps in
{5e-3, 0.05, 0.1345, 0.9}, same double inputs:

    nodes            4        8        12       16       20
    relative error   1e-5     7.7e-10  6.1e-13  7.6e-16  3.1e-16

Those ten z miss the end near 4 pi, where the scalar leg's Q(u) has its
pole at u = 0 just past the leg's end.  At 0.99, 0.995 and 0.999 of the
span, at eps = 0.05 and 0.1345, the 16-node half volume is up to 5.6e-15
relative off 40-digit mpmath and dV/dz up to 1.7e-11, against
about 1e-16 elsewhere.  No printed digit moves, since the maximizer is
never there.

The rule runs node-major and in place.  For lengths of shape ``shape``
the abscissae are one (NODES, *shape) array, so every elementwise step, and
the integrand ``g``, which writes through ``out=``, runs over the
contiguous batch axis instead of broadcasting against a 16-long inner axis.
Each call takes its own scratch, one (4, NODES, *shape) array that holds
the abscissae, a spare and the two integrands' values, so the
integral is reentrant and thread-safe.  The in-place integrand pays: with
the scalar leg of alpha written as plain expressions, a 66-eps supremum
took 1.43 ms against 1.04 ms (in process, best of five runs of 200 calls,
a shared 2-vCPU AVX-512 VM).

The weighted sum over the nodes is elementwise across the batch: the terms
w_j v_j are added pairwise by halving the node axis (j and j + 8, then
j and j + 4, ...), so each interval's value has the same bits whatever else
is in the batch and wherever it stands there.  A
BLAS ``weights @ values`` does not: it orders a sum by the kernel the CPU
selects and by a column's place in its block (Higham, *Accuracy and
Stability of Numerical Algorithms*, ch. 4), which moved alpha(0.125) by an
ulp between a batch of its own and the end of a batch of five.
``sin_power`` keeps its ``@``, whose rows are summed whole.  With numpy
2.4.6 and OpenBLAS 0.3.31 every golden output keeps its bytes under the
SkylakeX, Haswell, Sandybridge, Zen, Prescott, Nehalem, Core2, Atom,
Penryn and Barcelona kernels (``OPENBLAS_CORETYPE``), and with numpy's
AVX-512 loops disabled.

``sin_power``: int_0^theta sin^m, theta clipped to [0, pi].  m = 2 is the
closed form (x - sin x) / 4 at x = 2 theta, with the odd Taylor series of
x - sin x below x = 1, where the difference cancels.  Any other m is one rule in theta on
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
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import QuadratureError

__all__ = ["NODES", "gauss_legendre", "sin_power", "sqrt_endpoint"]

NODES = 16

# (largest power m, node count), from the table in the module docstring
_SIN_POWER_NODES = ((12, 16), (48, 24), (112, 32), (256, 48), (512, 64))

# x - sin x = x^3 sum_j (-1)^j x^(2j) / (2j + 3)!, to within an ulp for x < 1
_X_MINUS_SIN = [(-1) ** j / math.factorial(2 * j + 3) for j in range(10)][::-1]


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
    # imported here: the Bishop bound builds no rule, and its cold start
    # skips the 1.6 ms import
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


def sqrt_endpoint(g, length):
    """The two integrals int_(-L)^0 g(x) / sqrt(-x) dx of g's two integrands,
    elementwise over the shape of the lengths L >= 0: an array of shape
    (2, *shape).

    g(x, spare, out) writes both integrands' values at the node-major
    abscissae x, of shape (NODES, *shape), into out, of shape
    (2, NODES, *shape).  x and spare are scratch that g may overwrite, and
    out may serve as scratch before the values go in; all three are views
    of this call's scratch, valid only during the call.  g may call back
    into the library, ``sqrt_endpoint`` included.  g is evaluated at x = 0
    only where L = 0, where its values are multiplied by 0.  Each
    integrand's weighted sum is taken on its own, so an interval's value
    does not depend on its place in the batch.
    """
    width = np.sqrt(length)                 # the rule runs on [0, sqrt(L)] in w
    shape = width.shape
    t, weights = gauss_legendre(NODES)
    scratch = np.empty((4, NODES) + shape)
    x, spare, out = scratch[0], scratch[1], scratch[2:]
    np.copyto(x, t.reshape((NODES,) + (1,) * len(shape)))
    x *= 0.5 * width
    x += 0.5 * width
    x *= x
    np.subtract(0.0, x, out=x)              # x = -w^2, and +0 at w = 0
    result = np.empty((2,) + shape)
    with np.errstate(invalid="ignore", divide="ignore"):
        g(x, spare, out)
        out *= weights.reshape((NODES,) + (1,) * len(shape))
        # the nodes' terms summed by halving, the same tree for every interval
        n = NODES
        while n > 1:
            half = n // 2
            out[:, :half] += out[:, n - half:n]
            n -= half
        np.multiply(out[:, 0], width, out=result)
    bad = ~np.isfinite(result).all(axis=0)
    if bad.any():
        raise QuadratureError(
            f"endpoint integral is not finite on {np.count_nonzero(bad)} "
            f"of {bad.size} intervals")
    return result


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
    """int_0^theta sin^m, elementwise, theta clipped to [0, pi]: the closed
    form at m = 2, else the rule with the node count the module docstring's
    table gives m (64 above m = 512), and the Wallis integral where theta is
    pi/2 exactly, with no rule built for an input that is pi/2 throughout."""
    theta = np.clip(np.asarray(theta, dtype=float), 0.0, math.pi)
    if m == 2:
        x = 2.0 * theta
        y = x * x
        series = _X_MINUS_SIN[0]
        for coefficient in _X_MINUS_SIN[1:]:
            series = series * y + coefficient
        return 0.25 * np.where(x < 1.0, series * y * x, x - np.sin(x))
    half = _half_sin_power(m)
    at_half = theta == 0.5 * math.pi
    if at_half.all():
        return np.full(theta.shape, half)
    nodes = next((n for top, n in _SIN_POWER_NODES if m <= top), _SIN_POWER_NODES[-1][1])
    t, weights = gauss_legendre(nodes)
    h = 0.5 * np.minimum(theta, math.pi - theta)
    part = h * (np.sin(h[..., None] * (1.0 + t)) ** m @ weights)
    return np.where(at_half, half, np.where(theta > 0.5 * math.pi, 2.0 * half - part, part))
