"""Warped-product model manifolds and their candidate isoperimetric profiles.

A model is an n-manifold (n >= 3) with metric dt^2 + f(t)^2 g_round on
[0, t_max] x S^(n-1), determined by the warp factor f.  Geodesic spheres
{t = const} are umbilic round slices; sweeping them out gives a candidate
(area, volume) profile that is exact on the round sphere and an upper bound
for the true isoperimetric profile elsewhere, which is the direction every
comparison inequality needs.

Closed-form warps:
    round sphere   f(t) = r sin(t/r)            t in [0, pi r]
    football       f(t) = r c sin(t/r), c <= 1  t in [0, pi r]   (cone points)
    cylinder       f(t) = a                     t in [0, L]
plus tabulated warps interpolated monotonically (``MonotoneCubic``, PCHIP)
on an interior window.

Each warp integrates its own powers exactly (``power_integral``): the closed
warps through ``sin_power_integral`` (a closed form for sin^2, otherwise a
fixed Gauss-Legendre rule in theta from ``quadrature``), tabulated warps by
Gauss-Legendre rules that are exact on the interpolant's cubic pieces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import (DomainError, SingularPointError, UnsupportedPointError,
                     ValidationError)
from .quadrature import sin_power

__all__ = [
    "WarpedMetric", "CurvatureData", "CurvatureBounds", "Slice", "Profile",
    "MonotoneCubic", "round_sphere", "football", "cylinder", "tabulated",
    "sin_power_integral", "sin_squared_integral", "sphere_area",
    "log_sphere_area", "eval_warp",
    "curvature_at", "curvature_bounds", "slice_at", "total_volume",
    "candidate_profile",
]


def sphere_area(dim: int) -> float:
    """Surface measure of the unit sphere S^dim, 2 pi^((dim+1)/2) / Gamma((dim+1)/2).

    Gamma overflows a double for dim >= 343; there Legendre's duplication
    Gamma(a) = Gamma(a/2) Gamma(a/2 + 1/2) 2^(a-1) / sqrt(pi) keeps every
    factor finite up to dim 683.  The area itself is subnormal from dim 438
    on and 0 from dim 491 on; use ``log_sphere_area`` there.
    """
    if dim < 0:
        raise ValidationError(f"sphere dimension must be >= 0, got {dim}")
    a = (dim + 1) / 2.0
    try:
        return 2.0 * math.pi ** a / math.gamma(a)
    except OverflowError:
        pass
    try:
        g_upper = math.gamma(0.5 * a + 0.5)
    except OverflowError:
        return 0.0
    return (4.0 * math.sqrt(math.pi) * (0.5 * math.pi) ** a
            / math.gamma(0.5 * a) / g_upper)


def log_sphere_area(dim: int) -> float:
    """Natural logarithm of ``sphere_area(dim)``, finite for every dim >= 0."""
    a = (dim + 1) / 2.0
    return math.log(2.0) + a * math.log(math.pi) - math.lgamma(a)


# x - sin x = x^3 sum_j (-1)^j x^(2j) / (2j + 3)!, to within an ulp for x < 1
_X_MINUS_SIN = [(-1) ** j / math.factorial(2 * j + 3) for j in range(10)][::-1]


def sin_power_integral(m: int, theta):
    """Integral of sin^m over [0, theta], theta clipped to [0, pi].

    m = 2 is the closed form (x - sin x) / 4 at x = 2 theta, with the odd
    Taylor series of x - sin x below x = 1, where the difference cancels.
    Any other m is ``quadrature.sin_power``: a fixed Gauss-Legendre rule in
    theta on [0, min(theta, pi - theta)], reflected about pi/2 through
    half = int_0^(pi/2) sin^m (a Wallis integral, cached per m), which is
    also the value at theta = pi/2 exactly.  Against
    40-digit mpmath the relative error is within 6e-16 for m <= 8 and about
    m * 4e-17 up to m = 512 (2.9e-14 there); above m = 512 it grows, 7.9e-10
    at m = 768, except at pi/2 (see ``quadrature``).  Results below the
    normal doubles lose digits and underflow to 0.
    """
    th = np.clip(np.asarray(theta, dtype=float), 0.0, math.pi)
    if m == 2:
        return sin_squared_integral(th)
    return sin_power(m, th)


def sin_squared_integral(theta):
    """Integral of sin^2 over [0, theta] for theta already in [0, pi]:
    ``sin_power_integral(2, theta)`` without the clip, for callers whose
    theta lies there by construction."""
    x = 2.0 * theta
    y = x * x
    series = _X_MINUS_SIN[0]
    for coefficient in _X_MINUS_SIN[1:]:
        series = series * y + coefficient
    return 0.25 * np.where(x < 1.0, series * y * x, x - np.sin(x))


class MonotoneCubic:
    """Monotone piecewise-cubic Hermite interpolant (PCHIP) of samples y(x).

    Interior slopes are the Fritsch & Butland (1984) weighted harmonic means
    of the neighbouring secant slopes, zero where those differ in sign or
    one vanishes; end slopes are one-sided three-point estimates clamped to
    keep the shape (Moler, *Numerical Computing with MATLAB*, 3.6).  Each
    piece is stored in the power basis c0 s^3 + c1 s^2 + c2 s + c3 in
    s = x - x_k, and is evaluated as an ascending power sum, which gives
    the same doubles as ``scipy.interpolate.PchipInterpolator`` and its
    ``derivative(nu)``.  Queries outside [x_0, x_last] extend the end pieces.
    """

    def __init__(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.ndim != 1 or x.shape != y.shape or x.size < 2:
            raise ValidationError("interpolation needs >= 2 matching samples")
        if not np.all(np.diff(x) > 0):
            raise ValidationError("interpolation grid must be strictly increasing")
        h = np.diff(x)
        m = np.diff(y) / h
        d = np.empty_like(y)
        if x.size == 2:
            d[:] = m[0]
        else:
            w1 = 2.0 * h[1:] + h[:-1]
            w2 = h[1:] + 2.0 * h[:-1]
            flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0) | (m[:-1] == 0)
            # a zero or tiny secant slope makes w / m infinite; such knots
            # are flat or get slope 1 / inf = 0
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                d[1:-1] = np.where(
                    flat, 0.0, 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)))
            d[0] = self._end_slope(h[0], h[1], m[0], m[1])
            d[-1] = self._end_slope(h[-1], h[-2], m[-1], m[-2])
        t = (d[:-1] + d[1:] - 2.0 * m) / h
        self.x = x
        self.c = np.stack((t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1]))

    @staticmethod
    def _end_slope(h0, h1, m0, m1) -> float:
        d = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
        if np.sign(d) != np.sign(m0):
            return 0.0
        if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
            return 3.0 * m0
        return d

    def __call__(self, x, nu: int = 0):
        """Value (nu = 0) or derivative of order nu = 1, 2 at x."""
        x = np.asarray(x, dtype=float)
        k = np.clip(np.searchsorted(self.x, x, side="right") - 1, 0, self.x.size - 2)
        s = x - self.x[k]
        c0, c1, c2, c3 = self.c[:, k]
        if nu == 0:
            return c3 + c2 * s + c1 * (s * s) + c0 * (s * s * s)
        if nu == 1:
            return c2 + (2.0 * c1) * s + (3.0 * c0) * (s * s)
        if nu == 2:
            return 2.0 * c1 + (6.0 * c0) * s
        raise ValueError(f"derivative order must be 0, 1 or 2, got {nu}")


# ---------------------------------------------------------------------------
# warp factors


@dataclass(frozen=True)
class _RoundSphereWarp:
    radius: float

    kind = "sphere"
    closed = True

    @property
    def t_max(self) -> float:
        return math.pi * self.radius

    def evaluate(self, t):
        r = self.radius
        s = np.sin(np.asarray(t, dtype=float) / r)
        c = np.cos(np.asarray(t, dtype=float) / r)
        return r * s, c, -s / r

    def slope_complement(self, t):
        # 1 - f'^2 = sin^2(t/r), free of the cancellation near the poles
        return np.sin(np.asarray(t, dtype=float) / self.radius) ** 2

    def pole_slopes(self):
        return 1.0, -1.0

    def power_integral(self, t, m: int):
        r = self.radius
        return r ** (m + 1) * sin_power_integral(m, np.asarray(t, dtype=float) / r)


@dataclass(frozen=True)
class _FootballWarp:
    cone_factor: float
    radius: float

    kind = "football"
    closed = True

    @property
    def t_max(self) -> float:
        return math.pi * self.radius

    def evaluate(self, t):
        r, c0 = self.radius, self.cone_factor
        s = np.sin(np.asarray(t, dtype=float) / r)
        c = np.cos(np.asarray(t, dtype=float) / r)
        return r * c0 * s, c0 * c, -c0 * s / r

    def slope_complement(self, t):
        # 1 - c^2 cos^2 = sin^2 + (1 - c^2) cos^2, stable near the poles
        u = np.asarray(t, dtype=float) / self.radius
        c0 = self.cone_factor
        return np.sin(u) ** 2 + (1.0 - c0 * c0) * np.cos(u) ** 2

    def pole_slopes(self):
        return self.cone_factor, -self.cone_factor

    def power_integral(self, t, m: int):
        r = self.radius
        return (r ** (m + 1) * self.cone_factor ** m
                * sin_power_integral(m, np.asarray(t, dtype=float) / r))


@dataclass(frozen=True)
class _CylinderWarp:
    radius: float
    length: float

    kind = "cylinder"
    closed = False

    @property
    def t_max(self) -> float:
        return self.length

    def evaluate(self, t):
        z = np.zeros_like(np.asarray(t, dtype=float))
        return z + self.radius, z, z

    def slope_complement(self, t):
        return np.ones_like(np.asarray(t, dtype=float))

    def pole_slopes(self):
        return 0.0, 0.0

    def power_integral(self, t, m: int):
        return self.radius ** m * np.asarray(t, dtype=float)


@lru_cache(maxsize=None)
def _leggauss(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """numpy's Gauss-Legendre rule, built once per node count and read-only:
    numpy's own doubles, so that the tabulated power integrals keep their
    bits."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    x.flags.writeable = w.flags.writeable = False
    return x, w


class _TabulatedWarp:
    """Monotone cubic interpolation of positive samples on an interior window.

    The warp is the ``MonotoneCubic`` (PCHIP) interpolant of the samples; f'
    and f'' are its own derivatives, and powers of f are integrated exactly
    on its cubic pieces.  Poles (and anything outside the window) are
    unsupported.
    """

    kind = "tabulated"
    closed = False

    def __init__(self, t_samples: Sequence[float], f_samples: Sequence[float]):
        ts = np.asarray(t_samples, dtype=float)
        fs = np.asarray(f_samples, dtype=float)
        if ts.ndim != 1 or ts.shape != fs.shape or ts.size < 4:
            raise ValidationError("tabulated warp needs >= 4 matching samples")
        if not np.all(np.diff(ts) > 0):
            raise ValidationError("tabulated warp grid must be strictly increasing")
        if ts[0] <= 0:
            raise ValidationError("tabulated warp grid must be interior (t > 0)")
        if not np.all(fs > 0):
            raise ValidationError("tabulated warp samples must be strictly positive")
        self.t_samples = ts
        self.f_samples = fs
        self._interp = MonotoneCubic(ts, fs)

    @property
    def t_max(self) -> float:
        return float(self.t_samples[-1])

    @property
    def t_min(self) -> float:
        return float(self.t_samples[0])

    def evaluate(self, t):
        t = np.asarray(t, dtype=float)
        if np.any(t < self.t_min) or np.any(t > self.t_max):
            raise UnsupportedPointError(
                f"tabulated warp supports only [{self.t_min:g}, {self.t_max:g}]")
        return self._interp(t), self._interp(t, 1), self._interp(t, 2)

    def slope_complement(self, t):
        _, f1, _ = self.evaluate(t)
        return 1.0 - np.asarray(f1, dtype=float) ** 2

    def pole_slopes(self):
        raise UnsupportedPointError("tabulated warp has no pole data")

    def power_integral(self, t, m: int):
        # f^m has degree 3m on each cubic piece, where the
        # ceil((3m+1)/2)-node Gauss-Legendre rule is exact
        nodes, weights = _leggauss((3 * m + 2) // 2)

        def within_piece(lo, hi):
            half = 0.5 * (hi - lo)
            s = (lo + half)[..., None] + np.multiply.outer(half, nodes)
            return half * (self._interp(s) ** m @ weights)

        x = self.t_samples
        cumulative = np.concatenate(([0.0], np.cumsum(within_piece(x[:-1], x[1:]))))
        t = np.asarray(t, dtype=float)
        k = np.clip(np.searchsorted(x, t, side="right") - 1, 0, x.size - 2)
        return cumulative[k] + within_piece(x[k], t)


@dataclass(frozen=True)
class WarpedMetric:
    """Rotationally symmetric model dt^2 + f(t)^2 g_round on an n-manifold."""

    n: int
    warp: object

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 3:
            raise ValidationError(f"dimension n must be an integer >= 3, got {self.n!r}")

    @property
    def t_max(self) -> float:
        return self.warp.t_max

    @property
    def t_min(self) -> float:
        return getattr(self.warp, "t_min", 0.0)

    @property
    def closed(self) -> bool:
        return self.warp.closed


def round_sphere(n: int = 3, radius: float = 1.0) -> WarpedMetric:
    if radius <= 0:
        raise ValidationError(f"radius must be positive, got {radius}")
    return WarpedMetric(n, _RoundSphereWarp(radius))


def football(cone_factor: float, n: int = 3, radius: float = 1.0) -> WarpedMetric:
    if not 0.0 < cone_factor <= 1.0:
        raise ValidationError(f"cone factor must lie in (0, 1], got {cone_factor}")
    if radius <= 0:
        raise ValidationError(f"radius must be positive, got {radius}")
    return WarpedMetric(n, _FootballWarp(cone_factor, radius))


def cylinder(radius: float, length: float, n: int = 3) -> WarpedMetric:
    if radius <= 0 or length <= 0:
        raise ValidationError("cylinder radius and length must be positive")
    return WarpedMetric(n, _CylinderWarp(radius, length))


def tabulated(t_samples: Sequence[float], f_samples: Sequence[float],
              n: int = 3) -> WarpedMetric:
    return WarpedMetric(n, _TabulatedWarp(t_samples, f_samples))


# ---------------------------------------------------------------------------
# pointwise quantities


def eval_warp(metric: WarpedMetric, t: float) -> tuple[float, float, float]:
    """Warp value and first two derivatives at radial coordinate t."""
    if not 0.0 <= t <= metric.t_max:
        raise DomainError(f"t={t:g} outside [0, {metric.t_max:g}]")
    f, f1, f2 = metric.warp.evaluate(t)
    return float(f), float(f1), float(f2)


@dataclass(frozen=True)
class CurvatureData:
    """Ricci and scalar curvature of a warped model at one interior point.

    ric_radial is Ric(nu, nu) for the radial unit normal; ric_tangential the
    (repeated) tangential Ricci eigenvalue.  All closed forms in f, f', f''.
    """

    ric_radial: float
    ric_tangential: float
    scalar: float

    @property
    def min_ricci(self) -> float:
        return min(self.ric_radial, self.ric_tangential)


def _curvatures(n: int, f, f2, sc):
    """(radial Ricci, tangential Ricci, scalar) from f, f'' and 1 - f'^2."""
    bend = -f2 / f            # -f''/f
    spread = sc / (f * f)     # (1 - f'^2) / f^2
    return ((n - 1) * bend, bend + (n - 2) * spread,
            2 * (n - 1) * bend + (n - 1) * (n - 2) * spread)


def curvature_at(metric: WarpedMetric, t: float) -> CurvatureData:
    """Curvature quantities at a strictly interior radial coordinate."""
    if not metric.t_min < t < metric.t_max:
        raise SingularPointError(
            f"t={t:g} not strictly inside ({metric.t_min:g}, {metric.t_max:g})")
    f, _f1, f2 = metric.warp.evaluate(t)
    f = float(f)
    if f <= 0.0:
        raise SingularPointError(f"warp vanishes at t={t:g}")
    sc = float(metric.warp.slope_complement(t))  # 1 - f'^2, stably
    radial, tangential, scalar = _curvatures(metric.n, f, float(f2), sc)
    return CurvatureData(float(radial), float(tangential), float(scalar))


@dataclass(frozen=True)
class CurvatureBounds:
    """Grid infima of the minimal Ricci eigenvalue and of scalar curvature."""

    ric_min: float
    scalar_min: float
    certified: bool
    tolerance: float


def curvature_bounds(metric: WarpedMetric, grid_size: int = 513,
                     refine_tol: float = 1e-7,
                     max_refinements: int = 6) -> CurvatureBounds:
    """Infima of min-Ricci and scalar curvature over the interior.

    The grid is refined (doubled, with shrinking endpoint margins) until both
    infima are stable to refine_tol relative; the reported tolerance is the
    last observed change.  If the minima keep moving the result is flagged
    uncertified rather than silently reported.
    """
    n = metric.n
    lo, hi = metric.t_min, metric.t_max

    def grid_min(num: int) -> tuple[float, float]:
        margin = (hi - lo) / (2.0 * num)
        ts = np.linspace(lo + margin, hi - margin, num)
        f, _f1, f2 = metric.warp.evaluate(ts)
        f = np.asarray(f, dtype=float)
        if np.any(f <= 0):
            raise SingularPointError("warp vanishes inside the sampling window")
        sc = np.asarray(metric.warp.slope_complement(ts), dtype=float)
        radial, tangential, scal = _curvatures(n, f, np.asarray(f2, dtype=float), sc)
        return float(np.min(np.minimum(radial, tangential))), float(np.min(scal))

    num = grid_size
    ric_min, scal_min = grid_min(num)
    certified = False
    achieved = math.inf
    for _ in range(max_refinements):
        num *= 2
        ric_next, scal_next = grid_min(num)
        scale = max(1.0, abs(ric_next), abs(scal_next))
        achieved = max(abs(ric_next - ric_min), abs(scal_next - scal_min)) / scale
        ric_min, scal_min = ric_next, scal_next
        if achieved <= refine_tol:
            certified = True
            break
    return CurvatureBounds(ric_min, scal_min, certified, achieved)


@dataclass(frozen=True)
class Slice:
    """Geodesic-sphere slice data: umbilic, so |Pi|^2 = H^2/(n-1) exactly."""

    t: float
    area: float
    volume: float
    mean_curvature: float
    second_fundamental_norm_sq: float


def slice_at(metric: WarpedMetric, t: float) -> Slice:
    """Area, enclosed volume, H and |Pi|^2 of the slice at radius t.

    The volume is the warp's exact power integral, measured from the window
    start for tabulated warps.
    """
    if not metric.t_min < t < metric.t_max:
        raise SingularPointError(
            f"t={t:g} not strictly inside ({metric.t_min:g}, {metric.t_max:g})")
    f, f1, _ = metric.warp.evaluate(t)
    f = float(f)
    if f <= 0.0:
        raise SingularPointError(f"warp vanishes at t={t:g}")
    n = metric.n
    omega = sphere_area(n - 1)
    area = omega * f ** (n - 1)
    vol = float(metric.warp.power_integral(t, n - 1))
    h = (n - 1) * float(f1) / f
    return Slice(t=t, area=area, volume=omega * vol, mean_curvature=h,
                 second_fundamental_norm_sq=(n - 1) * (float(f1) / f) ** 2)


def total_volume(metric: WarpedMetric) -> float:
    """Volume of the whole model: omega_(n-1) times the power integral of f."""
    vol = float(metric.warp.power_integral(metric.t_max, metric.n - 1))
    return sphere_area(metric.n - 1) * vol


# ---------------------------------------------------------------------------
# candidate profiles


@dataclass
class Profile:
    """Sampled candidate profile (V, A) with foliation derivative estimates.

    Profiles generated by ``candidate_profile`` carry the generating t-grid,
    dA/dV = H (infinite at closed-model poles) and the warp slope f'(t), from
    which the volume-derivative of any power of A follows exactly via
    dV = A dt.  Externally supplied profiles may leave those fields None.
    """

    n: int
    v_grid: np.ndarray
    a_values: np.ndarray
    total_volume: float
    t_grid: np.ndarray | None = None
    da_dv: np.ndarray | None = None
    warp_slope: np.ndarray | None = None

    def __post_init__(self):
        self.v_grid = np.asarray(self.v_grid, dtype=float)
        self.a_values = np.asarray(self.a_values, dtype=float)
        if self.v_grid.ndim != 1 or self.v_grid.shape != self.a_values.shape:
            raise ValidationError("profile grids must be matching 1-d arrays")
        if not np.all(np.diff(self.v_grid) > 0):
            raise ValidationError("profile volume samples must be strictly increasing")
        if np.any(self.a_values < 0):
            raise ValidationError("profile areas must be nonnegative")
        if self.n < 3:
            raise ValidationError(f"profile dimension must be >= 3, got {self.n}")


def candidate_profile(metric: WarpedMetric, grid_size: int = 257) -> Profile:
    """Geodesic-ball candidate profile sampled on a uniform t-grid.

    Exact for the round sphere; an upper bound for the true profile on any
    other model.  Requires a closed model or a cylinder.
    """
    if grid_size < 16:
        raise ValidationError(f"grid_size must be >= 16, got {grid_size}")
    if metric.warp.kind == "tabulated":
        raise ValidationError("candidate profiles need a closed or cylinder model")

    n = metric.n
    omega = sphere_area(n - 1)
    ts = np.linspace(0.0, metric.t_max, grid_size)
    f, f1, _ = metric.warp.evaluate(ts)
    f = np.asarray(f, dtype=float)
    areas = omega * f ** (n - 1)

    vols = omega * metric.warp.power_integral(ts, n - 1)
    if not np.all(np.diff(vols) > 0):
        raise ValidationError("volume samples are not strictly increasing")

    with np.errstate(divide="ignore", invalid="ignore"):
        da_dv = np.where(f > 0, (n - 1) * np.asarray(f1, dtype=float) / f, np.inf)
    if metric.closed:
        da_dv[0] = np.inf
        da_dv[-1] = -np.inf

    return Profile(n=n, v_grid=vols, a_values=areas, total_volume=float(vols[-1]),
                   t_grid=ts, da_dv=da_dv,
                   warp_slope=np.asarray(f1, dtype=float).copy())
