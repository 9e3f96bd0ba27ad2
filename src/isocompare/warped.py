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
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (NumericalError, SingularPointError, UnsupportedPointError,
                     ValidationError)
from .quadrature import gauss_legendre, sin_power

__all__ = [
    "WarpedMetric", "CurvatureBounds", "Profile",
    "MonotoneCubic", "round_sphere", "football", "cylinder", "tabulated",
    "sin_power_integral", "sin_squared_integral", "sphere_area",
    "log_sphere_area", "Pointwise", "pointwise",
    "curvature_bounds", "total_volume", "candidate_profile",
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
class _FootballWarp:
    # the round sphere is the football with cone factor 1: each step
    # with c = 1 is exact, a product by 1.0 or a sum with +0.0
    cone_factor: float
    radius: float
    kind: str = "football"

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

    def power_integral(self, t, m: int):
        r = self.radius
        return (r ** (m + 1) * self.cone_factor ** m
                * sin_power_integral(m, np.asarray(t, dtype=float) / r))


@dataclass(frozen=True)
class _CylinderWarp:
    radius: float
    length: float

    kind = "cylinder"

    @property
    def t_max(self) -> float:
        return self.length

    def evaluate(self, t):
        z = np.zeros_like(np.asarray(t, dtype=float))
        return z + self.radius, z, z

    def slope_complement(self, t):
        return np.ones_like(np.asarray(t, dtype=float))

    def power_integral(self, t, m: int):
        return self.radius ** m * np.asarray(t, dtype=float)


class _TabulatedWarp:
    """Monotone cubic interpolation of positive samples on an interior window.

    The warp is the ``MonotoneCubic`` (PCHIP) interpolant of the samples; f'
    and f'' are its own derivatives, and powers of f are integrated exactly
    on its cubic pieces.  Poles (and anything outside the window) are
    unsupported.
    """

    kind = "tabulated"

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

    def power_integral(self, t, m: int):
        # f^m has degree 3m on each cubic piece, where the
        # ceil((3m+1)/2)-node Gauss-Legendre rule is exact
        nodes, weights = gauss_legendre((3 * m + 2) // 2)

        def within_piece(lo, hi):
            """Half widths and f^m at the rule's nodes on [lo, hi]."""
            half = 0.5 * (hi - lo)
            s = (lo + half)[..., None] + np.multiply.outer(half, nodes)
            return half, self._interp(s) ** m

        x = self.t_samples
        half, values = within_piece(x[:-1], x[1:])
        cumulative = np.concatenate(([0.0], np.cumsum(half * (values @ weights))))
        t = np.asarray(t, dtype=float)
        k = np.clip(np.searchsorted(x, t, side="right") - 1, 0, x.size - 2)
        half, values = within_piece(x[k], t)
        return cumulative[k] + half * (values @ weights)


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


def round_sphere(n: int = 3, radius: float = 1.0) -> WarpedMetric:
    if radius <= 0:
        raise ValidationError(f"radius must be positive, got {radius}")
    return WarpedMetric(n, _FootballWarp(1.0, radius, kind="sphere"))


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


def _curvatures(n: int, f, f2, sc):
    """(radial Ricci, tangential Ricci, scalar) from f, f'' and 1 - f'^2."""
    bend = -f2 / f            # -f''/f
    spread = sc / (f * f)     # (1 - f'^2) / f^2
    return ((n - 1) * bend, bend + (n - 2) * spread,
            2 * (n - 1) * bend + (n - 1) * (n - 2) * spread)


class Pointwise(NamedTuple):
    """Slice and curvature data at strictly interior radii, one array each,
    of the shape of t: the only form of these quantities, which the
    variation stencils and the curvature bounds read.  (A named tuple: the
    class is built on every cold start, where a frozen dataclass costs about
    six times as long.)

    The slices {t = const} are umbilic, so |Pi|^2 = H^2 / (n - 1) exactly;
    the volume is the warp's exact power integral, measured from the window
    start for tabulated warps.  ric_radial is Ric(nu, nu) for the radial
    unit normal, ric_tangential the (repeated) tangential Ricci eigenvalue;
    all closed forms in f, f', f''.
    """

    area: np.ndarray
    volume: np.ndarray
    mean_curvature: np.ndarray
    second_fundamental_norm_sq: np.ndarray
    ric_radial: np.ndarray
    ric_tangential: np.ndarray
    scalar: np.ndarray


def pointwise(metric: WarpedMetric, t) -> Pointwise:
    """Area, enclosed volume, H, |Pi|^2 and the curvatures at every t of a
    number or an array, each t strictly inside the model."""
    t = np.asarray(t, dtype=float)
    outside = ~((metric.t_min < t) & (t < metric.t_max))
    if outside.any():
        raise SingularPointError(
            f"t={t.ravel()[outside.ravel()][0]:g} not strictly inside "
            f"({metric.t_min:g}, {metric.t_max:g})")
    f, f1, f2 = (np.asarray(v, dtype=float) for v in metric.warp.evaluate(t))
    if (f <= 0.0).any():
        raise SingularPointError(f"warp vanishes at t={t.ravel()[(f <= 0.0).ravel()][0]:g}")
    n = metric.n
    volume = _volume(metric, t)
    radial, tangential, scalar = _curvatures(n, f, f2, metric.warp.slope_complement(t))
    return Pointwise(
        area=sphere_area(n - 1) * f ** (n - 1),
        volume=volume,
        mean_curvature=(n - 1) * f1 / f,
        second_fundamental_norm_sq=(n - 1) * (f1 / f) ** 2,
        ric_radial=radial, ric_tangential=tangential, scalar=scalar)


@dataclass(frozen=True)
class CurvatureBounds:
    """Infima of the minimal Ricci eigenvalue and of scalar curvature."""

    ric_min: float
    scalar_min: float


def curvature_bounds(metric: WarpedMetric) -> CurvatureBounds:
    """Infima of min-Ricci and scalar curvature over the interior of a
    closed model or a cylinder.

    Both infima sit at the midpoint t_max / 2 (the equator of the sphere
    and of the football, anywhere on the cylinder), and are the curvatures
    there: Ric_min = (n-1)/r^2 on the sphere and the football;
    scalar_min = n(n-1)/r^2 on the sphere, 2(n-1)/r^2 + (n-1)(n-2)/(c^2 r^2)
    on the football and (n-1)(n-2)/a^2 on the cylinder.
    """
    if metric.warp.kind == "tabulated":
        raise ValidationError("curvature bounds need a closed or cylinder model")
    p = pointwise(metric, 0.5 * metric.t_max)
    return CurvatureBounds(min(float(p.ric_radial), float(p.ric_tangential)),
                           float(p.scalar))


def total_volume(metric: WarpedMetric) -> float:
    """Volume of the whole model: omega_(n-1) times the power integral of f."""
    return float(_volume(metric, metric.t_max))


def _scales(metric: WarpedMetric) -> dict[str, float]:
    """The inputs that scale the warp f, by their config keys: radius and c
    of a closed-form warp, the largest sample of a tabulated one."""
    if metric.warp.kind == "tabulated":
        return {"f_samples": float(metric.warp.f_samples.max())}
    scales = {"radius": metric.warp.radius}
    if metric.warp.kind == "football":
        scales["c"] = metric.warp.cone_factor
    return scales


def _named(metric: WarpedMetric) -> str:
    """The model's scales and n as they appear in an error message."""
    return ", ".join([f"{k}={v:g}" for k, v in _scales(metric).items()]
                     + [f"n={metric.n}"])


def _overflows(metric: WarpedMetric, what: str) -> NumericalError:
    """The error for a quantity of the model beyond the doubles, naming the
    model and the input to lower."""
    return NumericalError(f"{what} overflows a double ({_named(metric)}); "
                          f"lower {next(iter(_scales(metric)))}")


def _volume(metric: WarpedMetric, t):
    """omega_(n-1) times the power integral of f^(n-1) up to t.

    The closed warps scale their integral by radius^n c^(n-1) (radius^(n-1)
    on the cylinder) in Python floats, which raise OverflowError beyond the
    doubles, and the array product can overflow after that: either is a
    NumericalError naming radius, c and n.
    """
    n = metric.n
    try:
        with np.errstate(over="ignore"):
            volume = sphere_area(n - 1) * metric.warp.power_integral(t, n - 1)
    except OverflowError:
        volume = math.inf
    if not np.isfinite(volume).all():
        raise _overflows(metric, "the model's volume")
    return volume


# ---------------------------------------------------------------------------
# candidate profiles


@dataclass
class Profile:
    """Sampled candidate profile (V, A) with its foliation data.

    Every profile carries the generating t-grid and the warp slope f'(t) at
    each sample, from which the volume-derivative of any power of A follows
    exactly via dV = A dt.
    """

    n: int
    v_grid: np.ndarray
    a_values: np.ndarray
    total_volume: float
    t_grid: np.ndarray
    warp_slope: np.ndarray

    def __post_init__(self):
        self.v_grid, self.a_values, self.t_grid, self.warp_slope = (
            np.asarray(a, dtype=float)
            for a in (self.v_grid, self.a_values, self.t_grid, self.warp_slope))
        if self.v_grid.ndim != 1 or any(
                a.shape != self.v_grid.shape
                for a in (self.a_values, self.t_grid, self.warp_slope)):
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
    ts = np.linspace(0.0, metric.t_max, grid_size)
    f, f1, _ = metric.warp.evaluate(ts)
    f = np.asarray(f, dtype=float)
    vols = _volume(metric, ts)
    if not vols[-1] > 0:
        # f^(n-1) underflows on every cell: name the inputs that scale f
        raise ValidationError(
            f"the model's volume underflows to 0 ({_named(metric)}): f^{n - 1} "
            f"is 0 in doubles on every cell; raise {' or '.join(_scales(metric))}")
    areas = sphere_area(n - 1) * f ** (n - 1)
    stalled = ~(np.diff(vols) > 0)
    if stalled.any():
        raise ValidationError(
            f"volume samples are not strictly increasing: V stops increasing at "
            f"t={ts[np.argmax(stalled)]:g} (n={n}, grid_size={grid_size}), where "
            "a grid cell is below the volume's resolution")
    return Profile(n=n, v_grid=vols, a_values=areas, total_volume=float(vols[-1]),
                   t_grid=ts, warp_slope=np.asarray(f1, dtype=float).copy())
