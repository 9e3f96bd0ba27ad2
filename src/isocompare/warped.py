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
warps through ``quadrature.sin_power``, tabulated warps by Gauss-Legendre
rules that are exact on the interpolant's cubic pieces.  A closed warp gives
its integral as p 2^e (frexp splits its radius and c exactly), so only a
volume itself beyond the doubles leaves them, with the plain product's bits
elsewhere.  Every quantity the module hands out that can leave the doubles
passes ``errors.in_doubles``, named by the model's ``size_keys``.  The
cylinders [0, N] x S^2 of ``cylinder_growth`` are the counterexample to a
volume bound from the scalar floor alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (SingularPointError, UnsupportedPointError, ValidationError,
                     in_doubles)
from .quadrature import gauss_legendre, sin_power

__all__ = [
    "WarpedMetric", "CurvatureBounds", "Profile",
    "MonotoneCubic", "round_sphere", "football", "cylinder", "tabulated",
    "sphere_area", "log_sphere_area", "Pointwise", "pointwise",
    "curvature_bounds", "total_volume", "candidate_profile",
    "CylinderGrowth", "cylinder_growth", "check_dimension",
]


def check_dimension(n) -> None:
    """The one check of the dimension n of a model, a profile or a phase-plane
    path: an integer >= 3, else an error of the key n."""
    if not isinstance(n, int) or n < 3:
        raise ValidationError(f"n must be an integer >= 3, got {n!r}", key="n")


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
        self.c = np.empty((4, h.size))
        np.divide(t, h, out=self.c[0])
        np.subtract((m - d[:-1]) / h, t, out=self.c[1])
        self.c[2], self.c[3] = d[:-1], y[:-1]

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

    def __post_init__(self):
        c, r = self.cone_factor, self.radius
        if not 0.0 < c <= 1.0:
            raise ValidationError(f"cone factor must lie in (0, 1], got {c}", key="c")
        if r <= 0:
            raise ValidationError(f"radius must be positive, got {r}", key="radius")

    @property
    def t_max(self) -> float:
        return math.pi * self.radius

    def evaluate(self, t):
        r, c0 = self.radius, self.cone_factor
        u = np.asarray(t, dtype=float) / r
        # |sin|: where t_max / r rounds above pi the far pole's sine is
        # -3.2e-16, and omega f^(n-1) negative for odd n - 1
        s, c = np.abs(np.sin(u)), np.cos(u)
        # 1 - c^2 cos^2 = sin^2 + (1 - c^2) cos^2, stable near the poles
        return r * c0 * s, c0 * c, -c0 * s / r, s * s + (1.0 - c0 * c0) * (c * c)

    def power_integral(self, t, m: int):
        (r, r_exp), (c, c_exp) = math.frexp(self.radius), math.frexp(self.cone_factor)
        scale, exponent = math.frexp(r ** (m + 1) * c ** m)
        return (2.0 * scale * sin_power(m, np.asarray(t, dtype=float) / self.radius),
                exponent - 1 + (m + 1) * r_exp + m * c_exp)


@dataclass(frozen=True)
class _CylinderWarp:
    radius: float
    length: float

    kind = "cylinder"

    def __post_init__(self):
        r, length = self.radius, self.length
        if r <= 0:
            raise ValidationError(f"radius must be positive, got {r}", key="radius")
        if length <= 0:
            raise ValidationError(f"length must be positive, got {length}", key="length")

    @property
    def t_max(self) -> float:
        return self.length

    def evaluate(self, t):
        z = np.zeros(np.shape(t))
        return z + self.radius, z, z, z + 1.0

    def power_integral(self, t, m: int):
        a, a_exp = math.frexp(self.radius)
        scale, exponent = math.frexp(a ** m)
        return 2.0 * scale * np.asarray(t, dtype=float), exponent - 1 + m * a_exp


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
            raise ValidationError(
                f"a tabulated warp needs the same number of t and f samples, at least "
                f"4; got {ts.size} and {fs.size}", key=("t_samples", "f_samples"))
        if not (ts[0] > 0 and np.all(np.diff(ts) > 0)):
            raise ValidationError("tabulated warp grid must be interior (t > 0) and "
                                  "strictly increasing", key="t_samples")
        if not np.all(fs > 0):
            raise ValidationError("tabulated warp samples must be strictly positive",
                                  key="f_samples")
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
        f1 = self._interp(t, 1)
        return self._interp(t), f1, self._interp(t, 2), 1.0 - f1 ** 2

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
        return cumulative[k] + half * (values @ weights), 0


@dataclass(frozen=True)
class WarpedMetric:
    """Rotationally symmetric model dt^2 + f(t)^2 g_round on an n-manifold."""

    n: int
    warp: object

    def __post_init__(self):
        check_dimension(self.n)

    @property
    def size_keys(self) -> dict:
        """The config keys that scale the warp, then n, as range failures name them."""
        warp = self.warp
        keys = ({"f_samples": float(warp.f_samples.max())} if warp.kind == "tabulated"
                else {"radius": warp.radius, "c": warp.cone_factor}
                if warp.kind == "football" else {"radius": warp.radius})
        return {**keys, "n": self.n}

    @property
    def t_max(self) -> float:
        """The warp's length, checked as it is read, after a caller's own
        range checks: every t-grid and default step is a fraction of it."""
        t_max = self.warp.t_max  # pi radius may overflow; a finite nonzero float cannot
        if not (isinstance(t_max, float) and math.isfinite(t_max) and t_max):
            in_doubles(lambda: [t_max], [("length t_max", 1)], self.size_keys)
        return t_max

    @property
    def t_min(self) -> float:
        return getattr(self.warp, "t_min", 0.0)


def round_sphere(n: int = 3, radius: float = 1.0) -> WarpedMetric:
    return WarpedMetric(n, _FootballWarp(1.0, radius, kind="sphere"))


def football(cone_factor: float, n: int = 3, radius: float = 1.0) -> WarpedMetric:
    return WarpedMetric(n, _FootballWarp(cone_factor, radius))


def cylinder(radius: float, length: float, n: int = 3) -> WarpedMetric:
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
        raise SingularPointError(f"t={t[outside][0]:g} not strictly inside "
                                 f"({metric.t_min:g}, {metric.t_max:g})")
    n = metric.n

    def fields():
        f, f1, f2, sc = (np.asarray(v, dtype=float) for v in metric.warp.evaluate(t))
        if (f <= 0.0).any():
            raise SingularPointError(f"warp vanishes at t={t[f <= 0.0][0]:g}")
        return [_volume(metric, t), _area(n, f), (n - 1) * f1 / f,
                (n - 1) * (f1 / f) ** 2, *_curvatures(n, f, f2, sc)]

    volume, area, *rest = in_doubles(
        fields, [("volume", n), ("area", n - 1), ("mean curvature", -1), ("|Pi|^2", -2),
                 ("Ric(nu, nu)", -2), ("tangential Ricci", -2), ("scalar curvature", -2)],
        metric.size_keys, at={"t": t})
    return Pointwise(area, volume, *rest)


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
    on the football and (n-1)(n-2)/a^2 on the cylinder.  Only for these
    three is the midpoint's value the infimum; any other warp (tabulated
    ones are refused) gets its curvature at t_max / 2, which bounds nothing.
    """
    if metric.warp.kind == "tabulated":
        raise ValidationError("curvature bounds need a closed or cylinder model")
    p = pointwise(metric, 0.5 * metric.t_max)
    return CurvatureBounds(min(float(p.ric_radial), float(p.ric_tangential)),
                           float(p.scalar))


def total_volume(metric: WarpedMetric) -> float:
    """Volume of the whole model: omega_(n-1) times the power integral of f."""
    return float(in_doubles(lambda: [_volume(metric, metric.t_max)],
                            [("volume", metric.n)], metric.size_keys)[0])


def _area(n: int, f):
    """omega_(n-1) f^(n-1), the area of the slice where the warp is f."""
    return sphere_area(n - 1) * f ** (n - 1)


def _volume(metric: WarpedMetric, t):
    """omega_(n-1) times the power integral p 2^e of f^(n-1) up to t, omega
    split by frexp too: the exponents apply once, last (past 2^16 as 0 or inf)."""
    omega, omega_exp = math.frexp(sphere_area(metric.n - 1))
    p, e = metric.warp.power_integral(t, metric.n - 1)
    return np.ldexp(omega * p, max(-65536, min(e + omega_exp, 65536)))


class CylinderGrowth(NamedTuple):
    """Volumes of the cylinders [0, N] x S^2, one per length N, and the
    curvature infima, which every length shares."""

    lengths: np.ndarray
    volumes: np.ndarray
    ric_inf: float
    scalar_inf: float


def cylinder_growth(lengths, radius: float = 1.0) -> CylinderGrowth:
    """Volumes and curvature infima of unit-sphere cylinders [0, N] x S^2.

    Volume grows linearly in N while the minimal Ricci eigenvalue stays 0, so
    no positive Ricci fraction is ever satisfied: the scalar floor alone
    cannot bound volume.
    """
    lengths = list(lengths)
    if not lengths:
        raise ValidationError("cylinder growth needs at least one length", key="lengths")
    if any(l <= 0 for l in lengths) or any(b <= a for a, b in zip(lengths, lengths[1:])):
        raise ValidationError("cylinder lengths must be positive and increasing",
                              key="lengths")
    # one cylinder: its volume, linear in t, is every length's in one array
    # product, and its curvatures, constant, are those of every length
    metric = cylinder(radius, 1.0)
    column = np.array(lengths, dtype=float)
    (volumes,) = in_doubles(lambda: [_volume(metric, column)], [("volume", metric.n)],
                            metric.size_keys, at={"length": column})
    bounds = curvature_bounds(metric)
    return CylinderGrowth(column, volumes, bounds.ric_min, bounds.scalar_min)


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
        stalled = ~(self.v_grid[1:] > self.v_grid[:-1])
        if stalled.any():
            raise ValidationError(
                f"volume samples are not strictly increasing: V stops increasing at "
                f"t={self.t_grid[np.argmax(stalled)]:g} (n={self.n}, grid_size="
                f"{self.v_grid.size}), where a grid cell is below the volume's resolution")
        if np.any(self.a_values < 0):
            raise ValidationError("profile areas must be nonnegative")
        check_dimension(self.n)

    @property
    def total_volume(self) -> float:
        """The volume at the last sample, the model's whole volume."""
        return float(self.v_grid[-1])


def candidate_profile(metric: WarpedMetric, grid_size: int = 257) -> Profile:
    """Geodesic-ball candidate profile sampled on a uniform t-grid.

    Exact for the round sphere; an upper bound for the true profile on any
    other model.  Requires a closed model or a cylinder.
    """
    if grid_size < 16:
        raise ValidationError(f"grid_size must be >= 16, got {grid_size}", key="grid_size")
    if metric.warp.kind == "tabulated":
        raise ValidationError("a profile needs a closed or cylinder model", key="model")

    n = metric.n
    ts = np.linspace(0.0, metric.t_max, grid_size)

    def columns():
        f, f1, _, _ = metric.warp.evaluate(ts)   # f'' of a tiny radius overflows here
        # f' = c cos(t / r), or 0, is a double: the slope goes unchecked
        return [_volume(metric, ts), _area(n, f), f1]

    vols, areas, slope = in_doubles(columns, [("volume", n), ("area", n - 1)],
                                    metric.size_keys, at={"t": ts})
    return Profile(n=n, v_grid=vols, a_values=areas, t_grid=ts, warp_slope=slope)
