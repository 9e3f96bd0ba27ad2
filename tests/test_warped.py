import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import PchipInterpolator

from isocompare.errors import (SingularPointError, UnsupportedPointError,
                               ValidationError)
from isocompare.quadrature import sin_power
from isocompare.warped import (MonotoneCubic, WarpedMetric, candidate_profile,
                               curvature_bounds, cylinder, football,
                               log_sphere_area, pointwise, round_sphere,
                               sphere_area, tabulated, total_volume)

PI = math.pi
REL_VOLUME = 1e-14


def _reference_volume(f, n, lo, t, scale, breaks=()):
    """omega_(n-1) times the 25-digit mpmath integral of f^(n-1) over [lo, t].

    The integrand is divided by scale^(n-1), with scale of the order of f on
    the interval, because mpmath.quad stops on an absolute error estimate.
    """
    with mp.workdps(25):
        nodes = [mp.mpf(lo)] + [mp.mpf(b) for b in breaks if lo < b < t] + [mp.mpf(t)]
        scale = mp.mpf(scale)
        v = mp.quad(lambda s: (f(s) / scale) ** (n - 1), nodes)
        omega = 2 * mp.pi ** (mp.mpf(n) / 2) / mp.gamma(mp.mpf(n) / 2)
        return omega * scale ** (n - 1) * v


def _assert_volume(value, reference):
    assert abs(value - reference) <= REL_VOLUME * abs(reference)


def test_sphere_area_values():
    assert sphere_area(1) == pytest.approx(2 * PI, rel=1e-15)
    assert sphere_area(2) == pytest.approx(4 * PI, rel=1e-15)
    assert sphere_area(3) == pytest.approx(2 * PI ** 2, rel=1e-15)


def _mp_sphere_area(dim):
    a = mp.mpf(dim + 1) / 2
    return 2 * mp.pi ** a / mp.gamma(a)


@pytest.mark.parametrize("dim", [100, 341, 342, 343, 344, 400, 437, 438, 460,
                                 490, 682, 683, 684, 685])
def test_sphere_area_past_gamma_overflow(dim):
    # Gamma((dim+1)/2) overflows from dim 343 on, where math.gamma raises;
    # the duplication formula keeps the area to a few ulps while it is a
    # normal double (dim < 438), and itself overflows from dim 684 on
    with mp.workdps(30):
        ref = _mp_sphere_area(dim)
        got = sphere_area(dim)
        assert abs(got - ref) <= 1e-14 * ref + np.finfo(float).smallest_subnormal
        # a few ulps of the larger of a log(pi) and lgamma(a)
        a = (dim + 1) / 2
        scale = max(a * math.log(PI), math.lgamma(a))
        assert abs(log_sphere_area(dim) - mp.log(ref)) <= 4 * 2.2e-16 * scale


def test_sphere_area_underflows_to_zero_without_error():
    assert sphere_area(491) == 0.0
    assert sphere_area(10 ** 6) == 0.0
    assert math.isfinite(log_sphere_area(10 ** 6))


# --- the integral of sin^m ----------------------------------------------------

# graded toward 0 and toward pi down to 1.6e-8, and the middle third's upper
# half, where the former complementary incomplete-beta form cancelled
_SIN_THETAS = ([0.5 * PI * 10.0 ** (-k / 2) for k in range(17)]
               + [PI - 0.5 * PI * 10.0 ** (-k / 2) for k in range(17)]
               + [PI / 3 + PI / 6 * k / 8 for k in range(1, 8)]
               + [1.06, 1.09, 0.0, 0.5 * PI - 1e-9, PI])


def _mp_sin_power(m, theta):
    a = mp.mpf(m + 1) / 2

    def lower(x):
        return mp.betainc(a, 0.5, 0, mp.sin(x) ** 2, regularized=False) / 2

    t = mp.mpf(theta)
    return lower(t) if t <= mp.pi / 2 else 2 * lower(mp.pi / 2) - lower(mp.pi - t)


@pytest.mark.parametrize("m", list(range(9)) + [16, 32, 64, 128, 256, 440])
def test_sin_power_integral_matches_mpmath(m):
    # the error floor is about m * 4e-17 (table in the quadrature module).
    # The complementary incomplete-beta form cancelled just above pi/3: at
    # theta = 1.06 it was 1.4e-8 off for m = 128 and half off for m = 256,
    # and at 1.09 it returned 0 for the 4.4e-26 of m = 440.  Values below
    # the normal doubles are checked to the smallest normal double
    got = sin_power(m, np.array(_SIN_THETAS))
    tol = 1e-15 + m * 1e-16
    with mp.workdps(40):
        for theta, value in zip(_SIN_THETAS, got):
            want = _mp_sin_power(m, theta)
            assert abs(float(value) - want) <= tol * want + np.finfo(float).tiny, theta


@pytest.mark.parametrize("m", list(range(0, 600, 13)) + [2047, 2048, 10 ** 4, 10 ** 6])
def test_sin_power_integral_is_exact_at_half_pi(m):
    # the Wallis integral, which the Bishop bound reads at every n
    with mp.workdps(30):
        want = mp.beta(mp.mpf(m + 1) / 2, 0.5) / 2
        assert abs(float(sin_power(m, 0.5 * PI)) - want) <= 3.4e-16 * want


# --- the monotone cubic interpolant against scipy's PCHIP ----------------------

def _scipy_pchip(xs, ys, q, nu):
    """scipy's PCHIP value, or its derivative polynomial's value: the routes
    the interpolant reproduces double for double.  (Calling the interpolant
    with nu > 0 scales the power sum differently and may differ by an ulp.)"""
    with np.errstate(over="ignore"):  # a slope below 1e-305 overflows w / m
        pieces = PchipInterpolator(xs, ys)
    return pieces(q) if nu == 0 else pieces.derivative(nu)(q)


def _assert_matches_scipy(xs, ys, q):
    ours = MonotoneCubic(xs, ys)
    for nu in (0, 1, 2):
        want = _scipy_pchip(xs, ys, q, nu)
        got = ours(q, nu)
        assert np.array_equal(got, want), (nu, np.max(np.abs(got - want)))


# gaps and values drawn from small sets as well as from ranges, so repeated
# values (flat segments), equal neighbours and sign changes of the slope all
# come up often
_gaps = st.one_of(st.sampled_from([0.25, 1.0, 3.0]),
                  st.floats(1e-3, 10.0, allow_nan=False))
_values = st.one_of(st.sampled_from([-1.0, 0.0, 1.0, 2.0]),
                    st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False))


@settings(max_examples=200, deadline=None)
@given(start=st.floats(-5.0, 5.0), data=st.data(),
       size=st.integers(4, 12), fractions=st.lists(st.floats(0.0, 1.0),
                                                   min_size=1, max_size=20))
def test_monotone_cubic_equals_scipy_pchip(start, data, size, fractions):
    gaps = data.draw(st.lists(_gaps, min_size=size - 1, max_size=size - 1))
    xs = start + np.concatenate(([0.0], np.cumsum(gaps)))
    if not np.all(np.diff(xs) > 0):
        return
    ys = np.array(data.draw(st.lists(_values, min_size=size, max_size=size)))
    # the knots themselves (both ends among them) and points inside
    q = np.concatenate((xs, xs[0] + np.array(fractions) * (xs[-1] - xs[0])))
    _assert_matches_scipy(xs, ys, q)


@pytest.mark.parametrize("ys", [
    [1.0, 1.0, 2.0, 2.0],      # flat, rising, flat
    [0.0, 3.0, -1.0, 0.5],     # the slope changes sign at both interior knots
    [2.0, 1.0, 1.0, -4.0],     # falling with a flat middle piece
    [1.0, 5.0, 5.5, 20.0],     # monotone with a near-flat middle piece
])
def test_monotone_cubic_four_nonuniform_samples(ys):
    xs = np.array([0.1, 0.35, 1.6, 1.75])
    ys = np.array(ys)
    q = np.concatenate((xs, np.linspace(xs[0], xs[-1], 41)))
    _assert_matches_scipy(xs, ys, q)
    # the interpolant passes through the samples (the last one up to the
    # roundoff of its piece's power sum), with no overshoot on a monotone
    # piece: the shape-preserving property PCHIP is chosen for
    ours = MonotoneCubic(xs, ys)
    assert np.array_equal(ours(xs[:-1]), ys[:-1])
    assert ours(xs[-1]) == pytest.approx(ys[-1], rel=1e-14, abs=1e-14)
    for lo, hi, a, b in zip(xs[:-1], xs[1:], ys[:-1], ys[1:]):
        inside = ours(np.linspace(lo, hi, 33))
        assert np.all(inside >= min(a, b)) and np.all(inside <= max(a, b))


def test_monotone_cubic_rejects_bad_grids():
    with pytest.raises(ValidationError):
        MonotoneCubic([0.0, 1.0, 1.0, 2.0], [1.0, 2.0, 3.0, 4.0])
    with pytest.raises(ValidationError):
        MonotoneCubic([0.0], [1.0])
    with pytest.raises(ValueError):
        MonotoneCubic([0.0, 1.0, 2.0], [1.0, 2.0, 0.0])(0.5, nu=3)


def test_warp_evaluate_closed_forms():
    f, f1, f2 = round_sphere(3, 1.0).warp.evaluate(PI / 2)
    assert (f, f2) == pytest.approx((1.0, -1.0), abs=1e-15)
    assert f1 == pytest.approx(0.0, abs=1e-15)

    f, f1, f2 = football(0.5).warp.evaluate(PI / 2)
    assert (f, f2) == pytest.approx((0.5, -0.5), abs=1e-15)
    assert f1 == pytest.approx(0.0, abs=1e-15)

    f, f1, f2 = cylinder(1.0, 5.0).warp.evaluate(2.3)
    assert (f, f1, f2) == (1.0, 0.0, 0.0)


def test_tabulated_warp_evaluate_outside_window():
    tab = tabulated([0.5, 1.0, 1.5, 2.0], [1.0, 1.2, 1.2, 1.0])
    with pytest.raises(UnsupportedPointError):
        tab.warp.evaluate(0.25)


def test_metric_validation():
    with pytest.raises(ValidationError):
        round_sphere(2, 1.0)
    with pytest.raises(ValidationError):
        round_sphere(3, -1.0)
    with pytest.raises(ValidationError):
        football(1.5)
    with pytest.raises(ValidationError):
        football(0.0)
    with pytest.raises(ValidationError):
        cylinder(1.0, 0.0)
    with pytest.raises(ValidationError):
        tabulated([0.0, 1.0, 2.0, 3.0], [1.0, 1.0, 1.0, 1.0])
    with pytest.raises(ValidationError):
        tabulated([0.5, 1.0, 1.5, 2.0], [1.0, -1.0, 1.0, 1.0])


def test_curvature_unit_sphere():
    c = pointwise(round_sphere(3, 1.0), 1.0)
    assert (c.ric_radial, c.ric_tangential, c.scalar) == \
        pytest.approx((2.0, 2.0, 6.0), rel=1e-14)


def test_curvature_cylinder():
    # f = 1: radial = 0, tangential = (n-2)/a^2 = 1, scalar = 2
    c = pointwise(cylinder(1.0, 4.0, n=3), 0.5)
    assert (c.ric_radial, c.ric_tangential, c.scalar) == (0.0, 1.0, 2.0)


def test_curvature_football_radial():
    # f''/f = -1 for every cone factor at r = 1
    c = pointwise(football(0.5), PI / 2)
    assert c.ric_radial == pytest.approx(2.0, rel=1e-14)


def test_curvature_pole_error():
    with pytest.raises(SingularPointError):
        pointwise(round_sphere(3, 1.0), 0.0)
    with pytest.raises(SingularPointError):
        pointwise(round_sphere(3, 1.0), PI)


def test_curvature_bounds_round_spheres_exact():
    for r in (0.5, 1.0, 2.0):
        for n in (3, 4):
            b = curvature_bounds(round_sphere(n, r))
            assert b.ric_min == (n - 1) / r ** 2
            assert b.scalar_min == n * (n - 1) / r ** 2


def test_curvature_bounds_cylinder():
    b = curvature_bounds(cylinder(1.0, 4.0, n=3))
    assert b.ric_min == pytest.approx(0.0, abs=1e-14)
    assert b.scalar_min == pytest.approx(2.0, rel=1e-14)


def test_curvature_bounds_football():
    # minimal eigenvalue is the radial one, (n-1)/r^2, for every cone factor
    for c0 in (0.5, 0.7, 0.9):
        b = curvature_bounds(football(c0))
        assert b.ric_min == pytest.approx(2.0, rel=1e-12)


@pytest.mark.parametrize("n", [3, 5, 8])
def test_curvature_bounds_closed_forms_are_the_infima(n):
    # the closed forms, and no sample of the interior lies below them
    cases = [(round_sphere(n, r), (n - 1) / r ** 2, n * (n - 1) / r ** 2)
             for r in (0.7, 2.5)]
    cases += [(football(c, n=n, radius=r), (n - 1) / r ** 2,
               2 * (n - 1) / r ** 2 + (n - 1) * (n - 2) / (c * r) ** 2)
              for c, r in ((0.3, 1.0), (0.8, 1.7))]
    cases += [(cylinder(a, 3.0, n=n), 0.0, (n - 1) * (n - 2) / a ** 2)
              for a in (0.4, 3.0)]
    for metric, ric, scalar in cases:
        b = curvature_bounds(metric)
        assert b.ric_min == pytest.approx(ric, rel=1e-15, abs=1e-15)
        assert b.scalar_min == pytest.approx(scalar, rel=1e-15)
        p = pointwise(metric, np.linspace(0.01, 0.99, 397) * metric.t_max)
        assert np.minimum(p.ric_radial, p.ric_tangential).min() >= \
            b.ric_min - 1e-13 * max(1.0, b.ric_min)
        assert p.scalar.min() >= b.scalar_min * (1 - 1e-13)


def test_cylinder_bounds_keep_the_curvature_rounding():
    # cylinder-growth prints these: -0.0 radial, and the scalar curvature in
    # the order of operations of the curvature formulas
    b = curvature_bounds(cylinder(1.0, 4.0, n=3))
    assert math.copysign(1.0, b.ric_min) == -1.0 and b.ric_min == 0.0
    assert b.scalar_min == 2.0


def test_pointwise_is_elementwise():
    # each point of a batch has the bits it has alone
    knots = np.linspace(0.2, 2.8, 5)
    for metric in (round_sphere(5, 1.3), football(0.4, n=4, radius=0.8),
                   cylinder(0.6, 2.0, n=7), tabulated(knots, np.sin(knots), n=6)):
        ts = metric.t_min + np.linspace(0.03, 0.97, 23).reshape(23, 1) \
            * (metric.t_max - metric.t_min)
        p = pointwise(metric, ts)
        assert p.area.shape == ts.shape
        for i, t in enumerate(ts[:, 0].tolist()):
            assert tuple(map(float, pointwise(metric, t))) == tuple(
                float(q[i, 0]) for q in p)
    with pytest.raises(SingularPointError, match="t=0 not strictly inside"):
        pointwise(round_sphere(3), np.array([1.0, 0.0, 2.0]))


def test_tabulated_volume_batch_is_one_t_at_a_time():
    xs = np.array([0.5, 0.9, 1.6, 2.0, 2.9, 3.1])
    tab = tabulated(xs, [1.0, 3.0, 0.5, 2.5, 1.2, 2.0], n=8)
    t = np.random.default_rng(5).uniform(0.5, 3.1, 200)
    # within 4 ulps relative of each t alone (measured worst, 2 ulps)
    batch = tab.warp.power_integral(t, 7)
    singles = [float(tab.warp.power_integral(v, 7)) for v in t.tolist()]
    assert np.allclose(batch, singles, rtol=4.0 * np.finfo(float).eps, atol=0.0)


def test_slice_unit_sphere_equator():
    s = pointwise(round_sphere(3, 1.0), PI / 2)
    assert s.area == pytest.approx(4 * PI, rel=1e-14)
    assert s.volume == pytest.approx(PI ** 2, rel=1e-10)
    assert s.mean_curvature == pytest.approx(0.0, abs=1e-14)


def test_slice_mean_curvature():
    s = pointwise(round_sphere(3, 1.0), PI / 3)
    assert s.mean_curvature == pytest.approx(2.0 / math.sqrt(3.0), rel=1e-14)


def test_slice_cylinder():
    s = pointwise(cylinder(1.0, 4.0), 1.3)
    assert s.area == pytest.approx(4 * PI, rel=1e-14)
    assert s.volume == pytest.approx(4 * PI * 1.3, rel=1e-12)
    assert s.mean_curvature == 0.0
    for n in (3, 5, 8):
        for a in (0.1, 10.0):
            metric = cylinder(a, 7.0, n=n)
            for t in (1e-3, 1.3, 6.9):
                _assert_volume(pointwise(metric, t).volume,
                               _reference_volume(lambda s: mp.mpf(a), n, 0.0, t, a))
            _assert_volume(total_volume(metric),
                           _reference_volume(lambda s: mp.mpf(a), n, 0.0, 7.0, a))


def test_slice_pole_error():
    with pytest.raises(SingularPointError):
        pointwise(round_sphere(3, 1.0), 0.0)


@pytest.mark.parametrize("n", range(3, 9))
def test_closed_model_volumes_match_mpmath(n):
    # sphere (c = 1) and footballs, r and c over two decades, slices near
    # both poles, at and just short of the equator, and the whole model
    for r in (0.1, 1.0, 10.0):
        for c in (0.01, 0.1, 1.0):
            metric = round_sphere(n, r) if c == 1.0 else football(c, n=n, radius=r)

            def f(s, r=mp.mpf(r), c=mp.mpf(c)):
                return r * c * mp.sin(s / r)

            for frac in (1e-3, 0.5 - 3e-4, 0.5, 1.0 - 1e-3):
                t = frac * metric.t_max
                scale = f(min(mp.mpf(t), mp.pi * r / 2))
                _assert_volume(pointwise(metric, t).volume,
                               _reference_volume(f, n, 0.0, t, scale))
            _assert_volume(total_volume(metric),
                           _reference_volume(f, n, 0.0, metric.t_max, r * c))


@settings(max_examples=60, deadline=None)
@given(t_frac=st.floats(0.05, 0.95), c0=st.floats(0.3, 1.0),
       n=st.integers(3, 8))
def test_umbilic_identity(t_frac, c0, n):
    # every geodesic-sphere slice is umbilic: |Pi|^2 = H^2/(n-1)
    metric = football(c0, n=n)
    s = pointwise(metric, t_frac * metric.t_max)
    gap = s.second_fundamental_norm_sq - s.mean_curvature ** 2 / (n - 1)
    assert abs(gap) <= 1e-14 * max(1.0, s.second_fundamental_norm_sq)


@settings(max_examples=20, deadline=None)
@given(lam=st.floats(0.25, 4.0), t_frac=st.floats(0.1, 0.9))
def test_scaling_law(lam, t_frac):
    n = 3
    base = round_sphere(n, 1.0)
    scaled = round_sphere(n, lam)
    t = t_frac * base.t_max
    s0 = pointwise(base, t)
    s1 = pointwise(scaled, lam * t)
    assert s1.area == pytest.approx(lam ** (n - 1) * s0.area, rel=1e-12)
    assert s1.volume == pytest.approx(lam ** n * s0.volume, rel=1e-10)
    assert s1.scalar == pytest.approx(s0.scalar / lam ** 2, rel=1e-12)
    assert s1.ric_radial == pytest.approx(s0.ric_radial / lam ** 2, rel=1e-12)


def test_candidate_profile_sphere_values():
    prof = candidate_profile(round_sphere(3, 1.0), 257)
    assert prof.a_values[0] == 0.0
    assert prof.a_values[-1] == pytest.approx(0.0, abs=1e-12)
    assert prof.total_volume == pytest.approx(2 * PI ** 2, rel=1e-10)
    # the midpoint sample is the equator
    mid = 128
    assert prof.v_grid[mid] == pytest.approx(PI ** 2, rel=1e-10)
    assert prof.a_values[mid] == pytest.approx(4 * PI, rel=1e-12)


def test_candidate_profile_symmetry():
    for metric in (round_sphere(3, 1.0), football(0.7)):
        prof = candidate_profile(metric, 129)
        mirrored = prof.a_values[::-1]
        scale = np.max(prof.a_values)
        assert np.max(np.abs(prof.a_values - mirrored)) <= 1e-8 * scale
        v_mirror = prof.total_volume - prof.v_grid[::-1]
        assert np.max(np.abs(prof.v_grid - v_mirror)) <= 1e-8 * prof.total_volume


class _StalledWarp:
    """A cylinder-like warp whose volume stops growing halfway."""

    kind = "cylinder"
    t_max = 1.0

    def evaluate(self, t):
        z = np.zeros_like(np.asarray(t, dtype=float))
        return z + 1.0, z, z

    def power_integral(self, t, m):
        return np.minimum(t, 0.5)


def test_candidate_profile_validation():
    with pytest.raises(ValidationError):
        candidate_profile(round_sphere(3, 1.0), 8)
    tab = tabulated([0.5, 1.0, 1.5, 2.0], [1.0, 1.2, 1.2, 1.0])
    with pytest.raises(ValidationError):
        candidate_profile(tab, 64)
    with pytest.raises(ValidationError, match="not strictly increasing"):
        candidate_profile(WarpedMetric(3, _StalledWarp()), 32)


def test_total_volume_football():
    # vol = 2 pi^2 c^2 r^3
    assert total_volume(football(0.7, radius=1.0)) == \
        pytest.approx(2 * PI ** 2 * 0.49, rel=1e-10)


def test_tabulated_interpolation_matches_samples():
    ts = np.linspace(0.4, PI - 0.4, 40)
    tab = tabulated(ts, np.sin(ts))
    f, f1, _ = tab.warp.evaluate(1.1)
    assert f == pytest.approx(math.sin(1.1), abs=1e-4)
    assert f1 == pytest.approx(math.cos(1.1), abs=1e-2)

    # volumes against the interpolant's own cubic pieces, integrated apart,
    # on smooth samples and on rough ones whose pieces are far from linear
    rough_ts = np.array([0.5, 0.9, 1.6, 2.0, 2.9, 3.1])
    rough_fs = np.array([1.0, 3.0, 0.5, 2.5, 1.2, 2.0])
    for n, xs, fs in ((6, ts, np.sin(ts)), (5, rough_ts, rough_fs),
                      (8, rough_ts, rough_fs)):
        tab = tabulated(xs, fs, n=n)
        pieces = PchipInterpolator(xs, fs)

        def f_ref(s, xs=xs, pieces=pieces):
            j = min(max(int(np.searchsorted(xs, float(s), side="right")) - 1, 0),
                    xs.size - 2)
            return mp.polyval([mp.mpf(float(c)) for c in pieces.c[:, j]],
                              s - mp.mpf(xs[j]))

        for t in (xs[0] + 1e-3, 1.1, xs[2], PI / 2, xs[-1] - 1e-3):
            _assert_volume(pointwise(tab, t).volume,
                           _reference_volume(f_ref, n, xs[0], t, 1.0, xs))
        _assert_volume(total_volume(tab),
                       _reference_volume(f_ref, n, xs[0], xs[-1], 1.0, xs))
