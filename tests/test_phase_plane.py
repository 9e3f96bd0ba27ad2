import math
import re

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isocompare.errors import EmptyPathError, NumericalError, ValidationError
from isocompare.phase_plane import (bishop_bound, extremal_path, mass_coefficient,
                                    phase_curve, ricci_mass, start_height,
                                    volume_from_path)
from isocompare.warped import (Profile, candidate_profile, curvature_bounds,
                               football, round_sphere, total_volume)

PI = math.pi


# --- independent oracles -----------------------------------------------------

def sphere_volume(n: int, r: float) -> float:
    """vol(S^n(r)) = 2 pi^((n+1)/2) / Gamma((n+1)/2) * r^n."""
    return 2 * PI ** ((n + 1) / 2) / math.gamma((n + 1) / 2) * r ** n


def substitution_volume(n: int, ric0: float, m0: float) -> float:
    """Closed form of the extremal volume via x = x0 s^n.

    2 * n * x0 / sqrt(y0^2 - m0) * int_0^1 s^(n-1) (1-s^2)^(-1/2) ds, the last
    factor the Wallis integral sqrt(pi) Gamma(n/2) / (2 Gamma((n+1)/2)).
    """
    y0_sq = start_height(n) ** 2
    c = y0_sq - m0
    x0 = (c / mass_coefficient(n, ric0)) ** (n / 2)
    wallis = math.sqrt(PI) * math.gamma(n / 2) / (2 * math.gamma((n + 1) / 2))
    return 2 * n * x0 / math.sqrt(c) * wallis


# --- transform and mass ------------------------------------------------------

def test_phase_curve_sphere_values():
    prof = candidate_profile(round_sphere(3, 1.0), 257)
    curve = phase_curve(prof)
    # equatorial sample: F(pi^2) = (4 pi)^(3/2)
    assert curve.x[128] == pytest.approx((4 * PI) ** 1.5, rel=1e-12)
    assert curve.x[0] == 0.0
    # start slope F'(0) = n omega^(1/(n-1)) = 3 sqrt(4 pi)
    assert curve.y[0] == pytest.approx(3 * math.sqrt(4 * PI), rel=1e-14)
    assert curve.y[0] == pytest.approx(10.6347, abs=1e-4)


def test_phase_curve_positivity_validation():
    v = np.linspace(0.0, 1.0, 8)
    a = np.array([0.0, 1.0, 0.0, 1.0, 1.0, 1.0, 1.0, 0.0])
    prof = Profile(n=3, v_grid=v, a_values=a, t_grid=v, warp_slope=np.ones(8))
    with pytest.raises(ValidationError):
        phase_curve(prof)


def test_profile_needs_matching_foliation_data():
    # the phase slope is exact from f'(t): a profile carries its t-grid and
    # warp slope, one per volume sample; its total volume is its last one
    src = candidate_profile(round_sphere(3, 1.0), 16)
    fields = dict(n=3, v_grid=src.v_grid, a_values=src.a_values)
    with pytest.raises(TypeError):
        Profile(**fields)
    with pytest.raises(ValidationError, match="matching"):
        Profile(**fields, t_grid=src.t_grid, warp_slope=src.warp_slope[1:])
    assert src.total_volume == float(src.v_grid[-1])
    with pytest.raises(TypeError):
        Profile(**fields, total_volume=1.0, t_grid=src.t_grid,
                warp_slope=src.warp_slope)


def test_ricci_mass_zero_on_round_sphere():
    prof = candidate_profile(round_sphere(3, 1.0), 257)
    mass = ricci_mass(phase_curve(prof), 2.0)
    assert np.max(np.abs(mass)) <= 1e-6


def test_ricci_mass_positive_interior_small_sphere():
    # r = 1/2 has Ric = 8 > 2: mass 27 pi sin^2(t/r) > 0 strictly inside
    prof = candidate_profile(round_sphere(3, 0.5), 257)
    mass = ricci_mass(phase_curve(prof), 2.0)
    assert mass[0] == pytest.approx(0.0, abs=1e-10)
    assert np.all(mass[1:-1] > 0)
    mid = 128
    assert mass[mid] == pytest.approx(27 * PI, rel=1e-10)


def test_ricci_mass_smooth_anchor():
    for r in (0.5, 1.0, 2.0):
        prof = candidate_profile(round_sphere(3, r), 129)
        mass = ricci_mass(phase_curve(prof), 2.0)
        assert mass[0] == pytest.approx(0.0, abs=1e-10)


def test_ricci_mass_football_constant():
    c0 = 0.7
    prof = candidate_profile(football(c0), 257)
    mass = ricci_mass(phase_curve(prof), 2.0)
    expected = 36 * PI * (1 - c0 ** 2)
    assert np.max(np.abs(mass - expected)) <= 1e-10


def test_ricci_mass_validation():
    prof = candidate_profile(round_sphere(3, 1.0), 65)
    with pytest.raises(ValidationError):
        ricci_mass(phase_curve(prof), 0.0)


@settings(max_examples=15, deadline=None)
@given(r=st.floats(0.4, 1.0), c0=st.floats(0.5, 1.0))
def test_monotone_mass_on_admissible_models(r, c0):
    # models certified to satisfy Ric >= 2 have nondecreasing mass up to
    # half volume
    metric = football(c0, radius=r)
    assert curvature_bounds(metric).ric_min >= 2.0 - 1e-9
    prof = candidate_profile(metric, 129)
    mass = ricci_mass(phase_curve(prof), 2.0)
    first_half = prof.v_grid <= prof.total_volume / 2 * (1 + 1e-9)
    drops = np.diff(mass[first_half])
    assert np.min(drops, initial=0.0) >= -1e-6


# --- extremal paths ---------------------------------------------------------

def test_extremal_path_unit_constants():
    path = extremal_path(3, 2.0, 0.0)
    assert path.y0 == start_height(3)
    assert path.y0 == pytest.approx(6 * math.sqrt(PI), rel=1e-15)
    # x0 solves 36 pi - 9 x^(2/3) = 0
    assert path.x0 == pytest.approx((4 * PI) ** 1.5, rel=1e-14)


def test_extremal_path_scaled():
    # 36 pi - 36 x^(2/3) = 0 at x = pi^(3/2)
    path = extremal_path(3, 8.0, 0.0)
    assert path.x0 == pytest.approx(PI ** 1.5, rel=1e-14)


def test_extremal_path_empty():
    y0_sq = start_height(3) ** 2
    with pytest.raises(EmptyPathError):
        extremal_path(3, 2.0, y0_sq)
    with pytest.raises(ValidationError):
        extremal_path(3, 2.0, -1.0)
    with pytest.raises(ValidationError):
        extremal_path(3, 0.0, 0.0)


# --- volumes ----------------------------------------------------------------

def test_volume_from_path_matches_substitution_oracle():
    for n, ric0, m0 in [(3, 2.0, 0.0), (3, 2.0, 20.0), (4, 3.0, 0.0),
                        (5, 4.0, 11.0), (8, 7.0, 0.0)]:
        got = volume_from_path(extremal_path(n, ric0, m0))
        want = substitution_volume(n, ric0, m0)
        assert got == pytest.approx(want, rel=1e-9)


def test_volume_known_values():
    assert volume_from_path(extremal_path(3, 2.0, 0.0)) == \
        pytest.approx(2 * PI ** 2, rel=1e-8)
    assert volume_from_path(extremal_path(3, 8.0, 0.0)) == \
        pytest.approx(PI ** 2 / 4, rel=1e-8)
    assert volume_from_path(extremal_path(4, 3.0, 0.0)) == \
        pytest.approx(8 * PI ** 2 / 3, rel=1e-8)


@pytest.mark.parametrize("n", range(3, 9))
def test_closed_form_volume_matches_mpmath(n):
    for ric0, m0 in [(n - 1.0, 0.0), (2.0, 5.0), (0.3, 40.0)]:
        with mp.workdps(25):
            omega = 2 * mp.pi ** (mp.mpf(n) / 2) / mp.gamma(mp.mpf(n) / 2)
            c = (n * omega ** (1 / mp.mpf(n - 1))) ** 2 - m0
            x0 = (c * (n - 1) / (n * n * mp.mpf(ric0))) ** (mp.mpf(n) / 2)
            # x = x0 s^n: dx / y = n x0 s^(n-1) (c (1 - s^2))^(-1/2) ds
            want = 2 * mp.quad(lambda s: n * x0 * s ** (n - 1)
                               / mp.sqrt(c * (1 - s * s)), [0, 1])
        got = volume_from_path(extremal_path(n, ric0, m0))
        assert abs(got - want) <= 1e-14 * want


def test_bishop_bound_values():
    assert bishop_bound(3, 2.0) == pytest.approx(2 * PI ** 2, rel=1e-6)
    assert bishop_bound(4, 3.0) == pytest.approx(8 * PI ** 2 / 3, rel=1e-6)
    assert bishop_bound(3, 8.0) == pytest.approx(PI ** 2 / 4, rel=1e-6)


def test_bishop_bound_scaling():
    for n in (3, 4, 5):
        assert bishop_bound(n, 2.0) / bishop_bound(n, 8.0) == \
            pytest.approx(2 ** n, rel=1e-9)


def test_bishop_bound_exactness_sweep():
    for n in (3, 4, 5, 8):
        for r in (0.5, 1.0, 2.0):
            got = bishop_bound(n, (n - 1) / r ** 2)
            assert got == pytest.approx(sphere_volume(n, r), rel=1e-6)


@pytest.mark.parametrize("n", [100, 343, 344, 400, 438, 439, 470, 500])
def test_bishop_bound_in_high_dimension_matches_mpmath(n):
    # Gamma((n+1)/2) overflows from n = 342 on and omega_(n-1) is subnormal
    # from n = 439 on; the bound is vol(S^n(r)), r^2 = (n-1) / ric0.  The
    # power (c / b)^(n/2) multiplies the few-ulp error of c by n / 2
    ric0 = 3.0
    with mp.workdps(30):
        a = mp.mpf(n + 1) / 2
        want = 2 * mp.pi ** a / mp.gamma(a) * ((n - 1) / mp.mpf(ric0)) ** (mp.mpf(n) / 2)
    got = bishop_bound(n, ric0)
    assert abs(got - want) <= 2e-15 * n * want


@pytest.mark.parametrize("n, ric0", [(3, 1e-300), (600, 1.0), (10 ** 6, 3.0)])
def test_bishop_bound_beyond_double_range_is_numerical_error(n, ric0):
    with pytest.raises(NumericalError, match=f"n = {n}, ric0 = {ric0:g}"):
        bishop_bound(n, ric0)


@pytest.mark.parametrize("ric0, what", [(1e212, "path end x0"),
                                        (2.5e206, "volume")])
def test_bishop_bound_below_normal_doubles_is_numerical_error(ric0, what):
    # at 2.5e206 the path end x0 = 3.2e-308 is still normal, the bound is not
    with pytest.raises(NumericalError, match=re.escape(
            f"{what} is below the normal doubles at n = 3, ric0 = {ric0:g}")):
        bishop_bound(3, ric0)


def test_extremal_volume_overflow_is_numerical_error():
    # a large mass leaves c = y0^2 - m0 small: the path end x0 is finite,
    # and the volume, 2 n W x0 / sqrt(c), is not
    path = extremal_path(3, 1.5e-206, start_height(3) ** 2 - 1.0)
    assert math.isfinite(path.x0)
    with pytest.raises(NumericalError, match="volume overflows"):
        volume_from_path(path)


def test_sup_attained_at_zero_mass():
    bound = bishop_bound(3, 2.0)
    for m0 in np.linspace(1.0, 100.0, 9):
        assert bound >= volume_from_path(extremal_path(3, 2.0, float(m0)))


def test_bishop_dominates_admissible_models():
    bound = bishop_bound(3, 2.0)
    for metric in (football(0.7), football(0.9), round_sphere(3, 0.8)):
        assert curvature_bounds(metric).ric_min >= 2.0 - 1e-9
        assert total_volume(metric) <= bound + 1e-9
