import math
import sys

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isocompare.errors import NumericalError
from isocompare.gmt import (RadiusFamily, cone_over_circle, cutoff_budget,
                            monotonicity_profile, unit_circle, unit_sphere)

PI = math.pi
RHO = np.linspace(0.05, 2.0, 64)


def _reference_cap(m, theta):
    """25-digit area of the geodesic theta-cap on the unit m-sphere."""
    omega = 2 * mp.pi ** (mp.mpf(m) / 2) / mp.gamma(mp.mpf(m) / 2)
    return omega * mp.quad(lambda s: mp.sin(s) ** (m - 1), [0, theta])


def _drops(values):
    """Indices i at which values[i + 1] falls below values[i] by over 1e-12
    relative: a profile passes the monotone check when there are none."""
    a, b = values[:-1], values[1:]
    return np.nonzero(a - b > 1e-12 * np.maximum(np.abs(a), np.abs(b)))[0].tolist()


def _max_rel_error(values, references):
    return max(abs(v - r) / abs(r) for v, r in zip(values, references))


def test_sphere_profile_is_pi_exp():
    # chord-ball cap area on the unit 2-sphere is exactly pi rho^2
    prof = monotonicity_profile(unit_sphere(1.0, RHO))
    assert np.allclose(prof.values, PI * np.exp(RHO), rtol=1e-9)
    assert not _drops(prof.values)
    # every dimension against 25-digit caps of angle 2 arcsin(rho/2)
    rho = RHO[::4]
    for dim in range(1, 8):
        prof = monotonicity_profile(unit_sphere(0.5, rho, dim=dim))
        with mp.workdps(25):
            ref = [mp.exp(mp.mpf(r) / 2) * mp.mpf(r) ** -dim
                   * _reference_cap(dim, 2 * mp.asin(mp.mpf(r) / 2)) for r in rho]
            assert _max_rel_error(prof.values, ref) <= 1e-14


def test_sphere_profile_row_keeps_scalar_ulps():
    # numpy's array exp and ** are an ulp off math.exp and the float power
    # at this radius, which would print ...638; pi e^(lambda rho) to 40 digits
    # is 4.960124996385000683...
    rho = np.linspace(0.016233786987396498, 1.434743670431994, 97)
    lam = 2.554665411641461
    prof = monotonicity_profile(unit_sphere(lam, rho, dim=2))
    k = int(np.argmin(np.abs(rho - 0.178771377799)))
    assert f"{rho[k]:.12g}" == "0.178771377799"
    assert f"{prof.values[k]:.12g}" == "4.96012499639"
    with mp.workdps(40):
        assert abs(prof.values[k] - mp.pi * mp.exp(lam * mp.mpf(rho[k]))) \
            <= 2e-15 * prof.values[k]


def test_circle_profile_small_rho_limit():
    rho = np.linspace(1e-4, 2.0, 64)
    prof = monotonicity_profile(unit_circle(0.0, rho))
    # rho^-1 4 arcsin(rho/2) -> 2
    assert prof.values[0] == pytest.approx(2.0, abs=1e-6)
    assert not _drops(prof.values)


def test_circle_profile_with_curvature_weight():
    prof = monotonicity_profile(unit_circle(1.0, RHO))
    assert not _drops(prof.values)


def test_cone_profile_constant():
    prof = monotonicity_profile(cone_over_circle(PI / 4, 0.0, RHO))
    expected = PI * math.sin(PI / 4)
    assert np.allclose(prof.values, expected, rtol=1e-12)
    assert not _drops(prof.values)


def test_monotone_with_exact_and_padded_lambda():
    for make in (unit_circle, unit_sphere):
        for pad in (0.0, 1.0):
            case = make(1.0 + pad, RHO)  # sup|H| = 1 for unit circle/sphere
            assert not _drops(monotonicity_profile(case).values)
    for pad in (0.0, 1.0):
        assert not _drops(
            monotonicity_profile(cone_over_circle(PI / 3, pad, RHO)).values)


def test_negative_control_detected():
    prof = monotonicity_profile(unit_circle(-10.0, RHO))
    assert len(_drops(prof.values)) >= 1


def test_artificially_negated_profile_flagged():
    prof = monotonicity_profile(unit_sphere(1.0, RHO))
    violations = _drops(-prof.values)
    assert len(violations) == prof.values.size - 1


def test_rho_clamped_beyond_diameter():
    rho = np.linspace(0.5, 3.0, 16)
    prof = monotonicity_profile(unit_sphere(1.0, rho))
    assert prof.clamped.any()
    assert not prof.clamped[rho <= 2.0].any()


def test_ball_mass_is_per_radius():
    rho = np.linspace(0.05, 2.5, 9)
    for case in (unit_sphere(1.0, RHO, dim=3), unit_circle(1.0, RHO),
                 cone_over_circle(0.4, 1.0, RHO)):
        masses = case.ball_mass(rho)
        assert masses.shape == rho.shape
        assert [float(case.ball_mass(r)[0]) for r in rho] == masses.tolist()


@pytest.mark.parametrize("dim", [2, 100, 300, 440, 450, 700])
@pytest.mark.parametrize("lambda_", [-2000.0, -50.0, 1.0, 200.0])
def test_profile_is_positive_normal_or_an_error(dim, lambda_):
    # the profile is positive at every radius: a sample that a double cannot
    # hold as a positive normal number (nan, inf, 0, subnormal) is a
    # NumericalError naming lambda and sphere_dim, never a returned value.
    # From rho = 1/2 each factor of the weight is a double
    rho = np.linspace(0.5, 2.0, 16)
    try:
        values = monotonicity_profile(unit_sphere(lambda_, rho, dim=dim)).values
    except NumericalError as err:
        assert "cannot be formed in doubles (got " in str(err)
        assert f"), at lambda = {lambda_!r}, " \
               f"sphere_dim = {dim}" in str(err)
        assert dim >= 300 or lambda_ < 0.0
        return
    assert np.all((values >= sys.float_info.min) & (values <= sys.float_info.max))


def test_cutoff_budget_single_radius():
    family = RadiusFamily(radii=np.array([0.1]), delta=0.1, n=8,
                          c0=1.0, c=1.0, h=0.0)
    budget = cutoff_budget(family)
    assert budget.admissible
    assert budget.area_term == pytest.approx(1e-7, rel=1e-12)
    assert budget.area_term <= 0.1 ** 6  # the tight bound C delta^6
    assert budget.area_ok and budget.dirichlet_ok


def test_cutoff_budget_dyadic_family():
    radii = 0.05 * 2.0 ** -np.arange(1, 21)
    family = RadiusFamily(radii=radii, delta=0.05, n=8, c0=1.0, c=1.0, h=1.0)
    assert np.sum(radii ** 1) <= 0.05  # admissibility: sum r_i^(n-7) < 1
    budget = cutoff_budget(family)
    assert budget.admissible
    assert budget.area_ok and budget.dirichlet_ok


def test_cutoff_budget_inadmissible_flagged():
    family = RadiusFamily(radii=np.array([1.5]), delta=1.0, n=8, c0=1.0, c=1.0)
    budget = cutoff_budget(family)
    assert not budget.admissible
    assert any("exceeds delta" in v for v in budget.violated)
    assert budget.area_term > 0  # terms still reported


def test_cutoff_budget_delta_doubling_scales_bounds():
    radii = np.array([0.02, 0.01, 0.005])
    base = cutoff_budget(RadiusFamily(radii=radii, delta=0.04, n=9,
                                      c0=1.3, c=0.7, h=0.0))
    doubled = cutoff_budget(RadiusFamily(radii=radii, delta=0.08, n=9,
                                         c0=1.3, c=0.7, h=0.0))
    assert doubled.area_bound / base.area_bound == pytest.approx(2 ** 6, rel=1e-12)
    assert doubled.dirichlet_bound / base.dirichlet_bound == \
        pytest.approx(2 ** 4, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(8, 12), count=st.integers(1, 12),
       delta=st.floats(0.01, 0.4), c0=st.floats(0.1, 4.0),
       c=st.floats(0.1, 4.0), h=st.floats(0.0, 3.0),
       seed=st.integers(0, 2 ** 31))
def test_cutoff_budget_random_admissible(n, count, delta, c0, c, h, seed):
    rng = np.random.default_rng(seed)
    radii = delta * rng.uniform(0.05, 1.0, size=count)
    total = np.sum(radii ** (n - 7))
    if total > 1.0:
        radii *= 0.999 * total ** (-1.0 / (n - 7))
    family = RadiusFamily(radii=radii, delta=delta, n=n, c0=c0, c=c, h=h)
    budget = cutoff_budget(family)
    assert budget.admissible
    assert budget.area_ok
    assert budget.dirichlet_ok

