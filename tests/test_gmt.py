import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isocompare.errors import ValidationError
from isocompare.gmt import (RadiusFamily, ambient_h_bound, area_ratio_constant,
                            check_monotone, cone_over_circle, cutoff_budget,
                            monotonicity_profile, unit_circle, unit_sphere)
from isocompare.warped import football, round_sphere

PI = math.pi
RHO = np.linspace(0.05, 2.0, 64)


def _reference_cap(m, theta):
    """25-digit area of the geodesic theta-cap on the unit m-sphere."""
    omega = 2 * mp.pi ** (mp.mpf(m) / 2) / mp.gamma(mp.mpf(m) / 2)
    return omega * mp.quad(lambda s: mp.sin(s) ** (m - 1), [0, theta])


def _max_rel_error(values, references):
    return max(abs(v - r) / abs(r) for v, r in zip(values, references))


def test_sphere_profile_is_pi_exp():
    # chord-ball cap area on the unit 2-sphere is exactly pi rho^2
    prof = monotonicity_profile(unit_sphere(1.0, RHO))
    assert np.allclose(prof.values, PI * np.exp(RHO), rtol=1e-9)
    assert not check_monotone(prof)
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
    assert not check_monotone(prof)


def test_circle_profile_with_curvature_weight():
    prof = monotonicity_profile(unit_circle(1.0, RHO))
    assert not check_monotone(prof)


def test_cone_profile_constant():
    prof = monotonicity_profile(cone_over_circle(PI / 4, 0.0, RHO))
    expected = PI * math.sin(PI / 4)
    assert np.allclose(prof.values, expected, rtol=1e-12)
    assert not check_monotone(prof)


def test_monotone_with_exact_and_padded_lambda():
    for make in (unit_circle, unit_sphere):
        for pad in (0.0, 1.0):
            case = make(1.0 + pad, RHO)  # sup|H| = 1 for unit circle/sphere
            assert not check_monotone(monotonicity_profile(case))
    for pad in (0.0, 1.0):
        assert not check_monotone(
            monotonicity_profile(cone_over_circle(PI / 3, pad, RHO)))


def test_negative_control_detected():
    prof = monotonicity_profile(unit_circle(-10.0, RHO))
    assert len(check_monotone(prof)) >= 1


def test_artificially_negated_profile_flagged():
    prof = monotonicity_profile(unit_sphere(1.0, RHO))
    violations = check_monotone(-prof.values)
    assert len(violations) == prof.values.size - 1


def test_rho_clamped_beyond_diameter():
    rho = np.linspace(0.5, 3.0, 16)
    prof = monotonicity_profile(unit_sphere(1.0, rho))
    assert prof.clamped.any()
    assert not prof.clamped[rho <= 2.0].any()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, width=64),
                min_size=2, max_size=12),
       st.sampled_from([0.0, 1e-12, 1e-3]))
def test_check_monotone_matches_pairwise_loop(values, rel_tol):
    expected = [(i, a, b) for i, (a, b) in enumerate(zip(values, values[1:]))
                if a - b > rel_tol * max(abs(a), abs(b), 1e-300)]
    with np.errstate(invalid="ignore"):   # inf - inf and 0 * inf, as in the loop
        got = check_monotone(values, rel_tol)
    assert [i for i, _, _ in got] == [i for i, _, _ in expected]


def test_ball_mass_is_per_radius():
    rho = np.linspace(0.05, 2.5, 9)
    for case in (unit_sphere(1.0, RHO, dim=3), unit_circle(1.0, RHO),
                 cone_over_circle(0.4, 1.0, RHO)):
        masses = case.ball_mass(rho)
        assert masses.shape == rho.shape
        assert [float(case.ball_mass(r)[0]) for r in rho] == masses.tolist()


def test_check_monotone_needs_two_samples():
    with pytest.raises(ValidationError):
        check_monotone([1.0])


def test_ambient_h_bound_values():
    assert ambient_h_bound(1.0, 0.5, 3, 1, 2.0) == 7.5
    assert ambient_h_bound(0.0, 0.0, 3, 1, 0.0) == 0.0
    assert ambient_h_bound(2.0, 1.0, 8, 2, 0.25) == 7.0
    with pytest.raises(ValidationError):
        ambient_h_bound(-1.0, 0.0, 3, 1, 0.0)
    with pytest.raises(ValidationError):
        ambient_h_bound(1.0, 0.0, 0, 1, 0.0)


@settings(max_examples=40, deadline=None)
@given(sup_h=st.floats(0, 5), h_in=st.floats(0, 5), n=st.integers(1, 10),
       l=st.integers(1, 5), a=st.floats(0, 5), bump=st.floats(0.01, 2.0))
def test_ambient_h_bound_monotone(sup_h, h_in, n, l, a, bump):
    base = ambient_h_bound(sup_h, h_in, n, l, a)
    assert ambient_h_bound(sup_h + bump, h_in, n, l, a) > base
    assert ambient_h_bound(sup_h, h_in + bump, n, l, a) > base
    assert ambient_h_bound(sup_h, h_in, n, l + 1, a + bump) >= base


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


def test_area_ratio_unit_slice():
    metric = round_sphere(3, 1.0)
    rho = np.linspace(1e-3, PI, 64)
    max_ratio, ratios = area_ratio_constant(metric, PI / 2, rho)
    assert ratios[0] == pytest.approx(PI, abs=1e-5)   # flat-disc limit
    assert ratios[-1] == pytest.approx(4 * PI / PI ** 2, rel=1e-10)
    assert max_ratio == pytest.approx(PI, abs=1e-5)
    assert math.isfinite(max_ratio)
    # slices of footballs in every dimension against 25-digit caps, up to
    # and past the whole slice sphere
    rho = np.linspace(0.05, 4.0, 12)
    for n in range(3, 9):
        metric = football(0.3, n=n, radius=2.0)
        t = 0.3 * metric.t_max
        _, ratios = area_ratio_constant(metric, t, rho)
        with mp.workdps(25):
            f = mp.mpf(0.6) * mp.sin(mp.mpf(t) / 2)
            ref = [f ** (n - 1) * _reference_cap(n - 1, min(mp.mpf(r) / f, mp.pi))
                   / mp.mpf(r) ** (n - 1) for r in rho]
            assert _max_rel_error(ratios, ref) <= 1e-14


def test_area_ratio_scale_invariance():
    rho = np.linspace(0.1, 1.0, 16)
    _, base = area_ratio_constant(round_sphere(3, 1.0), PI / 2, rho)
    _, scaled = area_ratio_constant(round_sphere(3, 2.0), PI, 2 * rho)
    assert np.allclose(base, scaled, rtol=1e-10)
