import math
import sys

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isocompare.errors import DomainError, NumericalError, ValidationError
from isocompare.football import (EULER_CHARACTERISTIC_SPHERE,
                                 GAUSS_BONNET_TOTAL, FootballSpec,
                                 alpha_as_written, alpha_oracle, alpha_result,
                                 cylinder_growth, epsilon0, oracle_path,
                                 ricci_odi_rhs, scalar_odi_rhs)
from isocompare.phase_plane import extremal_path, volume_from_path

# the package's football() function shadows the module of the same name
football_module = sys.modules["isocompare.football"]

PI = math.pi


def football_family_value(eps: float) -> float:
    """Volume ratio of the best cone-point model at Ricci fraction eps.

    Maximizing vol = 2 pi^2 c^2 r^3 under R >= 6 (forces c^2 <= 1/(3 r^2 - 2))
    and Ric >= 2 eps (forces r = 1/sqrt(eps)) gives r^3/(3 r^2 - 2) V0, i.e.
    1 / ((3 - 2 eps) sqrt(eps)).
    """
    return 1.0 / ((3.0 - 2.0 * eps) * np.sqrt(eps))


def test_gauss_bonnet_constant_is_named():
    assert EULER_CHARACTERISTIC_SPHERE == 2
    assert GAUSS_BONNET_TOTAL == 2 * PI * EULER_CHARACTERISTIC_SPHERE
    assert GAUSS_BONNET_TOTAL == pytest.approx(4 * PI, rel=1e-15)


def test_football_spec_validation():
    FootballSpec(0.5)
    with pytest.raises(ValidationError):
        FootballSpec(0.0)
    with pytest.raises(ValidationError):
        FootballSpec(1.5)


def test_scalar_odi_rhs_values():
    assert scalar_odi_rhs(4 * PI, 0.0, 6.0) == pytest.approx(-1 / (2 * PI), rel=1e-14)
    assert scalar_odi_rhs(4 * PI, 0.0, 0.0) == pytest.approx(1 / (4 * PI), rel=1e-14)
    assert scalar_odi_rhs(1e9, 0.0, 6.0) == pytest.approx(0.0, abs=1e-8)
    assert scalar_odi_rhs(1e9, 0.0, 6.0) < 0.0
    with pytest.raises(DomainError):
        scalar_odi_rhs(0.0, 1.0)


def test_ricci_odi_rhs_values():
    assert ricci_odi_rhs(4 * PI, 0.0, 1.0) == pytest.approx(-1 / (2 * PI), rel=1e-14)
    assert ricci_odi_rhs(4 * PI, 0.0, 0.5) == pytest.approx(-1 / (4 * PI), rel=1e-14)
    assert ricci_odi_rhs(1.0, 2.0, 1.0) == -4.0
    with pytest.raises(DomainError):
        ricci_odi_rhs(-1.0, 0.0, 1.0)


def test_rhs_agree_at_sphere_equator():
    # normalization consistency: both bounds coincide on the round sphere
    assert scalar_odi_rhs(4 * PI, 0.0) == pytest.approx(
        ricci_odi_rhs(4 * PI, 0.0, 1.0), rel=1e-14)


def test_alpha_oracle_at_one():
    assert alpha_oracle(1.0).alpha_oracle == pytest.approx(1.0, abs=1e-6)


def test_alpha_oracle_at_half():
    # consistent with the proven threshold bound eps0 <= 1/2
    assert alpha_oracle(0.5).alpha_oracle == pytest.approx(1.0, abs=1e-6)


def test_alpha_oracle_small_eps_exceeds_one():
    r = alpha_oracle(0.05)
    assert r.alpha_oracle > 1.0
    assert r.alpha_oracle >= football_family_value(0.05) - 1e-9


def test_alpha_oracle_dominates_football_family():
    for eps in (0.05, 0.1, 0.13, 0.3, 0.7):
        r = alpha_oracle(eps)
        assert r.alpha_oracle >= max(1.0, football_family_value(eps)) - 1e-9


def test_alpha_oracle_never_below_one():
    for eps in (0.07, 0.2, 0.45, 0.8, 1.0):
        assert alpha_oracle(eps).alpha_oracle >= 1.0 - 1e-9


def test_alpha_oracle_nonincreasing():
    grid = np.linspace(0.04, 1.0, 64)
    values = [alpha_oracle(float(e)).alpha_oracle for e in grid]
    diffs = np.diff(values)
    assert np.max(diffs) <= 1e-9


def test_oracle_path_matches_extremal_at_one():
    oracle = oracle_path(1.0)
    reference = extremal_path(3, 2.0, 0.0, samples=oracle.x.size)
    assert np.max(np.abs(oracle.x - reference.x)) <= 1e-8
    assert np.max(np.abs(oracle.y - reference.y)) <= 1e-8


def test_single_regime_switch_below_threshold():
    # below the threshold the maximizer is interior: ricci-active for small
    # areas, scalar-active for large, with exactly one switch
    for eps in (0.05, 0.1, 0.13):
        r = alpha_oracle(eps)
        assert r.switch_x > 0
        assert r.rhs_sign_changes == 1


def test_no_switch_above_threshold():
    # above the threshold the supremum sits at the round sphere, also where
    # the z-bracket is narrower than the half volume's resolution
    for eps in (0.2, 0.5, 1.0 - 1e-8, 1.0 - 1e-10, 1.0):
        r = alpha_oracle(eps)
        assert r.switch_x == pytest.approx(0.0, abs=1e-9)
        assert r.z_argmax == pytest.approx(4 * PI, rel=1e-12)


def test_alpha_continuity_at_football_end():
    # at z = 4 pi/(3 - 2 eps) the construction degenerates to the pure
    # cone-point path, whose value is the closed-form family value
    for eps in (0.05, 0.3, 0.6):
        z_lo, _ = football_module._z_bracket(eps)
        got = football_module._half_volume_at(eps)(z_lo) / PI ** 2
        assert got == pytest.approx(football_family_value(eps), rel=1e-6)


def test_alpha_as_written_records_violations():
    r = alpha_as_written(0.5)
    assert r.domain_violations
    assert math.isnan(r.alpha_as_written)
    # the verbatim switch exceeds the termination for every z in the bracket
    assert any("exceeds termination" in v for v in r.domain_violations)


def test_alpha_as_written_radicand_at_endpoint():
    # at z = 4 pi the second radicand at x = z^(3/2) is
    # -18 (1-eps) y(z)^(-1/3) <= 0: recorded, not fatal
    eps = 0.5
    y_sw = (4 * PI) ** (0.5 * (4 * PI - eps)) / (2 * (1 - eps))
    radicand = 36 * PI - 18 * (1 - eps) * y_sw ** (-1 / 3) - 9 * (4 * PI)
    assert radicand <= 0
    r = alpha_as_written(eps)
    assert r.domain_violations


def test_alpha_as_written_degenerate_near_one():
    r = alpha_as_written(1.0)
    assert r.degenerate_formula
    assert math.isnan(r.alpha_as_written)


def test_alpha_result_discrepancy_reported():
    for eps in (0.1, 0.3, 0.5):
        r = alpha_result(eps)
        assert r.alpha_oracle >= 1.0 - 1e-9
        # the verbatim formula never evaluates cleanly; the audit trail
        # must say so rather than silently passing
        assert (not math.isnan(r.discrepancy)) or r.domain_violations


def test_epsilon0_oracle_bracket():
    bracket = epsilon0("oracle", tol=5e-4)
    assert not bracket.no_root
    assert bracket.hi - bracket.lo <= 5e-4
    assert 0.10 < bracket.lo < bracket.hi < 0.20
    assert bracket.hi <= 0.5


def test_alpha_oracle_finds_narrow_peak_near_threshold():
    # at eps = 0.1345 the interior peak is narrower than a scan cell and the
    # cone end is below 1: the scan alone returned the round sphere's 1
    r = alpha_oracle(0.1345)
    assert 6.70e-4 <= r.alpha_oracle - 1.0 <= 6.71e-4
    assert r.z_argmax == pytest.approx(4.63522, abs=1e-5)
    assert r.rhs_sign_changes == 1


def test_epsilon0_bracket_contains_two_leg_root():
    # the two-leg supremum crosses 1 at eps = 0.13472776 (mpmath bisection),
    # above the cone-family crossing (2 - sqrt 3) / 2 = 0.1339746
    bracket = epsilon0("oracle", tol=5e-4)
    assert bracket.lo < 0.1347278 < bracket.hi


def test_epsilon0_as_written_no_root():
    bracket = epsilon0("as-written", tol=5e-4)
    assert bracket.no_root


def test_epsilon0_unknown_method():
    with pytest.raises(ValidationError):
        epsilon0("guess")


def test_cylinder_growth_values():
    rows = cylinder_growth([10.0, 100.0, 1000.0])
    assert [r.volume for r in rows] == pytest.approx(
        [40 * PI, 400 * PI, 4000 * PI], rel=1e-10)
    for row in rows:
        assert row.ric_inf == pytest.approx(0.0, abs=1e-12)
        assert row.scalar_inf == pytest.approx(2.0, rel=1e-12)
        # Ric_inf = 0 < eps * 2 for every positive eps: hypothesis violated
        assert row.ric_inf < 0.05 * 2.0


def test_cylinder_growth_validation():
    with pytest.raises(ValidationError):
        cylinder_growth([10.0, 5.0])
    with pytest.raises(ValidationError):
        cylinder_growth([-1.0, 2.0])


def test_cylinder_growth_overflow_names_the_length():
    with np.errstate(all="raise"):
        with pytest.raises(NumericalError, match="length 1e\\+308"):
            cylinder_growth([1.0, 1e308])
        assert cylinder_growth([1e307])[0].volume == pytest.approx(4e307 * PI)


# --- 25-digit mpmath references ----------------------------------------------

def _mp_half_volume(eps, gap):
    """Half volume of the two-leg path ending at area z = 4 pi - gap, by
    25-digit quadrature of dx / y along each leg in u = x^(1/3):
    the ricci leg y^2 = 36 pi - m0 - 9 eps u^2 on [0, u_sw] as
    u = u_e sin(theta), the scalar leg y^2 = 36 pi - 9 u^2 - K / u on
    [u_sw, sqrt(z)] as u = sqrt(z) - w^2."""
    z = 4 * mp.pi - gap
    u0 = mp.sqrt(z)
    x_sw = u0 * gap / (2 * (1 - eps))
    u_sw = mp.cbrt(x_sw)
    c = 36 * mp.pi - 27 * (1 - eps) * u_sw ** 2
    u_e = mp.sqrt(c / (9 * eps))
    theta = mp.asin(min(u_sw / u_e, 1))
    ricci = u_e ** 2 / mp.sqrt(eps) * mp.quad(lambda t: mp.sin(t) ** 2, [0, theta])
    k = 18 * (1 - eps) * x_sw

    def scalar(w):
        u = u0 - w * w
        return 6 * u * u / mp.sqrt(9 * (u0 + u) - k / (u * u0))

    return ricci + mp.quad(scalar, [0, mp.sqrt(u0 - u_sw)])


def _mp_alpha(eps):
    """sup over z of the half volume / pi^2: a scan in s = (z - z_lo) /
    (4 pi - z_lo) graded toward z_lo, then golden-section search between
    the best scan point's neighbours."""
    with mp.workdps(25):
        e = mp.mpf(eps)
        span = 4 * mp.pi - 4 * mp.pi / (3 - 2 * e)

        def value(s):
            return _mp_half_volume(e, (1 - s) * span)

        ss = [mp.mpf(0)] + [mp.mpf(10) ** (mp.mpf(k) / 2) for k in range(-24, 1)]
        vals = [value(s) for s in ss]
        k = max(range(len(ss)), key=vals.__getitem__)
        best = vals[k]
        if 0 < k < len(ss) - 1:
            a, b = ss[k - 1], ss[k + 1]
            g = (mp.sqrt(5) - 1) / 2
            c, d = b - g * (b - a), a + g * (b - a)
            fc, fd = value(c), value(d)
            while b - a > mp.mpf("1e-7") * ss[k]:
                if fc > fd:
                    b, d, fd = d, c, fc
                    c = b - g * (b - a)
                    fc = value(c)
                else:
                    a, c, fc = c, d, fd
                    d = a + g * (b - a)
                    fd = value(d)
            best = max(best, fc, fd)
        return best / mp.pi ** 2


@pytest.mark.parametrize("eps", [5e-3, 0.02, 0.05, 0.1, 0.13, 0.5])
def test_alpha_matches_mpmath_supremum(eps):
    got = alpha_oracle(eps).alpha_oracle
    want = _mp_alpha(eps)
    assert abs(got - want) <= 1e-10 * want


@pytest.mark.parametrize("eps", [5e-3, 0.05, 0.1345, 0.9])
def test_scalar_leg_rule_matches_mpmath(eps):
    # the fixed endpoint rule alone, fed the same double inputs as mpmath
    z_lo, z_hi = football_module._z_bracket(eps)
    for s in (1e-9, 1e-6, 1e-3, 0.1, 0.5, 1.0):
        z = z_lo + s * (z_hi - z_lo)
        x_sw, _m0, k = (float(v) for v in football_module._legs(z, eps))
        u0 = math.sqrt(z)
        length = u0 - min(float(np.cbrt(x_sw)), u0)
        got = float(football_module._scalar_leg_integral(u0, length, k))
        with mp.workdps(25):
            def integrand(w):
                u = u0 - w * w
                return 6 * u * u / mp.sqrt(9 * (u0 + u) - k / (u * u0))

            want = mp.quad(integrand, [0, mp.sqrt(length)])
        assert abs(got - want) <= 1e-14 * want


@settings(max_examples=60, deadline=None)
@given(eps=st.floats(1e-6, 1.0, exclude_max=True), s=st.floats(0.0, 1.0))
def test_half_volume_finite_on_closed_bracket(eps, s):
    z_lo, z_hi = football_module._z_bracket(eps)
    zs = np.array([z_lo, np.nextafter(z_lo, z_hi), z_lo + s * (z_hi - z_lo),
                   np.nextafter(z_hi, z_lo), z_hi])
    assert np.all(np.isfinite(football_module._half_volume_at(eps)(zs)))


def test_half_volume_degenerate_leg_near_cone_end():
    # a scalar leg of length ~1e-12 relative used to end in QuadratureError
    z_lo, z_hi = football_module._z_bracket(0.136)
    zs = z_lo + (z_hi - z_lo) * np.array([0.0, 1e-15, 1e-13, 1e-12, 1e-11])
    assert np.all(np.isfinite(football_module._half_volume_at(0.136)(zs)))
    assert alpha_oracle(1e-9).alpha_oracle > 1.0


@pytest.mark.parametrize("eps", [0.05, 0.1, 0.13, 0.2, 0.5])
def test_oracle_path_volume_matches_alpha(eps):
    # the sampled extremal path integrates back to the supremum; above the
    # threshold its ricci leg is empty (z = 4 pi) and carries no samples
    path = oracle_path(eps)
    assert np.all(np.diff(path.x) > 0)
    volume = volume_from_path(path)
    assert volume == pytest.approx(2 * PI ** 2 * alpha_oracle(eps).alpha_oracle,
                                   rel=1e-6)


@settings(max_examples=40, deadline=None)
@given(values=st.lists(st.floats(5e-3, 1.0, exclude_max=True),
                       min_size=1, max_size=12))
def test_alpha_batch_invariants(values):
    eps = np.array(sorted(values + [0.5, 1.0]))
    results = alpha_oracle(eps)
    alpha = np.array([r.alpha_oracle for r in results])
    assert np.all(alpha[1:] <= alpha[:-1] * (1.0 + 1e-12))
    assert np.all(alpha >= np.maximum(football_family_value(eps), 1.0) * (1.0 - 1e-12))
    assert np.all(alpha[(eps == 0.5) | (eps == 1.0)] == 1.0)
    # an eps gets the same result whatever else is in its batch
    alone = alpha_oracle(eps[::-1])[::-1]
    for a, b in zip(results, alone):
        assert (a.alpha_oracle, a.z_argmax, a.switch_x, a.rhs_sign_changes) == (
            b.alpha_oracle, b.z_argmax, b.switch_x, b.rhs_sign_changes)


@settings(max_examples=30, deadline=None)
@given(values=st.lists(st.floats(1e-6, 5e-3), min_size=1, max_size=8))
@example(values=[1e-5])   # 7.4e-7 below while the ricci leg used arcsin
def test_alpha_dominates_cone_family_at_small_eps(values):
    eps = np.array(values)
    alpha = np.array([r.alpha_oracle for r in alpha_oracle(eps)])
    assert np.all(alpha >= football_family_value(eps) * (1.0 - 1e-12))


@pytest.mark.xfail(strict=True, reason=(
    "below eps ~ 1e-4 the interior peak lies within 1e-8 of z_lo or closer, "
    "inside the last zoom round's first cell near z_lo, so the "
    "supremum comes out low (8e-11 relative at eps = 3e-5)"))
def test_alpha_matches_mpmath_supremum_at_3e_5():
    want = _mp_alpha(3e-5)
    assert abs(alpha_oracle(3e-5).alpha_oracle - want) <= 1e-11 * want


def test_alpha_oracle_batch_shapes():
    assert isinstance(alpha_oracle(0.1), football_module.AlphaResult)
    batch = alpha_oracle([0.1, 1.0, 0.3])
    assert [r.epsilon for r in batch] == [0.1, 1.0, 0.3]
    assert alpha_oracle([]) == []
    with pytest.raises(ValidationError, match="got 0.0"):
        alpha_oracle([0.1, 0.0])
    with pytest.raises(ValidationError):
        alpha_result([[0.1]])


@pytest.mark.parametrize("eps", [1e-5, 1e-3, 5e-3, 0.05, 0.1345, 0.5, 0.9])
def test_half_volume_near_cone_end_matches_mpmath(eps):
    # d = z - z_lo down to 1e-14: the legs are written in d, so the value
    # is exact to roundoff as the switch nears the ricci curve's zero
    z_lo, z_hi = football_module._z_bracket(eps)
    for d in (1e-14, 1e-12, 1e-9, 1e-6, 1e-3, 0.1, 1.0):
        got = float(football_module._half_volume_at(eps)(z_lo + d))
        with mp.workdps(40):
            e = mp.mpf(eps)
            offset = mp.mpf(z_lo + d) - mp.mpf(z_lo)
            want = _mp_half_volume(e, 4 * mp.pi - 4 * mp.pi / (3 - 2 * e) - offset)
        assert abs(got - want) <= 1e-14 * want, d
    got = float(football_module._half_volume_at(eps)(z_lo))
    assert got == pytest.approx(PI ** 2 * football_family_value(eps), rel=1e-14)
    assert float(football_module._half_volume_at(eps)(z_hi)) == PI ** 2
