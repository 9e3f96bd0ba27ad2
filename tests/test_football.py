import math
import sys
import threading
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isocompare import quadrature
from isocompare.errors import (DomainError, NumericalError, QuadratureError,
                               ValidationError)
from isocompare.football import (EULER_CHARACTERISTIC_SPHERE,
                                 GAUSS_BONNET_TOTAL, FootballSpec,
                                 alpha_oracle, alpha_result, as_written_bound,
                                 cylinder_growth, epsilon0, oracle_path,
                                 ricci_odi_rhs, scalar_odi_rhs)
from isocompare.phase_plane import extremal_path, volume_from_path
from isocompare.warped import sin_power_integral

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


def test_round_sphere_within_a_few_ulps_of_one():
    # 1 - eps = k 2^-53, k = 1..68, left the scan a bracket of a few to
    # about 100 ulps of 4 pi: it returned z an ulp below 4 pi and a switch
    # point amplified by 1 / (1 - eps), 6.3 at eps = 0.999999999999999
    eps = [0.999999999999999] + [1.0 - k * 2.0 ** -53 for k in range(1, 69)]
    for r in alpha_oracle(eps):
        assert (r.alpha_oracle, r.z_argmax, r.switch_x) == (1.0, 4 * PI, 0.0)


def _sign_changes_exact(eps, z, num=401):
    """The exact count of the scan and where it is resolved.

    On the library's path constants scalar - ricci is
    9 (1 - eps) x^(-1/3) ((x_sw / x)^(2/3) - 1) up to x_sw and
    6 (1 - eps) x^(-1/3) (x_sw / x - 1) beyond it: positive before x_sw and
    negative after, so the count is 1 where the scan's x grid straddles x_sw
    and 0 otherwise.  In doubles the sign at a grid point is resolved where
    (1 - eps) |x / x_sw - 1| is well above roundoff; as eps -> 1 at z = z_lo
    the point nearest x_sw can fall below it (4e-16 at most, over 2e5
    samples), and no count is pinned there.
    """
    x_sw, _m0, _k = football_module._legs(z, eps)
    xs = football_module._grid(z ** 1.5 * 1e-6, z ** 1.5 * (1 - 1e-9), num)
    x_sw = x_sw[:, None]
    count = ((xs < x_sw).any(axis=-1) & (xs > x_sw).any(axis=-1)).astype(int)
    with np.errstate(divide="ignore"):      # x_sw = 0 at z = 4 pi
        margin = (1.0 - eps) * np.abs(xs / x_sw - 1.0).min(axis=-1)
    return count, margin > 1e-14


def _assert_sign_changes(eps, z):
    got = football_module._rhs_difference_sign_changes(eps, z)
    want, resolved = _sign_changes_exact(eps, z)
    assert np.array_equal(got[resolved], want[resolved])
    assert np.isin(got, (0, 1)).all()


@settings(max_examples=40, deadline=None)
@given(values=st.lists(st.tuples(st.floats(1e-6, 1.0 - football_module._NEAR_ONE),
                                 st.floats(0.0, 1.0)), min_size=1, max_size=8))
@example(values=[(0.9999999999989999, 0.0)])
def test_sign_changes_match_the_exact_count(values):
    # the scan counts one change where its grid straddles x_sw and none
    # elsewhere, at the maximizer and at any z of the bracket, for every eps
    # the oracle scans (closer to 1 it returns the round sphere without a
    # scan)
    eps = np.array([e for e, _ in values])
    z_lo, z_hi = football_module._z_bracket(eps)
    for z in (np.array([r.z_argmax for r in alpha_oracle(eps)]),
              z_lo + np.array([s for _, s in values]) * (z_hi - z_lo)):
        _assert_sign_changes(eps, z)


def test_sign_changes_near_the_round_sphere():
    # eps within 1e-9 of 1, at z_lo and above it, where the sign nearest
    # x_sw comes closest to roundoff
    rng = np.random.default_rng(11)
    eps = 1.0 - 10.0 ** rng.uniform(-12.0, -9.0, 4000)
    z_lo, z_hi = football_module._z_bracket(eps)
    for z in (z_lo, z_lo + 10.0 ** rng.uniform(-16.0, 0.0, eps.size) * (z_hi - z_lo)):
        _assert_sign_changes(eps, z)


def test_sign_changes_of_batches_in_one_workspace():
    # larger and smaller batches after each other, each eps counted on
    # its own row of the (eps, x) grid
    rng = np.random.default_rng(7)
    for size in (203, 1, 66, 7, 203):
        eps = rng.uniform(1e-6, 1.0 - football_module._NEAR_ONE, size)
        z_lo, z_hi = football_module._z_bracket(eps)
        z = z_lo + rng.uniform(0.0, 1.0, size) * (z_hi - z_lo)
        z[:2] = z_lo[:2]
        _assert_sign_changes(eps, z)


def test_sign_changes_are_counted_when_first_read(monkeypatch):
    # no command prints them: the batch's grid is built on the first read
    # of any of its results, once
    calls = []
    count = football_module._rhs_difference_sign_changes

    def counted(eps, z):
        calls.append(eps.size)
        return count(eps, z)

    monkeypatch.setattr(football_module, "_rhs_difference_sign_changes", counted)
    results = alpha_oracle([0.01, 0.1, 1.0, 0.3])
    assert calls == []
    changes = [r.rhs_sign_changes for r in results]
    assert calls == [3]
    assert changes == [1, 1, 0, 0]
    inner = [r for r in results if r.epsilon < 1.0]
    eps = np.array([r.epsilon for r in inner])
    want = count(eps, np.array([r.z_argmax for r in inner])).tolist()
    assert [r.rhs_sign_changes for r in inner] == want
    assert calls == [3]


def test_alpha_continuity_at_football_end():
    # at z = 4 pi/(3 - 2 eps) the construction degenerates to the pure
    # cone-point path, whose value is the closed-form family value
    for eps in (0.05, 0.3, 0.6):
        z_lo, _ = football_module._z_bracket(eps)
        got = football_module._half_volume_at(eps)(z_lo)[0] / PI ** 2
        assert got == pytest.approx(football_family_value(eps), rel=1e-6)


def _verbatim_over_end(z, eps):
    # the published switch point over the path's end x = z^(3/2), as written
    return z ** ((4 * PI - eps) / 2) / (2 * (1 - eps)) / z ** 1.5


def test_as_written_bound_exceeds_200():
    # z_lo >= 4 pi / 3 and the exponent (4 pi - eps - 3) / 2 >= 4.28, so the
    # bound is at least (4 pi / 3)^4.28 / 2 = 229.9 for every eps
    eps = np.concatenate((np.geomspace(5e-324, 0.5, 300),
                          1.0 - np.geomspace(0.5, 1e-12, 300)))
    floor = (4 * PI / 3) ** 4.28 / 2
    assert floor > 200.0
    assert np.all(as_written_bound(eps) >= floor)


def test_as_written_messages_match_the_eager_dump():
    # the audit's first message per eps, "switch y(z)=Y exceeds termination
    # z^(3/2)=T" at z = z_lo, printed Y and T to 6 digits, and the bound is
    # their ratio: the golden eps, and 1 - 1e-11, whose bracket is a few
    # ulps of 4 pi wide
    for eps, y, end in ((0.05, 5087.84, 9.02023), (0.175, 9344.93, 10.3263),
                        (0.3, 18349.5, 11.9811),
                        (1.0 - 1e-11, 1.13738e17, 44.5466)):
        assert as_written_bound(eps) == pytest.approx(y / end, rel=1e-5)
    # "eps -> 1: switch formula divides by 2(1-eps)"
    assert as_written_bound(1.0) == math.inf


@pytest.mark.parametrize("eps", [1e-6, 0.05, 0.3, 0.9, 1.0 - 1e-11, 1.0])
def test_violation_counts_sum_to_length(eps):
    # the audit's 33-point scan: every point is over, so the count of over
    # points is the scan's length, and the least ratio is the bound, at z_lo
    bound = as_written_bound(eps)
    if eps == 1.0:
        assert bound == math.inf
        return
    z = np.linspace(*football_module._z_bracket(eps), football_module._SCAN)
    ratio = _verbatim_over_end(z, eps)
    assert np.count_nonzero(ratio > 1.0) == z.size == football_module._SCAN
    assert np.argmin(ratio) == 0
    assert abs(ratio[0] - bound) <= 1e-15 * bound


def test_violations_of_a_batch_match_single_eps():
    eps = [1.0, 0.05, 1.0 - 1e-11, 0.3, 5e-324]
    assert isinstance(as_written_bound(0.3), float)
    assert as_written_bound(eps).tolist() == [as_written_bound(e) for e in eps]
    assert as_written_bound([]).size == 0
    with pytest.raises(ValidationError, match="got 0.0"):
        as_written_bound([0.1, 0.0])
    with pytest.raises(ValidationError):
        as_written_bound([[0.1]])


def test_alpha_as_written_radicand_at_endpoint():
    # at z = 4 pi the second radicand at x = z^(3/2) is
    # -18 (1-eps) y(z)^(-1/3) <= 0, and the switch lies past that end
    eps = 0.5
    y_sw = (4 * PI) ** (0.5 * (4 * PI - eps)) / (2 * (1 - eps))
    radicand = 36 * PI - 18 * (1 - eps) * y_sw ** (-1 / 3) - 9 * (4 * PI)
    assert radicand <= 0
    assert y_sw / (4 * PI) ** 1.5 >= as_written_bound(eps) > 1.0


def test_alpha_as_written_degenerate_near_one():
    # the verbatim switch divides by 2 (1 - eps): inf within 1e-12 of 1
    assert as_written_bound(1.0) == as_written_bound(1.0 - 1e-13) == math.inf
    assert math.isfinite(as_written_bound(1.0 - 1e-11))


def test_alpha_result_discrepancy_reported():
    # football-alpha prints the oracle's values; the verbatim display gives
    # no value to set against them, and the bound says why
    for eps in (0.1, 0.3, 0.5):
        r = alpha_result(eps)
        assert r == alpha_oracle(eps)
        assert r.alpha_oracle >= 1.0 - 1e-9
        assert as_written_bound(eps) > 1.0


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
    assert bracket.evaluations == []


def test_epsilon0_ends_at_adjacent_doubles():
    # a tol finer than the doubles near eps0 once looped for ever: the
    # bracket stops at two adjacent doubles
    for tol in (1e-300, 5e-324):
        bracket = epsilon0("oracle", tol=tol)
        assert len(bracket.evaluations) <= 64
        assert bracket.hi == np.nextafter(bracket.lo, 1.0)
        assert max(bracket.lo - 0.1347277554, 0.1347277554 - bracket.hi) <= 1e-10


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
    if u0 <= u_sw:
        return ricci        # z = z_lo, where rounding can put u_sw past u0
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
        bracket = 9.0 * u0 - 2.25 * (3.0 * z - 4.0 * PI) / u0
        got = float(football_module._scalar_leg_integral(u0, length, k, bracket)[0])
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


def test_alpha_matches_mpmath_supremum_at_3e_5():
    # the interior peak sits at s = (z - z_lo) / (4 pi - z_lo) ~ 1.2e-10,
    # inside the first scan cell: the graded points bracket it
    want = _mp_alpha(3e-5)
    assert abs(alpha_oracle(3e-5).alpha_oracle - want) <= 1e-11 * want


@settings(max_examples=5, deadline=None)
@given(eps=st.floats(1e-6, 5e-3))
def test_alpha_matches_mpmath_supremum_at_small_eps(eps):
    want = _mp_alpha(eps)
    assert abs(alpha_oracle(eps).alpha_oracle - want) <= 1e-11 * want


@pytest.mark.parametrize("eps", [1e-5, 5e-3, 0.05, 0.1345, 0.9])
def test_half_volume_slope_matches_mpmath(eps):
    # dV/dz against numerical differentiation of the 40-digit half volume,
    # at z - z_lo from 1e-12 to the whole bracket; the offset is taken from
    # the double z_lo, as the library does.  The scale pi / (4 sqrt(eps)) is
    # the slope at z_lo: at small eps the slope is a difference of terms of
    # that size, and it crosses 0 at the maximizer.
    z_lo, z_hi = football_module._z_bracket(eps)
    half_volume = football_module._half_volume_at(eps)
    scale = PI / (4.0 * math.sqrt(eps))
    # the two ends in closed form: pi / (4 sqrt(eps)) at z_lo, and at 4 pi,
    # where the ricci and switch terms cancel, the round sphere's
    # int_0^u0 u / (2 u0 sqrt(u0^2 - u^2)) du = 1/2
    assert abs(half_volume(z_lo)[1] - scale) <= 1e-15 * scale
    assert abs(half_volume(z_hi)[1] - 0.5) <= 1e-12 * scale
    # near z_lo, Q(u) of the scalar leg is about 18 eps u0, a difference of
    # two terms near 18 u0, so the slope carries about 1e-16 / eps relative
    tol = 1e-12 + 1e-15 / eps
    span = z_hi - z_lo
    for d in (1e-12, 1e-9, 1e-6, 1e-3, 0.1, 1.0, 0.5 * span, 0.9 * span):
        got = float(half_volume(z_lo + d)[1])
        with mp.workdps(40):
            e = mp.mpf(eps)
            gap = 4 * mp.pi - 4 * mp.pi / (3 - 2 * e) - (mp.mpf(z_lo + d) - mp.mpf(z_lo))
            want = -mp.diff(lambda g: _mp_half_volume(e, g), gap)
        assert abs(got - want) <= tol * (abs(want) + scale), d


@pytest.mark.parametrize("eps", [9.530123466977739e-07, 2.8281252902500807e-06,
                                 1e-5, 1e-3, 0.05, 0.1345])
def test_argmax_is_a_zero_of_the_slope(eps):
    # the refined point wins over a scan point within roundoff of its value:
    # below eps ~ 1e-5 a graded point can lie that close, and it is then
    # up to 5e-14 off the stationary point, where dV/dz is 1% of its scale
    z = alpha_oracle(eps).z_argmax
    slope = football_module._half_volume_at(eps)(z)[1]
    assert abs(slope) <= 1e-3 * PI / (4.0 * math.sqrt(eps))


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
        got = float(football_module._half_volume_at(eps)(z_lo + d)[0])
        with mp.workdps(40):
            e = mp.mpf(eps)
            offset = mp.mpf(z_lo + d) - mp.mpf(z_lo)
            want = _mp_half_volume(e, 4 * mp.pi - 4 * mp.pi / (3 - 2 * e) - offset)
        assert abs(got - want) <= 1e-14 * want, d
    got = float(football_module._half_volume_at(eps)(z_lo)[0])
    assert got == pytest.approx(PI ** 2 * football_family_value(eps), rel=1e-14)
    assert float(football_module._half_volume_at(eps)(z_hi)[0]) == PI ** 2


# ---------------------------------------------------------------------------
# the node-major scalar-leg kernel against the expression form it replaced

def _sqrt_endpoint_expression_form(g, a, b, c):
    # shape-major abscissae (*shape, NODES), one fresh array per operation
    t, w = quadrature._T, quadrature._W
    c = np.asarray(c, dtype=float)
    w_lo, w_hi = np.sqrt(c - b), np.sqrt(c - a)
    x = (0.5 * (w_hi + w_lo))[..., None] + (0.5 * (w_hi - w_lo))[..., None] * t
    with np.errstate(invalid="ignore", divide="ignore"):
        return (w_hi - w_lo) * (g(c[..., None] - x * x) @ w)


def _half_volume_expression_form(eps, z):
    # the half volume as written before the in-place kernel; only the round
    # sphere's value at z = 4 pi is now the closed form pi^2, which numpy's
    # 16-node weights give exactly where the supremum evaluates 4 pi (the
    # last z of the scan, or a bracket end)
    z_max = football_module._Z_MAX
    z_lo = z_max / (3.0 - 2.0 * eps)
    two_gap = 2.0 * (1.0 - eps)
    root_lo = np.sqrt(z_lo)
    top = z_lo * root_lo
    near_top, slope_lo, denominator = top / 8.0, eps * 2.0 * z_lo, two_gap * top
    b = 9.0 * eps
    root_b, scale = np.sqrt(b), 3.0 / b ** 1.5
    z = np.asarray(z, dtype=float)
    root = np.sqrt(z)
    roots = root + root_lo
    x_sw = root * (z_max - z) / two_gap
    near = x_sw > near_top
    d = z - z_lo
    delta = d / roots
    one_minus_q = np.where(
        near, d * (d + root_lo * delta + slope_lo) / (denominator * roots),
        1.0 - x_sw / top)
    x_sw = np.where(near, top - top * one_minus_q, x_sw)
    u_sw = np.cbrt(x_sw)
    r = u_sw / root_lo
    one_minus_r = one_minus_q / (1.0 + r + r * r)
    y_sq = 9.0 * z_max * one_minus_r * (1.0 + r)
    theta = np.arctan2(u_sw * root_b, np.sqrt(y_sq))
    ricci_leg = scale * (b * u_sw * u_sw + y_sq) * sin_power_integral(2, theta)
    length = np.where(near, delta + root_lo * one_minus_r, root - u_sw)
    u0, k = root[..., None], (9.0 * two_gap * x_sw)[..., None]

    def g(v):
        u = u0 + v
        return 3.0 * u * u / np.sqrt(9.0 * (u0 + u) - k / (u * u0))

    value = ricci_leg + _sqrt_endpoint_expression_form(g, -length, 0.0, 0.0)
    return np.where(z == z_max, PI ** 2, value)


@settings(max_examples=40, deadline=None)
@given(size=st.integers(1, 203), seed=st.integers(0, 2 ** 32 - 1))
@example(size=66, seed=1)
@example(size=203, seed=2)
@example(size=183, seed=328)
def test_half_volume_bit_equal_to_expression_form(size, seed):
    # in the layouts of the supremum's calls: a scan of 33 + 9 points, and
    # one point in each of two brackets; z_lo is a scalar leg of length 0,
    # 4 pi the round sphere
    rng = np.random.default_rng(seed)
    eps = np.sort(rng.uniform(1e-6, 1.0 - 1e-9, size))
    z_lo, z_hi = football_module._z_bracket(eps)
    half_volume = football_module._half_volume_at(eps[:, None])
    for count in (42, 2):
        s = rng.uniform(0.0, 1.0, count)
        s[0], s[-1] = 0.0, 1.0
        s[1:3] = (1e-15, 1e-9) if count > 3 else s[1:3]
        z = z_lo[:, None] + (z_hi - z_lo)[:, None] * s
        z[:, 0], z[:, -1] = z_lo, z_hi
        want = _half_volume_expression_form(eps[:, None], z)
        assert np.array_equal(half_volume(z)[0], want)
    # one eps and one z, as the tests and the path sampler call it
    e, z = float(eps[0]), float(z_lo[0] + rng.uniform() * (z_hi - z_lo[0]))
    assert football_module._half_volume_at(e)(z)[0] == _half_volume_expression_form(e, z)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_scalar_leg_rejects_a_nonfinite_integrand():
    # K large enough that Q(u) = 9 (u0 + u) - K / (u u0) is negative: the
    # in-place steps stay inside np.errstate, and the rule raises
    with pytest.raises(QuadratureError, match="not finite on 2 of 3"):
        football_module._scalar_leg_integral(np.full(3, 2.0), np.array([0.5, 0.5, 0.0]),
                                             np.array([1e6, 1e6, 1.0]), np.zeros(3))


def test_round_sphere_leg_is_closed_form(monkeypatch):
    # int_0^sqrt(4 pi) u^2 (4 pi - u^2)^(-1/2) du = pi^2: with the nearest
    # doubles of the 16-node weights the rule lands an ulp below, and alpha
    # above eps0 came out 0.9999999999999998
    monkeypatch.setattr(quadrature, "_W", quadrature.gauss_legendre(16)[1])
    for eps in (0.2, 0.5, 0.9, 1.0 - 1e-9):
        assert football_module._half_volume_at(eps)(4.0 * PI)[0] == PI ** 2
        assert alpha_oracle(eps).alpha_oracle == 1.0


def test_supremum_is_four_array_calls_for_any_batch(monkeypatch):
    # one scan and _STEPS bracket steps, whatever the batch and its eps
    calls = []

    def counted(*args, **kwargs):
        calls.append(np.shape(args[1]))
        return quadrature.sqrt_endpoint(*args, **kwargs)

    monkeypatch.setattr(football_module, "sqrt_endpoint", counted)
    assert football_module._STEPS == 3
    for eps in (0.05, 3e-5, [0.01, 0.1], [1e-9, 0.5], np.linspace(0.005, 0.9, 66)):
        calls.clear()
        alpha_oracle(eps)
        assert len(calls) == 4
        assert calls[1:] == [(np.size(eps), 2)] * 3


def test_supremum_allocates_less_than_one_node_array():
    # 66 eps: the scan integrates 66 x 42 scalar legs of NODES nodes, two
    # integrands each; the abscissae and integrands live in the thread's
    # workspace, grown by the first call, so a repeated supremum allocates
    # less than one NODES x batch array of doubles (347 KiB)
    eps = np.linspace(0.006, 0.9, 66)
    first = football_module._supremum(eps)
    tracemalloc.start()
    try:
        for _ in range(3):
            again = football_module._supremum(eps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < quadrature.NODES * 66 * 42 * 8
    for a, b in zip(first, again):
        assert np.array_equal(a, b)


def test_alpha_from_many_threads_matches_one_thread():
    # each thread has its own workspace: more threads than cores, switching
    # every few microseconds, give the bits of a serial run
    batches = [np.linspace(0.005 + 0.01 * i, 0.9, 20 + 7 * i) for i in range(6)]
    want = [[r.alpha_oracle for r in alpha_oracle(b)] for b in batches]
    got = [None] * len(batches)

    def work(i):
        for _ in range(3):
            got[i] = [r.alpha_oracle for r in alpha_oracle(batches[i])]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(batches))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == want


@settings(max_examples=200, deadline=None)
@given(eps=st.floats(0.0, 1.0 - 1e-12, exclude_min=True, exclude_max=True),
       s=st.floats(0.0, 1.0))
@example(eps=5e-324, s=0.0)
@example(eps=float(np.nextafter(1.0 - 1e-12, 0.0)), s=1.0)
def test_every_as_written_scan_point_is_over(eps, s):
    # y / z^(3/2) = z^((4 pi - eps - 3) / 2) / (2 (1 - eps)) increases in z,
    # so its least value on the bracket, the bound, is its value at z_lo
    bound = as_written_bound(eps)
    z_lo, z_hi = football_module._z_bracket(eps)
    z = min(z_lo + s * (z_hi - z_lo), z_hi)
    assert _verbatim_over_end(z, eps) >= bound * (1.0 - 1e-15)
    assert abs(_verbatim_over_end(z_lo, eps) - bound) <= 1e-15 * bound


_CONE_CROSSING = (2.0 - math.sqrt(3.0)) / 2.0


def test_cone_family_crosses_one_at_closed_form():
    # 3 - 2 eps = 1 + sqrt 3 and sqrt(eps) = (sqrt 3 - 1) / 2 there
    assert _CONE_CROSSING == pytest.approx(0.1339746, abs=1e-7)
    product = (3.0 - 2.0 * _CONE_CROSSING) * math.sqrt(_CONE_CROSSING)
    assert abs(product - 1.0) <= 4 * np.finfo(float).eps
    assert football_family_value(np.nextafter(_CONE_CROSSING, 0.0)) > 1.0 - 1e-15


def test_alpha_dominates_cone_family_below_crossing():
    eps = _CONE_CROSSING - np.array([1e-3, 1e-4, 1e-6, 1e-9, 1e-12])
    alpha = np.array([r.alpha_oracle for r in alpha_oracle(eps)])
    assert np.all(football_family_value(eps) > 1.0)
    assert np.all(alpha >= football_family_value(eps) * (1.0 - 1e-12))


def test_epsilon0_brackets_the_reference_at_1e_10():
    # alpha is exactly 1 above eps0 (the round sphere's closed form), so the
    # bisection tests alpha > 1 with no margin, which would shift every
    # bracket by about 3.4e-9
    ref = 0.1347277554
    bracket = epsilon0("oracle", tol=1e-10)
    assert bracket.hi - bracket.lo <= 1e-10
    assert max(bracket.lo - ref, ref - bracket.hi, 0.0) <= 1e-10


def test_epsilon0_lies_above_cone_crossing():
    # alpha stays above 1 past the cone crossing, up to eps0 = 0.13472776
    bracket = epsilon0("oracle", tol=1e-7)
    assert _CONE_CROSSING < bracket.lo < 0.13472776 < bracket.hi
    assert alpha_oracle(0.5 * (_CONE_CROSSING + bracket.lo)).alpha_oracle > 1.0
