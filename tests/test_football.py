import contextlib
import io
import math
import sys
import threading

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isocompare import __version__, quadrature
from isocompare.cli import format_number, main
from isocompare.errors import NumericalError, QuadratureError, ValidationError
from isocompare.football import (EULER_CHARACTERISTIC_SPHERE,
                                 GAUSS_BONNET_TOTAL, alpha_oracle,
                                 as_written_bound, epsilon0)
from isocompare.quadrature import sin_power
from isocompare.warped import (curvature_bounds, cylinder, cylinder_growth,
                               total_volume)

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


def test_single_regime_switch_below_threshold():
    # below the threshold the maximizer is interior: ricci-active for small
    # areas, scalar-active for large, with exactly one switch
    for eps in (0.05, 0.1, 0.13):
        r = alpha_oracle(eps)
        assert r.switch_x > 0
        assert _sign_changes(r) == [1]
    # and none where the maximizer is the round sphere
    assert _sign_changes(alpha_oracle([0.01, 0.1, 1.0, 0.3])) == [1, 1, 0, 0]


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
    r = alpha_oracle(eps)
    for row in zip(r.alpha_oracle, r.z_argmax, r.switch_x):
        assert row == (1.0, 4 * PI, 0.0)


def _rhs_difference_sign_changes(eps, z, num: int = 401):
    """Sign changes of (scalar - ricci) phase-space descent bounds along the
    oracle path at each (eps, z) of two 1-D arrays, eps < 1; exactly one on
    interior z.  A zero takes the sign before it, so only strict changes
    count."""
    x_sw = football_module._switch_x(z, eps)
    m0 = 27.0 * (1.0 - eps) * x_sw ** (2.0 / 3.0)     # as the module docstring has it
    e, x_sw, m0 = eps[:, None], x_sw[:, None], m0[:, None]
    xs = np.linspace(z ** 1.5 * 1e-6, z ** 1.5 * (1 - 1e-9), num, axis=-1)
    u = np.cbrt(xs)
    x_m1_3, u = 1.0 / u, u * u               # x^(-1/3), x^(2/3)
    # y^2 = Y0^2 - m0 - 9 eps x^(2/3) up to x_sw, and beyond it
    # Y0^2 - 9 x^(2/3) - 18 (1 - eps) x_sw x^(-1/3)
    y0_sq = football_module._Y0_SQ
    y_sq = np.where(xs <= x_sw, (y0_sq - m0) - 9.0 * e * u,
                    (y0_sq - 9.0 * u) - 18.0 * (1.0 - e) * x_sw * x_m1_3)
    # scalar - ricci = (Y0^2 - y^2) / (3 x) - 9 x^(-1/3) - (-6 eps x^(-1/3))
    signs = np.sign((y0_sq - y_sq) / (3.0 * xs) - 9.0 * x_m1_3 - -6.0 * e * x_m1_3)
    last = np.maximum.accumulate((signs != 0) * np.arange(num), axis=-1)
    filled = np.take_along_axis(signs, last, axis=-1)
    return np.count_nonzero(filled[:, 1:] * filled[:, :-1] < 0, axis=-1)


def _sign_changes(result):
    """The sign count at each (eps, z_argmax) of an AlphaResult as a list;
    0 at eps = 1, where the path is the round sphere's and has no ricci
    leg."""
    eps, z = np.atleast_1d(result.epsilon), np.atleast_1d(result.z_argmax)
    counts = np.zeros(eps.size, dtype=int)
    inner = eps < 1.0
    counts[inner] = _rhs_difference_sign_changes(eps[inner], z[inner])
    return counts.tolist()


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
    x_sw = football_module._switch_x(z, eps)
    xs = np.linspace(z ** 1.5 * 1e-6, z ** 1.5 * (1 - 1e-9), num, axis=-1)
    x_sw = x_sw[:, None]
    count = ((xs < x_sw).any(axis=-1) & (xs > x_sw).any(axis=-1)).astype(int)
    with np.errstate(divide="ignore"):      # x_sw = 0 at z = 4 pi
        margin = (1.0 - eps) * np.abs(xs / x_sw - 1.0).min(axis=-1)
    return count, margin > 1e-14


def _assert_sign_changes(eps, z):
    got = _rhs_difference_sign_changes(eps, z)
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
    for z in (alpha_oracle(eps).z_argmax,
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


def test_sign_changes_of_batches_of_varying_size():
    # larger and smaller batches after each other, each eps counted on
    # its own row of the (eps, x) grid
    rng = np.random.default_rng(7)
    for size in (203, 1, 66, 7, 203):
        eps = rng.uniform(1e-6, 1.0 - football_module._NEAR_ONE, size)
        z_lo, z_hi = football_module._z_bracket(eps)
        z = z_lo + rng.uniform(0.0, 1.0, size) * (z_hi - z_lo)
        z[:2] = z_lo[:2]
        _assert_sign_changes(eps, z)


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
    z = np.linspace(*football_module._z_bracket(eps), 33)
    ratio = _verbatim_over_end(z, eps)
    assert np.count_nonzero(ratio > 1.0) == z.size == 33
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
    # an oracle result's least bound, over the eps the oracle validated
    assert alpha_oracle(eps[:4]).as_written() == min(as_written_bound(eps[:4]))
    assert alpha_oracle(0.3).as_written() == as_written_bound(0.3)


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
        r = alpha_oracle(eps)
        assert r.alpha_oracle >= 1.0 - 1e-9
        assert as_written_bound(eps) > 1.0


# eps0 to 34 digits: the eps at which the half volume's interior maximum,
# the zero of dV/dz, equals the round sphere's pi^2.  Recipe: a secant in
# eps on that maximum over pi^2, less 1, each maximum a secant in z on a
# central difference of _mp_half_volume, step 1e-12 (z - z_lo), at 45
# digits; at 60 digits with step 1e-16 (z - z_lo) the root agrees to 36
# digits.  It lies above the cone-family crossing (2 - sqrt 3) / 2 = 0.1339746.
EPS0 = 0.1347277554114124989271003344249664


def test_epsilon0_oracle_bracket():
    bracket = epsilon0(tol=5e-4)
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
    assert _sign_changes(r) == [1]


def test_epsilon0_bracket_contains_two_leg_root():
    # the two-leg supremum crosses 1 at EPS0, above the cone-family crossing
    bracket = epsilon0(tol=5e-4)
    assert bracket.lo < EPS0 < bracket.hi


def test_epsilon0_ends_at_adjacent_doubles():
    # a tol finer than the doubles near eps0 once looped for ever: the
    # bracket stops at two adjacent doubles
    for tol in (1e-300, 5e-324):
        bracket = epsilon0(tol=tol)
        assert len(bracket.evaluations) <= 64
        assert bracket.hi == np.nextafter(bracket.lo, 1.0)
        assert max(bracket.lo - EPS0, EPS0 - bracket.hi) <= 1e-10
    # a tol that is not positive is an error of its key, not a bisection to
    # adjacent doubles
    for tol in (0.0, -1.0):
        with pytest.raises(ValidationError) as info:
            epsilon0(tol=tol)
        assert info.value.key == "tol"


def test_cylinder_growth_values():
    growth = cylinder_growth([10.0, 100.0, 1000.0])
    assert growth.volumes.tolist() == pytest.approx(
        [40 * PI, 400 * PI, 4000 * PI], rel=1e-10)
    # the infima, once for every length
    assert growth.ric_inf == pytest.approx(0.0, abs=1e-12)
    assert growth.scalar_inf == pytest.approx(2.0, rel=1e-12)
    # Ric_inf = 0 < eps * 2 for every positive eps: hypothesis violated
    assert growth.ric_inf < 0.05 * 2.0


def test_cylinder_growth_is_each_cylinder_alone():
    # one array product for the volumes, one curvature evaluation: the bits
    # of each length's own cylinder
    lengths = [0.5, 1.0, 3.0, 1e300]
    growth = cylinder_growth(lengths, radius=1.7)
    for length, got, volume in zip(lengths, growth.lengths, growth.volumes):
        metric = cylinder(1.7, length)
        bounds = curvature_bounds(metric)
        assert (got, volume, growth.ric_inf, growth.scalar_inf) == \
            (length, total_volume(metric), bounds.ric_min, bounds.scalar_min)


def test_cylinder_growth_of_no_lengths():
    # a table of no rows is an error of the config key lengths
    with pytest.raises(ValidationError) as info:
        cylinder_growth([])
    assert info.value.key == "lengths"


def test_cylinder_growth_validation():
    with pytest.raises(ValidationError):
        cylinder_growth([10.0, 5.0])
    with pytest.raises(ValidationError):
        cylinder_growth([-1.0, 2.0])


def test_cylinder_growth_overflow_names_the_length():
    with np.errstate(all="raise"):
        with pytest.raises(NumericalError, match="at length=1e\\+308, "):
            cylinder_growth([1.0, 1e308])
        assert cylinder_growth([1e307]).volumes[0] == pytest.approx(4e307 * PI)


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


@pytest.mark.parametrize("eps", [5e-3, 0.02, 0.05, 0.1, 0.13, 0.2, 0.5])
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
        x_sw = float(football_module._switch_x(z, eps))
        k = 18.0 * (1.0 - eps) * x_sw         # K, as the module docstring has it
        u0 = math.sqrt(z)
        length = u0 - min(float(np.cbrt(x_sw)), u0)
        excess = 3.0 * z - 4.0 * PI
        got = float(football_module._scalar_leg_integral(u0, length, k, excess)[0])
        with mp.workdps(25):
            def integrand(w):
                v = -w * w
                return 6 * (u0 + v) ** 2 / mp.sqrt(9 * (excess + v * (3 * u0 + v))
                                                   / (u0 + v))

            # at z = 4 pi (K = 0) the leg runs to u = 0, where the rounded
            # excess leaves Q's numerator an ulp from 0, of either sign; the
            # leg is int_0^u0 u^2 (u0^2 - u^2)^(-1/2) du = pi u0^2 / 4
            want = (mp.pi * mp.mpf(u0) ** 2 / 4 if k == 0.0
                    else mp.quad(integrand, [0, mp.sqrt(length)]))
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


@settings(max_examples=40, deadline=None)
@given(values=st.lists(st.floats(5e-3, 1.0, exclude_max=True),
                       min_size=1, max_size=12))
def test_alpha_batch_invariants(values):
    eps = np.array(sorted(values + [0.5, 1.0]))
    result = alpha_oracle(eps)
    alpha = result.alpha_oracle
    assert np.all(alpha[1:] <= alpha[:-1] * (1.0 + 1e-12))
    assert np.all(alpha >= np.maximum(football_family_value(eps), 1.0) * (1.0 - 1e-12))
    assert np.all(alpha[(eps == 0.5) | (eps == 1.0)] == 1.0)
    # an eps gets the same result whatever else is in its batch
    alone = football_module.AlphaResult(*(a[::-1] for a in alpha_oracle(eps[::-1])))
    counts = zip(_sign_changes(result), _sign_changes(alone))
    for a, b, (n_a, n_b) in zip(zip(*result[1:]), zip(*alone[1:]), counts):
        assert (*a, n_a) == (*b, n_b)


def test_alpha_bits_do_not_depend_on_place_in_batch():
    # alpha(0.125) moved by an ulp at the end of a batch of 0.5s while the
    # quadrature summed its nodes with a BLAS matrix-vector product
    alone = alpha_oracle(0.125).alpha_oracle
    for size in range(1, 10):
        for place in range(size):
            eps = np.full(size, 0.5)
            eps[place] = 0.125
            assert alpha_oracle(eps).alpha_oracle[place] == alone, (size, place)


@settings(max_examples=30, deadline=None)
@given(values=st.lists(st.floats(1e-6, 5e-3), min_size=1, max_size=8))
@example(values=[1e-5])   # 7.4e-7 below while the ricci leg used arcsin
def test_alpha_dominates_cone_family_at_small_eps(values):
    eps = np.array(values)
    alpha = alpha_oracle(eps).alpha_oracle
    assert np.all(alpha >= football_family_value(eps) * (1.0 - 1e-12))


def test_alpha_matches_mpmath_supremum_at_3e_5():
    # the interior peak sits at s = (z - z_lo) / (4 pi - z_lo) ~ 1.2e-10,
    # about the seed 1.26e-10: two of the cluster points bracket it
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
    tol = 1e-12
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


def _mp_slope_root(eps, z):
    """The zero of dV/dz, found from a double z near it by a secant on a
    50-digit central difference.  Its step, 1e-10 (z - z_lo), never crosses
    z_lo (mpmath's own step did at eps = 1e-6, 1e-5 and 3.29e-5, and the
    half volume below z_lo is complex) and moves the root by about 1e-24."""
    with mp.workdps(50):
        e = mp.mpf(eps)
        z_lo = 4 * mp.pi / (3 - 2 * e)

        def slope(z):
            h = (z - z_lo) / 10 ** 10
            return (_mp_half_volume(e, 4 * mp.pi - z - h)
                    - _mp_half_volume(e, 4 * mp.pi - z + h)) / (2 * h)

        # from z and a point 1e-6 of z - z_lo past it, to steps of 1e-36
        return mp.findroot(slope, (mp.mpf(z), z_lo + (z - z_lo) * (1 + mp.mpf(1e-6))),
                           tol=mp.mpf(10) ** -36, verify=False)


@pytest.mark.parametrize("eps", [1e-6, 1e-5, 3.29e-5, 5e-3, 0.05, 0.1, 0.13, 0.1345])
def test_argmax_matches_mpmath_root_of_the_slope(eps):
    # the argmax is the last root step's point, never evaluated: it is still
    # the zero of dV/dz, found from the double argmax (measured: within
    # 1.8e-16 relative from eps = 1e-6 to 0.1345)
    z = alpha_oracle(eps).z_argmax
    want = _mp_slope_root(eps, z)
    assert abs(z - want) <= 1e-14 * want


@pytest.mark.parametrize("eps, printed", [
    (0.13418777070375168, "4.63396972482"), (0.13433559051233723, "4.63456344373")])
def test_argmax_near_eps0_prints_the_mpmath_digits(eps, printed):
    # near eps0 the peak is narrow; a 12-point scan and two evaluated steps
    # left z 4e-15 and 5e-15 off the root and printed ...481 and ...372
    z = alpha_oracle(eps).z_argmax
    want = _mp_slope_root(eps, z)
    assert abs(z - want) <= 1e-14 * want
    assert mp.nstr(want, 12) == format_number(z) == printed


def test_alpha_oracle_batch_shapes():
    # floats for one eps, 1-D arrays in the sequence's order for a sequence,
    # and four empty columns for an empty one
    single = alpha_oracle(0.1)
    assert isinstance(single, football_module.AlphaResult)
    assert [type(v) for v in single] == [float] * 4
    eps = np.array([0.1, 1.0, 0.3])
    batch = alpha_oracle(eps)
    eps[0] = 0.5                       # the epsilon column is the result's own
    assert batch.epsilon.tolist() == [0.1, 1.0, 0.3]
    assert [a.shape for a in batch] == [(3,)] * 4
    assert [a.shape for a in alpha_oracle([])] == [(0,)] * 4
    with pytest.raises(ValidationError, match="got 0.0"):
        alpha_oracle([0.1, 0.0])
    with pytest.raises(ValidationError):
        alpha_oracle([[0.1]])


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
    t, w = quadrature.gauss_legendre(quadrature.NODES)
    c = np.asarray(c, dtype=float)
    w_lo, w_hi = np.sqrt(c - b), np.sqrt(c - a)
    x = (0.5 * (w_hi + w_lo))[..., None] + (0.5 * (w_hi - w_lo))[..., None] * t
    with np.errstate(invalid="ignore", divide="ignore"):
        return (w_hi - w_lo) * (g(c[..., None] - x * x) @ w)


def _half_volume_expression_form(eps, z):
    # the half volume as written before the in-place kernel, with the
    # round sphere's value at z = 4 pi the closed form pi^2
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
    ricci_leg = scale * (b * u_sw * u_sw + y_sq) * sin_power(2, theta)
    length = np.where(near, delta + root_lo * one_minus_r, root - u_sw)
    u0, excess = root[..., None], (3.0 * d + slope_lo)[..., None]

    def g(v):
        u = u0 + v
        return 3.0 * u * u / np.sqrt(9.0 * (excess + v * (3.0 * u0 + v)) / u)

    value = ricci_leg + _sqrt_endpoint_expression_form(g, -length, 0.0, 0.0)
    return np.where(z == z_max, PI ** 2, value)


@settings(max_examples=40, deadline=None)
@given(size=st.integers(1, 203), seed=st.integers(0, 2 ** 32 - 1))
@example(size=66, seed=1)
@example(size=203, seed=2)
@example(size=183, seed=328)
def test_half_volume_within_ulps_of_expression_form(size, seed):
    # in layouts like the supremum's calls: its scan of 12 points, one of
    # 42, and two points per eps; z_lo is a scalar leg of length 0,
    # 4 pi the round sphere.  The two differ in the order of the rule's
    # weighted sum and of a few products, each a few ulps of a leg, and
    # both legs are positive (measured worst, 3 ulps of V)
    rng = np.random.default_rng(seed)
    eps = np.sort(rng.uniform(1e-6, 1.0 - 1e-9, size))
    z_lo, z_hi = football_module._z_bracket(eps)
    half_volume = football_module._half_volume_at(eps[:, None])
    for count in (42, 12, 2):
        s = rng.uniform(0.0, 1.0, count)
        s[0], s[-1] = 0.0, 1.0
        s[1:3] = (1e-15, 1e-9) if count > 3 else s[1:3]
        z = z_lo[:, None] + (z_hi - z_lo)[:, None] * s
        z[:, 0], z[:, -1] = z_lo, z_hi
        want = _half_volume_expression_form(eps[:, None], z)
        assert np.all(np.abs(half_volume(z)[0] - want) <= 8 * np.spacing(want))
    # one eps and one z, as the tests and the path sampler call it
    e, z = float(eps[0]), float(z_lo[0] + rng.uniform() * (z_hi - z_lo[0]))
    want = _half_volume_expression_form(e, z)
    assert abs(football_module._half_volume_at(e)(z)[0] - want) <= 8 * np.spacing(want)


def test_scalar_leg_rejects_a_nonfinite_integrand():
    # excess = 3 z - 4 pi negative enough that Q(u) = 9 (excess + v (3 u0 + v))
    # / u is negative: the in-place steps stay inside np.errstate, and the
    # rule raises
    with pytest.raises(QuadratureError, match="not finite on 2 of 3"):
        football_module._scalar_leg_integral(np.full(3, 2.0), np.array([0.5, 0.5, 0.0]),
                                             np.ones(3), np.array([-1e6, -1e6, 1.0]))


def test_round_sphere_leg_is_closed_form():
    # int_0^sqrt(4 pi) u^2 (4 pi - u^2)^(-1/2) du = pi^2: the 16-node rule
    # lands an ulp below, and alpha above eps0 came out 0.9999999999999998
    for eps in (0.2, 0.5, 0.9, 1.0 - 1e-9):
        assert football_module._half_volume_at(eps)(4.0 * PI)[0] == PI ** 2
        assert alpha_oracle(eps).alpha_oracle == 1.0


def test_supremum_is_two_array_calls_for_any_batch(monkeypatch):
    # one 12-point scan and _STEPS steps on one bracket per eps below
    # _ROUND_FROM, whatever the batch, of which the last step's point is not
    # evaluated; the eps from _ROUND_FROM on are the round sphere and take no
    # call.  A batch in which dV/dz changes sign at no scan point (each eps
    # below about 1.4e-8, where every graded point rounds to within a few
    # ulps of z_lo) has only the point 4 pi to refine and makes the scan
    # alone, and a batch with no eps below _ROUND_FROM makes no call
    calls = []

    def counted(*args, **kwargs):
        calls.append(np.shape(args[1]))
        return quadrature.sqrt_endpoint(*args, **kwargs)

    monkeypatch.setattr(football_module, "sqrt_endpoint", counted)
    assert football_module._STEPS == 2
    assert football_module._ROUND_FROM == 0.14
    scan = football_module._scan(np.array([0.1])).shape[1]
    assert scan == 12
    for eps in (0.05, 3e-5, 0.1348, [0.01, 0.1], [1e-7, 0.5],
                np.linspace(0.005, 0.9, 66)):
        inner = np.count_nonzero(np.asarray(eps) < football_module._ROUND_FROM)
        calls.clear()
        alpha_oracle(eps)
        assert calls == [(inner, scan), (inner, 1)]
    calls.clear()
    alpha_oracle([1e-9, 0.5])
    assert calls == [(1, scan)]
    for eps in (0.5, [0.4, 0.9], [0.31, 1.0 - 1e-11, 0.6], [0.14, 0.2517]):
        calls.clear()
        alpha_oracle(eps)
        assert calls == []


def test_cli_alpha_at_one_eps_validates_once(monkeypatch, capsys):
    # one --epsilon run, in process: eps is validated once, by alpha_oracle,
    # not again for the as-written bound; one half-volume set-up, and the
    # scan and the one evaluated root step.  The ricci leg's scale takes the
    # range check only where it may leave the doubles: not at 0.05, once at
    # 1e-206, whose 36 pi multiple overflows (exit 3)
    counts = dict.fromkeys(("_batch", "_half_volume_at", "half_volume", "in_doubles"), 0)
    batch, half_volume_at = football_module._batch, football_module._half_volume_at
    in_doubles = football_module.in_doubles

    def counted_in_doubles(*args, **kwargs):
        counts["in_doubles"] += 1
        return in_doubles(*args, **kwargs)

    def counted_batch(epsilon):
        counts["_batch"] += 1
        return batch(epsilon)

    def counted_half_volume_at(eps):
        counts["_half_volume_at"] += 1
        half_volume = half_volume_at(eps)

        def counted_half_volume(z):
            counts["half_volume"] += 1
            return half_volume(z)
        return counted_half_volume

    monkeypatch.setattr(football_module, "_batch", counted_batch)
    monkeypatch.setattr(football_module, "_half_volume_at", counted_half_volume_at)
    monkeypatch.setattr(football_module, "in_doubles", counted_in_doubles)
    assert main(["football-alpha", "--epsilon", "0.05"]) == 0
    assert "# as_written = " in capsys.readouterr().out
    assert counts["_batch"] == counts["_half_volume_at"] == 1
    assert counts["half_volume"] <= 2
    assert counts["in_doubles"] == 0
    assert main(["football-alpha", "--epsilon", "1e-206"]) == 3
    assert "ricci leg's scale" in capsys.readouterr().err
    assert counts["in_doubles"] == 1
    # above eps0 the round sphere: validated once, no half-volume set-up
    counts.update(dict.fromkeys(counts, 0))
    assert main(["football-alpha", "--epsilon", "0.5"]) == 0
    assert "# as_written = " in capsys.readouterr().out
    assert counts == {"_batch": 1, "_half_volume_at": 0, "half_volume": 0,
                      "in_doubles": 0}


def _supremum_evaluating_every_step(eps):
    """The supremum with every one of the _STEPS root steps evaluated, and
    the end with the smaller |dV/dz| as its argmax: the same scan, bracket
    and steps as ``football._supremum``, one array call more."""
    z = football_module._scan(eps)
    origin, rows = z[:, :1], np.arange(eps.size)[:, None]
    half_volume = football_module._half_volume_at(eps[:, None])
    f, slope = half_volume(z)
    k, last = np.argmax(f, axis=-1)[:, None], z.shape[1] - 1
    change = (slope[:, :-1] > 0.0) & (slope[:, 1:] <= 0.0)
    lo = np.where(change.any(axis=-1), np.argmax(change, axis=-1), last)[:, None]
    hi = np.minimum(lo + 1, last)
    table = np.stack((z, slope, f, np.sqrt(z - origin)))
    z_scan, f_scan = z[rows, k][:, 0], f[rows, k][:, 0]
    p1, p2, p3 = (table[:, rows, i] for i in (hi, lo, np.minimum(hi + 1, last)))
    for _ in range(football_module._STEPS if change.any() else 0):
        (x1, f1, _, t1), (x2, f2, _, t2), (_, f3, _, t3) = p1, p2, p3
        with np.errstate(divide="ignore", invalid="ignore"):
            xi, phi = (t1 - t2) / (t3 - t2), (f1 - f2) / (f3 - f2)
            t = (f1 / (f2 - f1) * f3 / (f2 - f3)
                 + (t3 - t1) / (t2 - t1) * f1 / (f3 - f1) * f2 / (f3 - f2))
        t = t1 + (t2 - t1) * np.where(
            (phi * phi < xi) & ((1.0 - phi) ** 2 < 1.0 - xi), t, 0.5)
        x = np.clip(origin + t * t, np.minimum(x1, x2), np.maximum(x1, x2))
        value, fx = half_volume(x)
        keep = (fx > 0.0) == (f1 > 0.0)
        p3, p2 = np.where(keep, p1, p2), np.where(keep, p2, p1)
        p1 = np.stack((x, fx, value, np.sqrt(x - origin)))
    z_best, _, f_best, _ = np.where(np.abs(p1[1]) <= np.abs(p2[1]), p1, p2)[..., 0]
    roundoff = 4.0 * np.finfo(float).eps
    stay = np.where(z_scan == football_module._Z_MAX,
                    f_best <= f_scan * (1.0 + roundoff),
                    f_best < f_scan * (1.0 - roundoff))
    return np.where(stay, f_scan, f_best), np.where(stay, z_scan, z_best)


def _supremum_one_array_per_point(eps):
    """``football._supremum`` as it was before its root step held the points
    stacked: one array per quantity of each point, gathered by fancy index,
    and six np.where per update.  The same scan, bracket, steps and
    operations, so the same bits."""
    z = football_module._scan(eps)
    origin, rows, last = z[:, 0], np.arange(eps.size), z.shape[1] - 1
    half_volume = football_module._half_volume_at(eps[:, None])
    v, f = half_volume(z)
    k = v.argmax(axis=-1)
    change = (f[:, :-1] > 0.0) & (f[:, 1:] <= 0.0)
    lo = np.where(change.any(axis=-1), change.argmax(axis=-1), last)
    hi = np.minimum(lo + 1, last)
    columns = hi, lo, np.minimum(hi + 1, last)
    (x1, x2, x3), (f1, f2, f3) = ([a[rows, c] for c in columns] for a in (z, f))
    t1, t2, t3 = (np.sqrt(x - origin) for x in (x1, x2, x3))
    v1, v2, z_scan, f_scan = v[rows, hi], v[rows, lo], z[rows, k], v[rows, k]
    steps = football_module._STEPS if change.any() else 0
    for step in range(steps):
        with np.errstate(divide="ignore", invalid="ignore"):
            xi, phi = (t1 - t2) / (t3 - t2), (f1 - f2) / (f3 - f2)
            t = (f1 / (f2 - f1) * f3 / (f2 - f3)
                 + (t3 - t1) / (t2 - t1) * f1 / (f3 - f1) * f2 / (f3 - f2))
        quadratic = (phi * phi < xi) & ((1.0 - phi) ** 2 < 1.0 - xi)
        t = t1 + (t2 - t1) * np.where(quadratic, t, 0.5)
        x = np.minimum(np.maximum(origin + t * t, np.minimum(x1, x2)), np.maximum(x1, x2))
        if step == steps - 1:
            break
        value, fx = (a[:, 0] for a in half_volume(x[:, None]))
        keep = (fx > 0.0) == (f1 > 0.0)
        f3, t3 = np.where(keep, f1, f2), np.where(keep, t1, t2)
        x2, f2, v2, t2 = (np.where(keep, p2, p1) for p1, p2 in
                          zip((x1, f1, v1, t1), (x2, f2, v2, t2)))
        x1, f1, v1, t1 = x, fx, value, np.sqrt(x - origin)
    near = np.abs(f1) <= np.abs(f2)
    z_best, f_best = np.where(near, x1, x2), np.where(near, v1, v2)
    if steps:
        z_best = np.where(quadratic, x, z_best)
    roundoff = 4.0 * np.finfo(float).eps
    stay = np.where(z_scan == football_module._Z_MAX, f_best <= f_scan * (1.0 + roundoff),
                    f_best < f_scan * (1.0 - roundoff))
    return np.where(stay, f_scan, f_best), np.where(stay, z_scan, z_best)


def _log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(
        lambda x: min(max(10.0 ** x, lo), hi))


def _bits(arrays):
    return [np.asarray(a, dtype=float).view(np.int64).tolist() for a in arrays]


@settings(max_examples=60, deadline=None)
@given(values=st.lists(st.one_of(_log_uniform(1e-12, 1.0 - 1e-16),
                                 st.floats(1e-12, 1.0, exclude_max=True),
                                 st.floats(0.1339, 0.1348)),
                       min_size=1, max_size=66))
@example(values=[3.361476855473515e-08])    # the argmax moves by an ulp
@example(values=[1.4e-8, 0.2517])           # the ends of the sign-change range
@example(values=[float(np.nextafter(EPS0, 0.0)), EPS0, float(np.nextafter(EPS0, 1.0))])
@example(values=[0.31, 0.6, 1.0 - 1e-11])   # no change: the scan alone
def test_stacked_root_step_keeps_the_bits(values):
    # the supremum with its points in one (quantity, point, eps) array gives
    # the bits, alpha and argmax, of the one-array-per-point form, over the
    # batch and for each eps alone
    eps = np.array(values)
    for batch in [eps] + [eps[i:i + 1] for i in range(min(eps.size, 8))]:
        want = _supremum_one_array_per_point(batch)
        assert _bits(football_module._supremum(batch)) == _bits(want)


def _alpha_oracle_through_the_supremum(epsilon):
    """``football.alpha_oracle`` as it was before the round sphere took
    every eps from _ROUND_FROM on: only eps within _NEAR_ONE of 1 is the
    round sphere, every other eps goes through ``_supremum``, alpha its
    maximum over pi^2 and the switch point ``_switch_x`` at its argmax."""
    eps, single = football_module._batch(epsilon)
    alpha, z_arg, x_sw = football_module._ROUND_SPHERE.repeat(eps.size, axis=1)
    inner = 1.0 - eps >= football_module._NEAR_ONE
    if inner.any():
        e = eps[inner]
        best, z_arg[inner] = football_module._supremum(e)
        alpha[inner] = best / math.pi ** 2
        x_sw[inner] = football_module._switch_x(z_arg[inner], e)
    result = (eps, alpha, z_arg, x_sw)
    return tuple(float(a[0]) for a in result) if single else result


@settings(max_examples=60, deadline=None)
@given(values=st.lists(st.one_of(st.floats(0.14, 1.0), _log_uniform(0.14, 1.0),
                                 st.floats(1.0 - 1e-12, 1.0)),
                       min_size=1, max_size=66))
@example(values=[0.14, float(np.nextafter(0.14, 0.0)), 0.2517, 1.0 - 1e-12, 1.0])
def test_round_sphere_from_0_14_keeps_the_bits_of_the_supremum(values):
    # every eps from _ROUND_FROM on gets, with no half-volume call, the bits
    # of alpha, argmax and switch point that the supremum gave it, over the
    # batch and in single calls
    assert football_module._ROUND_FROM == 0.14
    want = _alpha_oracle_through_the_supremum(values)
    assert _bits(alpha_oracle(values)) == _bits(want)
    for value in values[:8]:
        want = _alpha_oracle_through_the_supremum(value)
        assert _bits(alpha_oracle(value)) == _bits(want)


def _printed(result):
    return [tuple(map(format_number, row))
            for row in zip(*(a.tolist() for a in result[1:]))]


@settings(max_examples=60, deadline=None)
@given(values=st.lists(st.one_of(st.floats(1e-9, 1.0, exclude_max=True),
                                 st.floats(0.1339, 0.1348)),
                       min_size=1, max_size=12))
@example(values=[3.361476855473515e-08])    # the argmax moves by an ulp
def test_unevaluated_last_step_prints_as_every_step_evaluated(values):
    # the last step's point, taken without a call, prints the alpha, argmax
    # and switch point of a supremum that evaluates it and picks by |dV/dz|
    got = alpha_oracle(values)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(football_module, "_supremum", _supremum_evaluating_every_step)
        want = alpha_oracle(values)
    assert _printed(got) == _printed(want)


def test_repeated_supremum_keeps_its_bits():
    # 66 eps, the scan's 66 x 12 scalar legs and the root steps: a repeated
    # supremum gives the bits of the first
    eps = np.linspace(0.006, 0.9, 66)
    first = football_module._supremum(eps)
    for _ in range(3):
        again = football_module._supremum(eps)
        for a, b in zip(first, again):
            assert np.array_equal(a, b)


def test_alpha_from_many_threads_matches_one_thread():
    # each call owns its scratch: more threads than cores, switching every
    # few microseconds, give the bits of a serial run
    batches = [np.linspace(0.005 + 0.01 * i, 0.9, 20 + 7 * i) for i in range(6)]
    want = [alpha_oracle(b).alpha_oracle.tolist() for b in batches]
    got = [None] * len(batches)

    def work(i):
        for _ in range(3):
            got[i] = alpha_oracle(batches[i]).alpha_oracle.tolist()

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
    alpha = alpha_oracle(eps).alpha_oracle
    assert np.all(football_family_value(eps) > 1.0)
    assert np.all(alpha >= football_family_value(eps) * (1.0 - 1e-12))


def test_epsilon0_brackets_the_reference_at_1e_10():
    # alpha is exactly 1 above eps0 (the round sphere's closed form), so the
    # bisection tests alpha > 1 with no margin, which would shift every
    # bracket by about 3.4e-9
    bracket = epsilon0(tol=1e-10)
    assert bracket.hi - bracket.lo <= 1e-10
    assert max(bracket.lo - EPS0, EPS0 - bracket.hi, 0.0) <= 1e-10


def test_epsilon0_lies_above_cone_crossing():
    # alpha stays above 1 past the cone crossing, up to EPS0
    bracket = epsilon0(tol=1e-7)
    assert _CONE_CROSSING < bracket.lo < EPS0 < bracket.hi
    assert alpha_oracle(0.5 * (_CONE_CROSSING + bracket.lo)).alpha_oracle > 1.0


def test_round_sphere_cut_lies_clear_of_eps0():
    # the round sphere from _ROUND_FROM on: the bisection's eps0 lies more
    # than 5e-3 below the cut, and at the cut the interior local peak of V,
    # an interior maximum over the cluster about the seed (25 digits), is
    # more than 1% below the round sphere's pi^2 (measured: 1.50e-2)
    cut = football_module._ROUND_FROM
    assert epsilon0(tol=1e-10).hi < cut - 5e-3
    seed = 0.14 * cut * cut * (1.0 + 5.0 * cut)
    with mp.workdps(25):
        e = mp.mpf(cut)
        span = 4 * mp.pi - 4 * mp.pi / (3 - 2 * e)
        v = [_mp_half_volume(e, (1 - mp.mpf(s * seed)) * span)
             for s in football_module._CLUSTER]
        peak = max(v)
        assert v[0] < peak and v[-1] < peak
        assert peak <= 0.99 * mp.pi ** 2


# ---------------------------------------------------------------------------
# the premises of the scan: on a dense grid in s, and on the scan itself

# the bisection's adjacent-double bracket ends at 0.13472775541141216, 12
# ulps below EPS0
_BELOW_EPS0 = 0.1347277554
_ABOVE_EPS0 = 0.1347277555


def _dense_scan(eps, num=600):
    """The graded points' seed 0.14 eps^2 (1 + 5 eps), and on num
    s = (z - z_lo) / (4 pi - z_lo) geometric from 1e-3 seed to 1: s, V and
    dV/dz, one row per eps of a list."""
    eps = np.asarray(eps, dtype=float)
    seed = 0.14 * eps * eps * (1.0 + 5.0 * eps)
    s = np.geomspace(1e-3 * seed, 1.0, num, axis=-1)
    z_lo, z_hi = football_module._z_bracket(eps)
    z = z_lo[:, None] + (z_hi - z_lo)[:, None] * s
    z[:, -1] = z_hi
    return (seed, s, *football_module._half_volume_at(eps[:, None])(z))


def _first_scan_change(values):
    """The scan of each eps of a list, and the column where its dV/dz
    first turns from + to -, which each row must have."""
    eps = np.array(values)
    z = football_module._scan(eps)
    _, slope = football_module._half_volume_at(eps[:, None])(z)
    change = (slope[:, :-1] > 0.0) & (slope[:, 1:] <= 0.0)
    assert change.any(axis=-1).all()
    return z, np.argmax(change, axis=-1)


@settings(max_examples=30, deadline=None)
@given(values=st.lists(st.one_of(st.floats(1e-7, _BELOW_EPS0),
                                 _log_uniform(1e-7, _BELOW_EPS0)),
                       min_size=1, max_size=20))
@example(values=[1e-7, 3e-5, 0.05, 0.1345, _BELOW_EPS0])
def test_first_slope_change_lies_among_the_graded_points(values):
    # from 1e-7 to eps0, dV/dz first turns from + to - inside
    # [seed / 2, min(2 seed, 1/32)], about the graded points, and not on the
    # scan's one cell below them, so the scan's first change brackets the
    # interior peak (measured: between 0.90 and 1.07 seed)
    seed, s, _, slope = _dense_scan(values)
    change = (slope[:, :-1] > 0.0) & (slope[:, 1:] <= 0.0)
    assert change.any(axis=-1).all()
    first, rows = np.argmax(change, axis=-1), np.arange(seed.size)
    assert np.all(s[rows, first] >= seed / 2.0)
    assert np.all(s[rows, first + 1] <= np.minimum(2.0 * seed, 1.0 / 32.0))


@settings(max_examples=30, deadline=None)
@given(values=st.lists(st.one_of(st.floats(1e-7, _BELOW_EPS0),
                                 _log_uniform(1e-7, _BELOW_EPS0)),
                       min_size=1, max_size=20))
@example(values=[1e-7, 3e-5, 0.05, 0.1345, _BELOW_EPS0])
def test_first_slope_change_on_the_scan_lies_in_the_cluster(values):
    # from 1e-7 to eps0 the scan's own first + to - change of dV/dz has both
    # ends among the cluster points about the seed (the graded seed itself
    # between them), so the one evaluated root step starts from a bracket
    # 1-2% of the seed wide (measured on 20000 eps: first change from 0.92
    # to 1.03 seed; below about 8.4e-8 the cluster is a few ulps of z_lo
    # wide, and the change can fall past it)
    _, first = _first_scan_change(values)
    # scan columns of the cluster points, after z_lo in column 0
    cluster = 1 + np.flatnonzero(np.isin(football_module._GRADED,
                                         football_module._CLUSTER))
    assert np.all(first >= cluster[0]) and np.all(first + 1 <= cluster[-1])


@settings(max_examples=30, deadline=None)
@given(values=st.lists(st.one_of(st.floats(1e-7, _BELOW_EPS0),
                                 _log_uniform(1e-7, _BELOW_EPS0)),
                       min_size=1, max_size=20))
@example(values=[1e-7, 3e-5, 0.05, 0.1345, _BELOW_EPS0])
def test_root_step_reads_only_the_graded_points(values):
    # from 1e-7 to eps0 the root step's bracket ends lo and lo + 1 and its
    # third point lo + 2 are scan columns of the graded points, which are
    # the cluster, the seed and 2 seed, never z_lo (column 0) or 4 pi (the
    # last): the scan needs no other point
    assert set(football_module._GRADED) == set(football_module._CLUSTER) | {1.0, 2.0}
    z, lo = _first_scan_change(values)
    assert np.all(lo >= 1) and np.all(lo + 2 <= z.shape[1] - 2)


@settings(max_examples=30, deadline=None)
@given(values=st.lists(st.floats(_ABOVE_EPS0, 1.0 - football_module._NEAR_ONE),
                       min_size=1, max_size=20))
@example(values=[_ABOVE_EPS0, 0.2, 0.2962, 0.3, 0.5, 1.0 - 1e-12])
def test_half_volume_stays_at_the_round_sphere_above_eps0(values):
    # above eps0 no z beats the round sphere's pi^2 by more than the
    # supremum's roundoff of 4 ulps (measured: by none), so the scan's best
    # point, 4 pi, is the answer whatever its one bracket holds
    _, _, v, _ = _dense_scan(values)
    assert np.all(v <= PI ** 2 * (1.0 + 4.0 * np.finfo(float).eps))


@settings(max_examples=30, deadline=None)
@given(values=st.lists(_log_uniform(1.7e-205, 1e-7), min_size=1, max_size=20))
@example(values=[1.7e-205, 1e-200, 1e-100, 1e-20, 1e-7])
# a wide bracket's unevaluated root step lies 1e9 ulps off z_lo here
@example(values=[2.921829989635208e-37])
def test_alpha_is_the_cone_family_below_1e_7(values):
    # below eps ~ 1e-7 the peak lies within a few ulps of z_lo, and the
    # scan's best point is the answer: the cone family's closed form to
    # roundoff (measured: -5.6e-16 to 1.1e-15 relative); below 1.7e-205 the
    # ricci leg's scale overflows.  The argmax is z_lo = 4 pi / (3 - 2 eps)
    # itself below 1e-12, where every graded point rounds to z_lo, and
    # within 16 ulps of it up to 1e-7 (measured: 13)
    eps = np.array(values)
    result = alpha_oracle(eps)
    assert np.all(np.abs(result.alpha_oracle / football_family_value(eps) - 1.0) <= 4e-15)
    z_lo = football_module._z_bracket(eps)[0]
    ulps = np.abs(result.z_argmax - z_lo) / np.spacing(z_lo)
    assert np.all(ulps <= np.where(eps < 1e-12, 0.0, 16.0))


# ---------------------------------------------------------------------------
# football-alpha through the command line: the bytes of alpha_oracle's columns


def _alpha_text(result, parameter: str) -> str:
    """The CSV of football-alpha built from an AlphaResult of arrays, eps by
    eps and cell by cell with ``format_number``; parameter is the line of
    --eps-grid or --epsilon."""
    rows = list(zip(*(a.tolist() for a in result)))
    switch = {format_number(e): x for e, _, _, x in rows}
    bound = min(as_written_bound(e) for e, *_ in rows)
    lines = ["# iso-compare football-alpha", f"# version = {__version__}",
             parameter, f"# as_written = {format_number(bound)}"]
    lines += [f"# switch_points.{key} = {format_number(switch[key])}"
              for key in sorted(switch)]
    lines.append("epsilon,alpha_oracle,alpha_as_written,z_argmax,discrepancy")
    lines += [",".join(format_number(v) for v in (e, alpha, math.nan, z, math.nan))
              for e, alpha, z, _ in rows]
    return "\n".join(lines) + "\n"


# eps = 1 and within _NEAR_ONE of it, the band from the cone crossing past
# eps0, eps below 1e-5, and the band above 0.2517 where dV/dz changes sign
# at no scan point
_EPS_REGIONS = st.one_of(
    st.just(1.0), st.floats(1.0 - football_module._NEAR_ONE, 1.0),
    st.floats(0.1339, 0.1348, exclude_min=True, exclude_max=True),
    _log_uniform(1e-9, 1e-5), st.floats(0.2517, 1.0), _log_uniform(1e-9, 1.0))


@settings(max_examples=40, deadline=None)
@given(ends=st.lists(_EPS_REGIONS, min_size=1, max_size=2, unique=True),
       num=st.integers(2, 40))
@example(ends=[1e-6, 1.0], num=40)
@example(ends=[0.1339, 0.1348], num=13)
@example(ends=[1.0 - 1e-12, 1.0], num=5)
@example(ends=[0.26, 0.99], num=9)        # no call: the round sphere
@example(ends=[1e-9, 1e-8], num=4)        # nor here, below about 1.4e-8
@example(ends=[3e-6], num=2)
@example(ends=[0.999999999999999], num=2)
def test_cli_alpha_writes_the_bytes_of_alpha_oracle(ends, num):
    # one eps is an --epsilon run, two are the ends of an --eps-grid of num
    # eps; the handler writes alpha_oracle's columns as the per-cell
    # rendering of the same call writes them
    if len(ends) == 1:
        eps = np.array(ends)
        argv = ["--epsilon", repr(ends[0])]
        parameter = f"# epsilon = {format_number(ends[0])}"
    else:
        lo, hi = sorted(ends)
        eps = np.linspace(lo, hi, num)
        argv = ["--eps-grid", f"{lo!r}:{hi!r}:{num}"]
        parameter = f"# eps_grid = {format_number(lo)},{format_number(hi)},{num}"
    result = alpha_oracle(eps.tolist())
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["football-alpha", *argv]) == 0
    assert out.getvalue() == _alpha_text(result, parameter)
