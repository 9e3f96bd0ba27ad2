import mpmath as mp
import numpy as np
import pytest

from isocompare import quadrature
from isocompare.errors import QuadratureError
from isocompare.phase_plane import bishop_bound
from isocompare.quadrature import NODES, gauss_legendre, sin_power, sqrt_endpoint


def test_sqrt_endpoint_closed_forms_over_arrays():
    # int_(-L)^0 (-x)^(-1/2) dx = 2 sqrt(L), int_(-L)^0 x (-x)^(-1/2) dx
    # = -(2/3) L^(3/2); a length of zero integrates to 0
    length = np.array([[0.0, 0.25], [1.0, 2.0], [7.5, 10.0]])

    def g(x, spare, out):
        out[0].fill(1.0)
        np.copyto(out[1], x)

    got = sqrt_endpoint(g, length)
    assert got.shape == (2,) + length.shape
    assert np.allclose(got[0], 2.0 * np.sqrt(length), rtol=1e-14, atol=0.0)
    assert np.allclose(got[1], -2.0 / 3.0 * length ** 1.5, rtol=1e-14, atol=0.0)
    assert got[0, 0, 0] == got[1, 0, 0] == 0.0
    one, _ = sqrt_endpoint(g, 1.0)
    assert one == pytest.approx(2.0, rel=1e-15)


def test_sqrt_endpoint_exact_for_polynomials_in_w():
    # with x = -w^2 a polynomial g of degree NODES - 1 in x has degree
    # 2 NODES - 2 in w, inside the rule's exactness
    m = NODES - 1

    def g(x, spare, out):
        np.negative(x, out=spare)
        np.power(spare, m, out=out[0])
        np.power(spare, m - 1, out=out[1])

    got = sqrt_endpoint(g, 1.0)
    assert got[0] == pytest.approx(2.0 / (2 * m + 1), rel=1e-14)
    assert got[1] == pytest.approx(2.0 / (2 * m - 1), rel=1e-14)


def test_sqrt_endpoint_integrates_two_integrands_on_one_rule():
    # each integrand's sum is its own: swapping the two swaps the results
    # bit for bit, and each has its closed form; an interval counts once
    # when either is not finite
    length = np.array([[1.0, 0.5], [0.25, 2.0]])

    def both(x, spare, out):
        np.multiply(x, x, out=out[0])
        np.copyto(out[1], x)

    def swapped(x, spare, out):
        both(x, spare, out[::-1])

    got = sqrt_endpoint(both, length)
    assert got.shape == (2,) + length.shape
    assert np.array_equal(got, sqrt_endpoint(swapped, length)[::-1])
    assert np.allclose(got[0], 0.4 * length ** 2.5, rtol=1e-14, atol=0.0)
    assert np.allclose(got[1], -2.0 / 3.0 * length ** 1.5, rtol=1e-14, atol=0.0)

    def blows_up(x, spare, out):
        np.sqrt(x + 0.6, out=out[0])         # nan at L = 1 and L = 2
        np.sqrt(x + 1.5, out=out[1])         # nan at L = 2 alone

    with pytest.raises(QuadratureError, match="not finite on 2 of 4"):
        sqrt_endpoint(blows_up, length)


def test_sqrt_endpoint_rejects_nonfinite_values():
    def g(x, spare, out):
        np.divide(1.0, np.sqrt(x + 0.5), out=out[0])
        out[1].fill(1.0)

    with pytest.raises(QuadratureError):
        sqrt_endpoint(g, 1.0)


@pytest.mark.parametrize("nodes", [1, 2, 5, 16, 24, 64])
def test_gauss_legendre_is_the_nearest_doubles(nodes):
    # each node is the double nearest a root of P_n, each weight the double
    # nearest 2 / ((1 - x^2) P_n'(x)^2); numpy's weights are up to 10^4 ulps off
    x, w = gauss_legendre(nodes)
    assert gauss_legendre(nodes) is gauss_legendre(nodes)
    assert not x.flags.writeable and not w.flags.writeable
    with mp.workdps(40):
        for xi, wi in zip(x, w):
            root = mp.findroot(lambda t: mp.legendre(nodes, t), mp.mpf(xi))
            slope = mp.diff(lambda t: mp.legendre(nodes, t), root)
            assert xi == float(root)
            assert wi == float(2 / ((1 - root * root) * slope * slope))


def test_sin_power_at_half_pi_builds_no_rule(monkeypatch):
    # the Bishop bound needs int_0^(pi/2) sin^(n-1) alone, the Wallis value
    def no_rule(nodes):
        raise AssertionError(f"built a {nodes}-node rule")

    monkeypatch.setattr(quadrature, "gauss_legendre", no_rule)
    assert sin_power(7, 0.5 * np.pi) == 16.0 / 35.0
    assert np.array_equal(sin_power(6, np.full((2, 3), 0.5 * np.pi)),
                          np.full((2, 3), 5.0 * np.pi / 32.0))
    for n in (4, 9, 64):
        assert bishop_bound(n, 1.0) > 0.0
    with pytest.raises(AssertionError, match="16-node"):
        sin_power(7, np.array([0.5 * np.pi, 1.0]))


@pytest.mark.parametrize("m", [3, 7, 13, 40, 100, 300, 600])
def test_sin_power_batch_is_one_theta_at_a_time(m):
    # each theta of a batch, of any shape, is within 4 ulps relative of a
    # call on it alone and of the rule's dot product at that theta: a
    # matrix-vector sum may round a row apart from a one-row dot (measured
    # worst, 2 ulps)
    rng = np.random.default_rng(m)
    theta = np.concatenate((rng.uniform(0.0, np.pi, 300),
                            [0.0, 1e-9, 0.5 * np.pi, np.pi - 1e-9, np.pi]))
    batch = sin_power(m, theta)
    singles = np.array([float(sin_power(m, th)) for th in theta.tolist()])
    ulps = 4.0 * np.finfo(float).eps
    assert np.allclose(batch, singles, rtol=ulps, atol=0.0)
    assert np.allclose(sin_power(m, theta.reshape(5, 61)).ravel(), batch,
                       rtol=ulps, atol=0.0)
    nodes = next((n for top, n in quadrature._SIN_POWER_NODES if m <= top), 64)
    t, w = gauss_legendre(nodes)
    half = quadrature._half_sin_power(m)
    for th, got in zip(theta.tolist()[:20], singles.tolist()):
        h = 0.5 * min(th, np.pi - th)
        part = h * (np.sin(h * (1.0 + t)) ** m @ w)
        assert got == pytest.approx(2.0 * half - part if th > 0.5 * np.pi else part,
                                    rel=ulps, abs=0.0)


def test_sin_power_2_is_elementwise_to_the_bit():
    # the series of x - sin x runs only on the elements with 0 < x = 2 theta
    # < 1 and at -0.0, whose sign it keeps; +0.0 takes the closed form, the
    # series' +0.0.  Each theta, on either side of 0.5 and down to the
    # subnormals, keeps the bits of the whole-batch series-below-1 form, of
    # a call on it alone, of a 0-d array and of any shape
    rng = np.random.default_rng(2)
    theta = np.concatenate((
        rng.uniform(0.0, np.pi, 58), [5e-324, 1e-300], 0.5 + rng.uniform(-1e-3, 1e-3, 40),
        np.nextafter(0.5, [0.0, 1.0]), [0.0, -0.0, 1e-9, 0.5, 0.5 * np.pi, np.pi]))
    batch = sin_power(2, theta)
    x = 2.0 * np.clip(theta, 0.0, np.pi)
    y = x * x
    series = quadrature._X_MINUS_SIN[0]
    for coefficient in quadrature._X_MINUS_SIN[1:]:
        series = series * y + coefficient
    reference = 0.25 * np.where(x < 1.0, series * y * x, x - np.sin(x))
    singles = [sin_power(2, th) for th in theta.tolist()]
    zero_d = [sin_power(2, np.array(th)) for th in theta.tolist()]
    shaped = sin_power(2, theta.reshape(9, 12))
    assert shaped.shape == (9, 12)
    bits = batch.view(np.int64)
    for got in (reference, np.array(singles), np.array(zero_d), shaped.ravel()):
        assert np.array_equal(np.asarray(got, dtype=float).view(np.int64), bits)
    assert np.signbit(batch[-5]) and not np.signbit(batch[-6])


def test_sqrt_endpoint_returns_no_workspace_memory():
    # the abscissae and values of a call live in that call's scratch; results
    # are fresh arrays, unchanged by later calls
    scratch = []

    def g(x, spare, out):
        scratch.append(out)
        np.subtract(1.0, x, out=spare)
        np.multiply(spare, spare, out=out[0])
        np.copyto(out[1], spare)

    big = sqrt_endpoint(g, np.full(50, 0.5))
    kept = big.copy()
    small = sqrt_endpoint(g, np.full((2, 3), 0.5))
    assert np.array_equal(big, kept)
    assert not any(np.shares_memory(r, s) for r in (big, small) for s in scratch)
    assert not np.shares_memory(big, small)
    assert big.shape == (2, 50) and small.shape == (2, 2, 3)
    assert np.array_equal(big, np.repeat(big[:, :1], 50, axis=1))
    assert np.array_equal(small, np.broadcast_to(big[:, :1, None], (2, 2, 3)))
    # with s = -x: int_0^L (1 + s)^k s^(-1/2) ds at L = 1/2, k = 2 and 1
    root = np.sqrt(0.5)
    assert big[0, 0] == pytest.approx(
        2.0 * root + 4.0 / 3.0 * root ** 3 + 0.4 * root ** 5, rel=1e-14)
    assert big[1, 0] == pytest.approx(2.0 * root + 2.0 / 3.0 * root ** 3, rel=1e-14)


def test_sqrt_endpoint_is_reentrant():
    # an integrand that integrates a smaller batch before it reads its own
    # abscissae: each call's scratch is its own, so the outer call keeps
    # the closed forms c (2 sqrt(L) + (2/3) L^(3/2)) and 2 c sqrt(L) of
    # int_(-L)^0 c (1 - x) (-x)^(-1/2) and int_(-L)^0 c (-x)^(-1/2), L = 1/2
    def one(x, spare, out):
        out.fill(1.0)

    def inner():
        # 2 sqrt(1/4) = 1, up to roundoff
        return sqrt_endpoint(one, np.full(1, 0.25))[0, 0]

    def g(x, spare, out):
        c = inner()
        np.subtract(1.0, x, out=out[0])
        out[0] *= c
        out[1].fill(c)

    got = sqrt_endpoint(g, np.full(50, 0.5))
    root = np.sqrt(0.5)
    want = inner() * np.array([[2.0 * root + 2.0 / 3.0 * root ** 3], [2.0 * root]])
    assert np.allclose(got, want, rtol=4e-16, atol=0.0)
