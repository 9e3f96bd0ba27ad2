import mpmath as mp
import numpy as np
import pytest

from isocompare import quadrature
from isocompare.errors import QuadratureError
from isocompare.phase_plane import bishop_bound
from isocompare.quadrature import NODES, gauss_legendre, sin_power, sqrt_endpoint


def test_sqrt_endpoint_closed_forms_over_arrays():
    # int_a^b x (c - x)^(-1/2) dx = G(a) - G(b), G(x) = 2/3 sqrt(c - x) (x + 2c)
    a = np.array([0.0, 0.5, 1.0, 2.0])
    b = np.array([1.0, 1.0, 1.5, 3.0])
    c = np.array([1.0, 2.0, 1.5, 10.0])

    def anti(x):
        return 2.0 / 3.0 * np.sqrt(c - x) * (x + 2.0 * c)

    got = sqrt_endpoint(lambda x, spare, out: np.copyto(out, x), a, b, c)
    assert got.shape == a.shape
    assert np.allclose(got, anti(a) - anti(b), rtol=1e-14, atol=0.0)
    assert sqrt_endpoint(lambda x, spare, out: out.fill(1.0), 0.0, 1.0, 1.0) == \
        pytest.approx(2.0, rel=1e-15)


def test_sqrt_endpoint_exact_for_polynomials_in_w():
    # with x = c - w^2 a polynomial g of degree NODES - 1 in x has degree
    # 2 NODES - 2 in w, inside the rule's exactness
    m = NODES - 1
    got = sqrt_endpoint(lambda x, spare, out: np.power(1.0 - x, m, out=out),
                        0.0, 1.0, 1.0)
    assert got == pytest.approx(2.0 / (2 * m + 1), rel=1e-14)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_sqrt_endpoint_integrates_two_integrands_on_one_rule():
    # the first integrand gets the bits of a call on its own, the second its
    # closed form; an interval counts once when either is not finite
    a = np.array([[0.0, 0.5], [1.0, 2.0]])
    b = np.array([[1.0, 1.0], [1.5, 3.0]])
    c = np.array([[1.0, 2.0], [1.5, 10.0]])

    def first(x, spare, out):
        np.multiply(x, x, out=out)

    def both(x, spare, out):
        first(x, spare, out[0])
        np.copyto(out[1], x)

    def anti(x):
        return 2.0 / 3.0 * np.sqrt(c - x) * (x + 2.0 * c)

    got = sqrt_endpoint(both, a, b, c, integrands=2)
    assert got.shape == (2,) + a.shape
    assert np.array_equal(got[0], sqrt_endpoint(first, a, b, c))
    assert np.allclose(got[1], anti(a) - anti(b), rtol=1e-14, atol=0.0)

    def blows_up(x, spare, out):
        np.sqrt(x - 0.9, out=out[0])         # nan on [0, 1] and [0.5, 1]
        np.sqrt(x - 0.4, out=out[1])         # nan on [0, 1] alone

    with pytest.raises(QuadratureError, match="not finite on 2 of 4"):
        sqrt_endpoint(blows_up, a, b, c, integrands=2)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_sqrt_endpoint_rejects_nonfinite_values():
    with pytest.raises(QuadratureError):
        sqrt_endpoint(lambda x, spare, out: np.divide(1.0, np.sqrt(x - 0.5), out=out),
                      0.0, 1.0, 1.0)


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


def test_sqrt_endpoint_returns_no_workspace_memory():
    # the abscissae and values of a call live in that call's scratch; results
    # are fresh arrays, unchanged by later calls
    scratch = []

    def g(x, spare, out):
        scratch.append(out)
        np.subtract(1.0, x, out=spare)
        np.multiply(spare, spare, out=out)

    big = sqrt_endpoint(g, np.zeros(50), np.full(50, 0.5), 1.0)
    kept = big.copy()
    small = sqrt_endpoint(g, np.zeros((2, 3)), np.full((2, 3), 0.5), 1.0)
    assert np.array_equal(big, kept)
    assert not any(np.shares_memory(r, s) for r in (big, small) for s in scratch)
    assert not np.shares_memory(big, small)
    assert big.shape == (50,) and small.shape == (2, 3)
    assert np.array_equal(big, np.full(50, big[0]))
    assert np.array_equal(small, np.full((2, 3), big[0]))
    # int_0^0.5 (1 - x)^2 (1 - x)^(-1/2) dx = (2/5) (1 - 0.5^(5/2))
    assert big[0] == pytest.approx(0.4 * (1.0 - 0.5 ** 2.5), rel=1e-14)


def test_sqrt_endpoint_is_reentrant():
    # an integrand that integrates a smaller batch before it reads its own
    # abscissae: each call's scratch is its own, so the outer call keeps
    # the closed form c (2/3) (1 - 0.5^(3/2)) of int_0^0.5 c (1 - x)^(1/2)
    def one(x, spare, out):
        out.fill(1.0)

    def inner():
        # 2 (1 - sqrt(1 - 0.75)) = 1, up to roundoff
        return sqrt_endpoint(one, np.zeros(1), np.full(1, 0.75), 1.0)[0]

    def g(x, spare, out):
        c = inner()
        np.subtract(1.0, x, out=out)
        out *= c

    got = sqrt_endpoint(g, np.zeros(50), np.full(50, 0.5), 1.0)
    want = inner() * (2.0 / 3.0) * (1.0 - 0.5 ** 1.5)
    assert np.allclose(got, want, rtol=0.0, atol=2e-16)
