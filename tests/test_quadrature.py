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

    got = sqrt_endpoint(lambda x: x, a, b, c)
    assert got.shape == a.shape
    assert np.allclose(got, anti(a) - anti(b), rtol=1e-14, atol=0.0)
    assert sqrt_endpoint(lambda x: np.ones_like(x), 0.0, 1.0, 1.0) == \
        pytest.approx(2.0, rel=1e-15)


def test_sqrt_endpoint_exact_for_polynomials_in_w():
    # with x = c - w^2 a polynomial g of degree NODES - 1 in x has degree
    # 2 NODES - 2 in w, inside the rule's exactness
    m = NODES - 1
    got = sqrt_endpoint(lambda x: (1.0 - x) ** m, 0.0, 1.0, 1.0)
    assert got == pytest.approx(2.0 / (2 * m + 1), rel=1e-14)


def test_sqrt_endpoint_rejects_nonfinite_values():
    with pytest.raises(QuadratureError):
        sqrt_endpoint(lambda x: 1.0 / np.sqrt(x - 0.5), 0.0, 1.0, 1.0)


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
