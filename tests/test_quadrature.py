import numpy as np
import pytest

from isocompare.errors import QuadratureError
from isocompare.quadrature import NODES, sqrt_endpoint


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
