import math

import pytest

from isocompare import variation
from isocompare.errors import DomainError
from isocompare.variation import (check_first_variation,
                                  check_mean_curvature_evolution,
                                  check_second_variation, convergence_order,
                                  residual_sequence, residual_table,
                                  variation_report)
from isocompare.warped import cylinder, football, round_sphere, slice_at

PI = math.pi
SPHERE = round_sphere(3, 1.0)
FOOTBALL = football(0.5)
CYLINDER = cylinder(1.0, 4.0)


def test_first_variation_equator():
    # A'(pi/2) = 0 = H A; the centered difference is exactly symmetric
    rep = check_first_variation(SPHERE, PI / 2, 1e-3)
    assert rep.residual_first <= 1e-6


def test_first_variation_cylinder_trivial():
    rep = check_first_variation(CYLINDER, 1.0, 1e-3)
    assert rep.residual_first == 0.0


def test_first_variation_halving_ratio():
    r1 = check_first_variation(SPHERE, PI / 3, 1e-3).residual_first
    r2 = check_first_variation(SPHERE, PI / 3, 5e-4).residual_first
    assert r1 / r2 == pytest.approx(4.0, rel=0.05)


def test_h_dot_equator():
    # dH/dt = -2 at the equator; -|Pi|^2 - Ric(nu,nu) = 0 - 2
    rep = check_mean_curvature_evolution(SPHERE, PI / 2, 1e-3)
    assert rep.analytic_value == pytest.approx(-2.0, rel=1e-14)
    assert rep.residual_h_dot <= 1e-6


def test_h_dot_cylinder_trivial():
    rep = check_mean_curvature_evolution(CYLINDER, 1.0, 1e-3)
    assert rep.residual_h_dot == 0.0


def test_h_dot_football():
    rep = check_mean_curvature_evolution(FOOTBALL, PI / 2, 1e-3)
    assert rep.residual_h_dot <= 1e-6


def test_second_variation_equator_value():
    # A''(V) at the equator: (0 - 2) / (4 pi)^2 integrated = -1/(2 pi)
    rep = check_second_variation(SPHERE, PI / 2, 1e-3)
    assert rep.analytic_value == pytest.approx(-1.0 / (2 * PI), rel=1e-14)
    assert abs(rep.fd_value - (-1.0 / (2 * PI))) <= 1e-5
    assert rep.residual_second <= 1e-5


def test_second_variation_cylinder_trivial():
    rep = check_second_variation(CYLINDER, 1.0, 1e-3)
    assert rep.fd_value == pytest.approx(0.0, abs=1e-12)
    assert rep.analytic_value == 0.0


def test_second_variation_generic_point():
    rep = check_second_variation(SPHERE, PI / 3, 1e-3)
    assert rep.residual_second <= 1e-5


def test_stencil_domain_error():
    with pytest.raises(DomainError):
        check_first_variation(SPHERE, 1e-4, 1e-3)
    with pytest.raises(DomainError):
        check_second_variation(SPHERE, PI - 1e-4, 1e-3)
    with pytest.raises(DomainError):
        check_first_variation(SPHERE, 1.0, -1e-3)


@pytest.mark.parametrize("metric", [SPHERE, FOOTBALL], ids=["sphere", "football"])
@pytest.mark.parametrize("kind", ["first", "h_dot", "second"])
def test_convergence_orders(metric, kind):
    order = convergence_order(metric, 1.0, 1e-2, kind)
    assert order >= 1.9


def test_residual_sequence_decreasing():
    seq = residual_sequence(SPHERE, 1.2, 1e-2, "second", levels=3)
    values = [r for _, r in seq]
    assert values[0] > values[1] > values[2]


def test_profile_slope_is_mean_curvature():
    # dA/dV = (dA/dt)/(dV/dt) = H exactly from the slice closed forms
    for metric in (SPHERE, FOOTBALL, CYLINDER):
        t = 0.4 * metric.t_max
        s = slice_at(metric, t)
        h = 1e-6
        lo, hi = slice_at(metric, t - h), slice_at(metric, t + h)
        da_dv = (hi.area - lo.area) / (hi.volume - lo.volume) \
            if hi.volume != lo.volume else 0.0
        assert da_dv == pytest.approx(s.mean_curvature, abs=1e-5)


def test_variation_report_combined():
    rep = variation_report(SPHERE, 1.0)
    assert rep.residual_first < 1e-4
    assert rep.residual_h_dot < 1e-4
    assert rep.residual_second < 1e-4
    assert rep.order_estimate >= 1.9


def test_residual_table_is_one_stencil_per_step(monkeypatch):
    # three slices and one curvature evaluation per step feed all three
    # residuals, which equal those of the separate checks
    calls = {"slice_at": 0, "curvature_at": 0}
    for name in calls:
        original = getattr(variation, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(variation, name, counted)
    table = residual_table(FOOTBALL, 1.0, 1e-2, levels=3)
    assert calls == {"slice_at": 9, "curvature_at": 3}
    for step, first, h_dot, second in table:
        assert first == check_first_variation(FOOTBALL, 1.0, step).residual_first
        assert h_dot == check_mean_curvature_evolution(
            FOOTBALL, 1.0, step).residual_h_dot
        assert second == check_second_variation(
            FOOTBALL, 1.0, step).residual_second
