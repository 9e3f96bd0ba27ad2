import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isocompare import cli, variation, warped
from isocompare.errors import DomainError, NumericalError, ValidationError
from isocompare.variation import KINDS, stencil_table
from isocompare.warped import (WarpedMetric, cylinder, football, pointwise,
                               round_sphere, sphere_area, tabulated)

PI = math.pi
SPHERE = round_sphere(3, 1.0)
FOOTBALL = football(0.5)
CYLINDER = cylinder(1.0, 4.0)
FIRST, H_DOT, SECOND = range(3)


def test_first_variation_equator():
    # A'(pi/2) = 0 = H A; the centered difference is exactly symmetric
    table = stencil_table(SPHERE, PI / 2, 1e-3, 1)
    assert table.residual[0, 0, FIRST] <= 1e-6


def test_first_variation_cylinder_trivial():
    table = stencil_table(CYLINDER, 1.0, 1e-3, 1)
    assert table.residual[0, 0, FIRST] == 0.0


def test_first_variation_halving_ratio():
    r1, r2 = stencil_table(SPHERE, PI / 3, 1e-3, 2).residual[0, :, FIRST]
    assert r1 / r2 == pytest.approx(4.0, rel=0.05)


def test_h_dot_equator():
    # dH/dt = -2 at the equator; -|Pi|^2 - Ric(nu,nu) = 0 - 2
    table = stencil_table(SPHERE, PI / 2, 1e-3, 1)
    assert table.exact[0, 0, H_DOT] == pytest.approx(-2.0, rel=1e-14)
    assert table.residual[0, 0, H_DOT] <= 1e-6


def test_h_dot_cylinder_trivial():
    table = stencil_table(CYLINDER, 1.0, 1e-3, 1)
    assert table.residual[0, 0, H_DOT] == 0.0


def test_h_dot_football():
    table = stencil_table(FOOTBALL, PI / 2, 1e-3, 1)
    assert table.residual[0, 0, H_DOT] <= 1e-6


def test_second_variation_equator_value():
    # A''(V) at the equator: (0 - 2) / (4 pi)^2 integrated = -1/(2 pi)
    table = stencil_table(SPHERE, PI / 2, 1e-3, 1)
    assert table.exact[0, 0, SECOND] == pytest.approx(-1.0 / (2 * PI), rel=1e-14)
    assert abs(table.fd[0, 0, SECOND] - (-1.0 / (2 * PI))) <= 1e-5
    assert table.residual[0, 0, SECOND] <= 1e-5


def test_second_variation_cylinder_trivial():
    table = stencil_table(CYLINDER, 1.0, 1e-3, 1)
    assert table.fd[0, 0, SECOND] == pytest.approx(0.0, abs=1e-12)
    assert table.exact[0, 0, SECOND] == 0.0


def test_second_variation_generic_point():
    table = stencil_table(SPHERE, PI / 3, 1e-3, 1)
    assert table.residual[0, 0, SECOND] <= 1e-5


def test_stencil_domain_error():
    with pytest.raises(DomainError):
        stencil_table(SPHERE, 1e-4, 1e-3, 1)
    with pytest.raises(DomainError):
        stencil_table(SPHERE, PI - 1e-4, 1e-3, 1)
    with pytest.raises(DomainError):
        stencil_table(SPHERE, 1.0, -1e-3, 1)


@pytest.mark.parametrize("metric", [SPHERE, FOOTBALL], ids=["sphere", "football"])
@pytest.mark.parametrize("kind", ["first", "h_dot", "second"])
def test_convergence_orders(metric, kind):
    order = stencil_table(metric, 1.0, 1e-2).orders[0, KINDS.index(kind)]
    assert order >= 1.9


def test_residual_sequence_decreasing():
    values = stencil_table(SPHERE, 1.2, 1e-2, 3).residual[0, :, SECOND]
    assert values[0] > values[1] > values[2]


def test_profile_slope_is_mean_curvature():
    # dA/dV = (dA/dt)/(dV/dt) = H exactly from the slice closed forms
    for metric in (SPHERE, FOOTBALL, CYLINDER):
        t = 0.4 * metric.t_max
        h = 1e-6
        p = pointwise(metric, [t - h, t, t + h])
        d_volume = p.volume[2] - p.volume[0]
        da_dv = (p.area[2] - p.area[0]) / d_volume if d_volume != 0.0 else 0.0
        assert da_dv == pytest.approx(p.mean_curvature[1], abs=1e-5)


def test_variation_report_combined():
    # the default step 1e-3 t_max, three levels
    table = stencil_table(SPHERE, 1.0)
    assert np.all(table.residual[0, 0] < 1e-4)
    assert table.order[0] >= 1.9


# ---------------------------------------------------------------------------
# the checks one (t, h) at a time, in scalar Python floats, as they were
# computed before the stencil table: the reference for its rows


def _scalar_slice(metric, t):
    """(area, volume, H, |Pi|^2) at t."""
    f, f1, _, _ = metric.warp.evaluate(t)
    f, f1, n = float(f), float(f1), metric.n
    omega = sphere_area(n - 1)
    scaled, exponent = metric.warp.power_integral(t, n - 1)
    return (omega * f ** (n - 1),
            math.ldexp(omega * float(scaled), exponent),
            (n - 1) * f1 / f, (n - 1) * (f1 / f) ** 2)


def _scalar_ric_radial(metric, t):
    f, _, f2, _ = metric.warp.evaluate(t)
    f = float(f)
    return (metric.n - 1) * (-float(f2) / f)


def _relative(fd, exact, floor=0.0):
    scale = max(abs(fd), abs(exact), floor)
    if scale == 0.0:
        return 0.0
    return abs(fd - exact) / scale


# How far the table may lie from the scalar checks.  The two evaluate the
# same formulas on pointwise inputs that are rounded by other routines: a
# power of f by numpy's array pow or C's pow, a volume's weighted sum by a
# matrix-vector product or a dot, in another order.  So each area, H,
# |Pi|^2 and Ric may differ by ETA relative (2 ulps each side, which also
# covers the rounding of each product and quotient of the checks), and each
# volume by ETA_VOLUME, twice Higham's gamma_(N-1) for a sum of N <= 16
# positive terms (Accuracy and Stability of Numerical Algorithms, 4.2).  To
# first order a difference moves by ETA times the sum of its terms'
# magnitudes, so each bound grows with its check's cancellation: the
# centered differences by |A(t+h)| + |A(t-h)| over 2 h, the second
# difference by that of its numerator and, through the volume increments
# d = V(t+h) - V(t), by (|V(t+h)| + |V(t)|) / |d| ~ V / (A h) relative.
_EPS = np.finfo(float).eps
ETA, ETA_VOLUME = 4.0 * _EPS, 30.0 * _EPS


def _scalar_checks(metric, t, h):
    """[(fd, exact, residual)] of first, h_dot and second at (t, h), and
    [(bound on fd, on exact, on residual)] of each, from the note above."""
    lo, mid, hi = (_scalar_slice(metric, s) for s in (t - h, t, t + h))
    (a_lo, v_lo, h_lo, _), (a, v, h_mid, pi_sq), (a_hi, v_hi, h_hi, _) = lo, mid, hi
    ric = _scalar_ric_radial(metric, t)
    h_dot = -pi_sq - ric
    d_lo, d_hi = v - v_lo, v_hi - v
    spacing = d_lo * d_hi * (d_lo + d_hi)
    numerator = a_lo * d_hi - a * (d_lo + d_hi) + a_hi * d_lo
    second = 2.0 * numerator / spacing
    out = (((a_hi - a_lo) / (2.0 * h), h_mid * a, a / metric.t_max),
           ((h_hi - h_lo) / (2.0 * h), h_dot, 0.0),
           (second, h_dot / a, 0.0))
    checks = [(fd, exact, _relative(fd, exact, floor)) for fd, exact, floor in out]
    # the volume increments, the numerator and the spacing's relative bound
    e_lo = ETA_VOLUME * (abs(v_lo) + abs(v))
    e_hi = ETA_VOLUME * (abs(v) + abs(v_hi))
    e_numerator = (ETA * (abs(a_lo * d_hi) + abs(a * (d_lo + d_hi)) + abs(a_hi * d_lo))
                   + abs(a_lo) * e_hi + abs(a) * (e_lo + e_hi) + abs(a_hi) * e_lo)
    e_spacing = e_lo / abs(d_lo) + e_hi / abs(d_hi) + (e_lo + e_hi) / abs(d_lo + d_hi)
    e_h_dot = ETA * (abs(pi_sq) + abs(ric))
    errors = ((ETA * (abs(a_hi) + abs(a_lo)) / (2.0 * h), 2.0 * ETA * abs(h_mid * a)),
              (ETA * (abs(h_hi) + abs(h_lo)) / (2.0 * h), e_h_dot),
              (2.0 * e_numerator / abs(spacing) + abs(second) * e_spacing,
               e_h_dot / abs(a) + ETA * abs(h_dot / a)))
    bounds = []
    for (fd, exact, floor), (_, _, residual), (e_fd, e_exact) in zip(out, checks, errors):
        # r = |fd - exact| / scale, with both sides moving by e in all and the
        # scale by at most e, moves by at most e (1 + r) / (scale - e); where
        # a nonzero e reaches the scale (0 / 0 on the flat cylinder) r is
        # anywhere in [0, 2]
        scale, e = max(abs(fd), abs(exact), floor), e_fd + e_exact + ETA * floor
        e_residual = e * (1.0 + residual) / (scale - e) if scale > e else 2.0 * (e > 0)
        bounds.append((e_fd, e_exact, e_residual))
    return checks, bounds


def _scalar_orders(steps, residuals, bounds):
    """The observed order of each check's column of residuals, and the bound
    on its move when each residual r moves by at most e: the fitted slope of
    log r on log s moves by sum |s_i - mean| |d log r_i| / sum (s_i - mean)^2
    with |d log r| <= -log(1 - e / r).  nan where a column has a zero
    residual; an infinite bound where e >= r for some step, where the
    order is not determined by the bound (0 where every bound is 0)."""
    x = np.log(steps)
    spread = x - x.mean()
    orders, moves = [], []
    for column, errors in zip(np.array(residuals).T, np.array(bounds).T):
        exact = not errors.any()
        if len(steps) < 2 or not np.all(column > 0):
            orders.append(math.nan)
            moves.append(0.0 if exact else math.inf)
            continue
        orders.append(float(np.polyfit(x, np.log(column), 1)[0]))
        if np.any(errors >= column):
            moves.append(math.inf)
        else:
            moves.append(float(np.abs(spread) @ -np.log1p(-errors / column)
                               / (spread @ spread)))
    return np.array(orders), np.array(moves)


def _same_bits(a, b):
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


def _model(kind, n, shape):
    if kind == "sphere":
        return round_sphere(n, 0.5 + shape)
    if kind == "football":
        return football(shape, n=n, radius=2.0 * shape + 0.3)
    if kind == "cylinder":
        return cylinder(0.2 + shape, 1.0 + 3.0 * shape, n=n)
    # four samples of a football warp on an interior window
    knots = np.linspace(0.2, 2.8, 4)
    return tabulated(knots, shape * np.sin(knots), n=n)


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["sphere", "football", "cylinder", "tabulated"]),
       n=st.integers(3, 8), shape=st.floats(0.05, 1.0),
       fractions=st.lists(st.floats(0.05, 0.95), min_size=1, max_size=8),
       levels=st.integers(1, 4), h_fraction=st.floats(1e-4, 1e-2))
def test_stencil_table_matches_the_scalar_checks(kind, n, shape, fractions,
                                                 levels, h_fraction):
    # every (t, step) of the one array pass is within the bound of the note
    # above of the checks made one point at a time, and every order within
    # the bound that those give a fit per column; bounds of 0 (the flat
    # cylinder) ask for the same bits
    metric = _model(kind, n, shape)
    width = metric.t_max - metric.t_min
    ts = [metric.t_min + u * width for u in fractions]
    h = h_fraction * width
    table = stencil_table(metric, ts, h, levels)
    steps = [h / 2.0 ** k for k in range(levels)]
    assert _same_bits(table.h, steps)
    for i, t in enumerate(ts):
        checks, bounds = zip(*(_scalar_checks(metric, t, step) for step in steps))
        for got, q in ((table.fd[i], 0), (table.exact[i], 1), (table.residual[i], 2)):
            want = np.array([[c[q] for c in row] for row in checks])
            bound = np.array([[b[q] for b in row] for row in bounds])
            assert np.all(np.abs(got - want) <= bound), (q, got, want, bound)
        orders, moves = _scalar_orders(
            steps, [[c[2] for c in row] for row in checks],
            [[b[2] for b in row] for row in bounds])
        determined = np.isfinite(moves)
        assert np.array_equal(np.isnan(table.orders[i])[determined],
                              np.isnan(orders)[determined])
        assert np.all(np.abs(table.orders[i] - orders)[determined & ~np.isnan(orders)]
                      <= moves[determined & ~np.isnan(orders)])


def test_variation_check_rows_are_the_table():
    # t-major rows of (t, h, three residuals, worst order)
    ts = [0.7, 1.3, 2.2]
    table = stencil_table(FOOTBALL, ts, 1e-2, 3)
    rows = [(t, step, *table.residual[i, k], table.order[i])
            for i, t in enumerate(ts) for k, step in enumerate(table.h)]
    assert _same_bits(table.rows(), rows)
    assert table.rows().shape == (9, 6)


def _table_stacked(metric, t, h, levels):
    """(fd, exact, rows) of stencil_table(metric, t, h, levels) as the table
    first wrote them, each array built by np.stack, np.broadcast_to,
    np.zeros_like, np.repeat, np.tile or np.column_stack: the reference
    that the preallocated arrays must match bit for bit."""
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    h = 1e-3 * metric.t_max if h is None else h
    steps = np.array([h / 2.0 ** k for k in range(levels)])
    lo, hi = ts[:, None] - steps, ts[:, None] + steps
    p = pointwise(metric, np.stack((lo, np.broadcast_to(ts[:, None], lo.shape), hi),
                                   axis=-1))
    area, volume, mean = p.area, p.volume, p.mean_curvature
    with np.errstate(all="ignore"):
        d_lo = volume[..., 1] - volume[..., 0]
        d_hi = volume[..., 2] - volume[..., 1]
        spacing = d_lo * d_hi * (d_lo + d_hi)
        mid_area = area[..., 1]
        h_dot = -p.second_fundamental_norm_sq[..., 1] - p.ric_radial[..., 1]
        second = 2.0 * (area[..., 0] * d_hi - mid_area * (d_lo + d_hi)
                        + area[..., 2] * d_lo) / spacing
        fd = np.stack(((area[..., 2] - area[..., 0]) / (2.0 * steps),
                       (mean[..., 2] - mean[..., 0]) / (2.0 * steps), second), axis=-1)
        exact = np.stack((mean[..., 1] * mid_area, h_dot, h_dot / mid_area), axis=-1)
        floor = np.zeros_like(fd)
        floor[..., 0] = mid_area / metric.t_max
        scale = np.maximum(np.maximum(np.abs(fd), np.abs(exact)), floor)
        residual = np.divide(np.abs(fd - exact), scale, out=np.zeros_like(scale),
                             where=scale != 0.0)
    orders = variation._orders(steps, residual)
    worst = np.where(np.isnan(orders), np.inf, orders).min(axis=1)
    order = np.where(np.isinf(worst), np.nan, worst)
    count = ts.size
    return fd, exact, np.column_stack((
        np.repeat(ts, levels), np.tile(steps, count),
        residual.reshape(count * levels, 3), np.repeat(order, levels)))


@settings(max_examples=80, deadline=None)
@given(kind=st.sampled_from(["sphere", "football", "cylinder", "tabulated"]),
       n=st.integers(3, 8), shape=st.floats(0.05, 1.0),
       fractions=st.lists(st.floats(0.05, 0.95), min_size=1, max_size=6),
       levels=st.integers(1, 5),
       h_fraction=st.one_of(st.none(), st.floats(1e-4, 2e-2)))
def test_preallocated_table_keeps_the_stacked_bits(kind, n, shape, fractions, levels,
                                                   h_fraction):
    # the points, checks and rows written in place are the bits of the
    # stacked expressions, NaN payloads and signed zeros included
    metric = _model(kind, n, shape)
    width = metric.t_max - metric.t_min
    ts = [metric.t_min + u * width for u in fractions]
    h = None if h_fraction is None else h_fraction * width
    table = stencil_table(metric, ts, h, levels)
    fd, exact, rows = _table_stacked(metric, ts, h, levels)
    assert _same_bits(table.fd, fd) and _same_bits(table.exact, exact)
    assert table.rows().shape == rows.shape
    assert _same_bits(table.rows(), rows)


@pytest.mark.parametrize("model", [
    {"model": "sphere", "n": "5", "radius": "1.3"},
    {"model": "football", "n": "4", "c": "0.7"},
    {"model": "tabulated", "n": "6", "t_samples": "0.3,1.2,2.1,3.0",
     "f_samples": "0.3,0.9,0.8,0.1"},
], ids=["sphere", "football", "tabulated"])
def test_variation_check_prints_each_t_as_alone(tmp_path, model):
    # a batch of t may round its sums apart from each t alone, but not as
    # far as the 12 printed digits: every printed row is the one-t row
    ts = ["0.45", "0.7", "0.95", "1.3", "1.6", "1.9", "2.2", "2.55"]

    def rows(t):
        config, out = tmp_path / "v.cfg", tmp_path / "v.csv"
        config.write_text("".join(f"{k} = {v}\n" for k, v in
                                  {**model, "t": t, "levels": "3"}.items()))
        assert cli.main(["variation-check", "--config", str(config),
                         "--out", str(out)]) == 0
        return [line for line in out.read_text().splitlines()
                if line[:1].isdigit()]

    batch = rows(",".join(ts))
    assert len(batch) == 3 * len(ts)
    assert batch == [row for t in ts for row in rows(t)]


def _count_array_calls(monkeypatch, warp_class):
    calls = {}

    def count(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)

    for name in ("evaluate", "power_integral"):
        count(warp_class, name)
    count(warped, "_curvatures")
    count(warped, "sin_power")
    for name in ("polyfit", *_SCAFFOLDING):
        count(np, name)
    return calls


# numpy's Python-level array builders, each a few microseconds on a table
# this small: the stencil points, checks and rows are written in place
_SCAFFOLDING = ("stack", "broadcast_to", "zeros_like", "repeat", "tile", "column_stack")


@pytest.mark.parametrize("model, warp_class", [
    ({"model": "football", "n": "5", "c": "0.7"}, warped._FootballWarp),
    ({"model": "tabulated", "n": "4", "t_samples": "0.3,1.2,2.1,3.0",
      "f_samples": "0.3,0.9,0.8,0.1"}, warped._TabulatedWarp),
], ids=["football", "tabulated"])
def test_array_calls_per_command_do_not_grow_with_t(monkeypatch, tmp_path, model,
                                                    warp_class):
    # one array pass per variation-check: the same warp, quadrature,
    # curvature and fit calls for one t as for seven
    counts = []
    for ts in ("1.0", "0.8,1.0,1.3,1.5,1.7,1.9,2.05"):
        config = tmp_path / "v.cfg"
        config.write_text("".join(f"{k} = {v}\n" for k, v in {**model, "t": ts}.items()))
        with monkeypatch.context() as m:
            calls = _count_array_calls(m, warp_class)
            assert cli.main(["variation-check", "--config", str(config),
                             "--out", str(tmp_path / "v.csv")]) == 0
        counts.append(calls)
    assert counts[0] == counts[1]
    assert counts[0]["polyfit"] == 1 and counts[0]["power_integral"] == 1
    assert counts[0]["evaluate"] == 1
    assert not any(counts[0].get(name) for name in _SCAFFOLDING), counts[0]


def test_stencil_table_errors_in_table_order():
    # the first failing (t, step), t-major, names the error
    with pytest.raises(DomainError, match="leaves"):
        stencil_table(SPHERE, [1.0, 1e-4, 3.0], 1e-3)
    with pytest.raises(DomainError, match="must be positive"):
        stencil_table(SPHERE, [1.0], 0.0)
    # a step below half an ulp of t leaves t - h == t: a vanishing volume
    # increment is an error, not a division by zero, at any depth
    with pytest.raises(DomainError, match="resolution at t=1"):
        stencil_table(SPHERE, [1.0, 2.0], 1e-3, levels=60)
    with pytest.raises(DomainError, match="resolution"):
        stencil_table(SPHERE, [1.0], 1e-3, levels=10 ** 9)


def test_stencil_table_needs_a_t_and_a_level():
    # no t, or no step level, would be a table of no rows: each is an error
    # of its config key
    for t, levels, key in (([], 3, "t"), ([1.0], 0, "levels")):
        with pytest.raises(ValidationError) as info:
            stencil_table(SPHERE, t, 1e-3, levels)
        assert info.value.key == key


class _JumpWarp:
    """f = 1e100 with f' jumping from -5e253 to 5e253 at t = 1e-140: every
    pointwise field is a double, but dH/dt across the jump is not."""

    kind = "cylinder"
    radius = t_max = 1.0

    def evaluate(self, t):
        t = np.asarray(t, dtype=float)
        z = np.zeros_like(t)
        # 1 - f'^2 = -2.5e507 is not a double: the most negative double
        # stands in for it
        return (z + 1e100, np.where(t > 1e-140, 5e253, -5e253), z,
                z - np.finfo(float).max)

    def power_integral(self, t, m):
        return 1e200 * np.asarray(t, dtype=float), 0


def test_stencil_overflow_is_a_numerical_error():
    # the stencil's one range quantity, spacing + residual, fails where the
    # centered dH/dt overflows
    metric = WarpedMetric(3, _JumpWarp())
    assert np.isfinite(pointwise(metric, [1e-140 - 1e-155, 1e-140 + 1e-155])).all()
    with pytest.raises(NumericalError) as info:
        stencil_table(metric, 1e-140, 1e-155, 1)
    assert str(info.value) == ("at t=1e-140, h=1e-155, the variation stencil overflows "
                               "a double (radius=1, n=3); lower radius")
