"""Acceptance suite: one checked criterion per test, one printed verdict line
each.  Run with ``pytest -s tests/test_acceptance.py`` to see the lines.
"""

import math
import time

import numpy as np

from isocompare.football import alpha_oracle, as_written_bound, epsilon0
from isocompare.gmt import (RadiusFamily, cone_over_circle, cutoff_budget,
                            monotonicity_profile, unit_circle, unit_sphere)
from isocompare.phase_plane import bishop_bound, phase_curve, ricci_mass
from isocompare.variation import stencil_table
from isocompare.warped import (candidate_profile, curvature_bounds,
                               cylinder_growth, football, round_sphere,
                               total_volume)

from test_gmt import _drops

PI = math.pi


def _verdict(number: int, label: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {number}: {label}{suffix}")
    assert ok, f"criterion {number}: {label}{suffix}"


def test_criterion_1_bishop_sharpness():
    cases = [(3, 2.0, 2 * PI ** 2), (4, 3.0, 8 * PI ** 2 / 3),
             (3, 8.0, PI ** 2 / 4)]
    ok = True
    details = []
    for n, ric0, want in cases:
        start = time.perf_counter()
        got = bishop_bound(n, ric0)
        elapsed = time.perf_counter() - start
        rel = abs(got - want) / want
        ok &= rel <= 1e-6 and elapsed < 1.0
        details.append(f"n={n} ric0={ric0:g}: rel={rel:.1e} t={elapsed:.3f}s")
    _verdict(1, "sharp volume bounds on comparison spheres", ok,
             "; ".join(details))


def test_criterion_2_zero_mass_on_sphere():
    start = time.perf_counter()
    profile = candidate_profile(round_sphere(3, 1.0), 257)
    mass = ricci_mass(phase_curve(profile), 2.0)
    worst = float(np.max(np.abs(mass)))
    elapsed = time.perf_counter() - start
    _verdict(2, "mass vanishes on the unit-sphere profile",
             worst <= 1e-6 and elapsed < 1.0,
             f"max |m| = {worst:.2e}, t={elapsed:.3f}s")


def test_criterion_3_variation_formulas():
    start = time.perf_counter()
    ok = True
    details = []
    for metric, name in [(round_sphere(3, 1.0), "sphere"),
                         (football(0.7), "football")]:
        orders = stencil_table(metric, 1.0, 1e-2, levels=3).orders[0]
        for kind, order in zip(("first", "h_dot", "second"), orders.tolist()):
            ok &= order >= 1.9
            details.append(f"{name}/{kind}: {order:.2f}")
    second = stencil_table(round_sphere(3, 1.0), PI / 2, 1e-3, 1).fd[0, 0, 2]
    equator_err = abs(second - (-1.0 / (2 * PI)))
    ok &= equator_err <= 1e-5
    elapsed = time.perf_counter() - start
    ok &= elapsed < 5.0
    _verdict(3, "variation residuals converge at order >= 1.9", ok,
             f"{'; '.join(details)}; equator err {equator_err:.1e}, "
             f"t={elapsed:.2f}s")


def test_criterion_4_bishop_inequality_on_models():
    start = time.perf_counter()
    bound = bishop_bound(3, 2.0)
    ok = True
    details = []
    models = [(football(0.7), "football c=0.7"),
              (football(0.9), "football c=0.9"),
              (round_sphere(3, 0.6), "sphere r=0.6"),
              (round_sphere(3, 1.0), "sphere r=1")]
    for metric, name in models:
        bounds = curvature_bounds(metric)
        certified = bounds.ric_min >= 2.0 - 1e-9
        vol = total_volume(metric)
        ok &= certified and vol <= bound + 1e-9
        details.append(f"{name}: vol={vol:.4f}")
    elapsed = time.perf_counter() - start
    ok &= elapsed < 2.0
    _verdict(4, "certified models obey the sharp bound", ok,
             f"bound={bound:.4f}; {'; '.join(details)}; t={elapsed:.2f}s")


def test_criterion_5_football_constant():
    start = time.perf_counter()
    bracket = epsilon0("oracle", tol=5e-4)
    a_half = alpha_oracle(0.5).alpha_oracle
    a_one = alpha_oracle(1.0).alpha_oracle
    elapsed = time.perf_counter() - start

    overlaps_target = bracket.lo < 0.135 and bracket.hi > 0.134
    hard_ok = (not bracket.no_root
               and bracket.hi - bracket.lo <= 5e-4
               and 0.10 < bracket.lo < bracket.hi < 0.20
               and overlaps_target
               and abs(a_half - 1.0) <= 1e-6
               and abs(a_one - 1.0) <= 1e-6
               and elapsed < 60.0)

    _verdict(5, "threshold bracket and alpha anchors", hard_ok,
             f"bracket=({bracket.lo:.6f}, {bracket.hi:.6f}), "
             f"overlaps published target: {overlaps_target}, "
             f"alpha(0.5)-1={a_half - 1:.1e}, alpha(1)-1={a_one - 1:.1e}, "
             f"t={elapsed:.2f}s")


def test_criterion_6_as_written_audit():
    start = time.perf_counter()
    ok = True
    details = []
    for eps in (0.1, 0.3, 0.5):
        # the verbatim switch point over the path's end, least on the
        # bracket: above 200, so the display cannot be evaluated as written
        bound = as_written_bound(eps)
        ok &= bound > 200.0
        details.append(f"eps={eps}: switch/end >= {bound:.6g}")
    elapsed = time.perf_counter() - start
    ok &= elapsed < 30.0
    _verdict(6, "verbatim formula shown to leave its domain", ok,
             f"{'; '.join(details)}; t={elapsed:.2f}s")


def test_criterion_7_monotonicity_suite():
    start = time.perf_counter()
    rho = np.linspace(0.05, 2.0, 64)
    ok = True
    for case_fn, sup_h in ((unit_circle, 1.0), (unit_sphere, 1.0)):
        for lam in (sup_h, sup_h + 1.0):
            ok &= not _drops(monotonicity_profile(case_fn(lam, rho)).values)
    for lam in (0.0, 1.0):
        ok &= not _drops(
            monotonicity_profile(cone_over_circle(PI / 4, lam, rho)).values)
    negative = _drops(monotonicity_profile(unit_circle(-10.0, rho)).values)
    ok &= len(negative) >= 1
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    _verdict(7, "monotonicity holds on analytic cases, negative control fires",
             ok, f"negative-control violations: {len(negative)}, "
             f"t={elapsed:.3f}s")


def test_criterion_8_cutoff_budgets():
    start = time.perf_counter()
    rng = np.random.default_rng(20260810)
    ok = True
    for _ in range(1000):
        n = int(rng.integers(8, 13))
        delta = float(rng.uniform(0.01, 0.4))
        count = int(rng.integers(1, 16))
        radii = delta * rng.uniform(0.05, 1.0, size=count)
        total = np.sum(radii ** (n - 7))
        if total > 1.0:
            radii *= 0.999 * total ** (-1.0 / (n - 7))
        family = RadiusFamily(radii=radii, delta=delta, n=n,
                              c0=float(rng.uniform(0.1, 3.0)),
                              c=float(rng.uniform(0.1, 3.0)),
                              h=float(rng.uniform(0.0, 3.0)))
        budget = cutoff_budget(family)
        ok &= budget.admissible and budget.area_ok and budget.dirichlet_ok
        # delta-power law of the certified bounds, curvature term off so the
        # explicit delta^2 inside c1 does not mix into the exponent
        flat = RadiusFamily(radii=radii, delta=delta, n=n, c0=family.c0,
                            c=family.c, h=0.0)
        doubled = RadiusFamily(radii=radii, delta=2 * delta, n=n, c0=family.c0,
                               c=family.c, h=0.0)
        b1, b2 = cutoff_budget(flat), cutoff_budget(doubled)
        ok &= abs(b2.area_bound / b1.area_bound - 2 ** 6) <= 1e-9 * 2 ** 6
        ok &= abs(b2.dirichlet_bound / b1.dirichlet_bound - 2 ** 4) <= 1e-9 * 2 ** 4
    elapsed = time.perf_counter() - start
    ok &= elapsed < 2.0
    _verdict(8, "1000 random budgets within certified delta-power bounds", ok,
             f"t={elapsed:.2f}s")


def test_criterion_9_cylinder_counterexample():
    start = time.perf_counter()
    growth = cylinder_growth([10.0, 100.0, 1000.0])
    volumes = growth.volumes.tolist()
    want = [40 * PI, 400 * PI, 4000 * PI]
    ok = all(abs(g - w) <= 1e-8 * w for g, w in zip(volumes, want))
    ok &= abs(growth.ric_inf) <= 1e-12
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    _verdict(9, "cylinder volume unbounded with vanishing Ricci floor", ok,
             f"volumes={[f'{v:.2f}' for v in volumes]}, t={elapsed:.3f}s")
