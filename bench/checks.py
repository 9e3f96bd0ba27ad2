"""Independent references and output checks.

Nothing here imports isocompare.  References are closed forms (``math``)
or 25-digit ``mpmath`` computations written from the formulas in the
library's docstrings, never from its code paths.  Each ``check_*`` takes an
op and the bytes the CLI wrote and returns ``(failure, errors)``: a short
failure kind with its first example (None when every check holds) and the
error figures the per-layer metrics collect.
"""

from __future__ import annotations

import json
import math

# Threshold where the two-leg supremum alpha(eps) crosses 1, from an
# independent mpmath bisection ([0.13472775, 0.13472776]) and a scipy brentq.
EPS0_REF = 0.1347277554
# Cone-family crossing (2 - sqrt 3)/2: the threshold the scan-based oracle
# reports instead; kept for the failure messages.
EPS0_CONE = (2.0 - math.sqrt(3.0)) / 2.0
FOUR_PI = 4.0 * math.pi


def omega(k: int) -> float:
    """Area of the unit k-sphere."""
    return 2.0 * math.pi ** ((k + 1) / 2.0) / math.gamma((k + 1) / 2.0)


def _close(value: float, ref: float, scale: float, tol: float) -> bool:
    return abs(value - ref) <= tol * scale


# ---------------------------------------------------------------------------
# parsing the CLI's two formats


def parse_csv(text: str):
    """(comment key/values, header, rows of floats)."""
    comments, header, rows = {}, None, []
    for line in text.splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].partition("=")
            comments[key.strip()] = value.strip()
        elif header is None:
            header = line.split(",")
        else:
            rows.append([float(v) for v in line.split(",")])
    return comments, header, rows


def parse_json(text: str) -> dict:
    return json.loads(text)["summary"]


def linspace(lo: float, hi: float, num: int) -> list[float]:
    """numpy.linspace(lo, hi, num) with the same float operations."""
    if num == 1:
        return [lo]
    step = (hi - lo) / (num - 1)
    return [k * step + lo for k in range(num - 1)] + [hi]


# ---------------------------------------------------------------------------
# mpmath references


def _mp():
    import mpmath
    mpmath.mp.dps = 25
    return mpmath


def sin_power_integral(m: int, theta: float):
    """int_0^theta sin^m, by the reduction formula in 50-digit arithmetic
    (the recursion cancels about m log10(1/theta) digits near 0)."""
    mp = _mp()
    with mp.workdps(50):
        th = mp.mpf(theta)
        s, c = mp.sin(th), mp.cos(th)
        prev, cur = th, 1 - c           # I_0, I_1
        if m == 0:
            return +prev
        for k in range(2, m + 1):
            prev, cur = cur, (-s ** (k - 1) * c + (k - 1) * prev) / k
        return +cur


def _half_volume(mp, eps, gap):
    """Half volume of the two-leg extremal path of the alpha construction
    ending at termination area z = 4 pi - gap (module docstring of
    isocompare.football): the ricci leg y^2 = 36 pi - m0 - 9 eps x^(2/3)
    from x = 0 to x_sw, then the scalar leg y^2 = 36 pi - 9 x^(2/3)
    - K x^(-1/3) to its zero at z^(3/2); the integrand is dx / y.

    In u = x^(1/3) the ricci leg is int 3u^2 / sqrt(9 eps (u_e^2 - u^2)),
    integrated as u = u_e sin(theta); with K = 9 u0 gap the scalar leg
    factors as y^2 = (u0 - u) Q(u), Q(u) = 9 (u + u0) - 9 gap / u, and
    u = u0 - w^2 removes its inverse-square-root endpoint.
    """
    z = 4 * mp.pi - gap
    u0 = mp.sqrt(z)
    x_sw = u0 * gap / (2 * (1 - eps))
    u_sw = mp.cbrt(x_sw)
    c = 36 * mp.pi - 27 * (1 - eps) * u_sw ** 2
    u_e = mp.sqrt(c / (9 * eps))
    theta = mp.asin(min(u_sw / u_e, mp.mpf(1)))
    ricci = u_e ** 2 / mp.sqrt(eps) * mp.quad(lambda t: mp.sin(t) ** 2,
                                               [0, theta])
    if u0 <= u_sw:
        return ricci

    def integrand(w):
        u = max(u0 - w * w, u_sw)
        return 6 * u * u / mp.sqrt(9 * (u + u0) - 9 * gap / u)

    return ricci + mp.quad(integrand, [0, mp.sqrt(u0 - u_sw)])


def alpha_reference(eps: float) -> float:
    """sup over z of the half volume / pi^2, maximised in 50-digit working
    precision: a scan in s = (z - z_lo)/(4 pi - z_lo) graded geometrically
    down to 1e-16 (the interior peak sits within ~1e-12 of z_lo for small
    eps), then golden-section search between the best point's neighbours."""
    mp = _mp()
    if eps == 1.0:
        return 1.0
    with mp.workdps(50):
        e = mp.mpf(eps)
        span = 4 * mp.pi - 4 * mp.pi / (3 - 2 * e)

        def value(s):
            return _half_volume(mp, e, (1 - s) * span)

        ss = [mp.mpf(0)] + [mp.mpf(10) ** (-16 + mp.mpf(k) / 4)
                            for k in range(65)]
        vals = [value(s) for s in ss]
        k = max(range(len(ss)), key=vals.__getitem__)
        best = vals[k]
        if 0 < k < len(ss) - 1:
            a, b = ss[k - 1], ss[k + 1]
            g = (mp.sqrt(5) - 1) / 2
            c, d = b - g * (b - a), a + g * (b - a)
            fc, fd = value(c), value(d)
            while b - a > mp.mpf("1e-6") * ss[k]:
                if fc > fd:
                    b, d, fd = d, c, fc
                    c = b - g * (b - a)
                    fc = value(c)
                else:
                    a, c, fc = c, d, fd
                    d = a + g * (b - a)
                    fd = value(d)
            best = max(best, fc, fd)
        return float(best / mp.pi ** 2)


# ---------------------------------------------------------------------------
# alpha-sweep and eps0-root


def check_football_alpha(op, text, samples):
    """samples: row index -> mpmath alpha for the rows chosen for this op."""
    _, header, rows = parse_csv(text)
    meta = op.meta
    errors = {}
    if header[:2] != ["epsilon", "alpha_oracle"] or len(rows) != meta["n"]:
        return "malformed output", errors
    grid = linspace(meta["lo"], meta["hi"], meta["n"])
    previous = math.inf
    failure = None
    for i, (eps, row) in enumerate(zip(grid, rows)):
        printed_eps, alpha, _written, z_arg, _gap = row

        def fail(kind):
            return f"{kind} (eps={eps:.10g}, alpha={alpha!r})"

        if not _close(printed_eps, eps, eps, 1e-11):
            failure = failure or fail("epsilon column differs from the grid")
        floor = max(1.0, 1.0 / ((3.0 - 2.0 * eps) * math.sqrt(eps)))
        if not alpha >= floor * (1.0 - 1e-12):
            failure = failure or fail("alpha below max(1, cone family)")
        if not alpha <= previous * (1.0 + 1e-12):
            failure = failure or fail("alpha increases along the grid")
        previous = alpha
        if eps == 1.0 and alpha != 1.0:
            failure = failure or fail("alpha(1) is not exactly 1")
        if eps < EPS0_REF - 1e-9 and not alpha > 1.0:
            failure = failure or fail("alpha = 1 below eps0")
        if eps > EPS0_REF + 1e-9 and not abs(alpha - 1.0) <= 1e-12:
            failure = failure or fail("alpha != 1 above eps0")
        z_lo = FOUR_PI / (3.0 - 2.0 * eps)
        if not z_lo * (1 - 1e-11) <= z_arg <= FOUR_PI * (1 + 1e-11):
            failure = failure or fail("z_argmax outside [z_lo, 4 pi]")
        if i in samples:
            ref = samples[i]
            err = abs(alpha - ref)
            errors["alpha_abs_err"] = max(errors.get("alpha_abs_err", 0.0), err)
            if err > 1e-9 * ref:
                failure = failure or fail(f"alpha off the mpmath maximum {ref!r}")
    return failure, errors


def check_epsilon0(op, text, _samples):
    s = parse_json(text)
    lo, hi = s["lo"], s["hi"]
    gap = max(lo - EPS0_REF, EPS0_REF - hi, 0.0)
    errors = {"eps0_ref_gap": gap}
    if s["method"] != "oracle" or s["no_root"]:
        return "no root reported", errors
    if not (lo < hi and hi - lo <= op.meta["tol"] * (1 + 1e-9)):
        return f"bracket ({lo}, {hi}) wider than tol {op.meta['tol']:.3g}", errors
    if gap > 0.0:
        return (f"bracket excludes eps0_ref (({lo}, {hi}) vs {EPS0_REF}; "
                f"cone-family crossing {EPS0_CONE:.10f})"), errors
    return None, errors


# ---------------------------------------------------------------------------
# model-scan


def _warp(meta, t):
    """f(t), f'(t) of the closed-form models."""
    if meta["model"] == "cylinder":
        return meta["radius"], 0.0
    r, c = meta["radius"], meta["c"]
    return r * c * math.sin(t / r), c * math.cos(t / r)


def _volume(meta, t):
    n = meta["n"]
    if meta["model"] == "cylinder":
        return omega(n - 1) * meta["radius"] ** (n - 1) * t
    r, c = meta["radius"], meta["c"]
    return float(omega(n - 1) * c ** (n - 1) * r ** n
                 * sin_power_integral(n - 1, t / r))


def _profile_rows(op, rows, columns):
    """Check V and A columns against the closed forms on the CLI's t-grid;
    returns (failure, volume error relative to the total)."""
    meta = op.meta
    n = meta["n"]
    ts = linspace(0.0, meta["t_max"], meta["grid_size"])
    if len(rows) != len(ts):
        return "malformed output", 0.0
    total = _volume(meta, meta["t_max"])
    areas = [omega(n - 1) * _warp(meta, t)[0] ** (n - 1) for t in ts]
    a_scale = max(areas)
    v_col, a_col = columns.index("V"), columns.index("A")
    worst, failure = 0.0, None
    for t, a_ref, row in zip(ts, areas, rows):
        v_err = abs(row[v_col] - _volume(meta, t)) / total
        worst = max(worst, v_err)
        if v_err > 1e-10:
            failure = failure or f"volume off closed form (t={t:.6g}, rel {v_err:.2e})"
        if not _close(row[a_col], a_ref, a_scale, 1e-10):
            failure = failure or f"area off closed form (t={t:.6g})"
    return failure, worst


def check_profile(op, text, _samples):
    comments, header, rows = parse_csv(text)
    failure, worst = _profile_rows(op, rows, header)
    total = _volume(op.meta, op.meta["t_max"])
    if not _close(float(comments.get("total_volume", "nan")), total, total, 1e-10):
        failure = failure or "total_volume off closed form"
    return failure, {"volume_rel_err": worst}


def check_mass(op, text, _samples):
    _, header, rows = parse_csv(text)
    failure, worst = _profile_rows(op, rows, header)
    meta = op.meta
    n, ric0 = meta["n"], meta["ric0"]
    y0 = n * omega(n - 1) ** (1.0 / (n - 1))
    b = n * n * ric0 / (n - 1)
    ts = linspace(0.0, meta["t_max"], meta["grid_size"])
    f_ref = [(omega(n - 1) * _warp(meta, t)[0] ** (n - 1)) ** (n / (n - 1.0))
             for t in ts]
    f_scale = max(f_ref)
    for t, x_ref, row in zip(ts, f_ref, rows):
        _v, _a, x, y, m = row
        y_ref = y0 * _warp(meta, t)[1]
        m_ref = y0 * y0 - y_ref * y_ref - b * x_ref ** (2.0 / n)
        if not (_close(x, x_ref, f_scale, 1e-10) and _close(y, y_ref, y0, 1e-10)):
            failure = failure or f"phase point off closed form (t={t:.6g})"
        if not _close(m, m_ref, y0 * y0, 1e-9):
            failure = failure or f"ricci mass off closed form (t={t:.6g})"
    return failure, {"volume_rel_err": worst}


def check_variation(op, text, _samples):
    _, _, rows = parse_csv(text)
    meta = op.meta
    h0 = 1e-3 * meta["t_max"]
    expected = [(t, h0 / 2 ** j) for t in meta["t"] for j in range(3)]
    if len(rows) != len(expected):
        return "malformed output", {}
    analytic = meta["model"] in ("sphere", "football")
    orders, failure = [], None
    for (t, h), (pt, ph, *residuals, order) in zip(expected, rows):
        if not (_close(pt, t, t, 1e-11) and _close(ph, h, h, 1e-11)):
            failure = failure or "t/h columns differ from the config"
        if not all(0.0 <= r < math.inf for r in residuals):
            failure = failure or f"residual not finite and >= 0 (t={t:.6g})"
        if meta["model"] == "cylinder" and max(residuals) > 1e-9:
            failure = failure or f"nonzero residual on the flat cylinder (t={t:.6g})"
        if analytic:
            orders.append(order)
            if not order >= 1.5:
                failure = failure or f"observed order {order:.3g} < 1.5 (t={t:.6g})"
    return failure, ({"order_min": min(orders)} if orders else {})


def check_bishop(op, text, _samples):
    s = parse_json(text)
    n, ric0 = op.meta["n"], op.meta["ric0"]
    bound = omega(n) * math.sqrt((n - 1) / ric0) ** n
    y0 = n * omega(n - 1) ** (1.0 / (n - 1))
    x0 = (y0 * y0 / (n * n * ric0 / (n - 1))) ** (n / 2.0)
    err = abs(s["bound"] - bound) / bound
    failure = None
    if err > 1e-8:
        failure = f"bound off the comparison-sphere volume (rel {err:.2e})"
    if not (_close(s["y0"], y0, y0, 1e-10) and _close(s["x0"], x0, x0, 1e-10)):
        failure = failure or "start point off closed form"
    return failure, {"bishop_rel_err": err}


def check_cylinder_growth(op, text, _samples):
    _, _, rows = parse_csv(text)
    a = op.meta["radius"]
    lengths = op.meta["lengths"]
    if len(rows) != len(lengths):
        return "malformed output", {}
    worst, failure = 0.0, None
    for length, (pn, vol, ric, scal) in zip(lengths, rows):
        ref = 4.0 * math.pi * a * a * length
        worst = max(worst, abs(vol - ref) / ref)
        if not (_close(pn, length, length, 1e-11) and abs(vol - ref) <= 1e-10 * ref):
            failure = failure or f"volume off 4 pi a^2 N (N={length:.6g})"
        if abs(ric) > 1e-9 / (a * a) or not _close(scal, 2 / (a * a), 2 / (a * a), 1e-10):
            failure = failure or f"curvature infima off (0, 2/a^2) (N={length:.6g})"
    return failure, {"volume_rel_err": worst}


def check_monotonicity(op, text, _samples):
    comments, _, rows = parse_csv(text)
    meta = op.meta
    rho = linspace(meta["rho_min"], meta["rho_max"], meta["rho_n"])
    if len(rows) != len(rho):
        return "malformed output", {}
    case, lam = meta["case"], meta["lambda"]
    failure = None
    for r, (pr, value) in zip(rho, rows):
        if case == "cone":
            m, mass = 2, math.pi * math.sin(meta["angle"]) * r * r
        else:
            m = meta.get("dim", 1)
            rc = min(r, 2.0)
            theta = math.acos(max(1.0 - rc * rc / 2.0, -1.0))
            mass = omega(m - 1) * float(sin_power_integral(m - 1, theta))
        ref = math.exp(lam * r) * r ** (-m) * mass
        if not (_close(pr, r, r, 1e-11) and _close(value, ref, ref, 1e-10)):
            failure = failure or f"profile off closed form (rho={r:.6g})"
    clamped = 0 if case == "cone" else sum(r > 2.0 for r in rho)
    if int(comments.get("clamped", "-1")) != clamped:
        failure = failure or "clamped count differs"
    return failure, {}


def check_cutoff(op, text, _samples):
    s = parse_json(text)
    p = op.meta
    n, c, c0, h, delta, radii = p["n"], p["c"], p["c0"], p["h"], p["delta"], p["radii"]
    doubling = 2.0 ** (n - 1)
    area = c * sum(r ** (n - 1) for r in radii)
    ref = {
        "area_term": area,
        "dirichlet_term": h * h * area * doubling
        + c0 * c0 * c * sum(r ** (n - 3) for r in radii),
        "c1": c * (h * h * delta * delta + c0 * c0) * doubling,
        "area_bound": c * doubling * delta ** 6,
    }
    ref["dirichlet_bound"] = ref["c1"] * delta ** 4
    failure = None
    for key, value in ref.items():
        if not _close(s[key], value, abs(value), 1e-10):
            failure = failure or f"{key} off closed form"
    admissible = sum(r ** (n - 7) for r in radii) <= 1.0 + 1e-12
    if (s["admissible"] != admissible or s["area_ok"] != (area <= ref["area_bound"])
            or s["dirichlet_ok"] != (ref["dirichlet_term"] <= ref["dirichlet_bound"])
            or bool(s["violated"]) == admissible):
        failure = failure or "admissibility flags differ"
    return failure, {}


CHECKS = {
    "football-alpha": check_football_alpha,
    "epsilon0": check_epsilon0,
    "profile": check_profile,
    "mass": check_mass,
    "variation-check": check_variation,
    "bishop-bound": check_bishop,
    "cylinder-growth": check_cylinder_growth,
    "monotonicity": check_monotonicity,
    "cutoff-budget": check_cutoff,
}


def check(op, text, samples=None):
    """(failure or None, error figures) for one op's output."""
    try:
        return CHECKS[op.command](op, text, samples or {})
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable output ({type(exc).__name__}: {exc})", {}
