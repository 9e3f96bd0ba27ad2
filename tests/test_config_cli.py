import ast
import importlib
import io
import json
import math
import os
import pkgutil
import re
import subprocess
import sys
import tracemalloc
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import isocompare
from isocompare import cli
from isocompare.cli import build_metric, format_number, main, render
from isocompare.config import (_MAX_EPS, _MAX_GRID, _MAX_RHO, _MEMORY_BUDGET,
                               COMMANDS, RunConfig, read_pairs, validate)
from isocompare.errors import ConfigError, ValidationError
from isocompare.warped import candidate_profile, football

import exit_cases

PI = math.pi


# --- configuration parsing ---------------------------------------------------


def test_parse_valid_bishop_config():
    cfg = validate("bishop-bound", read_pairs("n = 3\nric0 = 2\n"))
    assert cfg == RunConfig("bishop-bound", {"n": 3, "ric0": 2.0})


def test_parse_missing_required_key():
    with pytest.raises(ConfigError, match="missing required key"):
        validate("bishop-bound", read_pairs("n = 3\n"))


def test_parse_comments_and_blanks():
    cfg = validate("mass", read_pairs(
        "# a comment\n\nmodel = sphere  # trailing\nric0 = 2\n"))
    assert cfg.options["model"] == "sphere"


def test_parse_duplicate_key():
    with pytest.raises(ConfigError, match="duplicate"):
        read_pairs("command = bishop-bound\nn = 3\nn = 4\nric0 = 2\n")


def test_build_metric_variants():
    sphere = build_metric({"model": "sphere", "n": 3, "radius": 2.0})
    assert sphere.t_max == pytest.approx(2 * PI)
    fb = build_metric({"model": "football", "c": 0.7})
    assert fb.warp.cone_factor == 0.7
    cyl = build_metric({"model": "cylinder", "length": 5.0})
    assert cyl.t_max == 5.0


def test_football_alpha_needs_epsilon():
    with pytest.raises(ConfigError, match="eps_grid or epsilon"):
        validate("football-alpha", {})


# --- the exit contract: one row of exit_cases per case --------------------------

_ROWS = {row.id: row for row in exit_cases.ROWS}


@pytest.mark.parametrize("row", exit_cases.ROWS, ids=lambda row: row.id)
def test_exit_case(tmp_path, capsys, row):
    # the row's run through main, with every warning an error, checked as
    # the cold runner checks it; CI runs the same rows through the
    # installed console script
    argv = exit_cases.prepare(row, str(tmp_path))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    assert exit_cases.outcome(code, *capsys.readouterr()) == \
        exit_cases.expected(row, str(tmp_path))


def test_exit_messages_name_no_set_key_bare():
    # an exit-2 message about a key that the row sets, in its config or by
    # a flag, puts the key's line or "command line" in front of it; only a
    # config file that cannot be read has no line to name
    bare = []
    for row in exit_cases.ROWS:
        command, *tokens = row.argv.split() or [""]
        if row.code != 2 or command not in COMMANDS:
            continue
        flags = {**cli._FLAGS, **COMMANDS[command][2]}
        keys = {flags[flag] for flag in (token.split("=")[0] for token in tokens)
                if flag in flags} - {"config"}
        if row.config is not None:
            keys |= {"command"} | read_pairs(row.config).keys()
        bare += [f"{row.id}: {key}" for key in keys if row.message.startswith(f"{key}: ")]
    assert bare == []


def test_exit_case_ids_are_unique():
    ids = [row.id for row in exit_cases.ROWS]
    assert len(set(ids)) == len(ids)


def test_exit_cases_import_only_the_standard_library():
    # CI runs the table on an install without the test extra
    tree = ast.parse(Path(exit_cases.__file__).read_text(encoding="utf-8"))
    modules = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names}
    modules |= {node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)}
    assert {module.split(".")[0] for module in modules} <= sys.stdlib_module_names


def test_exit_cases_run_cold(monkeypatch, capsys):
    # the runner, through a child interpreter: a row of each exit code keeps
    # its contract, and a row whose message is wrong is named with its run
    monkeypatch.setenv("PYTHONPATH", _child_env()["PYTHONPATH"])
    command = [sys.executable, "-m", "isocompare.cli"]
    rows = [_ROWS[name] for name in ("alpha-1e-200", "bad-format", "alpha-1e-300")]
    assert exit_cases.main(command, rows) == 0
    assert capsys.readouterr().out == "3 of 3 rows keep their exit contract\n"
    wrong = _ROWS["bad-format"]._replace(id="wrong-message", message="format")
    assert exit_cases.main(command, [wrong]) == 1
    assert capsys.readouterr().out == (
        "wrong-message: exit 2\niso-compare: command line: format: expected one of "
        "csv, json; got 'xml'\n0 of 1 rows keep their exit contract\n")


def _error_classes(cls):
    """cls and every subclass of it."""
    return {cls} | {sub for child in cls.__subclasses__() for sub in _error_classes(child)}


def test_library_error_keys_are_config_keys():
    # main puts an error's key= after the line of that config key: a key
    # renamed in COMMANDS but not where it is raised would lose its line, so
    # each is a literal (a string, or a tuple for a rule on several) and
    # each names a key of some command.  config.py and cli.py may also name
    # the pair at fault by its own key (key=key), the config file's command
    # line, and the config file itself
    names = {cls.__name__ for cls in _error_classes(ValidationError)}
    config_keys = {key for keys, _, _ in COMMANDS.values() for key in keys}
    raised, wrong = set(), []
    for path in sorted(Path(isocompare.__file__).parent.glob("*.py")):
        front = path.name in ("config.py", "cli.py")
        allowed = config_keys | ({"command", "config"} if front else set())
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) in names:
                for value in (k.value for k in node.keywords if k.arg == "key"):
                    at = f"{path.name}:{node.lineno}"
                    if front and isinstance(value, ast.Name) and value.id == "key":
                        continue
                    try:
                        key = ast.literal_eval(value)
                    except ValueError:
                        wrong.append(f"{at}: key={ast.unparse(value)}")
                        continue
                    keys = (key,) if isinstance(key, str) else key
                    raised.update(keys)
                    wrong += [f"{at}: {k}" for k in keys if k not in allowed]
    assert wrong == []
    assert {"c", "t_samples", "rho_n", "epsilon", "tol", "levels"} <= raised


def test_cli_nul_byte_in_config_path_exits_2(capsys):
    # a NUL byte cannot go on a child's command line, so no row holds it
    assert main(["profile", "--config", "a\x00b"]) == 2
    assert capsys.readouterr() == (
        "", "iso-compare: config: cannot read 'a\\x00b': embedded null byte\n")


def test_cli_alpha_finite_above_the_scale_overflow(tmp_path):
    # at eps = 1e-200 the ricci leg's scale times its height is a double
    out = tmp_path / "alpha.csv"
    assert main(["football-alpha", "--epsilon", "1e-200", "--out", str(out)]) == 0
    row = out.read_text().splitlines()[-1].split(",")
    assert math.isfinite(float(row[1])) and float(row[1]) > 1e99


# --- the CLI ------------------------------------------------------------------

def _invoke(tmp_path, command, config_text, *extra):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config_text)
    out = tmp_path / "out.txt"
    code = main([command, "--config", str(cfg), "--out", str(out), *extra])
    return code, out.read_text() if out.exists() else ""


def test_cli_bishop_bound_json(tmp_path):
    code, text = _invoke(tmp_path, "bishop-bound",
                         "command = bishop-bound\nn = 3\nric0 = 2\n")
    assert code == 0
    doc = json.loads(text)
    assert doc["command"] == "bishop-bound"
    assert doc["version"]
    assert doc["summary"]["bound"] == pytest.approx(2 * PI ** 2, rel=1e-6)
    assert doc["summary"]["y0"] == pytest.approx(10.6347231054, rel=1e-9)
    assert doc["summary"]["x0"] == pytest.approx((4 * PI) ** 1.5, rel=1e-9)


def test_cli_deterministic_output(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("command = mass\nmodel = sphere\nric0 = 2\ngrid_size = 33\n")
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        assert main(["mass", "--config", str(cfg), "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_cli_mass_csv_columns(tmp_path):
    code, text = _invoke(tmp_path, "mass",
                         "command = mass\nmodel = sphere\nric0 = 2\n"
                         "grid_size = 33\n")
    assert code == 0
    lines = text.splitlines()
    header = [l for l in lines if not l.startswith("#")][0]
    assert header == "V,A,F,F_prime,m"
    assert lines[0] == "# iso-compare mass"
    assert any(l.startswith("# version = ") for l in lines)
    data = [l for l in lines if not l.startswith("#")][1:]
    assert len(data) == 33
    # every mass entry vanishes on the round sphere
    for row in data:
        assert abs(float(row.split(",")[4])) <= 1e-6


def test_cli_profile_csv(tmp_path):
    code, text = _invoke(tmp_path, "profile",
                         "command = profile\nmodel = football\nc = 0.7\n"
                         "grid_size = 17\n")
    assert code == 0
    rows = [l for l in text.splitlines() if not l.startswith("#")]
    assert rows[0] == "t,V,A"
    assert len(rows) == 18


def test_cli_football_past_the_radius_power_writes_its_tables(tmp_path):
    # radius^3 = 1e330 is not a double but the volume 2 pi^2 radius^3 c^2 is:
    # the powers of radius and c meet in one binary exponent, not in a
    # product of doubles, where profile and mass exited 3 naming radius
    config = "model = football\nn = 3\nc = 1e-100\nradius = 1e110\n"
    for command, extra in (("profile", ""), ("mass", "ric0 = 1\n")):
        code, text = _invoke(tmp_path, command,
                             f"command = {command}\n{config}{extra}")
        assert code == 0
        assert len([l for l in text.splitlines() if not l.startswith("#")]) == 258
    total = candidate_profile(football(1e-100, 3, 1e110)).total_volume
    with mp.workdps(30):
        want = 2 * mp.pi ** 2 * mp.mpf(1e110) ** 3 * mp.mpf(1e-100) ** 2
        assert abs(mp.mpf(total) - want) <= 1e-15 * want


def test_cli_variation_check(tmp_path):
    code, text = _invoke(tmp_path, "variation-check",
                         "command = variation-check\nmodel = sphere\n"
                         "t = 1.0, 1.5\nh = 0.01\nlevels = 3\n")
    assert code == 0
    rows = [l for l in text.splitlines() if not l.startswith("#")]
    assert rows[0] == "t,h,residual_first,residual_h_dot,residual_second,order"
    assert len(rows) == 1 + 6
    orders = {float(r.split(",")[5]) for r in rows[1:]}
    assert all(o >= 1.9 for o in orders)


def test_cli_monotonicity_nondecreasing(tmp_path):
    code, text = _invoke(tmp_path, "monotonicity",
                         "command = monotonicity\ncase = sphere\nlambda = 1\n"
                         "rho_n = 32\n")
    assert code == 0
    rows = [l for l in text.splitlines() if not l.startswith("#")][1:]
    values = [float(r.split(",")[1]) for r in rows]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_cli_monotonicity_flags_override_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("command = monotonicity\ncase = sphere\nlambda = 1\nrho_n = 8\n")
    out = tmp_path / "out.csv"
    code = main(["monotonicity", "--config", str(cfg), "--out", str(out),
                 "--case", "cone", "--lambda", "0"])
    assert code == 0
    values = [float(l.split(",")[1]) for l in out.read_text().splitlines()
              if not l.startswith("#") and not l.startswith("rho")]
    # cone profile is constant
    assert max(values) - min(values) <= 1e-12 * max(values)


def test_cli_epsilon0_json(tmp_path):
    code, text = _invoke(tmp_path, "epsilon0",
                         "command = epsilon0\nmethod = oracle\n")
    assert code == 0
    doc = json.loads(text)
    s = doc["summary"]
    assert not s["no_root"]
    assert s["hi"] - s["lo"] <= 5e-4
    assert 0.10 < s["lo"] < s["hi"] < 0.20
    assert s["iterations"] > 0


def test_cli_football_alpha_grid(tmp_path):
    code, text = _invoke(tmp_path, "football-alpha",
                         "command = football-alpha\neps_grid = 0.1:1.0:4\n")
    assert code == 0
    rows = [l for l in text.splitlines() if not l.startswith("#")]
    assert rows[0] == "epsilon,alpha_oracle,alpha_as_written,z_argmax,discrepancy"
    assert len(rows) == 5
    first = rows[1].split(",")
    assert float(first[1]) > 1.0          # alpha(0.1) > 1
    last = rows[-1].split(",")
    assert float(last[1]) == pytest.approx(1.0, abs=1e-9)


def test_cli_cutoff_budget_json(tmp_path):
    code, text = _invoke(tmp_path, "cutoff-budget",
                         "command = cutoff-budget\nn = 8\ndelta = 0.1\n"
                         "c0 = 1\nc = 1\nradii = 0.1\n")
    assert code == 0
    doc = json.loads(text)
    s = doc["summary"]
    assert s["admissible"] is True
    assert s["area_term"] == pytest.approx(1e-7, rel=1e-9)
    assert s["area_ok"] and s["dirichlet_ok"]


def test_cli_cylinder_growth(tmp_path):
    code, text = _invoke(tmp_path, "cylinder-growth",
                         "command = cylinder-growth\nlengths = 10, 100\n")
    assert code == 0
    rows = [l for l in text.splitlines() if not l.startswith("#")][1:]
    volumes = [float(r.split(",")[1]) for r in rows]
    assert volumes == pytest.approx([40 * PI, 400 * PI], rel=1e-9)
    assert all(float(r.split(",")[2]) == 0.0 for r in rows)


@pytest.mark.parametrize("command, extra, area", [("profile", "", 2),
                                                  ("mass", "ric0 = 3\n", 1)],
                         ids=["profile", "mass"])
def test_cli_far_pole_writes_its_table(tmp_path, command, extra, area):
    # t_max / radius = (pi radius) / radius rounds above pi at this radius:
    # the far pole's sine was -3.2e-16, so A = omega f^3 < 0, and both
    # commands exited 2 with "profile areas must be nonnegative"
    code, text = _invoke(tmp_path, command, f"command = {command}\nmodel = sphere\n"
                         f"n = 4\nradius = 0.327977417671303\n{extra}")
    assert code == 0
    assert float(text.splitlines()[-1].split(",")[area]) > 0.0


_SIZES = ("5e-324", "1e-300", "1e-200", "1e-100", "1e100", "1e200", "1e308")


def _extreme_size_configs():
    """(command, config) pairs: every command with one size key at each of
    _SIZES, the other keys at ordinary values."""
    for s in _SIZES:
        for model in ("model = sphere\n", "model = football\nc = 0.5\n",
                      "model = cylinder\nlength = 1\n"):
            yield "profile", f"{model}radius = {s}\n"
            yield "mass", f"{model}radius = {s}\nric0 = 2\n"
            yield "variation-check", f"{model}radius = {s}\nt = {s}\n"
        yield "profile", f"model = cylinder\nradius = 1\nlength = {s}\n"
        yield ("variation-check",
               f"model = cylinder\nradius = 1\nlength = {s}\nt = {float(s) / 2!r}\n")
        yield "mass", f"model = sphere\nric0 = {s}\n"
        for n in (3, 100, 1000, 100000):
            yield "bishop-bound", f"n = {n}\nric0 = {s}\n"
        yield "football-alpha", f"epsilon = {s}\n"
        yield "epsilon0", f"tol = {s}\n"
        for case in ("circle", "sphere", "cone"):
            yield "monotonicity", f"case = {case}\nlambda = {s}\n"
            yield "monotonicity", f"case = {case}\nlambda = -{s}\n"
            yield "monotonicity", f"case = {case}\nlambda = 1\nrho_min = {s}\n"
        for n in (9, 100, 1100):
            for delta, radii in ((s, s), ("0.1", s), (s, "0.01")):
                yield "cutoff-budget", (f"n = {n}\ndelta = {delta}\nc0 = 1\nc = 1\n"
                                        f"radii = {radii}\n")
        yield "cylinder-growth", f"lengths = {s}\n"
        yield "cylinder-growth", f"lengths = 1, 2\nradius = {s}\n"


def test_cli_extreme_sizes_exit_cleanly(tmp_path):
    # each run exits 0, 2 or 3 with no RuntimeWarning, names a config key on
    # stderr at 2 and 3, and prints no inf or nan cell at 0 but the
    # documented ones: football-alpha's two nan columns and the order of a
    # stencil with no observed order.  A power sum of radii 1e100 and above warned
    # from numpy, and so did the t-grid of a radius of 1e308, whose
    # t_max = pi radius is inf: a traceback under PYTHONWARNINGS=error
    cfg = tmp_path / "run.cfg"
    failures = []
    for command, config in _extreme_size_configs():
        cfg.write_text(f"command = {command}\n{config}")
        out, err = io.StringIO(), io.StringIO()
        try:
            with warnings.catch_warnings(), redirect_stdout(out), redirect_stderr(err):
                warnings.simplefilter("error", RuntimeWarning)
                code = main([command, "--config", str(cfg)])
        except Exception as exc:
            code = f"{type(exc).__name__}: {exc}"
        text = out.getvalue()
        if command == "football-alpha":  # its alpha_as_written and discrepancy
            text = re.sub(r"^([^,#]*,[^,]*),nan,([^,]*),nan$", r"\1,\2", text,
                          flags=re.M)
        # a flat cylinder's residuals are 0, with no observed order
        text = re.sub(r",0,0,0,nan$", "", text, flags=re.M)
        keys = set(COMMANDS[command][0]) - {"model", "case", "output", "format"}
        if (code not in (0, 2, 3)
                or code and not any(re.search(rf"\b{k}\b", err.getvalue()) for k in keys)
                or code == 0 and re.search(r"\b(inf|nan)\b", text)):
            failures.append(f"{command} {config!r}: {code} {err.getvalue().strip()}")
    assert not failures, "\n".join(failures)


@pytest.mark.parametrize("key, top, command, template", [
    ("eps_grid", _MAX_EPS, "football-alpha", "eps_grid = 0.5:1:{}\n"),
    ("grid_size", _MAX_GRID, "profile", "model = sphere\ngrid_size = {}\n"),
    ("grid_size", _MAX_GRID, "mass", "model = sphere\nric0 = 2\ngrid_size = {}\n"),
    ("rho_n", _MAX_RHO, "monotonicity", "case = circle\nlambda = 1\nrho_n = {}\n"),
], ids=["eps_grid", "profile-grid_size", "mass-grid_size", "rho_n"])
def test_size_keys_stop_at_their_bound(key, top, command, template):
    # validation only: the bound itself is accepted, one more is not, and no
    # run allocates anything near it
    options = validate(command, read_pairs(template.format(top))).options
    assert (options[key][2] if key == "eps_grid" else options[key]) == top
    with pytest.raises(ConfigError, match=f"above maximum {top}") as exc:
        validate(command, read_pairs(template.format(top + 1)))
    assert exc.value.key == key


@pytest.mark.parametrize("command, top, cells, template", [
    ("football-alpha", _MAX_EPS, 3000, "eps_grid = 1e-6:1:{}\n"),
    # the 64-node sin_power rule; the run stops at its volume check
    # (V stops increasing), after the volumes, which set the peak
    ("profile", _MAX_GRID, 4000, "model = sphere\nn = 300\ngrid_size = {}\n"),
    ("monotonicity", _MAX_RHO, 20000, "case = circle\nlambda = 1\nrho_n = {}\n"),
], ids=["eps_grid", "grid_size", "rho_n"])
def test_size_keys_bound_the_traced_peak(tmp_path, capsys, command, top, cells,
                                         template):
    # each size key stops at _MEMORY_BUDGET over the peak bytes per cell;
    # a run of a few thousand cells through main, traced, stays within
    # that share, so a change that grows the footprint per cell fails here
    # instead of leaving the key's bound stale
    cfg, out = tmp_path / "run.cfg", tmp_path / "out.csv"
    for size in (cells // 8, cells):     # the first run builds cached rules
        cfg.write_text(template.format(size))
        tracemalloc.start()
        try:
            code = main([command, "--config", str(cfg), "--out", str(out)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert code == 0 or "V stops increasing" in capsys.readouterr().err
    assert peak / cells <= _MEMORY_BUDGET / top


def test_cli_bishop_bound_high_dimension(tmp_path, capsys):
    code, text = _invoke(tmp_path, "bishop-bound",
                         "command = bishop-bound\nn = 400\nric0 = 1\n")
    assert code == 0
    # Gamma overflows at this n; the Wallis integral at pi/2 is exact
    assert '"bound": 2.67951627819e+246,' in text
    assert json.loads(text)["summary"]["bound"] == \
        pytest.approx(2.67951627819e+246, rel=1e-11)
    code, text = _invoke(tmp_path, "bishop-bound",
                         "command = bishop-bound\nn = 600\nric0 = 1\n")
    assert code == 3
    assert ("the path end x0 overflows a double (n=600, ric0=1); raise ric0"
            in capsys.readouterr().err)


def test_cli_json_format_override(tmp_path):
    code, text = _invoke(tmp_path, "cylinder-growth",
                         "command = cylinder-growth\nlengths = 10\n",
                         "--format", "json")
    assert code == 0
    doc = json.loads(text)
    assert doc["columns"] == ["N", "volume", "ric_inf", "scalar_inf"]
    assert doc["rows"][0][1] == pytest.approx(40 * PI, rel=1e-9)


def test_cli_comment_numbers_have_12_digits(tmp_path):
    # nested summary values (switch_points.<eps>) go through the same
    # 12-significant-digit formatting as the table
    code, text = _invoke(tmp_path, "football-alpha",
                         "command = football-alpha\neps_grid = 0.05:0.3:3\n")
    assert code == 0
    comments = "\n".join(l for l in text.splitlines() if l.startswith("#"))
    assert "# switch_points.0.05 = " in comments
    numbers = re.findall(r"\d+\.\d+", comments)
    assert numbers
    for number in numbers:
        assert len(number.replace(".", "").lstrip("0")) <= 12, number


def test_cli_football_alpha_small_grid(tmp_path):
    code, text = _invoke(tmp_path, "football-alpha",
                         "command = football-alpha\neps_grid = 0.3:0.5:3\n")
    assert code == 0
    rows = [l for l in text.splitlines() if not l.startswith("#")]
    assert len(rows) == 4


def _alpha_lines(tmp_path, *flags):
    out = tmp_path / "alpha.csv"
    assert main(["football-alpha", *flags, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    rows = {l.split(",")[0]: l for l in lines if not l.startswith("#")}
    comments = {l.split(" = ")[0]: l for l in lines if l.startswith("# ")}
    return rows, comments


@pytest.mark.parametrize("grid", ["0.005:1:12", "0.134:0.1355:7", "0.02:0.3:9"])
def test_cli_alpha_grid_rows_match_single_eps(tmp_path, grid):
    # every eps of a grid shares each array call with the others, yet its
    # row and its summary lines are the bytes a run at that eps alone gives;
    # the grids end at eps = 1 and cross the threshold 0.1347
    rows, comments = _alpha_lines(tmp_path, "--eps-grid", grid)
    lo, hi, num = grid.split(":")
    least = math.inf
    for eps in np.linspace(float(lo), float(hi), int(num)):
        key = format_number(float(eps))
        single_rows, single_comments = _alpha_lines(
            tmp_path, "--epsilon", repr(float(eps)))
        assert single_rows[key] == rows[key]
        name = f"# switch_points.{key}"
        assert name in comments, name
        assert single_comments.get(name) == comments.get(name), name
        least = min(least, float(single_comments["# as_written"].split(" = ")[1]))
    # one as_written line for the run: the least bound over its eps
    assert comments["# as_written"] == f"# as_written = {format_number(least)}"


def test_cli_alpha_switch_point_within_ulps_of_one(tmp_path):
    # a bracket [z_lo, 4 pi] a few ulps wide is the round sphere, as at
    # eps = 1: no switch point amplified by 1 / (1 - eps)
    rows, comments = _alpha_lines(tmp_path, "--epsilon", "0.999999999999999")
    assert comments["# switch_points.1"] == "# switch_points.1 = 0"
    assert rows["1"] == "1,1,nan,12.5663706144,nan"


def test_cli_alpha_as_written_is_one_line(tmp_path):
    # one line for the run, also at a 256-eps grid, which wrote over 1 MB
    # while the audit printed every message and 49 kB while it printed a
    # line per eps
    out = tmp_path / "alpha.csv"
    assert main(["football-alpha", "--eps-grid", "0.05:0.5:256",
                 "--out", str(out)]) == 0
    assert out.stat().st_size < 25_000
    lines = out.read_text().splitlines()
    assert [l for l in lines if l.startswith("# as_written")] == [
        "# as_written = 564.046961283"]
    assert not any(l.startswith("# violations") for l in lines)
    # the JSON summary carries the same number
    assert main(["football-alpha", "--eps-grid", "0.05:0.5:256", "--format",
                 "json", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["summary"]["as_written"] == 564.046961283


# --- fuzz of the alpha, epsilon0 and monotonicity flags -------------------------

# numbers as text: any double, nan and inf; eps at and below the overflow of
# the ricci leg's scale (about 1.7e-205); tol finer than the doubles near
# eps0 (below about 1.4e-17); and malformed text
_FUZZ_NUMBER = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.floats(0.0, 1.0).map(repr),
    st.floats(0.0, 1e-200).map(repr),
    st.sampled_from(["5e-324", "1e-300", "1e-206", "1e-17", "nan", "inf",
                     "-inf", "-0", "0", "1", "0.5"]),
    st.text(max_size=8))
_FUZZ_GRID = st.one_of(
    st.tuples(_FUZZ_NUMBER, _FUZZ_NUMBER, st.integers(0, 70)).map(
        lambda t: "%s:%s:%d" % t),
    st.text(max_size=12))
_FUZZ_ARGS = st.one_of(
    st.tuples(st.just("football-alpha"), st.fixed_dictionaries(
        {}, optional={"--epsilon": _FUZZ_NUMBER, "--eps-grid": _FUZZ_GRID})),
    st.tuples(st.just("epsilon0"), st.fixed_dictionaries(
        {}, optional={"--method": st.one_of(
            st.sampled_from(["oracle", "as-written"]), st.text(max_size=8)),
                      "--tol": _FUZZ_NUMBER})),
    st.tuples(st.just("monotonicity"), st.fixed_dictionaries(
        {}, optional={"--case": st.one_of(
            st.sampled_from(["sphere", "circle", "cone"]), st.text(max_size=8)),
                      "--lambda": _FUZZ_NUMBER}))).map(
    lambda args: [args[0]] + [f"{flag}={value}" for flag, value in args[1].items()])
# raw token lists: the real flags, abbreviations and unknown flags, -h and
# --help anywhere, negative numbers and well-formed values; a flag drawn
# last or before another flag has no value
_FUZZ_TOKEN = st.one_of(
    st.sampled_from(["--epsilon", "--eps-grid", "--method", "--tol", "--case",
                     "--lambda", "--format", "--config", "--eps", "--conf",
                     "--meth", "--bogus", "--", "-", "-x", "-h", "--help",
                     "-1", "-0.5", "-inf", "-1e-3", "0.1", "0.05:0.5:3",
                     "oracle", "circle", "json", "--epsilon=-1",
                     "--lambda=-2"]),
    _FUZZ_NUMBER)
_FUZZ_TOKENS = st.tuples(
    st.sampled_from(["football-alpha", "epsilon0", "monotonicity", "mass",
                     "bogus", "-h"]),
    st.lists(_FUZZ_TOKEN, max_size=6)).map(lambda t: [t[0], *t[1]])


@settings(max_examples=200, deadline=None)
@given(st.one_of(_FUZZ_ARGS, _FUZZ_TOKENS, st.lists(_FUZZ_TOKEN, max_size=3)))
@example(["football-alpha", "--epsilon=1e-300"])
@example(["football-alpha", "--epsilon=1e-206"])
@example(["football-alpha", "--eps-grid=1e-300:1:4"])
@example(["football-alpha", "--eps-grid=-inf:inf:3"])
@example(["epsilon0", "--tol=1e-300"])
@example(["monotonicity", "--case=sphere", "--lambda=355"])
@example(["monotonicity", "--case=circle", "--lambda=inf"])
@example(["monotonicity", "--case=cone", "--lambda=-inf"])
@example(["monotonicity", "--case", "circle", "--lambda", "-1"])
@example(["football-alpha", "--eps", "0.1"])
@example(["football-alpha", "--epsilon"])
@example(["football-alpha", "--epsilon", "--conf", "x", "-h"])
@example([])
def test_cli_fuzz_alpha_and_epsilon0_flags(argv):
    # exit 0, 2 or 3, no SystemExit, no traceback, no RuntimeWarning; -h or
    # --help anywhere prints the usage; an error is one line naming its
    # cause; and a finite alpha or monotonicity profile on every row of an
    # exit 0
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            pytest.fail(f"main raised SystemExit({exc.code})")
    assert code in (0, 2, 3), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if "-h" in argv or "--help" in argv:
        assert code == 0 and out.getvalue().startswith("usage: iso-compare")
    elif code:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("iso-compare: ")
        assert err.getvalue().count("\n") == 1
    elif argv[0] in ("football-alpha", "monotonicity"):
        rows = [l for l in out.getvalue().splitlines() if l[:1].isdigit()]
        assert rows and all(math.isfinite(float(r.split(",")[1])) for r in rows)


def test_every_exported_name_resolves():
    # a name deleted from a module must leave its __all__, and the package's
    modules = [isocompare] + [importlib.import_module(f"isocompare.{m.name}")
                              for m in pkgutil.iter_modules(isocompare.__path__)]
    exported = [(m, name) for m in modules for name in getattr(m, "__all__", ())]
    assert len({m for m, _ in exported}) >= 6
    assert [f"{m.__name__}.{name}" for m, name in exported
            if not hasattr(m, name)] == []


def test_cli_imports_no_private_library_name():
    # the handlers take their columns from the library's public calls: no
    # name beginning with "_", but for a dunder such as __version__, comes
    # from another isocompare module
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    names = [(node.module, alias.name) for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.level > 0
             for alias in node.names]
    assert len({module for module, _ in names}) >= 7
    assert [f"{module}.{name}" for module, name in names
            if name.startswith("_") and not name.endswith("__")] == []


def test_console_entry_point(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("command = bishop-bound\nn = 3\nric0 = 8\n")
    proc = subprocess.run(
        [sys.executable, "-m", "isocompare.cli", "bishop-bound",
         "--config", str(cfg)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["summary"]["bound"] == pytest.approx(PI ** 2 / 4, rel=1e-6)


def _child_env():
    """The environment of a child interpreter that imports this package."""
    src = str(Path(isocompare.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def test_cli_output_write_failing_part_way_leaves_no_old_tail(tmp_path):
    # the artifact is written over the old file in place, then cut to the
    # length written, also when the write fails: at a 16 KiB file size
    # limit a 2049-point profile stops at 16,384 bytes (EFBIG), and none of
    # the old file's 30,000 bytes may stay past them
    pytest.importorskip("resource")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("command = profile\nmodel = sphere\ngrid_size = 2049\n")
    full = tmp_path / "full.csv"
    assert main(["profile", "--config", str(cfg), "--out", str(full)]) == 0
    out = tmp_path / "out.csv"
    out.write_bytes(b"x" * 30_000)
    code = ("import resource, signal, sys\n"
            "from isocompare.cli import main\n"
            "signal.signal(signal.SIGXFSZ, signal.SIG_IGN)\n"
            "hard = resource.getrlimit(resource.RLIMIT_FSIZE)[1]\n"
            "resource.setrlimit(resource.RLIMIT_FSIZE, (16384, hard))\n"
            "sys.exit(main(sys.argv[1:]))\n")
    proc = subprocess.run([sys.executable, "-c", code, "profile", "--config",
                           str(cfg), "--out", str(out)], env=_child_env(),
                          capture_output=True, text=True)
    message = (f"command line: output: cannot write {str(out)!r}: [Errno 27] File too "
               "large")
    assert (proc.returncode, proc.stderr) == (2, f"iso-compare: {message}\n")
    assert out.read_bytes() == full.read_bytes()[:16384]


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
def test_cli_output_to_a_device_or_pipe(capsys):
    # a target that is not a regular file is written as a stream and not cut
    # to length: ftruncate on /dev/null and lseek on a pipe raise OSError
    cfg = str(GOLDEN / "profile.cfg")
    assert main(["profile", "--config", cfg, "--out", "/dev/null"]) == 0
    assert capsys.readouterr() == ("", "")
    proc = subprocess.run([sys.executable, "-m", "isocompare.cli", "profile",
                           "--config", cfg, "--out", "/dev/stdout"],
                          env=_child_env(), capture_output=True)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == (GOLDEN / "profile.csv").read_bytes()


# --- fixed costs: the parser and the import ---------------------------------

GOLDEN = Path(__file__).parent / "golden"


def test_cli_import_leaves_out_unused_scipy():
    # the library needs numpy alone: without scipy.special a cold import of
    # the CLI fell from about 0.6 s to 0.23 s, so no scipy module may load
    code = ("import sys, isocompare.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], env=_child_env(),
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


def test_cli_import_leaves_out_argparse():
    # the command line is split without argparse, whose import and nine
    # subparsers cost a tenth of a one-eps football-alpha op
    code = "import sys, isocompare.cli; print('argparse' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=_child_env(),
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"


# the rows whose whole input is the command line
_USAGE_ROWS = [row for row in exit_cases.ROWS if row.config is None and row.code == 2]


@pytest.mark.parametrize("row", _USAGE_ROWS, ids=lambda row: row.id)
def test_cli_usage_errors_leave_main_usable(tmp_path, capsys, row):
    # after a usage error (its row's own test checks the exit and message),
    # --help exits 0 listing every command and flag, and two commands still
    # write their golden bytes
    main(exit_cases.prepare(row, str(tmp_path)))
    capsys.readouterr()
    assert main(exit_cases.prepare(row, str(tmp_path)) + ["--help"]) == 0
    text = capsys.readouterr().out
    assert text.startswith("usage: iso-compare <command>")
    assert all(token in text for token in [*COMMANDS,
        "--config", "--out", "--format", "--eps-grid", "--epsilon", "--method",
        "--tol", "--case", "--lambda"])
    for command, suffix in (("football-alpha", "csv"), ("bishop-bound", "json")):
        out = tmp_path / f"{command}.{suffix}"
        assert main([command, "--config", str(GOLDEN / f"{command}.cfg"),
                     "--out", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN / f"{command}.{suffix}").read_bytes()


# each flag, its command's other keys, a good value and a bad one; None
# stands for the output file and, as a bad output, a directory, which is an
# exit 2 rather than an OSError raised out of main
_FLAG_CASES = [
    ("--out", "output", "bishop-bound", "n = 3\nric0 = 2\n", None, None),
    ("--format", "format", "bishop-bound", "n = 3\nric0 = 2\n", "csv", "xml"),
    ("--eps-grid", "eps_grid", "football-alpha", "", "0.1:0.3:3", "0.3:0.1:3"),
    ("--epsilon", "epsilon", "football-alpha", "", "0.2", "0.2x"),
    ("--method", "method", "epsilon0", "tol = 0.01\n", "oracle", "newton"),
    ("--tol", "tol", "epsilon0", "", "0.01", "-1"),
    ("--case", "case", "monotonicity", "lambda = 1\nrho_n = 8\n", "cone", "disk"),
    ("--lambda", "lambda", "monotonicity", "case = circle\nrho_n = 8\n", "-1",
     "nan"),
]


@pytest.mark.parametrize("flag, key, command, config, good, bad", _FLAG_CASES,
                         ids=[case[0] for case in _FLAG_CASES])
def test_cli_flag_is_its_config_key(tmp_path, capsys, flag, key, command,
                                    config, good, bad):
    # --flag value, --flag=value and the line "key = value" in the config
    # file write the same bytes, and reject a bad value with the same
    # message but for its "command line" or "line N" prefix
    out, cfg = tmp_path / "out.txt", tmp_path / "run.cfg"

    def forms(value):
        """(exit status, output bytes, message) of each of the 3 forms."""
        base = [command, "--config", str(cfg)]
        if key != "output":
            base += ["--out", str(out)]
        results = []
        for argv, line in ((base + [flag, value], ""),
                           (base + [f"{flag}={value}"], ""),
                           (base, f"{key} = {value}\n")):
            cfg.write_text(f"command = {command}\n{config}{line}")
            out.unlink(missing_ok=True)
            code = main(argv)
            err = capsys.readouterr().err
            results.append((code, out.read_bytes() if code == 0 else None,
                            re.sub(r"^iso-compare: (command line|line \d+): ",
                                   "", err)))
        assert results[0] == results[1] == results[2]
        return results[0]

    assert forms(good or str(out))[0] == 0
    code, _, message = forms(bad or str(tmp_path))
    assert code == 2
    if bad is not None:
        assert message.startswith(f"{key}: ") and bad in message


def test_cli_flag_cases_cover_every_flag():
    # a flag added to a command's entry in COMMANDS fails here until
    # _FLAG_CASES holds a case for it; --config names the file, not a key
    flags = {flag for _, _, own in COMMANDS.values() for flag in own}
    assert {case[0] for case in _FLAG_CASES} == \
        (set(cli._FLAGS) - {"--config"}) | flags


# --- the table renderer ---------------------------------------------------------

_CELLS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf,
                     5e-324, -2.2250738585072014e-308, 1e-310]),
    st.integers(min_value=-10 ** 20, max_value=10 ** 20))


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=1, max_value=6).flatmap(
    lambda width: st.lists(st.lists(_CELLS, min_size=width, max_size=width),
                           max_size=8)))
def test_render_table_matches_per_cell_format_number(rows):
    width = len(rows[0]) if rows else 3
    columns = [f"c{k}" for k in range(width)]
    text = render(RunConfig("cylinder-growth", {}, format="csv"), columns, rows, {})
    body = text.splitlines()[text.splitlines().index(",".join(columns)) + 1:]
    assert body == [",".join(format_number(float(v)) for v in row) for row in rows]


# Above cli._KERNEL_MIN cells the table goes through the vector kernel, which
# must write every cell exactly as format_number does; the test above never
# draws that many.

_N = cli._KERNEL_MIN


def _per_cell(rows) -> list[str]:
    return [",".join(format_number(float(v)) for v in row) for row in rows]


def _rendered_body(rows, width: int) -> list[str]:
    columns = [f"c{k}" for k in range(width)]
    text = render(RunConfig("cylinder-growth", {}, format="csv"), columns, rows, {})
    return text.splitlines()[text.splitlines().index(",".join(columns)) + 1:]


@settings(max_examples=100, deadline=None)
@given(st.lists(_CELLS, min_size=1, max_size=64), st.integers(1, 6),
       st.integers(0, 40))
def test_render_kernel_tables_match_per_cell_format_number(cells, width, extra):
    # the drawn cells repeated to fill a table above the gate
    count = -(-_N // width) + extra
    rows = np.resize(np.array(cells, dtype=float), (count, width))
    assert _rendered_body(rows, width) == _per_cell(rows)


def _ulps(values) -> np.ndarray:
    """Each value, its negative, and their neighbours one ulp away."""
    x = np.asarray(values, dtype=float)
    x = np.concatenate([x, -x])
    return np.concatenate([np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)])


_TWELVE_DIGITS = np.random.default_rng(5).integers(10 ** 11, 10 ** 12, 200)
_FAMILIES = {
    # a 13th digit of exactly 5 (k + 0.5 times 10^j, j >= 0) is a tie, which
    # dtoa rounds half to even; with j < 0 the product is a near-tie
    "ties": (_TWELVE_DIGITS[:, None] + 0.5) * 10.0 ** np.arange(-4, 4),
    "small ties": (np.arange(100)[:, None] + 0.5) * 10.0 ** np.arange(-6, 6),
    "powers of ten": _ulps([float(f"1e{k}") for k in range(-300, 301)]),
    # the fixed / exponent switches at 1e-5, 1e-4, 1e11 and 1e12, and the
    # carries into them
    "switches": _ulps([1e-5, 1e-4, 1e11, 1e12, 999999999999.5, 99999999999.95,
                       9.9999999999995e-5, 9.9999999999995e-6, 0.99999999999950,
                       9.99999999999e-5, 999999999999.4, 99999999999.96]),
    "zeros": np.zeros(_N),
    "signed zeros": np.tile([0.0, -0.0, 1.0, -1.0, 0.5], _N),
    "nonfinite": np.tile([math.nan, -math.nan, math.inf, -math.inf, 2.5], _N),
    # every cell outside the kernel's range: the whole table goes to %
    "all fall back": np.tile([5e-324, -1e-310, 2.2250738585072014e-308,
                              -1e-295, 1e295, -1.7976931348623157e308, math.nan],
                             _N),
}


@pytest.mark.parametrize("width", [1, 3])
@pytest.mark.parametrize("family", list(_FAMILIES))
def test_render_kernel_adversarial_families(family, width):
    cells = _FAMILIES[family].ravel()
    if cells.size < _N:
        cells = np.resize(cells, _N + width)
    rows = cells[:cells.size // width * width].reshape(-1, width)
    assert _rendered_body(rows, width) == _per_cell(rows)


@pytest.mark.parametrize("count", [_N - 1, _N])
def test_render_tables_at_the_gate(count):
    rows = np.random.default_rng(count).standard_normal((count, 1))
    assert _rendered_body(rows, 1) == _per_cell(rows)


def _old_table(rows, width: int) -> str:
    """The renderer before the kernel: a single % on a line template."""
    with np.errstate(invalid="ignore"):  # a signalling nan
        table = np.asarray(rows, dtype=float) + 0.0
    line = ",".join(["%.12g"] * width)
    return "\n".join([line] * len(table)) % tuple(table.ravel().tolist())


def test_render_kernel_matches_the_old_renderer_on_random_bits():
    # 10^6 uniformly random bit patterns: every exponent, nan payloads,
    # subnormals and infinities
    bits = np.random.default_rng(13).integers(0, 2 ** 64, 10 ** 6, dtype=np.uint64)
    rows = bits.view(np.float64).reshape(-1, 4)
    assert cli._table(rows, 4) == _old_table(rows, 4)


_MODEL_KEYS = {"sphere": "", "football": "c = 0.3\n", "cylinder": "length = 2.5\n"}


def _assert_rendered_rows(tmp_path, capsys, command: str, text: str):
    """The command's CSV body through main equals format_number on each cell
    of its handler's rows, which are above the kernel's gate."""
    cfg, out = tmp_path / "run.cfg", tmp_path / "out.csv"
    cfg.write_text(text)
    code = main([command, "--config", str(cfg), "--out", str(out)])
    if code == 2:
        # the closed models above n = 5 at this grid: the last volume cell is
        # below one ulp of the total (ROADMAP item 7), so no table is written
        assert "volume samples are not strictly increasing" in \
            capsys.readouterr().err
        return
    assert code == 0
    pairs = read_pairs(text)
    del pairs["command"]
    columns, rows, _ = cli._HANDLERS[command](validate(command, pairs).options)
    assert np.size(rows) >= _N
    lines = out.read_text().splitlines()
    assert lines[lines.index(",".join(columns)) + 1:] == _per_cell(rows)


@pytest.mark.parametrize("n", range(3, 9))
@pytest.mark.parametrize("model", list(_MODEL_KEYS))
@pytest.mark.parametrize("command", ["profile", "mass"])
def test_render_model_tables_above_the_gate(tmp_path, capsys, command, model, n):
    text = (f"command = {command}\nmodel = {model}\nn = {n}\ngrid_size = 2049\n"
            + _MODEL_KEYS[model] + (f"ric0 = {n - 1}\n" if command == "mass" else ""))
    _assert_rendered_rows(tmp_path, capsys, command, text)


@pytest.mark.parametrize("case", ["sphere", "circle", "cone"])
def test_render_monotonicity_above_the_gate(tmp_path, capsys, case):
    _assert_rendered_rows(tmp_path, capsys, "monotonicity",
                          f"command = monotonicity\ncase = {case}\n"
                          "lambda = 1.5\nrho_n = 4096\n")


def test_format_number_special_values():
    assert [format_number(x) for x in (-0.0, math.nan, math.inf, -math.inf,
                                       5e-324, 1 / 3, 12)] == \
        ["0", "nan", "inf", "-inf", "4.94065645841e-324", "0.333333333333", "12"]


@pytest.mark.parametrize("command", [c for c in COMMANDS if c not in
                                     ("bishop-bound", "epsilon0", "cutoff-budget")])
def test_json_rows_are_the_csv_numbers(command, tmp_path):
    golden = Path(__file__).parent / "golden"
    cfg = str(golden / f"{command}.cfg")
    csv_out, json_out = tmp_path / "out.csv", tmp_path / "out.json"
    assert main([command, "--config", cfg, "--out", str(csv_out)]) == 0
    assert main([command, "--config", cfg, "--out", str(json_out),
                 "--format", "json"]) == 0
    lines = [l for l in csv_out.read_text().splitlines() if not l.startswith("#")]
    doc = json.loads(json_out.read_text())
    assert doc["columns"] == lines[0].split(",")
    assert len(doc["rows"]) == len(lines) - 1
    for line, row in zip(lines[1:], doc["rows"]):
        for cell, value in zip(line.split(","), row, strict=True):
            if cell in ("nan", "inf", "-inf"):
                assert value == cell
            else:
                assert value == float(cell)
