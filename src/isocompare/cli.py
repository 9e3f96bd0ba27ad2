"""Command-line front end: iso-compare <command> --config <file>.

Every command writes a single CSV or JSON artifact with a header naming the
command, its parameters and the package version.  Output is deterministic:
numbers carry 12 significant digits, keys are sorted, no timestamps.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys

import numpy as np

from . import __version__
from .config import COMMANDS, RunConfig, build_metric, read_pairs, validate
from .errors import ConfigError, NumericalError, ValidationError
from .football import alpha_result, as_written_bound, cylinder_growth, epsilon0
from .gmt import (RadiusFamily, cone_over_circle, cutoff_budget,
                  monotonicity_profile, unit_circle, unit_sphere)
from .phase_plane import extremal_path, phase_curve, ricci_mass, volume_from_path
from .variation import stencil_table
from .warped import candidate_profile


def format_number(x) -> str:
    if isinstance(x, float):
        return f"{x + 0.0:.12g}"  # + 0.0 turns -0 into 0
    return str(x)


def _number(text: str):
    """A formatted number read back: the float, or the text of nan and inf."""
    return text if text in ("nan", "inf", "-inf") else float(text)


def _round_floats(obj):
    if isinstance(obj, (float, np.floating)):
        return _number(format_number(float(obj)))
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    if isinstance(obj, np.integer):
        return int(obj)
    return obj


# ---------------------------------------------------------------------------
# command handlers: each returns (default_format, columns, rows, summary)


def _run_profile(opts):
    metric = build_metric(opts)
    prof = candidate_profile(metric, opts.get("grid_size", 257))
    rows = np.column_stack((prof.t_grid, prof.v_grid, prof.a_values))
    return "csv", ["t", "V", "A"], rows, {"total_volume": prof.total_volume}


def _run_variation_check(opts):
    metric = build_metric(opts)
    table = stencil_table(metric, opts["t"], opts.get("h", 1e-3 * metric.t_max),
                          opts.get("levels", 3))
    columns = ["t", "h", "residual_first", "residual_h_dot", "residual_second",
               "order"]
    return "csv", columns, table.rows(), {}


def _run_mass(opts):
    metric = build_metric(opts)
    prof = candidate_profile(metric, opts.get("grid_size", 257))
    curve = phase_curve(prof)
    mass = ricci_mass(prof, opts["ric0"])
    rows = np.column_stack((prof.v_grid, prof.a_values, curve.x, curve.y,
                            mass.m_values))
    return "csv", ["V", "A", "F", "F_prime", "m"], rows, {}


def _run_bishop_bound(opts):
    path = extremal_path(opts["n"], opts["ric0"], 0.0)
    bound = volume_from_path(path)
    return "json", None, None, {"y0": path.y0, "x0": path.x0, "bound": bound}


def _run_football_alpha(opts):
    if "eps_grid" in opts:
        lo, hi, num = opts["eps_grid"]
        eps_values = [float(e) for e in np.linspace(lo, hi, num)]
    else:
        eps_values = [opts["epsilon"]]
    results = alpha_result(eps_values)
    # the verbatim display's two columns stay, nan on every row: as_written,
    # its switch point over the path's end, is above 200 at every eps
    rows = [(r.epsilon, r.alpha_oracle, math.nan, r.z_argmax, math.nan)
            for r in results]
    columns = ["epsilon", "alpha_oracle", "alpha_as_written", "z_argmax",
               "discrepancy"]
    summary = {
        "as_written": float(np.min(as_written_bound(eps_values))),
        "switch_points": {
            format_number(r.epsilon): r.switch_x for r in results
        },
    }
    return "csv", columns, rows, summary


def _run_epsilon0(opts):
    bracket = epsilon0(method=opts.get("method", "oracle"),
                       tol=opts.get("tol", 5e-4))
    return "json", None, None, {
        "lo": bracket.lo, "hi": bracket.hi, "iterations": bracket.iterations,
        "method": bracket.method, "no_root": bracket.no_root,
    }


def _run_monotonicity(opts):
    rho = np.linspace(opts.get("rho_min", 0.01), opts.get("rho_max", 2.0),
                      opts.get("rho_n", 64))
    lam = opts["lambda"]
    case_name = opts["case"]
    if case_name == "circle":
        case = unit_circle(lam, rho)
    elif case_name == "sphere":
        case = unit_sphere(lam, rho, dim=opts.get("sphere_dim", 2))
    else:
        case = cone_over_circle(opts.get("angle", math.pi / 4), lam, rho)
    profile = monotonicity_profile(case)
    rows = np.column_stack((profile.rho, profile.values))
    return "csv", ["rho", "profile"], rows, {"clamped": int(profile.clamped.sum())}


def _run_cutoff_budget(opts):
    family = RadiusFamily(radii=np.asarray(opts["radii"], dtype=float),
                          delta=opts["delta"], n=opts["n"],
                          c0=opts["c0"], c=opts["c"], h=opts.get("h", 0.0))
    return "json", None, None, dataclasses.asdict(cutoff_budget(family))


def _run_cylinder_growth(opts):
    rows = [(g.length, g.volume, g.ric_inf, g.scalar_inf)
            for g in cylinder_growth(opts["lengths"], opts.get("radius", 1.0))]
    return "csv", ["N", "volume", "ric_inf", "scalar_inf"], rows, {}


_HANDLERS = {
    "profile": _run_profile,
    "variation-check": _run_variation_check,
    "mass": _run_mass,
    "bishop-bound": _run_bishop_bound,
    "football-alpha": _run_football_alpha,
    "epsilon0": _run_epsilon0,
    "monotonicity": _run_monotonicity,
    "cutoff-budget": _run_cutoff_budget,
    "cylinder-growth": _run_cylinder_growth,
}


# ---------------------------------------------------------------------------
# rendering


def _parameter_strings(opts: dict) -> dict[str, str]:
    out = {}
    for key in sorted(opts):
        value = opts[key]
        if isinstance(value, (list, tuple)):
            out[key] = ",".join(format_number(float(v)) if isinstance(v, (int, float))
                                else str(v) for v in value)
        else:
            out[key] = format_number(value)
    return out


def _table(rows, width: int) -> str:
    """Data rows as CSV text: the rows become one float table, and a single
    ``%`` fills a ``%.12g,...`` line template repeated once per row.  ``%``
    writes nan, +-inf, subnormals and ints as ``format_number`` does, and
    adding 0.0 turns -0 into 0 as it does."""
    table = np.asarray(rows, dtype=float) + 0.0
    line = ",".join(["%.12g"] * width)
    return "\n".join([line] * len(table)) % tuple(table.ravel().tolist())


def render(config: RunConfig, columns, rows, summary) -> str:
    fmt = config.format or ("csv" if rows is not None else "json")
    params = _parameter_strings(config.options)
    body = None if rows is None else _table(rows, len(columns))
    if fmt == "json":
        doc = {"command": config.command, "version": __version__,
               "parameters": params}
        if columns is not None:
            # the CSV cells read back: the same 12 digits, nonfinite as text
            doc["columns"] = columns
            doc["rows"] = [[_number(c) for c in line.split(",")]
                           for line in body.splitlines()]
        if summary:
            doc["summary"] = _round_floats(summary)
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"
    lines = [f"# iso-compare {config.command}", f"# version = {__version__}"]
    lines += [f"# {key} = {value}" for key, value in params.items()]
    if rows is None:
        # a summary-only command as CSV: one key,value line per entry
        lines.append("key,value")
        lines += [f"{key},{format_number(summary[key])}" for key in sorted(summary)]
        return "\n".join(lines) + "\n"
    for key in sorted(summary or {}):
        value = summary[key]
        if isinstance(value, dict):
            for sub in sorted(value):
                lines.append(f"# {key}.{sub} = {format_number(value[sub])}")
        else:
            lines.append(f"# {key} = {format_number(value)}")
    lines.append(",".join(columns))
    if body:
        lines.append(body)
    return "\n".join(lines) + "\n"


def run(config: RunConfig) -> int:
    """Execute a validated configuration; returns the process exit status."""
    try:
        default_fmt, columns, rows, summary = _HANDLERS[config.command](config.options)
    except (ConfigError, ValidationError) as exc:
        print(f"iso-compare: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"iso-compare: numerical failure in {config.command}: {exc}",
              file=sys.stderr)
        return 3
    if config.format is None:
        config.format = default_fmt
    text = render(config, columns, rows, summary)
    if config.output:
        with open(config.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# argument parsing


_FLAG_KEYS = {
    "eps_grid": "eps_grid",
    "method": "method",
    "case": "case",
    "lambda_": "lambda",
    "tol": "tol",
    "epsilon": "epsilon",
}


def build_parser() -> argparse.ArgumentParser:
    """A fresh parser for the 9 commands and their flags."""
    parser = argparse.ArgumentParser(
        prog="iso-compare",
        description="Isoperimetric-profile volume comparison toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for command in COMMANDS:
        p = sub.add_parser(command)
        p.add_argument("--config", help="key-value configuration file")
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"))
        if command == "football-alpha":
            p.add_argument("--eps-grid", dest="eps_grid", help="lo:hi:n")
            p.add_argument("--epsilon", dest="epsilon")
        if command == "epsilon0":
            p.add_argument("--method", choices=("oracle", "as-written"))
            p.add_argument("--tol", dest="tol")
        if command == "monotonicity":
            p.add_argument("--case", choices=("sphere", "circle", "cone"))
            p.add_argument("--lambda", dest="lambda_")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # one parser per process, built on the first call rather than at import:
    # rebuilding the nine subparsers on every call was a third of a one-eps
    # football-alpha op
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        pairs = {}
        if args.config:
            with open(args.config, encoding="utf-8") as fh:
                pairs = read_pairs(fh.read())
        file_command = pairs.pop("command", (None, 0))[0]
        if file_command is not None and file_command != args.command:
            raise ConfigError(
                f"config file names command {file_command!r} but "
                f"{args.command!r} was invoked")
        for attr, key in _FLAG_KEYS.items():
            value = getattr(args, attr, None)
            if value is not None:
                pairs[key] = (value, 0)
        config = validate(args.command, pairs)
        if args.out:
            config.output = args.out
        if args.format:
            config.format = args.format
    except OSError as exc:
        print(f"iso-compare: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, ValidationError) as exc:
        print(f"iso-compare: {exc}", file=sys.stderr)
        return 2
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
