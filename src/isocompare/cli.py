"""Command-line front end: iso-compare <command> [--config <file>] [--flag value].

Every command writes a single CSV or JSON artifact with a header naming the
command, its parameters and the package version.  Output is deterministic:
numbers carry 12 significant digits, keys are sorted, no timestamps.

Every number is written as Python's ``%.12g`` writes it.  A table of at
least ``_KERNEL_MIN`` cells goes through a numpy kernel that writes the same
bytes: each cell's 12 digits are m = rint(|x| 10^(11 - e)), with e from
log10 and 10^(11 - e) a correctly rounded double, so m is within 2.3e-4 of
the exact scaled value; a cell whose fraction is within 1/2 - 1e-3 of an
integer has its correctly rounded digits in m, and any other cell (ties and
near-ties, nan, inf, subnormals, |x| outside (1e-290, 1e290)) is written by
``%`` itself.  m splits into 3 quads of 4 digits, looked up as ASCII, and one
gather from a layout table per (sign, notation, digits kept) places the
digits, the point, the sign, the exponent and the separator.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import os
import stat
import sys

import numpy as np

from . import __version__
from .config import COMMANDS, RunConfig, read_pairs, validate
from .errors import ConfigError, NumericalError, ValidationError
from .football import alpha_oracle, epsilon0
from .gmt import (RadiusFamily, cone_over_circle, cutoff_budget,
                  monotonicity_profile, unit_circle, unit_sphere)
from .phase_plane import (extremal_path, mass_coefficient, phase_curve, ricci_mass,
                          volume_from_path)
from .variation import stencil_table
from .warped import (WarpedMetric, candidate_profile, cylinder,
                     cylinder_growth, football, round_sphere, tabulated)


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
# command handlers: each returns (columns, rows, summary), with columns and
# rows None for a summary alone


def build_metric(options: dict) -> WarpedMetric:
    """Construct the configured warped model."""
    model, n = options["model"], options.get("n", 3)
    radius = options.get("radius", 1.0)
    if model == "sphere":
        return round_sphere(n=n, radius=radius)
    if model == "football":
        return football(options.get("c", 0.5), n=n, radius=radius)
    if model == "cylinder":
        return cylinder(radius, options["length"], n=n)
    return tabulated(options["t_samples"], options["f_samples"], n=n)


def _run_profile(opts):
    metric = build_metric(opts)
    prof = candidate_profile(metric, opts.get("grid_size", 257))
    rows = np.empty((prof.t_grid.size, 3))
    rows[:, 0], rows[:, 1], rows[:, 2] = prof.t_grid, prof.v_grid, prof.a_values
    return ["t", "V", "A"], rows, {"total_volume": prof.total_volume}


def _run_variation_check(opts):
    metric = build_metric(opts)
    table = stencil_table(metric, opts["t"], opts.get("h"), opts.get("levels", 3))
    columns = ["t", "h", "residual_first", "residual_h_dot", "residual_second",
               "order"]
    return columns, table.rows(), {}


def _run_mass(opts):
    metric = build_metric(opts)
    # ric0's range before the profile, which may leave the doubles (exit 3)
    mass_coefficient(metric.n, opts["ric0"])
    prof = candidate_profile(metric, opts.get("grid_size", 257))
    curve = phase_curve(prof)
    rows = np.empty((prof.v_grid.size, 5))
    rows[:, 0], rows[:, 1], rows[:, 2], rows[:, 3], rows[:, 4] = (
        prof.v_grid, prof.a_values, curve.x, curve.y, ricci_mass(curve, opts["ric0"]))
    return ["V", "A", "F", "F_prime", "m"], rows, {}


def _run_bishop_bound(opts):
    path = extremal_path(opts["n"], opts["ric0"], 0.0)
    bound = volume_from_path(path)
    return None, None, {"y0": path.y0, "x0": path.x0, "bound": bound}


def _run_football_alpha(opts):
    grid = opts.get("eps_grid")
    result = alpha_oracle([opts["epsilon"]] if grid is None else np.linspace(*grid))
    eps, alpha, z_arg, switch = result
    # the verbatim display's two columns stay, nan on every row: as_written,
    # its switch point over the path's end, is above 200 at every eps
    rows = np.empty((eps.size, 5))
    rows[:, 0], rows[:, 1], rows[:, 2::2], rows[:, 3] = eps, alpha, math.nan, z_arg
    columns = ["epsilon", "alpha_oracle", "alpha_as_written", "z_argmax",
               "discrepancy"]
    return columns, rows, {
        "as_written": result.as_written(),
        # keyed by eps as a cell prints it: one % over the column
        "switch_points": dict(zip(_percent(eps, 1).split("\n"), switch.tolist())),
    }


def _run_epsilon0(opts):
    # method has the one value oracle, printed for the readers of the summary
    bracket = epsilon0(opts.get("tol", 5e-4))
    return None, None, {
        "lo": bracket.lo, "hi": bracket.hi, "iterations": bracket.iterations,
        "method": "oracle", "no_root": bracket.no_root,
    }


def _run_monotonicity(opts):
    # the case checks the grid, whose spacing overflows at ends such as +-1e308
    with np.errstate(over="ignore", invalid="ignore"):
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
    rows = np.empty((rho.size, 2))
    rows[:, 0], rows[:, 1] = rho, profile.values
    return ["rho", "profile"], rows, {"clamped": int(profile.clamped.sum())}


def _run_cutoff_budget(opts):
    family = RadiusFamily(radii=np.asarray(opts["radii"], dtype=float),
                          delta=opts["delta"], n=opts["n"],
                          c0=opts["c0"], c=opts["c"], h=opts.get("h", 0.0))
    return None, None, dataclasses.asdict(cutoff_budget(family))


def _run_cylinder_growth(opts):
    growth = cylinder_growth(opts["lengths"], opts.get("radius", 1.0))
    rows = np.empty((growth.lengths.size, 4))
    rows[:, 0], rows[:, 1], rows[:, 2:] = growth.lengths, growth.volumes, growth[2:]
    return ["N", "volume", "ric_inf", "scalar_inf"], rows, {}


# the handler of each command in ``COMMANDS``: _run_ and its name, "-" as "_"
_HANDLERS = {command: globals()["_run_" + command.replace("-", "_")]
             for command in COMMANDS}


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
    """Data rows as CSV text, each cell as ``format_number`` writes it: the
    rows become one float table (adding 0.0 turns -0 into 0), which the
    ``%.12g`` kernel renders in blocks of whole rows, or ``%`` alone below
    ``_KERNEL_MIN`` cells."""
    with np.errstate(invalid="ignore"):  # a signalling nan
        cells = (np.asarray(rows, dtype=float) + 0.0).ravel()
    if cells.size < _KERNEL_MIN:
        return _percent(cells, width)
    step = max(1, _BLOCK // width) * width
    text = b"".join(_kernel(cells[i:i + step], width)
                    for i in range(0, cells.size, step))
    return text[:-1].decode("ascii")


def _percent(cells, width: int) -> str:
    """Python's ``%.12g`` on a flat run of cells, ``width`` to a line: a
    single ``%`` fills a line template repeated once per row.  ``%`` writes
    nan, +-inf and subnormals as ``format_number`` does."""
    line = ",".join(["%.12g"] * width)
    return "\n".join([line] * (cells.size // width)) % tuple(cells.tolist())


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


def _file_error(action: str, path: str, exc: Exception) -> str:
    """Why the run cannot use the file at path; an OSError's text without
    the path, which the message already names."""
    if getattr(exc, "filename", None) is not None:
        exc = OSError(exc.errno, exc.strerror)
    return f"cannot {action} {path!r}: {exc}"


def run(config: RunConfig) -> None:
    """Execute a validated configuration and write its artifact: to stdout,
    or over ``output`` in place, then cut to its length."""
    columns, rows, summary = _HANDLERS[config.command](config.options)
    text = render(config, columns, rows, summary)
    path = config.output
    if not path:
        sys.stdout.write(text)
        return
    # no O_TRUNC: ext4 flushes a file truncated to 0 and rewritten when it is
    # closed (auto_da_alloc), about 0.1 ms of this process's CPU a run
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0),
                     0o666)
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise ConfigError(_file_error("open", path, exc), key="output") from None
    try:
        try:
            data = memoryview(text.encode("utf-8"))
            while data:
                data = data[os.write(fd, data):]
        finally:
            # also after a failed write, so that no tail of the old file
            # stays; /dev/null, a pipe or a FIFO refuses ftruncate
            try:
                if stat.S_ISREG(os.fstat(fd).st_mode):
                    os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))
            finally:
                os.close(fd)
    except OSError as exc:
        raise ConfigError(_file_error("write", path, exc), key="output") from None


# ---------------------------------------------------------------------------
# the %.12g kernel

_DIGITS = 12            # significant digits of every printed number
_LO, _HI = 10.0 ** (_DIGITS - 1), 10.0 ** _DIGITS
_KERNEL_MIN = 768       # cells: below this the kernel's fixed cost exceeds %'s
_BLOCK = 2048           # cells per kernel pass, which bounds its scratch arrays
_TINY, _HUGE = 1e-290, 1e290  # the kernel's range of |x|; % outside it
_POW_LO = _EXP_LO = -300      # the tables hold 10^k and "e%+03d" from k = -300
_FORMS = _DIGITS + 5    # fixed notation for -4 <= X < 12, then d.ddde+XX
_WIDTH = 20             # bytes of the longest cell with its separator
# a cell's 24 source bytes: 12 digits, the exponent text padded with NUL to
# 8 bytes, then "-", ".", "0" and the separator
_EXP, _PAD, _MINUS, _DOT, _ZERO, _SEP = 12, 19, 20, 21, 22, 23


@functools.cache
def _kernel_tables():
    """Built on the first large table: the ASCII quads "0000" .. "9999" as
    uint32 and their trailing zeros, the powers 10^k correctly rounded, the
    exponent texts, each exponent's first layout key, and the layout rows:
    the source byte of each output byte, per (sign, form, digits kept)."""
    q = np.arange(10_000)[:, None]
    quads = (q // [1000, 100, 10, 1] % 10 + ord("0")).astype(np.uint8)
    zeros = (q % [10, 100, 1000, 10_000] == 0).sum(axis=1, dtype=np.uint8)
    powers = np.array([float(f"1e{k}") for k in range(_POW_LO, 309)])
    xs = np.arange(_EXP_LO, 1 - _EXP_LO)
    exps = b"".join(f"e{x:+03d}".encode().ljust(8, b"\0") for x in xs)
    forms = np.where((xs >= -4) & (xs < _DIGITS), xs + 4, _FORMS - 1)
    layout = np.full((2, _FORMS, _DIGITS, _WIDTH), _PAD, dtype=np.intp)
    for form in range(_FORMS):
        exponent = form == _FORMS - 1  # d.ddde+XX: the digits of X = 0
        x = 0 if exponent else form - 4
        for kept in range(1, _DIGITS + 1):
            if x >= 0:  # ddd.ddd, every integer digit kept
                digits = list(range(max(kept, x + 1)))
                body = digits[:x + 1] + [_DOT] * (kept > x + 1) + digits[x + 1:]
            else:       # 0.000ddd
                body = [_ZERO, _DOT] + [_ZERO] * (-x - 1) + list(range(kept))
            body += list(range(_EXP, _EXP + 5)) * exponent
            for sign in (0, 1):
                row = [_MINUS] * sign + body + [_SEP]
                layout[sign, form, kept - 1, :len(row)] = row
    tables = (quads.view(np.uint32).ravel(), zeros, powers,
              np.frombuffer(exps, np.uint64), forms * _DIGITS + _DIGITS - 1,
              layout.view(f"V{8 * _WIDTH}").ravel())
    for table in tables:  # shared by every call
        table.flags.writeable = False
    return tables


def _kernel(cells, width: int) -> bytes:
    """Whole rows of cells as ``%.12g`` text, each cell followed by "," or,
    at the end of a row, "\\n".

    A cell with _TINY < |x| < _HUGE gets e = floor(log10 |x|) and
    s = |x| * 10^(11 - e).  10^(11 - e) is a correctly rounded double, so s
    is within 2 roundings, 2.3e-4 at s < 1e12, of the exact
    t = |x| * 10^(11 - e), whatever the error of log10.  If
    |s - rint(s)| < 1/2 - 1e-3, then m = rint(s) is t correctly rounded, as
    dtoa rounds it.  With 1e11 - 0.04 <= s and m < 1e12, m holds %.12g's
    digits at exponent e: t < 1e11 then means t > 1e11 - 0.041, whose 12
    digits at exponent e - 1 round up to 10^e = m * 10^(e - 11).  Past
    either end e moves by one and s is taken again, at most three times.
    A zero is taken as 1, whose one digit becomes "0".  Every other cell
    goes to % instead: ties and near-ties, nan, inf, subnormals and the
    range ends.
    """
    quads, zeros, powers, exps, form_keys, layout = _kernel_tables()
    n = cells.size
    a = np.abs(cells)
    zero = a == 0
    inside = (a > _TINY) & (a < _HUGE)
    a = np.where(inside, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.intp)
    for _ in range(3):
        s = a * powers[_DIGITS - 1 - _POW_LO - e]
        m = np.rint(s)
        shift = (m >= _HI).view(np.int8) - (s < _LO - 0.04).view(np.int8)
        if not shift.any():
            break
        e += shift
    ok = (inside | zero) & (np.abs(s - m) < 0.5 - 1e-3) & (shift == 0)
    m = np.where(ok, m, _LO).astype(np.intp)  # < 1e12: 3 quads of 4 digits
    q = m // 10_000
    low = m - q * 10_000
    top = q // 10_000
    mid = q - top * 10_000
    trailing = zeros[low]
    deep = np.flatnonzero(low == 0)
    if deep.size:
        more = zeros[mid[deep]]
        trailing[deep] += more + (more == 4) * zeros[top[deep]]
    top[zero] = 0
    e -= _EXP_LO
    key = form_keys[e] - trailing
    key += (cells < 0) * (_FORMS * _DIGITS)
    src = np.empty((n, 6), np.uint32)
    src[:, 0], src[:, 1], src[:, 2] = quads[top], quads[mid], quads[low]
    src[:, 3:5] = exps[e][:, None].view(np.uint32)
    src.reshape(-1, width, 6)[:, :, 5] = np.frombuffer(
        b"-.0," * (width - 1) + b"-.0\n", np.uint32)
    index = np.take(layout, key).view(np.intp).reshape(n, _WIDTH)
    index += np.arange(0, 24 * n, 24)[:, None]
    out = np.take(src.view(np.uint8).ravel(), index)
    bad = np.flatnonzero(~ok)
    if bad.size:
        text = _percent(cells[bad], 1).encode().split(b"\n")
        out[bad, :-1] = np.frombuffer(
            b"".join(t.ljust(_WIDTH - 1, b"\0") for t in text),
            np.uint8).reshape(-1, _WIDTH - 1)
        out[bad, -1] = np.where(bad % width == width - 1, ord("\n"), ord(","))
    return out.tobytes().translate(None, b"\0")


# ---------------------------------------------------------------------------
# the command line: <command>, then flags as --flag value or --flag=value

# every command's flags (its own are in ``COMMANDS``) -> the config key each
# sets, whose rule checks the value as the file's line; "config" names the file
_FLAGS = {"--config": "config", "--out": "output", "--format": "format"}


def _usage() -> str:
    """The --help text, from the global flags and ``COMMANDS``."""
    def flags(table):
        return " ".join(f"[{flag} {key.upper()}]" for flag, key in table.items())
    return "\n".join(
        [f"usage: iso-compare <command> {flags(_FLAGS)} [flags]", "",
         "Each flag, as --flag VALUE or --flag=VALUE, sets its config key",
         "over the --config file.", "",
         "commands and their own flags:"]
        + [f"  {c:17}{flags(own)}".rstrip()
           for c, (_, _, own) in COMMANDS.items()]) + "\n"


def _command_line(argv):
    """The command and its flags as config pairs, key -> (value, 0), the
    last of a repeated flag winning; None if argv holds -h or --help.  A
    flag matches only in full; the token after a flag is its value unless
    it begins with "--"."""
    if "-h" in argv or "--help" in argv:
        return None
    if not argv or argv[0] not in COMMANDS:
        what = f"unknown command {argv[0]!r}" if argv else "missing command"
        raise ConfigError(f"{what}; valid commands: {', '.join(COMMANDS)}")
    command, *tokens = argv
    flags = {**_FLAGS, **COMMANDS[command][2]}
    pairs = {}
    tokens = iter(tokens)
    for token in tokens:
        flag, eq, value = token.partition("=")
        if flag not in flags:
            raise ConfigError(f"unknown flag {flag!r} for {command!r}; "
                              f"its flags: {', '.join(flags)}")
        if not eq:
            value = next(tokens, "--")
            if value.startswith("--"):
                raise ConfigError(f"flag {flag} needs a value")
        pairs[flags[flag]] = (value, 0)
    return command, pairs


def place(key, pairs: dict[str, tuple[str, int]]) -> str:
    """How an error message about key begins: "line N: key: ", "command line:
    key: " for a flag's value, or "key: " where the key is not set; for a
    tuple of keys, each so, joined as "a, b and c: "; "" for key None."""
    if key is None:
        return ""
    *rest, last = [k if k not in pairs else
                   f"line {pairs[k][1]}: {k}" if pairs[k][1] > 0 else f"command line: {k}"
                   for k in ((key,) if isinstance(key, str) else key)]
    return f"{', '.join(rest)} and {last}: " if rest else f"{last}: "


def main(argv=None) -> int:
    """Run one command line; returns the exit status, raising no SystemExit."""
    pairs = {}
    try:
        parsed = _command_line(sys.argv[1:] if argv is None else argv)
        if parsed is None:
            sys.stdout.write(_usage())
            return 0
        command, flag_pairs = parsed
        if "config" in flag_pairs:
            path = flag_pairs.pop("config")[0]
            try:
                with open(path, encoding="utf-8") as fh:
                    text = fh.read()
            # ValueError: a NUL byte in the path, or text not UTF-8
            except (OSError, ValueError) as exc:
                raise ConfigError(_file_error("read", path, exc), key="config") from None
            pairs = read_pairs(text)
        if pairs.get("command", (command,))[0] != command:
            raise ConfigError(f"config file names {pairs['command'][0]!r} but "
                              f"{command!r} was invoked", key="command")
        pairs.pop("command", None)
        pairs.update(flag_pairs)
        run(validate(command, pairs))
    except (OSError, ValidationError) as exc:
        print(f"iso-compare: {place(getattr(exc, 'key', None), pairs)}{exc}",
              file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"iso-compare: numerical failure in {command}: {exc}",
              file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
