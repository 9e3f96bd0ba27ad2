"""Key-value run configurations for the command-line front end.

A configuration is plain text, one ``key = value`` per line, ``#`` comments.
Keys are validated per command with unknown keys rejected by name; every
error message carries the offending line number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import ConfigError
from .warped import WarpedMetric, cylinder, football, round_sphere, tabulated

COMMANDS = (
    "profile", "variation-check", "mass", "bishop-bound", "football-alpha",
    "epsilon0", "monotonicity", "cutoff-budget", "cylinder-growth",
)


def _parse_int(s: str):
    try:
        return int(s)
    except ValueError:
        raise ConfigError(f"expected an integer, got {s!r}") from None


def _parse_float(s: str):
    try:
        v = float(s)
    except ValueError:
        raise ConfigError(f"malformed number {s!r}") from None
    if math.isnan(v):
        raise ConfigError(f"malformed number {s!r}")
    return v


def _parse_float_list(s: str):
    return [_parse_float(p.strip()) for p in s.split(",") if p.strip()]


def _parse_grid(s: str):
    """lo:hi:n range specification."""
    parts = s.split(":")
    if len(parts) != 3:
        raise ConfigError(f"expected lo:hi:n, got {s!r}")
    lo, hi = _parse_float(parts[0]), _parse_float(parts[1])
    num = _parse_int(parts[2])
    if num < 2 or hi <= lo:
        raise ConfigError(f"grid {s!r} must have hi > lo and n >= 2")
    return (lo, hi, num)


def _enum(*choices):
    def parse(s: str):
        if s not in choices:
            raise ConfigError(f"expected one of {', '.join(choices)}; got {s!r}")
        return s
    return parse


def _positive(parse):
    def check(s: str):
        v = parse(s)
        if v <= 0:
            raise ConfigError(f"value must be positive, got {s}")
        return v
    return check


def _dimension(s: str):
    v = _parse_int(s)
    if v < 3:
        raise ConfigError(f"n below minimum 3, got {v}")
    return v


_MODEL_KEYS = {
    "model": _enum("sphere", "football", "cylinder", "tabulated"),
    "n": _dimension,
    "radius": _positive(_parse_float),
    "c": _parse_float,
    "length": _positive(_parse_float),
    "t_samples": _parse_float_list,
    "f_samples": _parse_float_list,
}

_OUTPUT_KEYS = {
    "output": str,
    "format": _enum("csv", "json"),
}

# per command: {key: parser}, set of required keys
_SCHEMAS = {
    "profile": ({**_MODEL_KEYS, "grid_size": _parse_int}, {"model"}),
    "variation-check": ({**_MODEL_KEYS, "t": _parse_float_list,
                         "h": _positive(_parse_float), "levels": _positive(_parse_int)},
                        {"model", "t"}),
    "mass": ({**_MODEL_KEYS, "ric0": _positive(_parse_float),
              "grid_size": _parse_int}, {"model", "ric0"}),
    "bishop-bound": ({"n": _dimension, "ric0": _positive(_parse_float)},
                     {"n", "ric0"}),
    "football-alpha": ({"eps_grid": _parse_grid, "epsilon": _parse_float},
                       set()),
    "epsilon0": ({"method": _enum("oracle", "as-written"),
                  "tol": _positive(_parse_float)}, set()),
    "monotonicity": ({"case": _enum("sphere", "circle", "cone"),
                      "lambda": _parse_float,
                      "rho_min": _positive(_parse_float),
                      "rho_max": _positive(_parse_float),
                      "rho_n": _parse_int,
                      "angle": _positive(_parse_float),
                      "sphere_dim": _parse_int}, {"case", "lambda"}),
    "cutoff-budget": ({"n": _parse_int, "delta": _positive(_parse_float),
                       "c0": _parse_float, "c": _parse_float,
                       "h": _parse_float, "radii": _parse_float_list},
                      {"n", "delta", "c0", "c", "radii"}),
    "cylinder-growth": ({"lengths": _parse_float_list,
                         "radius": _positive(_parse_float)}, {"lengths"}),
}


@dataclass
class RunConfig:
    """A validated command with typed options and output destination."""

    command: str
    options: dict = field(default_factory=dict)
    output: str | None = None
    format: str | None = None


def read_pairs(text: str) -> dict[str, tuple[str, int]]:
    """Raw key -> (value, line number) from key-value text."""
    pairs: dict[str, tuple[str, int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ConfigError(f"line {lineno}: empty key or value")
        if key in pairs:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        pairs[key] = (value, lineno)
    return pairs


def validate(command: str, pairs: dict[str, tuple[str, int]]) -> RunConfig:
    """Type-check raw pairs against the command's schema."""
    if command not in _SCHEMAS:
        raise ConfigError(
            f"unknown command {command!r}; valid commands: {', '.join(COMMANDS)}")
    schema, required = _SCHEMAS[command]
    config = RunConfig(command=command)
    for key, (value, lineno) in pairs.items():
        where = f"line {lineno}" if lineno > 0 else "command line"
        if key in _OUTPUT_KEYS:
            try:
                parsed = _OUTPUT_KEYS[key](value)
            except ConfigError as exc:
                raise ConfigError(f"{where}: {key}: {exc}") from None
            setattr(config, "output" if key == "output" else "format", parsed)
            continue
        if key not in schema:
            raise ConfigError(
                f"{where}: unknown key {key!r} for command {command!r}")
        try:
            config.options[key] = schema[key](value)
        except ConfigError as exc:
            raise ConfigError(f"{where}: {key}: {exc}") from None
    missing = sorted(required - set(config.options))
    if missing:
        raise ConfigError(
            f"missing required key(s) for {command!r}: {', '.join(missing)}")
    _cross_validate(config)
    return config


def _cross_validate(config: RunConfig) -> None:
    opts = config.options
    if config.command == "football-alpha":
        if "eps_grid" not in opts and "epsilon" not in opts:
            raise ConfigError("football-alpha needs eps_grid or epsilon")
        if "eps_grid" in opts:
            # checked before the grid is spread: ends such as -inf:inf or
            # -1e308:1e308 make np.linspace overflow
            lo, hi, _ = opts["eps_grid"]
            if not (0.0 < lo and hi <= 1.0):
                raise ConfigError(
                    f"eps_grid ends must lie in (0, 1], got {lo:g}:{hi:g}")
    if opts.get("model") == "football" and not 0.0 < opts.get("c", 1.0) <= 1.0:
        raise ConfigError("football cone factor c must lie in (0, 1]")
    if opts.get("model") == "cylinder" and "length" not in opts:
        raise ConfigError("cylinder model needs a length")
    if opts.get("model") == "tabulated":
        if "t_samples" not in opts or "f_samples" not in opts:
            raise ConfigError("tabulated model needs t_samples and f_samples")
    if "grid_size" in opts and opts["grid_size"] < 16:
        raise ConfigError(f"grid_size below minimum 16, got {opts['grid_size']}")
    if "rho_n" in opts and opts["rho_n"] < 2:
        raise ConfigError("rho_n must be >= 2")


def parse_config(text: str) -> RunConfig:
    """Validated RunConfig from key-value text; the command key is required."""
    pairs = read_pairs(text)
    if "command" not in pairs:
        raise ConfigError("missing required key 'command'")
    command, _ = pairs.pop("command")
    return validate(command, pairs)


def build_metric(options: dict) -> WarpedMetric:
    """Construct the configured warped model."""
    model = options["model"]
    n = options.get("n", 3)
    if model == "sphere":
        return round_sphere(n=n, radius=options.get("radius", 1.0))
    if model == "football":
        return football(options.get("c", 0.5), n=n,
                        radius=options.get("radius", 1.0))
    if model == "cylinder":
        return cylinder(options.get("radius", 1.0), options["length"], n=n)
    return tabulated(options["t_samples"], options["f_samples"], n=n)
