"""Key-value run configurations for the command-line front end.

A configuration is plain text, one ``key = value`` per line, ``#`` comments.
``COMMANDS`` holds, per command, its keys with their parsers, its required
keys and its flags; ``_VARIANTS`` holds the keys each model or case reads.
A parser checks what only a config can know: the syntax and type of a value,
the size caps that keep a run in memory and the ends of ``eps_grid``.  The
range of a value is the library's.  Unknown keys, and keys of another model
or case, are rejected by name.  An error about a key, here or in the
library, is a ``ValidationError`` whose ``key`` names it; the message does
not say where the key is set.  ``cli.main`` puts the key's line in front,
or "command line" for the value of a flag, which is checked as its key.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import ConfigError


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
    if math.isinf(v):
        raise ConfigError(f"number must be finite, got {s!r}")
    return v


def _parse_float_list(s: str):
    return [_parse_float(p.strip()) for p in s.split(",") if p.strip()]


# Upper bounds of the size keys.  A run's largest arrays grow linearly in
# its cells, so each key stops where the run's peak would pass
# _MEMORY_BUDGET: an array past the machine's memory ends in numpy's
# MemoryError, not in an error that names the key.  Peak bytes per cell,
# measured with tracemalloc through ``cli.main`` (a test holds each to its
# divisor): 8.5 KiB per eps of football-alpha, 6 KiB of it the scratch of
# ``quadrature.sqrt_endpoint`` at the scan (12 z x 4 arrays of 16 doubles),
# under a divisor kept at 15 KiB, so that eps_grid's bound stays 69,905;
# 1.1 KiB per grid point of profile or mass under the 64-node ``sin_power``
# rule (n >= 258); 340 bytes per radius of monotonicity.
_MEMORY_BUDGET = 1 << 30
_MAX_EPS = _MEMORY_BUDGET // 15360
_MAX_GRID = _MEMORY_BUDGET // 1152
_MAX_RHO = _MEMORY_BUDGET // 384


def _parse_grid(s: str):
    """lo:hi:n, an eps range with 0 < lo < hi <= 1."""
    parts = s.split(":")
    if len(parts) != 3:
        raise ConfigError(f"expected lo:hi:n, got {s!r}")
    lo, hi = _parse_float(parts[0]), _parse_float(parts[1])
    num = _parse_int(parts[2])
    if num < 2 or hi <= lo:
        raise ConfigError(f"grid {s!r} must have hi > lo and n >= 2")
    # checked before the grid is spread: ends such as -1e308:1e308 make
    # np.linspace overflow
    if not (0.0 < lo and hi <= 1.0):
        raise ConfigError(f"ends must lie in (0, 1], got {lo:g}:{hi:g}")
    if num > _MAX_EPS:
        raise ConfigError(f"grid {s!r} has n above maximum {_MAX_EPS}")
    return (lo, hi, num)


def _enum(*choices):
    def parse(s: str):
        if s not in choices:
            raise ConfigError(f"expected one of {', '.join(choices)}; got {s!r}")
        return s
    return parse


def _positive(s: str):
    # cutoff-budget's delta, which the library reports as violated, not raised
    v = _parse_float(s)
    if v <= 0:
        raise ConfigError(f"value must be positive, got {s}")
    return v


def _size(high: int):
    """A count up to high, the cap that keeps a run in memory."""
    def parse(s: str):
        v = _parse_int(s)
        if v < 0:
            raise ConfigError(f"expected a count, got {v}")
        if v > high:
            raise ConfigError(f"above maximum {high}, got {v}")
        return v
    return parse


# the keys that only some models or cases read: selector key -> {its value:
# (the keys it reads, the keys it needs)}.  A run that sets a key of another
# model or case is a config error, not a header line of a key nobody read
_VARIANTS = {
    "model": {"sphere": ({"radius"}, set()), "football": ({"radius", "c"}, set()),
              "cylinder": ({"radius", "length"}, {"length"}),
              "tabulated": ({"t_samples", "f_samples"}, {"t_samples", "f_samples"})},
    "case": {"sphere": ({"sphere_dim"}, set()), "circle": (set(), set()),
             "cone": ({"angle"}, set())},
}
_VARIANT_KEYS = {selector: set().union(*(own for own, _ in variants.values()))
                 for selector, variants in _VARIANTS.items()}

_MODEL_KEYS = {
    "model": _enum(*_VARIANTS["model"]),
    "n": _parse_int,
    "radius": _parse_float,
    "c": _parse_float,
    "length": _parse_float,
    "t_samples": _parse_float_list,
    "f_samples": _parse_float_list,
}


def _command(keys: dict, required=(), flags=()):
    """A ``COMMANDS`` entry: the keys with output and format, the required
    keys, and {flag: key} for the keys set by a flag of their own name, the
    flag --eps-grid for the key eps_grid."""
    return ({**keys, "output": str, "format": _enum("csv", "json")},
            frozenset(required),
            {"--" + key.replace("_", "-"): key for key in flags})


# command -> ({key: parser}, required keys, {flag: key}): all that a command
# accepts, in the order of --help
COMMANDS = {
    "profile": _command({**_MODEL_KEYS, "grid_size": _size(_MAX_GRID)}, {"model"}),
    "variation-check": _command({**_MODEL_KEYS, "t": _parse_float_list,
                                 "h": _parse_float, "levels": _parse_int},
                                {"model", "t"}),
    "mass": _command({**_MODEL_KEYS, "ric0": _parse_float,
                      "grid_size": _size(_MAX_GRID)}, {"model", "ric0"}),
    "bishop-bound": _command({"n": _parse_int, "ric0": _parse_float}, {"n", "ric0"}),
    "football-alpha": _command({"eps_grid": _parse_grid, "epsilon": _parse_float},
                               flags=("eps_grid", "epsilon")),
    "epsilon0": _command({"method": _enum("oracle"), "tol": _parse_float},
                         flags=("method", "tol")),
    "monotonicity": _command({"case": _enum(*_VARIANTS["case"]),
                              "lambda": _parse_float, "rho_min": _parse_float,
                              "rho_max": _parse_float, "rho_n": _size(_MAX_RHO),
                              "angle": _parse_float, "sphere_dim": _parse_int},
                             {"case", "lambda"}, flags=("case", "lambda")),
    "cutoff-budget": _command({"n": _parse_int, "delta": _positive,
                               "c0": _parse_float, "c": _parse_float,
                               "h": _parse_float, "radii": _parse_float_list},
                              {"n", "delta", "c0", "c", "radii"}),
    "cylinder-growth": _command({"lengths": _parse_float_list, "radius": _parse_float},
                                {"lengths"}),
}


@dataclass(frozen=True)
class RunConfig:
    """A validated command with typed options and output destination; a
    format of None leaves the choice to the renderer."""

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
    """Type-check raw pairs against the keys of command in ``COMMANDS``."""
    keys, required, _ = COMMANDS[command]
    options = {}
    for key, (value, _) in pairs.items():
        if key not in keys:
            raise ConfigError(f"unknown key for command {command!r}", key=key)
        try:
            options[key] = keys[key](value)
        except ConfigError as exc:
            raise ConfigError(str(exc), key=key) from None
    missing = sorted(required - options.keys())
    if missing:
        raise ConfigError(
            f"missing required key(s) for {command!r}: {', '.join(missing)}")
    for selector, variants in _VARIANTS.items():
        if selector not in options:
            continue
        variant = f"{selector} {options[selector]!r}"
        own, needed = variants[options[selector]]
        for key in options:
            if key in _VARIANT_KEYS[selector] and key not in own:
                raise ConfigError(f"does not apply to {variant}", key=key)
        if not needed <= options.keys():
            raise ConfigError(f"missing required key(s) for {variant}: "
                              f"{', '.join(sorted(needed - options.keys()))}")
    # the two keys of every command leave the options
    output, fmt = options.pop("output", None), options.pop("format", None)
    if command == "football-alpha":
        if "eps_grid" not in options and "epsilon" not in options:
            raise ConfigError("football-alpha needs eps_grid or epsilon")
        if "eps_grid" in options and "epsilon" in options:
            raise ConfigError("football-alpha takes eps_grid or epsilon, not both",
                              key=("eps_grid", "epsilon"))
    return RunConfig(command, options, output, fmt)
