"""The exit contract of ``iso-compare``, one row per case.

A run exits 0, 2 (a usage, config or file error) or 3 (a numerical failure)
and warns of nothing.  At 2 and 3 its stdout is empty and its stderr one
line: ``iso-compare: `` and a message naming the key at fault after its
config line, or "command line" for a flag's value; at 3 the message follows
"numerical failure in <command>: ".  A message about a key that the run sets
never names it bare; only ``config:`` is, since a config file that cannot be
read has no lines.  At 0 stderr is empty.

``python tests/exit_cases.py COMMAND...`` runs every row through COMMAND
(``iso-compare``, or ``python -m isocompare.cli``) in a child process, with
RuntimeWarning an error, prints the id, exit code and stderr of each row
that fails and exits 1 if any did.  It imports only the standard library,
so it runs on an install without the test extra; ``test_config_cli.py``
runs the same rows in process, each as ``test_exit_case[<row id>]``.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from typing import NamedTuple


class Row(NamedTuple):
    """An id, the command line after the program name, the config text (None:
    no file) and the exit code and stderr message (None at exit 0).  The
    config goes to ``{dir}/run.cfg``, passed as ``--config``; ``{dir}`` is
    the row's own temporary directory.  A new exit case is one more row."""

    id: str
    argv: str
    config: str | None
    code: int
    message: str | None = None


_COMMANDS = ("valid commands: profile, variation-check, mass, bishop-bound, "
             "football-alpha, epsilon0, monotonicity, cutoff-budget, cylinder-growth")
_ALPHA = ("for 'football-alpha'; its flags: --config, --out, --format, --eps-grid, "
          "--epsilon")
_BOTH = "{}: eps_grid and {}: epsilon: football-alpha takes eps_grid or epsilon, not both"
_SIZE = "above maximum {}, got 100000000000"
_PROFILE_MODEL = "model: a profile needs a closed or cylinder model"
_SAMPLES = ("line 3: t_samples and line 4: f_samples: a tabulated warp needs the same "
            "number of t and f samples, at least 4; got {} and {}")
_T_SAMPLES = "tabulated warp grid must be interior (t > 0) and strictly increasing"
_RHO = ("the rho grid from rho_min={} to rho_max={} in rho_n=64 points is not "
        "positive and increasing")
_STALLED = ("volume samples are not strictly increasing: V stops increasing at "
            "t=3.12779 (n=8, grid_size=2049), where a grid cell is below the "
            "volume's resolution")
_BUDGET = "the cutoff budget overflows a double"
_SCALE = "the ricci leg's scale 3 / (9 eps)^(3/2) overflows a double"

ROWS = [
    # --- the command line alone: a usage error names its token
    Row("empty", "", None, 2, f"missing command; {_COMMANDS}"),
    Row("unknown-command", "flya", None, 2, f"unknown command 'flya'; {_COMMANDS}"),
    Row("unknown-flag", "football-alpha --bogus 1", None, 2,
        f"unknown flag '--bogus' {_ALPHA}"),
    # flags match in full, not as abbreviations
    Row("abbreviated-eps", "football-alpha --eps 0.1", None, 2,
        f"unknown flag '--eps' {_ALPHA}"),
    Row("abbreviated-conf", "football-alpha --conf x", None, 2,
        f"unknown flag '--conf' {_ALPHA}"),
    Row("stray-value", "football-alpha --epsilon 0.1 0.2", None, 2,
        f"unknown flag '0.2' {_ALPHA}"),
    Row("other-command-flag", "epsilon0 --epsilon 0.1", None, 2, "unknown flag "
        "'--epsilon' for 'epsilon0'; its flags: --config, --out, --format, --method, "
        "--tol"),
    Row("no-value", "football-alpha --epsilon", None, 2, "flag --epsilon needs a value"),
    Row("flag-as-value", "football-alpha --epsilon --out x", None, 2, "flag --epsilon "
        "needs a value"),
    # a flag's value is checked by its key's rule
    Row("bad-method", "epsilon0 --method newton", None, 2, "command line: method: "
        "expected one of oracle; got 'newton'"),
    Row("removed-method", "epsilon0 --method as-written", None, 2, "command line: "
        "method: expected one of oracle; got 'as-written'"),
    Row("bad-format", "epsilon0 --format xml", None, 2, "command line: format: "
        "expected one of csv, json; got 'xml'"),
    Row("nonfinite-lambda-flag", "monotonicity --lambda inf", "case = circle\n"
        "lambda = 1\n", 2, "command line: lambda: number must be finite, got 'inf'"),
    Row("eps_grid-size", "football-alpha --eps-grid 0.5:1:100000000000", None, 2,
        "command line: eps_grid: grid '0.5:1:100000000000' has n above maximum 69905"),

    # --- files that cannot be read or opened, each named by its key
    Row("missing-config", "profile --config {dir}/missing.cfg", None, 2, "config: "
        "cannot read '{dir}/missing.cfg': [Errno 2] No such file or directory"),
    Row("not-utf-8", "profile", "model = sph\xffere\n", 2, "config: cannot read "
        "'{dir}/run.cfg': 'utf-8' codec can't decode byte 0xff in position 29: invalid "
        "start byte"),
    Row("nul-output", "bishop-bound", "n = 3\nric0 = 2\noutput = a\x00b\n", 2,
        "line 4: output: cannot open 'a\\x00b': embedded null byte"),
    Row("directory-output", "bishop-bound", "n = 3\nric0 = 2\noutput = {dir}\n", 2,
        "line 4: output: cannot open '{dir}': [Errno 21] Is a directory"),
    Row("command-mismatch", "bishop-bound", "command = mass\nmodel = sphere\nric0 = 2\n",
        2, "line 1: command: config file names 'mass' but 'bishop-bound' was invoked"),
    Row("other-command", "football-alpha", "command = epsilon0\n", 2, "line 1: command: "
        "config file names 'epsilon0' but 'football-alpha' was invoked"),
    # /dev/null refuses ftruncate: it is written as a stream
    Row("dev-null", "profile --out /dev/null", "model = football\nn = 5\nradius = 1.3\n"
        "c = 0.6\ngrid_size = 33\n", 0),

    # --- config keys: each error names its key and line
    Row("unknown-key", "bishop-bound", "n = 3\nfuzz = 1\nric0 = 2\n", 2, "line 3: "
        "fuzz: unknown key for command 'bishop-bound'"),
    Row("malformed-number", "bishop-bound", "ric0 = two\nn = 3\n", 2, "line 2: ric0: "
        "malformed number 'two'"),
    # the z-scan of alpha is a library constant, not a run option
    Row("coarse-key", "football-alpha", "epsilon = 0.1\ncoarse = 33\n", 2, "line 3: "
        "coarse: unknown key for command 'football-alpha'"),
    Row("nonfinite-radius", "cylinder-growth", "lengths = 1, 2\nradius = inf\n", 2,
        "line 3: radius: number must be finite, got 'inf'"),
    # a flag overrides its own key in the file, never the other one
    Row("both-eps-grid-file", "football-alpha --epsilon 0.1", "eps_grid = 0.05:0.3:3\n",
        2, _BOTH.format("line 2", "command line")),
    Row("both-eps-epsilon-file", "football-alpha --eps-grid 0.05:0.3:3",
        "epsilon = 0.1\n", 2, _BOTH.format("command line", "line 2")),
    Row("both-eps-file", "football-alpha", "eps_grid = 0.05:0.3:3\nepsilon = 0.1\n", 2,
        _BOTH.format("line 2", "line 3")),
    Row("eps_grid-ends", "football-alpha", "eps_grid = 0.5:2:3\n", 2, "line 2: "
        "eps_grid: ends must lie in (0, 1], got 0.5:2"),
    # a size key of 10^11 cells: its arrays would not fit in memory
    Row("profile-grid_size", "profile", "model = sphere\ngrid_size = 100000000000\n", 2,
        "line 3: grid_size: " + _SIZE.format(932067)),
    Row("mass-grid_size", "mass", "model = football\nc = 0.5\nric0 = 2\n"
        "grid_size = 100000000000\n", 2, "line 5: grid_size: " + _SIZE.format(932067)),
    Row("mass-sphere-grid_size", "mass", "model = sphere\nric0 = 2\n"
        "grid_size = 100000000000\n", 2, "line 4: grid_size: " + _SIZE.format(932067)),
    Row("rho_n-size", "monotonicity", "case = circle\nlambda = 1\nrho_n = 100000000000\n",
        2, "line 4: rho_n: " + _SIZE.format(2796202)),
    # a key of another model or case, or a missing key of this one
    Row("other-model", "profile", "model = sphere\nc = 0.3\nlength = 7\n"
        "t_samples = 1,2\n", 2, "line 3: c: does not apply to model 'sphere'"),
    Row("sphere-c", "profile", "model = sphere\nc = 0.3\n", 2, "line 3: c: does not "
        "apply to model 'sphere'"),
    Row("tabulated-radius", "variation-check", "t = 1\nradius = 2\nmodel = tabulated\n"
        "t_samples = 1,2,3,4\nf_samples = 1,2,2,1\n", 2, "line 3: radius: does not "
        "apply to model 'tabulated'"),
    Row("other-case", "monotonicity", "case = circle\nlambda = 1\nsphere_dim = 3\n", 2,
        "line 4: sphere_dim: does not apply to case 'circle'"),
    Row("cylinder-length", "mass", "model = cylinder\nric0 = 1\n", 2, "missing "
        "required key(s) for model 'cylinder': length"),
    Row("tabulated-samples", "variation-check", "model = tabulated\n"
        "t_samples = 1,2,3,4\nt = 1\n", 2, "missing required key(s) for model "
        "'tabulated': f_samples"),
    # --- the library's range of a value: its error names the key, and the
    # run puts the key's line, or "command line", in front
    Row("small-dimension", "bishop-bound", "n = 2\nric0 = 2\n", 2, "line 2: n: n "
        "must be >= 3, got 2"),
    Row("model-dimension", "profile", "model = sphere\nn = 2\n", 2, "line 3: n: n "
        "must be an integer >= 3, got 2"),
    Row("sphere-radius", "profile", "model = sphere\nradius = -1\n", 2, "line 3: "
        "radius: radius must be positive, got -1.0"),
    Row("cylinder-radius", "profile", "model = cylinder\nradius = 0\nlength = 1\n", 2,
        "line 3: radius: radius must be positive, got 0.0"),
    Row("cylinder-length-zero", "mass", "model = cylinder\nric0 = 1\nlength = 0\n", 2,
        "line 4: length: length must be positive, got 0.0"),
    Row("grid_size-floor", "profile", "model = sphere\ngrid_size = 8\n", 2, "line 3: "
        "grid_size: grid_size must be >= 16, got 8"),
    Row("mass-ric0", "mass", "model = sphere\nric0 = 0\n", 2, "line 3: ric0: ric0 "
        "must be positive, got 0.0"),
    Row("bishop-ric0", "bishop-bound", "n = 3\nric0 = -2\n", 2, "line 3: "
        "ric0: ric0 must be positive, got -2.0"),
    # no step level would leave the stencil unchecked and the table empty
    Row("no-levels", "variation-check", "model = sphere\nt = 1.0\nlevels = 0\n", 2,
        "line 4: levels: levels must be at least 1, got 0"),
    Row("step-h", "variation-check", "model = sphere\nt = 1.0\nh = -0.5\n", 2,
        "line 4: h: step h must be positive, got -0.5"),
    # a required list that is empty is an error, not a table of no rows
    Row("t-empty", "variation-check", "model = sphere\nt = ,\n", 2, "line 3: t: the "
        "stencils need at least one t"),
    Row("lengths-empty", "cylinder-growth", "lengths = ,\n", 2, "line 2: lengths: "
        "cylinder growth needs at least one length"),
    Row("epsilon-file", "football-alpha", "epsilon = 1.5\n", 2, "line 2: epsilon: "
        "epsilon must lie in (0, 1], got 1.5"),
    Row("epsilon-flag", "football-alpha --epsilon 0", None, 2, "command line: epsilon: "
        "epsilon must lie in (0, 1], got 0.0"),
    Row("tol-negative", "epsilon0", "tol = -1\n", 2, "line 2: tol: tol must be "
        "positive, got -1.0"),
    Row("rho_n-one", "monotonicity", "case = circle\nlambda = 1\nrho_n = 1\n", 2,
        "line 4: rho_n: rho grid must be 1-d with >= 2 samples"),
    # a count below 0 is no count at all, and no grid can be spread from it
    Row("rho_n-negative", "monotonicity", "case = circle\nlambda = 1\nrho_n = -1\n", 2,
        "line 4: rho_n: expected a count, got -1"),
    Row("profile-tabulated", "profile", "model = tabulated\nt_samples = 1,2,3,4\n"
        "f_samples = 1,2,2,1\n", 2, "line 2: " + _PROFILE_MODEL),
    Row("mass-tabulated", "mass", "model = tabulated\nt_samples = 0.5, 1.0, 1.5, 2.0\n"
        "f_samples = 1, 1, 1, 1\nric0 = 2\n", 2, "line 2: " + _PROFILE_MODEL),
    Row("football-c", "profile", "model = football\nc = 2\n", 2, "line 3: c: cone "
        "factor must lie in (0, 1], got 2.0"),
    Row("tabulated-three", "variation-check", "model = tabulated\nt_samples = 1,2,3\n"
        "f_samples = 1,2,1\nt = 2\n", 2, _SAMPLES.format(3, 3)),
    Row("tabulated-lengths", "variation-check", "model = tabulated\n"
        "t_samples = 1,2,3,4\nf_samples = 1,2,2,1,1\nt = 2\n", 2, _SAMPLES.format(4, 5)),
    Row("tabulated-pole", "variation-check", "model = tabulated\nt_samples = 0,1,2,3\n"
        "f_samples = 1,2,2,1\nt = 2\n", 2, "line 3: t_samples: " + _T_SAMPLES),
    Row("tabulated-order", "variation-check", "model = tabulated\nt_samples = 1,3,2,4\n"
        "f_samples = 1,2,2,1\nt = 2\n", 2, "line 3: t_samples: " + _T_SAMPLES),
    Row("tabulated-zero", "variation-check", "model = tabulated\nt_samples = 1,2,3,4\n"
        "f_samples = 1,0,2,1\nt = 2\n", 2, "line 4: f_samples: tabulated warp samples "
        "must be strictly positive"),
    Row("lengths-order", "cylinder-growth", "lengths = 2, 1\n", 2, "line 2: lengths: "
        "cylinder lengths must be positive and increasing"),
    Row("lengths-negative", "cylinder-growth", "lengths = -1, 1\n", 2, "line 2: "
        "lengths: cylinder lengths must be positive and increasing"),
    Row("sphere_dim-zero", "monotonicity", "case = sphere\nlambda = 1\nsphere_dim = 0\n",
        2, "line 4: sphere_dim: sphere_dim must be >= 1, got 0"),
    Row("cone-angle", "monotonicity", "case = cone\nlambda = 1\nangle = 2\n", 2, "line "
        "4: angle: angle must lie in (0, pi/2), got 2.0"),

    # --- exit 2 from the run: keys that disagree, named together
    Row("rho_min", "monotonicity", "case = circle\nlambda = 1\nrho_min = 1e100\n", 2,
        "line 4: rho_min, rho_max and rho_n: " + _RHO.format("1e+100", "2.0")),
    Row("rho_n", "monotonicity", "case = circle\nlambda = 1\nrho_min = 1\n"
        "rho_max = 1.0000000000000002\n", 2, "line 4: rho_min, line 5: rho_max and "
        "rho_n: " + _RHO.format("1.0", "1.0000000000000002")),
    # ends of opposite signs overflow the grid's spacing: its first point is
    # nan, named as a point, and no warning is raised on the way to the
    # grid's own check
    Row("rho-overflow", "monotonicity", "case = circle\nlambda = 1\n"
        "rho_min = -1e308\nrho_max = 1e308\n", 2, "line 4: rho_min, line 5: rho_max "
        "and rho_n: the rho grid in rho_n=64 points is not finite: point 0 is nan"),
    # the model's t_max overflows (exit 3) only after the run's own ranges
    Row("grid_size-before-t_max", "profile", "model = sphere\nradius = 1e308\n"
        "grid_size = 8\n", 2, "line 4: grid_size: grid_size must be >= 16, got 8"),
    Row("levels-before-t_max", "variation-check", "model = sphere\nradius = 1e308\n"
        "t = 1\nlevels = 0\n", 2, "line 5: levels: levels must be at least 1, got 0"),
    Row("h-before-t_max", "variation-check", "model = sphere\nradius = 1e308\n"
        "t = 1\nh = -1\n", 2, "line 5: h: step h must be positive, got -1"),
    # and the profile's volume (exit 3) after ric0's
    Row("ric0-before-volume", "mass", "model = sphere\nradius = 1e200\nric0 = -1\n",
        2, "line 4: ric0: ric0 must be positive, got -1.0"),
    # the default step carries the stencil out of the model
    Row("stencil", "variation-check", "model = cylinder\nradius = 1e-300\nlength = 1\n"
        "t = 1e-300\n", 2, "at t=1e-300, h=0.001, the stencil [-0.001, 0.001] leaves "
        "(0, 1)"),
    # at n = 8 and 2049 points the last cells near the pole are below one
    # ulp of the total volume
    Row("stalled-profile", "profile", "model = sphere\nn = 8\ngrid_size = 2049\n", 2,
        _STALLED),
    Row("stalled-mass", "mass", "model = sphere\nric0 = 7\nn = 8\ngrid_size = 2049\n", 2,
        _STALLED),
    Row("stalled-football", "profile", "model = football\nc = 0.0439\nn = 8\n"
        "grid_size = 2049\n", 2, _STALLED),
    # f^(n-1) underflows to 0 on every cell: the volume, or on a football
    # of radius 1e20 and c = 3e-67 every area, though its volume is a double
    Row("underflow-profile", "profile", "model = football\nc = 1e-300\n", 2, "the "
        "volume underflows to 0 (radius=1, c=1e-300, n=3); raise radius or c"),
    Row("underflow-mass", "mass", "model = sphere\nradius = 1e-200\nric0 = 2\n", 2,
        "the volume underflows to 0 (radius=1e-200, n=3); raise radius"),
    Row("underflow-cylinder-growth", "cylinder-growth", "lengths = 1, 2\n"
        "radius = 1e-200\n", 2, "the volume underflows to 0 (radius=1e-200, n=3); "
        "raise radius"),
    Row("underflow-variation-check", "variation-check", "model = sphere\n"
        "radius = 1e-200\nt = 1e-200\n", 2, "the volume underflows to 0 "
        "(radius=1e-200, n=3); raise radius"),
    Row("underflow-profile-area", "profile", "model = football\nn = 8\nc = 3e-67\n"
        "radius = 1e20\n", 2, "the area underflows to 0 (radius=1e+20, c=3e-67, n=8); "
        "raise radius or c"),
    Row("underflow-mass-area", "mass", "model = football\nn = 8\nc = 3e-67\n"
        "radius = 1e20\nric0 = 1\n", 2, "the area underflows to 0 (radius=1e+20, "
        "c=3e-67, n=8); raise radius or c"),

    # --- exit 3: a quantity leaves the doubles, named with its keys
    # a volume of radius^n (the cylinder's radius^(n-1)), an area of
    # radius^2, t_max = pi radius
    Row("overflow-profile-sphere", "profile", "model = sphere\nn = 3\nradius = 1e110\n",
        3, "at t=1.22718e+108, the volume overflows a double (radius=1e+110, n=3); "
        "lower radius"),
    Row("overflow-mass-sphere", "mass", "model = sphere\nn = 3\nradius = 1e200\n"
        "ric0 = 2\n", 3, "at t=1.22718e+198, the volume overflows a double "
        "(radius=1e+200, n=3); lower radius"),
    Row("overflow-mass-football", "mass", "model = football\nn = 5\nc = 0.5\n"
        "radius = 1e70\nric0 = 2\n", 3, "at t=1.22718e+68, the volume overflows a "
        "double (radius=1e+70, c=0.5, n=5); lower radius"),
    Row("overflow-profile-cylinder", "profile", "model = cylinder\nn = 4\n"
        "radius = 1e150\nlength = 1\n", 3, "at t=0.00390625, the volume overflows a "
        "double (radius=1e+150, n=4); lower radius"),
    Row("overflow-variation-check-cylinder", "variation-check", "model = cylinder\n"
        "n = 4\nradius = 1e150\nlength = 1\nt = 0.5\n", 3, "at t=0.499, the volume "
        "overflows a double (radius=1e+150, n=4); lower radius"),
    Row("overflow-variation-check-sphere", "variation-check", "model = sphere\n"
        "radius = 1e200\nt = 1e200\n", 3, "at t=9.96858e+199, the volume overflows a "
        "double (radius=1e+200, n=3); lower radius"),
    Row("overflow-cylinder-growth", "cylinder-growth", "lengths = 1, 2\nradius = 1e200\n",
        3, "at length=1, the volume overflows a double (radius=1e+200, n=3); lower "
        "radius"),
    Row("overflow-cylinder-area", "profile", "model = cylinder\nn = 3\nradius = 1e154\n"
        "length = 1e-10\n", 3, "at t=0, the area overflows a double (radius=1e+154, "
        "n=3); lower radius"),
    Row("overflow-profile-t_max", "profile", "model = sphere\nradius = 1e308\n", 3,
        "the length t_max overflows a double (radius=1e+308, n=3); lower radius"),
    Row("overflow-mass-t_max", "mass", "model = sphere\nradius = 1e308\nric0 = 2\n", 3,
        "the length t_max overflows a double (radius=1e+308, n=3); lower radius"),
    Row("overflow-variation-check-t_max", "variation-check", "model = sphere\n"
        "radius = 1e308\nt = 1\n", 3, "the length t_max overflows a double "
        "(radius=1e+308, n=3); lower radius"),
    # radius^3 = 1.7e308 is a double, but neither omega times the volume
    # integral nor the stencil's volume increments are
    Row("past-power-profile", "profile", "model = sphere\nn = 3\nradius = 5.5e102\n", 3,
        "at t=3.64474e+102, the volume overflows a double (radius=5.5e+102, n=3); "
        "lower radius"),
    Row("past-power-variation-check", "variation-check", "model = sphere\nn = 3\n"
        "radius = 5.5e102\nt = 1e102\n", 3, "at t=1e+102, h=1.72788e+100, the "
        "variation stencil overflows a double (radius=5.5e+102, n=3); lower radius"),
    Row("past-power-tabulated", "variation-check", "model = tabulated\nn = 3\n"
        "t_samples = 0.3,1.2,2.1,3.0\nf_samples = 1e102,2e102,1e102,3e102\nt = 1\n", 3,
        "at t=1, h=0.003, the variation stencil overflows a double (f_samples=3e+102, "
        "n=3); lower f_samples"),
    # a thin model's volume increments (about 1e-122 here) are doubles, but
    # the second check's spacing d_lo d_hi (d_lo + d_hi) is not a normal
    # double: 0 for the first two, subnormal at radius 1e-35, where the
    # table printed an order of -3.26; an increment that is 0 stays exit 2
    Row("thin-sphere-spacing", "variation-check", "model = sphere\nradius = 1e-40\n"
        "t = 5e-41\n", 3, "at t=5e-41, h=3.14159e-43, the stencil's volume spacing is "
        "below the normal doubles (radius=1e-40, n=3); raise radius"),
    Row("thin-cylinder-spacing", "variation-check", "model = cylinder\n"
        "radius = 1e-60\nlength = 1\nt = 0.5\n", 3, "at t=0.5, h=0.001, the stencil's "
        "volume spacing is below the normal doubles (radius=1e-60, n=3); raise radius"),
    Row("subnormal-sphere-spacing", "variation-check", "model = sphere\n"
        "radius = 1e-35\nt = 1e-35\n", 3, "at t=1e-35, h=3.14159e-38, the stencil's "
        "volume spacing is below the normal doubles (radius=1e-35, n=3); raise radius"),
    # A = 4 pi radius^2 sin^2 is a double, F = A^(3/2) is not
    Row("mass-phase", "mass", "model = sphere\nn = 3\nradius = 2e102\nric0 = 2\n", 3,
        "at V=2.28301e+307, the phase coordinate F = A^(n/(n-1)) overflows a double "
        "(n=3)"),
    Row("cylinder-growth-length", "cylinder-growth", "lengths = 1, 1e308\n", 3, "at "
        "length=1e+308, the volume overflows a double (radius=1, n=3); lower radius"),
    # 2^(n - 1), delta^6, c 2^(n - 1) delta^6; the power sums at a negative
    # n or a radius of 0, and of r^(n - 7) at radii 1e200
    Row("budget-n", "cutoff-budget", "n = 1025\ndelta = 0.1\nc0 = 1\nc = 1\n"
        "radii = 0.01\n", 3,
        f"{_BUDGET} (n=1025, delta=0.1, c0=1, c=1, h=0, radii=[0.01, 0.01])"),
    Row("budget-delta", "cutoff-budget", "n = 9\ndelta = 1e60\nc0 = 1\nc = 1\n"
        "radii = 0.01\n", 3,
        f"{_BUDGET} (n=9, delta=1e+60, c0=1, c=1, h=0, radii=[0.01, 0.01])"),
    Row("budget-c", "cutoff-budget", "n = 9\ndelta = 0.1\nc0 = 1\nc = 1e308\n"
        "radii = 0.05\n", 3,
        f"{_BUDGET} (n=9, delta=0.1, c0=1, c=1e+308, h=0, radii=[0.05, 0.05])"),
    Row("budget-negative-n", "cutoff-budget", "n = -2000\ndelta = 0.1\nc0 = 1\nc = 1\n"
        "radii = 0.05\n", 3,
        f"{_BUDGET} (n=-2000, delta=0.1, c0=1, c=1, h=0, radii=[0.05, 0.05])"),
    Row("budget-zero-radius", "cutoff-budget", "n = 2\ndelta = 0.1\nc0 = 1\nc = 1\n"
        "radii = 0, 0.05\n", 3,
        f"{_BUDGET} (n=2, delta=0.1, c0=1, c=1, h=0, radii=[0, 0.05])"),
    Row("budget-power-sum", "cutoff-budget", "n = 9\ndelta = 0.1\nc0 = 1\nc = 1\n"
        "radii = 1e200\n", 3, "the sum of r_i^(n-7) overflows a double (n=9, "
        "delta=0.1, c0=1, c=1, h=0, radii=[1e+200, 1e+200])"),
    # rho^(-m) at the default rho_min, e^(lambda rho) at the default
    # rho_max; a weight that overflows against a cap area of 0 (nan), an area
    # or weight that underflows, a product of weights that overflows
    Row("monotonicity-sphere_dim", "monotonicity", "case = sphere\nlambda = 1\n"
        "sphere_dim = 155\n", 3, "the profile overflows a double (lambda=1, "
        "rho_min=0.01, rho_max=2, sphere_dim=155)"),
    Row("monotonicity-lambda", "monotonicity", "case = circle\nlambda = 355\n", 3,
        "the profile overflows a double (lambda=355, rho_min=0.01, rho_max=2)"),
    Row("cell-nan", "monotonicity", "case = sphere\nsphere_dim = 700\nlambda = 200\n"
        "rho_min = 0.4\nrho_max = 0.6\nrho_n = 3\n", 3, "at rho=0.4, the profile "
        "overflows a double (lambda=200, rho_min=0.4, rho_max=0.6, sphere_dim=700)"),
    Row("cell-zero", "monotonicity", "case = sphere\nsphere_dim = 450\nlambda = 1\n"
        "rho_min = 0.5\nrho_max = 1.5\n", 3, "at rho=0.5, the profile is below the "
        "normal doubles (lambda=1, rho_min=0.5, rho_max=1.5, sphere_dim=450)"),
    Row("cell-subnormal", "monotonicity", "case = circle\nlambda = -2000\n", 3, "at "
        "rho=0.35746, the profile is below the normal doubles (lambda=-2000, "
        "rho_min=0.01, rho_max=2)"),
    Row("cell-inf", "monotonicity", "case = sphere\nsphere_dim = 100\nlambda = 46000\n"
        "rho_min = 0.01\nrho_max = 0.015\nrho_n = 3\n", 3, "at rho=0.01, the profile "
        "overflows a double (lambda=46000, rho_min=0.01, rho_max=0.015, sphere_dim=100)"),
    # the bound 5.58e-317 would keep about 7 sound digits of the 12
    Row("subnormal-bishop-bound", "bishop-bound", "n = 3\nric0 = 1e212\n", 3, "the "
        "path end x0 is below the normal doubles (n=3, ric0=1e+212); lower ric0"),
    # below about 1.7e-205 the ricci leg's scale 3 / (9 eps)^(3/2) times
    # its height overflows a double (the scale alone below about 7e-207)
    Row("alpha-1e-300", "football-alpha --epsilon 1e-300", None, 3,
        f"at epsilon=1e-300, {_SCALE}"),
    Row("alpha-5e-324", "football-alpha --epsilon 5e-324", None, 3,
        f"at epsilon=4.94066e-324, {_SCALE}"),
    Row("alpha-1e-206", "football-alpha --epsilon 1e-206", None, 3,
        f"at epsilon=1e-206, {_SCALE}"),

    # --- exit 0 at the edges of the ranges above
    Row("alpha-1e-200", "football-alpha --epsilon 1e-200", None, 0),
    # radius^3 = 1e330 is not a double, the volume 2 pi^2 radius^3 c^2 is
    Row("football-past-power", "profile", "model = football\nn = 3\nc = 1e-100\n"
        "radius = 1e110\n", 0),
    # t_max / radius rounds above pi, where the far pole's sine is negative
    Row("far-pole", "profile", "model = sphere\nn = 4\nradius = 0.327977417671303\n", 0),
]


def prepare(row: Row, tmp: str) -> list[str]:
    """The row's command line with ``{dir}`` as tmp, after writing its
    config file there: the line ``command = <command>``, unless the config
    names a command of its own, then the config."""
    argv = [token.replace("{dir}", tmp) for token in row.argv.split()]
    if row.config is not None:
        text = row.config.replace("{dir}", tmp)
        if not text.startswith("command ="):
            text = f"command = {argv[0]}\n{text}"
        cfg = os.path.join(tmp, "run.cfg")
        with open(cfg, "wb") as fh:
            # a byte per character, so that a row can hold a byte not UTF-8
            fh.write(text.encode("latin-1"))
        argv[1:1] = ["--config", cfg]
    return argv


def outcome(code: int, out: str, err: str) -> tuple:
    """What a row checks of a run: exit code, stdout at 2 and 3, stderr."""
    return code, out if code else "", err


def expected(row: Row, tmp: str) -> tuple:
    """The ``outcome`` the row asks for."""
    if row.message is None:
        return row.code, "", ""
    message = row.message.replace("{dir}", tmp)
    if row.code == 3:
        message = f"numerical failure in {row.argv.split()[0]}: {message}"
    return row.code, "", f"iso-compare: {message}\n"


def main(command: list[str], rows: list[Row] = ROWS) -> int:
    """Run each row through command in a child process; 1 if any failed."""
    env = dict(os.environ, PYTHONWARNINGS="error::RuntimeWarning")
    failed = 0
    for row in rows:
        with tempfile.TemporaryDirectory() as tmp:
            proc = subprocess.run(command + prepare(row, tmp), env=env,
                                  capture_output=True, text=True, errors="replace")
            if outcome(proc.returncode, proc.stdout, proc.stderr) != \
                    expected(row, tmp):
                failed += 1
                print(f"{row.id}: exit {proc.returncode}\n{proc.stderr.rstrip()}")
    print(f"{len(rows) - failed} of {len(rows)} rows keep their exit contract")
    return 1 if failed else 0


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(f"usage: {sys.argv[0]} COMMAND...")
    sys.exit(main(sys.argv[1:]))
