"""Golden-output contract: each command, run on a fixed configuration,
writes exactly the bytes committed next to it.

Regenerate a golden file only when a change is meant to alter a printed
digit, and record each altered digit with its reference value in CHANGES.md.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import isocompare
from isocompare.cli import main
from isocompare.config import COMMANDS

GOLDEN = Path(__file__).parent / "golden"
SUFFIX = {"bishop-bound": "json", "epsilon0": "json", "cutoff-budget": "json"}


@pytest.mark.parametrize("command", COMMANDS)
def test_golden_output(command, tmp_path):
    # a RuntimeWarning is an error (pyproject's filterwarnings): the in-place
    # array kernels must keep their invalid and divide steps inside np.errstate
    out = tmp_path / "out"
    code = main([command, "--config", str(GOLDEN / f"{command}.cfg"),
                 "--out", str(out)])
    assert code == 0
    expected = GOLDEN / f"{command}.{SUFFIX.get(command, 'csv')}"
    assert out.read_bytes() == expected.read_bytes()
    # over a longer file the artifact is written in place, then cut to length
    out.write_bytes(b"filler\n" * 43_000)
    assert main([command, "--config", str(GOLDEN / f"{command}.cfg"),
                 "--out", str(out)]) == 0
    assert out.read_bytes() == expected.read_bytes()


def test_golden_outputs_without_scipy(tmp_path):
    # the library needs numpy alone: in a fresh interpreter where every scipy
    # import fails, each command still writes its golden bytes
    src = str(Path(isocompare.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    script = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from isocompare.cli import main\n"
        "golden, out = sys.argv[1:3]\n"
        "for command in sys.argv[3:]:\n"
        "    code = main([command, '--config', f'{golden}/{command}.cfg',\n"
        "                 '--out', f'{out}/{command}'])\n"
        "    assert code == 0, command\n")
    subprocess.run([sys.executable, "-c", script, str(GOLDEN), str(tmp_path),
                    *COMMANDS], env=env, check=True)
    for command in COMMANDS:
        expected = GOLDEN / f"{command}.{SUFFIX.get(command, 'csv')}"
        assert (tmp_path / command).read_bytes() == expected.read_bytes(), command
