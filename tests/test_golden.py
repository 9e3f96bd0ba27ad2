"""Golden-output contract: each command, run on a fixed configuration,
writes exactly the bytes committed next to it.

Regenerate a golden file only when a change is meant to alter a printed
digit, and record each altered digit with its reference value in CHANGES.md.
"""

from pathlib import Path

import pytest

from isocompare.cli import main
from isocompare.config import COMMANDS

GOLDEN = Path(__file__).parent / "golden"
SUFFIX = {"bishop-bound": "json", "epsilon0": "json", "cutoff-budget": "json"}


@pytest.mark.parametrize("command", COMMANDS)
def test_golden_output(command, tmp_path):
    out = tmp_path / "out"
    code = main([command, "--config", str(GOLDEN / f"{command}.cfg"),
                 "--out", str(out)])
    assert code == 0
    expected = GOLDEN / f"{command}.{SUFFIX.get(command, 'csv')}"
    assert out.read_bytes() == expected.read_bytes()
