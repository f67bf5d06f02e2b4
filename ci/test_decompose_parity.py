"""Runs a slice of `decompose_parity.py`, its identity grid, in child
processes and reads its lines. Opt-in, outside the Tier-1 suite:

    python -m pytest ci
"""
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _identity_grid(*args: str) -> list:
    proc = subprocess.run(
        [sys.executable, str(HERE / "decompose_parity.py"), "--grid", "identity", *args],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout.splitlines()


def test_identity_grid_prints_one_outcome_per_case_and_repeats_from_a_named_tree():
    lines = _identity_grid()
    assert len(lines) == 6 * 2 * 5 * 8  # span kinds x fields x m in 1..5 x family names
    cases = dict(line.split("\t") for line in lines)
    assert len(cases) == len(lines)
    assert cases["identity FullMatrix real m=1 auto"] == (
        "NotApplicableError: chains on full matrix spaces need at least 3 maps"
    )
    assert cases["identity Symmetric complex m=2 pn_chain"] == (
        "InvalidParameterError: maps act on Symmetric, expected one of ['Hermitian'] over the complex field"
    )
    assert re.fullmatch("[0-9a-f]{64}", cases["identity FullMatrix complex m=3 mn_chain"])
    assert _identity_grid("--tree", str(HERE.parent)) == lines
