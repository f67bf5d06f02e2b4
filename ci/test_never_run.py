"""Runs the `never_run` plugin on one small test module in a child pytest and
reads its list of lines never executed. Opt-in, outside the Tier-1 suite:

    python -m pytest ci
"""
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPACES = HERE.parent / "src" / "traceprod" / "spaces.py"


def _line_of(text: str) -> str:
    """`src/traceprod/spaces.py:<line>` of the one line of spaces.py that holds `text`."""
    [line] = [i for i, s in enumerate(SPACES.read_text().splitlines(), 1) if text in s]
    return f"src/traceprod/spaces.py:{line}"


def test_never_run_lists_the_lines_a_run_skips(tmp_path):
    (tmp_path / "test_one_tag.py").write_text(
        "from traceprod.spaces import SpaceTag\n\n\ndef test_tag():\n    assert SpaceTag('Hermitian', 'real', 2).n == 2\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(HERE.parent / "src"), str(HERE), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "never_run", "-q", "-p", "no:cacheprovider", "test_one_tag.py"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    listed = set(proc.stdout.splitlines())
    assert "never run: " in proc.stdout
    # the count rule's refusal never ran, its accepting return and the module body did
    assert _line_of('raise InvalidParameterError(f"{what} must be a positive integer') in listed
    assert _line_of("return int(value)") not in listed
    assert _line_of("class SpaceTag:") not in listed
    # a module that nothing imported is listed
    assert any(line.startswith("src/traceprod/weighted.py:") for line in listed)
