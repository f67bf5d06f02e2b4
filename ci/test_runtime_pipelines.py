"""Runs `runtime_pipelines.sh` against this checkout, through `traceprod` and
`python` shims on PATH, with no install. Opt-in, outside the Tier-1 suite:

    python -m pytest ci
"""
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


@pytest.mark.skipif(shutil.which("bash") is None, reason="needs bash")
def test_runtime_pipelines_pass(tmp_path):
    shims = {"traceprod": f'exec "{sys.executable}" -m traceprod.cli "$@"', "python": f'exec "{sys.executable}" "$@"'}
    for name, body in shims.items():
        shim = tmp_path / name
        shim.write_text(f"#!/bin/sh\n{body}\n")
        shim.chmod(0o755)
    env = dict(os.environ)
    env["PATH"] = f"{tmp_path}{os.pathsep}{env.get('PATH', '')}"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        ["bash", str(HERE / "runtime_pipelines.sh")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-4000:]
    assert proc.stdout.rstrip().endswith("runtime pipelines passed")
