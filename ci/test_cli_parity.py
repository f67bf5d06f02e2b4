"""Runs slices of `cli_parity.py`: the `cli-pipeline` mix at one seed, and
its `traceprod` shim on two stages. Opt-in, outside the Tier-1 suite:

    python -m pytest ci
"""
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LINE = re.compile(r"[^\t]+\t[^\t]+\tin:[0-9a-f]{16}\tout:[0-9a-f]{16}\terr:[0-9a-f]{16}\texit:\d+")


def _parity(*args: str) -> list:
    proc = subprocess.run(
        [sys.executable, str(HERE / "cli_parity.py"), *args], capture_output=True, text=True, timeout=600
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout.splitlines()


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def test_mix_slice_prints_one_line_per_stage_and_repeats_from_a_named_tree():
    lines = _parity("--part", "mix", "--seeds", "0")
    jobs = json.loads((ROOT / "perfbench" / "workloads.json").read_text())["cli-pipeline"]["jobs"]
    assert len(lines) == sum(len(job["stages"]) for job in jobs)
    assert all(LINE.fullmatch(line) for line in lines), lines
    generate, check = lines[:2]
    assert generate.startswith("mix seed=0 job=0\tgenerate --family mn_chain --n 12 --m 3 --seed 0\t")
    assert check.startswith("mix seed=0 job=0\tcheck --maps FILE\t")
    # check reads the document that generate wrote
    assert check.split("\t")[2] == "in:" + generate.split("\t")[3][len("out:"):]
    assert _parity("--part", "mix", "--seeds", "0", "--tree", str(ROOT)) == lines


@pytest.mark.skipif(shutil.which("bash") is None or shutil.which("head") is None, reason="needs bash and head")
def test_the_shim_passes_a_stage_through_and_marks_a_reader_that_closed_early(tmp_path):
    log, out = tmp_path / "stages.log", tmp_path / "out.json"
    shim = f'"{sys.executable}" "{HERE / "cli_parity.py"}" --stage "{log}"'
    script = (
        f'{shim} certify --n 3 --k 2 >"{out}"\n'
        f"{shim} generate --family mn_chain --n 12 --m 3 | head -c 100 >/dev/null\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        ["bash", "-c", script], env=env, stdin=subprocess.DEVNULL, capture_output=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    certify, generate = log.read_text().splitlines()
    empty = _digest(b"")
    assert certify == (
        f"pipelines\tcertify --n 3 --k 2\tin:{empty}\tout:{_digest(out.read_bytes())}\terr:{empty}\texit:0"
    )
    assert generate.startswith("pipelines\tgenerate --family mn_chain --n 12 --m 3\t")
    assert generate.endswith("\texit:2\tpipe-dependent")
