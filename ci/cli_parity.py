"""The CLI parity log: one line per command-line stage, so that two trees
compare by a plain diff of their outputs. It uses only the standard library,
numpy, bash and the package:

    python3 ci/cli_parity.py [--tree PATH] [--part pipelines|mix|all] [--seeds 0,1,2]

The stages are

- `pipelines`: every `traceprod` call of `ci/runtime_pipelines.sh`, run
  through a logging `traceprod` shim on PATH;
- `mix`: every stage of the benchmark's `cli-pipeline` jobs at each seed,
  run as `perfbench/jobs.py` runs them.

Each line is `<label>\\t<argv>\\tin:<digest>\\tout:<digest>\\terr:<digest>\\texit:<code>`:
a digest is the SHA-256 (first 16 hex digits) of what the stage read (its
stdin, then each file that its argv names, which the argv shows as FILE), of
its stdout and of its stderr. A stage whose reader closed its stdout early
ends in `\\tpipe-dependent`: how much it wrote, and so its stdout digest and
exit code, depend on when the reader closed. The `pipelines` part ends with
the script's own exit code.

`--tree PATH` imports the package from `PATH/src` instead of this checkout's,
for example from a `git archive` of another commit; the script, the job mix
and the job code are this checkout's for either tree:

    mkdir /tmp/parent && git archive HEAD~1 | tar -x -C /tmp/parent
    python3 ci/cli_parity.py --tree /tmp/parent > parent.txt
    python3 ci/cli_parity.py > head.txt
    diff parent.txt head.txt
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STAGE_TIMEOUT_S = 600


def _digest(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()[:16]


def _line(label: str, argv, stdin: bytes, stdout: str, stderr: bytes, code: int) -> str:
    """A stage's log line; `stdout` is its digest, as the shim hashes it while passing it on."""
    files = [Path(a) for a in argv if os.path.isfile(a)]
    shown = " ".join("FILE" if os.path.isfile(a) else a for a in argv)
    read = _digest(stdin, *(p.read_bytes() for p in files))
    return f"{label}\t{shown}\tin:{read}\tout:{stdout}\terr:{_digest(stderr)}\texit:{code}"


def _stage(log: str, argv: list) -> int:
    """The `traceprod` shim: run the CLI on `argv`, pass stdin, stdout and
    stderr through, and append the stage's line to the file `log`."""
    stdin = sys.stdin.buffer.read()
    with tempfile.TemporaryFile() as inp, tempfile.TemporaryFile() as err:
        inp.write(stdin)
        inp.seek(0)
        proc = subprocess.Popen(
            [sys.executable, "-m", "traceprod.cli", *argv], stdin=inp, stdout=subprocess.PIPE, stderr=err
        )
        out, closed = hashlib.sha256(), False
        while chunk := proc.stdout.read1(1 << 16):
            out.update(chunk)
            try:
                view = memoryview(chunk)
                while view:
                    view = view[os.write(1, view) :]
            except BrokenPipeError:  # the reader is gone: so is the stage's stdout
                closed = True
                break
        proc.stdout.close()
        code = proc.wait(timeout=STAGE_TIMEOUT_S)
        err.seek(0)
        stderr = err.read()
    os.write(2, stderr)
    line = _line("pipelines", argv, stdin, out.hexdigest()[:16], stderr, code)
    with open(log, "a", encoding="utf-8") as fh:
        fh.write(line + ("\tpipe-dependent" if closed else "") + "\n")
    return code


def _pipelines(tree: Path, tmp: Path) -> list:
    """The lines of every `traceprod` call of `runtime_pipelines.sh`, and the script's exit code."""
    log = tmp / "stages.log"
    log.touch()
    shims = {
        "traceprod": f'exec "{sys.executable}" "{HERE / "cli_parity.py"}" --stage "{log}" "$@"',
        "python": f'exec "{sys.executable}" "$@"',
    }
    bin_dir = tmp / "bin"
    bin_dir.mkdir()
    for name, body in shims.items():
        shim = bin_dir / name
        shim.write_text(f"#!/bin/sh\n{body}\n")
        shim.chmod(0o755)
    env = dict(os.environ)
    env["PATH"] = f"{bin_dir}{os.pathsep}{env.get('PATH', '')}"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(tree / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        ["bash", str(HERE / "runtime_pipelines.sh")],
        cwd=tmp, env=env, stdin=subprocess.DEVNULL, capture_output=True, timeout=3600,
    )
    return log.read_text(encoding="utf-8").splitlines() + [f"pipelines\tscript exit:{proc.returncode}"]


def _mix(tree: Path, seeds, tmp: Path) -> list:
    """The lines of every stage of the `cli-pipeline` jobs at each seed. The
    package on sys.path builds the jobs' inputs, and each stage's child
    interpreter imports it from the same tree."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from jobs import CliJob, Generator, Lib

    lines = []

    class LoggedJob(CliJob):
        def _call(self, argv, out, err, lib):
            code = super()._call(argv, out, err, lib)
            label = f"mix seed={self.seed} job={self.index}"
            lines.append(_line(label, argv, b"", _digest(out.read_bytes()), err.read_bytes(), code))
            return code

    lib = Lib()
    specs = json.loads((ROOT / "perfbench" / "workloads.json").read_text())["cli-pipeline"]["jobs"]
    for seed in seeds:
        gen = Generator(lib, seed)
        for index, spec in enumerate(specs):
            job = LoggedJob(spec, seed, index, tree, tmp)
            job.prepare(gen)
            job.run(lib)
    return lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--stage"]:  # as the `traceprod` shim of the pipelines part
        return _stage(argv[1], argv[2:])
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", type=Path, default=ROOT, help="the checkout whose src/ to import")
    parser.add_argument("--part", choices=["pipelines", "mix", "all"], default="all")
    parser.add_argument("--seeds", default="0,1,2", help="comma-separated seeds of the mix")
    args = parser.parse_args(argv)
    tree = args.tree.resolve()
    sys.path.insert(0, str(tree / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        lines = []
        if args.part in ("pipelines", "all"):
            lines += _pipelines(tree, Path(tmp))
        if args.part in ("mix", "all"):
            lines += _mix(tree, [int(s) for s in args.seeds.split(",")], Path(tmp))
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
