"""A pytest plugin that lists the lines of `src/traceprod` a test run never
executed. It uses only the standard library (`sys.settrace`), for hosts where
no coverage tool is installed:

    PYTHONPATH=src:ci python -m pytest -p never_run -q

Tracing starts when the plugin is imported, before any test module imports
the package, so module bodies count. At the end the run prints one
`src/traceprod/<module>.py:<line>` per line never executed, after a header
that counts them. Only the pytest process is traced: a line that runs only in
a subprocess, such as a CLI test's, counts as never run. A line is a line
that starts a bytecode instruction of the module's compiled code objects.
"""
from __future__ import annotations

import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "traceprod"
_PREFIX = str(PACKAGE) + "/"

_executed: defaultdict[str, set[int]] = defaultdict(set)


def _local(frame, event, arg):
    if event == "line":
        _executed[frame.f_code.co_filename].add(frame.f_lineno)
    return _local


def _global(frame, event, arg):
    return _local if frame.f_code.co_filename.startswith(_PREFIX) else None


def _code_lines(code) -> set[int]:
    """The lines that start an instruction of `code` and of the code objects nested in it."""
    lines = {line for _, _, line in code.co_lines() if line}  # None, or 0 for a module's first instruction
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def never_run() -> dict[Path, list[int]]:
    """Each module of the package with the lines of it that no traced frame executed."""
    missed = {}
    for path in sorted(PACKAGE.glob("*.py")):
        lines = _code_lines(compile(path.read_text(), str(path), "exec"))
        missed[path] = sorted(lines - _executed[str(path)])
    return missed


def pytest_terminal_summary(terminalreporter):
    missed = never_run()
    terminalreporter.write_sep("-", f"never run: {sum(map(len, missed.values()))} lines of {PACKAGE.relative_to(ROOT)}")
    for path, lines in missed.items():
        for line in lines:
            terminalreporter.write_line(f"{path.relative_to(ROOT)}:{line}")


def pytest_unconfigure():
    sys.settrace(None)


sys.settrace(_global)
