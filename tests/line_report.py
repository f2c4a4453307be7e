"""The lines of ``src/nfclm`` that no test under ``tests/`` runs, as Markdown.

A report, not a gate.  The suite runs in this process under
``sys.settrace`` (and ``threading.settrace`` for threads it starts), which
records the line events of frames whose code lives in ``src/nfclm``.  A
module's executable lines are those its compiled code objects map an
instruction to; each run of them that never ran is listed.  Code that
runs only in a child process is never seen, so it is listed too.  The benchmark smoke test runs only child processes,
and is left out.  Run from anywhere, with arguments passed on to pytest:

    python tests/line_report.py [PYTEST_ARGS...] >> report.md

The report goes to stdout and the suite's own output to stderr.  The exit
status is 0 whatever the suite's, which the report states.
"""

from __future__ import annotations

import os
import sys
import threading
from collections import defaultdict
from contextlib import redirect_stdout
from importlib.util import find_spec
from itertools import groupby

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# it counts the objects the garbage collector tracks, and a tracer adds some
DESELECTED = "tests/test_classfst.py::TestColumns::test_tracked_objects_do_not_grow_with_states"


def executable_lines(path: str) -> list[int]:
    """The lines that ``path``'s code objects map an instruction to, ascending."""
    with open(path, encoding="utf-8") as fh:
        stack = [compile(fh.read(), path, "exec")]
    lines = set()
    while stack:
        code = stack.pop()
        # line 0 is a module's RESUME, which no line event reports
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(const for const in code.co_consts if isinstance(const, type(code)))
    return sorted(lines)


def never_run(lines: list[int], ran: set[int]) -> list[str]:
    """Each run of ``lines`` (consecutive among them) that misses ``ran``,
    as ``"a"`` or ``"a-b"``."""
    runs = [list(run) for missed, run in groupby(lines, lambda line: line not in ran) if missed]
    return [f"{run[0]}" if len(run) == 1 else f"{run[0]}-{run[-1]}" for run in runs]


def traced_suite(package: str, args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest on ``args`` under the tracer: its exit code, and per file
    of ``package`` the lines that ran."""
    prefix = package + os.sep
    ran: dict[str, set[int]] = defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        with redirect_stdout(sys.stderr):
            code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), ran


def main(argv: list[str]) -> int:
    # the package these sources hold, found before any of it runs
    sys.path.insert(0, os.path.join(ROOT, "src"))
    package = os.path.dirname(find_spec("nfclm").origin)
    args = [os.path.join(ROOT, "tests"), "-q", "-p", "no:cacheprovider",
            "--deselect", DESELECTED, *argv]
    code, ran = traced_suite(package, args)
    print("### Lines of `src/nfclm` that no test runs\n")
    print(f"`pytest tests`, traced in one process, exited with {code}; "
          f"`{DESELECTED}` was deselected.\n")
    print("| module | never-run lines |\n|---|---|")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            path = os.path.join(package, name)
            missed = never_run(executable_lines(path), ran.get(path, set()))
            if missed:
                print(f"| `{name}` | {', '.join(missed)} |")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
