"""List the lines of src/ccv that a run never executes.

By default the run is tier-1, ``pytest -q tests`` in this process.  With
--workloads it is three passes of every workload of
``perfbench/workloads.py`` at seed 1, each job through ``ccv.cli.entry``
with its output discarded; the generated specs go to a temporary
directory, and nothing is written under perfbench/.

A trace function set by ``sys.settrace`` records every line run in a
frame whose code comes from src/ccv, and no other frame is traced.  The
executable lines of a module are those that its code objects, nested
ones included, name in ``co_lines()``.  The report gives, per module,
each executable line that never ran, with its text.  Only code run after
the trace starts counts, so the run must import ccv itself.

Tracing is slow: tier-1 takes several times as long as untraced.

Usage: python tools/trace_lines.py [--workloads]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "ccv"


def trace(run, root: Path) -> tuple:
    """(run(), {path: set of line numbers run}) for the frames of Python
    files under ``root``, with run() under the trace.  The trace function
    in force before is put back afterwards."""
    root, ran, inside = root.resolve(), {}, {}

    def wanted(filename):
        if filename not in inside:
            path = Path(filename).resolve()
            inside[filename] = (str(path) if path.is_relative_to(root)
                                else None)
        return inside[filename]

    def on_call(frame, event, arg):
        if (path := wanted(frame.f_code.co_filename)) is None:
            return None
        lines = ran.setdefault(path, set())
        lines.add(frame.f_lineno)

        def on_line(frame, event, arg):
            lines.add(frame.f_lineno)
            return on_line
        return on_line

    before = sys.gettrace()
    sys.settrace(on_call)
    try:
        result = run()
    finally:
        sys.settrace(before)
    return result, ran


def executable_lines(path: Path) -> set:
    """The line numbers that the code objects compiled from a file name."""
    stack, lines = [compile(path.read_text(), str(path), "exec")], set()
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def missed(root: Path, ran: dict) -> dict:
    """{path: [(line, text)]} of the executable lines that never ran, for
    every Python file under ``root``."""
    out = {}
    for path in sorted(root.resolve().rglob("*.py")):
        text = path.read_text().splitlines()
        never = sorted(executable_lines(path) - ran.get(str(path), set()))
        out[str(path)] = [(line, text[line - 1].strip()) for line in never]
    return out


def _tier1() -> int:
    import pytest
    return pytest.main(["-q", str(ROOT / "tests")])


def _workloads() -> int:
    sys.dont_write_bytecode = True  # nothing under perfbench/
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads
    import ccv.cli
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name in workloads.WORKLOADS:
            for instance in range(3):
                for k, job in enumerate(workloads.jobs(name, 1, instance)):
                    path = ROOT / "varieties" / str(job.shipped)
                    if job.spec is not None:
                        path = Path(tmp) / f"{name}-{instance}-{k}.json"
                        path.write_text(json.dumps(job.spec))
                    out = io.StringIO()
                    with contextlib.redirect_stdout(out), \
                            contextlib.redirect_stderr(out):
                        code = ccv.cli.entry(
                            [job.command, str(path), *job.options, "--json"])
                    if code != 0:
                        print(f"{job.name}: exit {code}", file=sys.stderr)
                        failed += 1
    return failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", action="store_true",
                        help="trace the benchmark's workloads, not tier-1")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    failed, ran = trace(_workloads if args.workloads else _tier1, SRC)
    for path, lines in missed(SRC, ran).items():
        total = len(executable_lines(Path(path)))
        print(f"{Path(path).relative_to(ROOT)}: {len(lines)} of {total} "
              f"executable lines never ran")
        for line, text in lines:
            print(f"  {line}: {text}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
