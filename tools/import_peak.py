"""Peak RSS and per-module import time of ``import ccv.cli``.

Each of RUNS fresh interpreters imports the module with ``-X importtime``
from a fresh copy of the source tree in an empty temporary directory, with
PYTHONDONTWRITEBYTECODE=1, and prints its own peak RSS (``ru_maxrss``)
once the import is done.  So no ``ccv`` bytecode is read or written and
every ``ccv`` module is compiled from source, as in a fresh checkout run
without bytecode (the benchmark runs that way); compiling costs memory,
so source lines alone can move the peak.  The standard library reads its
installed bytecode, as it does there.

Prints the median peak RSS with its range, then the median self time of
each module over the runs, largest first: every ``ccv`` module, and the
TOP largest of the others.

Usage: python tools/import_peak.py [--runs RUNS] [--src DIR]
"""

from __future__ import annotations

import argparse
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOP = 10
MODULE = "ccv.cli"
PROBE = (f"import resource, sys; import {MODULE}; "
         "sys.stdout.write(str(resource.getrusage("
         "resource.RUSAGE_SELF).ru_maxrss))")


def one_run(src: Path) -> tuple:
    """(peak RSS in MB, {module: self time in us}) of one fresh import."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "src"
        shutil.copytree(src, copy,
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
                   PYTHONPATH=str(copy))
        env.pop("PYTHONPYCACHEPREFIX", None)
        done = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", PROBE],
            env=env, capture_output=True, text=True, check=True)
    times = {}
    for line in done.stderr.splitlines():
        # "import time: self [us] | cumulative | imported package"
        if not line.startswith("import time:") or "[us]" in line:
            continue
        self_us, _, name = line[len("import time:"):].split("|")
        times[name.strip()] = int(self_us)
    return int(done.stdout) / 1024, times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=f"peak RSS and per-module self time of import {MODULE}")
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    args = parser.parse_args(argv)
    peaks, times = [], {}
    for _ in range(args.runs):
        peak, run = one_run(args.src.resolve())
        peaks.append(peak)
        for name, us in run.items():
            times.setdefault(name, []).append(us)
    print(f"import {MODULE}: peak RSS median "
          f"{statistics.median(peaks):.2f} MB, range {min(peaks):.2f}-"
          f"{max(peaks):.2f} MB, {args.runs} runs")
    medians = sorted(((statistics.median(v), k) for k, v in times.items()),
                     reverse=True)
    others = [k for _, k in medians if k.split(".")[0] != "ccv"]
    shown = set(others[:TOP])
    print(f"{'module':<32}{'self ms':>10}")
    for us, name in medians:
        if name in shown or name.split(".")[0] == "ccv":
            print(f"{name:<32}{us / 1000:>10.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
