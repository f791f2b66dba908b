"""Time one ``ccv conics --json`` job on a boundary rung.

The rung is the seed-1 spec of ``perfbench/specs.boundary_spec`` for the
given degrees, over F_32003 (the spec's own field, so the search is
symbolic) or, with --rational, over Q.  The job searches between the
spec's base points x = e_0 and y = e_N, or with --count-only counts
them.  The spec goes to a temporary directory, never under perfbench/,
and the job runs there, so the output is the same from run to run.

A fresh interpreter imports ccv from DIR/src and runs the job through
``ccv.cli.entry`` with its output captured.  It reports its exit code,
its wall seconds, its peak RSS (``ru_maxrss``) and the sha256 of the
output, which this script prints on one line.

Usage: python tools/rung_run.py DEGREE... [--src DIR] [--rational]
       [--count-only]
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import specs  # noqa: E402  (perfbench/specs.py, stdlib only)

SEED = 1
PRIME = 32003
PROBE = """
import contextlib, hashlib, io, json, resource, sys, time
sys.path.insert(0, sys.argv[1])
from ccv import cli
out = io.StringIO()
start = time.perf_counter()
with contextlib.redirect_stdout(out):
    code = cli.entry(sys.argv[2:])
wall = time.perf_counter() - start
print(json.dumps({
    "exit": code, "wall_s": wall,
    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    "sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}))
"""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="time one ccv conics --json job on a seed-1 rung")
    parser.add_argument("degrees", type=int, nargs="+")
    parser.add_argument("--src", type=Path, default=ROOT,
                        help="checkout whose src/ is run (default: this one)")
    parser.add_argument("--rational", action="store_true",
                        help="over Q instead of F_32003")
    parser.add_argument("--count-only", action="store_true")
    args = parser.parse_args(argv)
    spec = specs.boundary_spec(SEED, args.degrees,
                               prime=None if args.rational else PRIME)
    x, y = (",".join(map(str, p)) for p in specs.base_points(args.degrees))
    name = f"{spec['name']}.json"  # relative, so the output names no tmp
    job = ["conics", name, "--x", x, "--y", y, "--json"]
    job += ["--count-only"] * args.count_only
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / name).write_text(json.dumps(spec, indent=2))
        done = subprocess.run(
            [sys.executable, "-c", PROBE,
             str((args.src / "src").resolve()), *job],
            cwd=tmp, capture_output=True, text=True, check=True)
    result = json.loads(done.stdout)
    print(f"{spec['name']} {'Q' if args.rational else f'F{PRIME}'}"
          f"{' count-only' * args.count_only}: exit {result['exit']}, "
          f"{result['wall_s']:.2f} s, {result['peak_rss_mb']:.1f} MB, "
          f"sha256 {result['sha256']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
