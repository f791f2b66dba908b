"""Time ``ccv conics --json`` jobs on boundary rungs, or check their output.

A rung is the seed-1 spec of ``perfbench/specs.boundary_spec`` for the
given degrees, over F_32003 (the spec's own field, so the search is
symbolic) or, with --rational, over Q.  The job searches between the
spec's base points x = e_0 and y = e_N, or with --count-only counts
them.  The spec goes to a temporary directory, never under perfbench/,
and the job runs there, so the output is the same from run to run.

A fresh interpreter imports ccv from DIR/src and runs the job through
``ccv.cli.entry`` with its output captured.  It reports its exit code,
its wall seconds, its peak RSS (``ru_maxrss``) and the sha256 of the
output, which this script prints on one line.

With --check it runs instead every job of ``tools/rung_digests.json``,
a table of expected output hashes, one child at a time, and
prints each job's wall time, peak RSS and whether its exit code is 0 and
its hash matches; it exits 1 on any mismatch.  The default set takes
about a minute; --long adds the jobs the table marks long (full
``conics`` on the quintic in P^9, a few minutes and about 1 GB).

Usage: python tools/rung_run.py DEGREE... [--src DIR] [--rational]
       [--count-only]
       python tools/rung_run.py --check [--long] [--src DIR]
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TABLE = ROOT / "tools" / "rung_digests.json"
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


def run_job(degrees, src: Path, rational=False, count_only=False) -> dict:
    """The probe's result for one job, with the job's ``label``."""
    spec = specs.boundary_spec(SEED, degrees,
                               prime=None if rational else PRIME)
    x, y = (",".join(map(str, p)) for p in specs.base_points(degrees))
    name = f"{spec['name']}.json"  # relative, so the output names no tmp
    job = ["conics", name, "--x", x, "--y", y, "--json"]
    job += ["--count-only"] * count_only
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / name).write_text(json.dumps(spec, indent=2))
        done = subprocess.run(
            [sys.executable, "-c", PROBE, str((src / "src").resolve()), *job],
            cwd=tmp, capture_output=True, text=True, check=True)
    result = json.loads(done.stdout)
    result["label"] = (f"{spec['name']} {'Q' if rational else f'F{PRIME}'}"
                       f"{' count-only' * count_only}")
    return result


def check(table: Path, src: Path, long=False) -> int:
    """Run the table's jobs, the long ones only if asked, one at a time:
    0 when every job exits 0 with its expected hash, else 1."""
    failed = 0
    for job in json.loads(table.read_text())["jobs"]:
        if job.get("long") and not long:
            continue
        result = run_job(job["degrees"], src, job.get("rational", False),
                         job.get("count_only", False))
        ok = result["exit"] == 0 and result["sha256"] == job["sha256"]
        failed += not ok
        print(f"{result['label']}: {result['wall_s']:.2f} s, "
              f"{result['peak_rss_mb']:.1f} MB, "
              f"{'match' if ok else 'MISMATCH'}"
              + ("" if ok else f" (exit {result['exit']}, "
                 f"sha256 {result['sha256']})"), flush=True)
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="time ccv conics --json jobs on seed-1 rungs")
    parser.add_argument("degrees", type=int, nargs="*")
    parser.add_argument("--src", type=Path, default=ROOT,
                        help="checkout whose src/ is run (default: this one)")
    parser.add_argument("--rational", action="store_true",
                        help="over Q instead of F_32003")
    parser.add_argument("--count-only", action="store_true")
    parser.add_argument("--check", action="store_true",
                        help="run the table's jobs against their hashes")
    parser.add_argument("--long", action="store_true",
                        help="with --check, run the long jobs too")
    args = parser.parse_args(argv)
    if args.check:
        return check(TABLE, args.src, args.long)
    if not args.degrees:
        parser.error("give the rung's degrees, or --check")
    result = run_job(args.degrees, args.src, args.rational, args.count_only)
    print(f"{result['label']}: exit {result['exit']}, "
          f"{result['wall_s']:.2f} s, {result['peak_rss_mb']:.1f} MB, "
          f"sha256 {result['sha256']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
