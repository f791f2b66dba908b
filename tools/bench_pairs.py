"""Run the benchmark on two revisions in alternating pairs and compare them.

Each revision is exported with ``git archive`` into a fresh directory, so
neither run sees an uncommitted file or a cached bytecode file, and every
run has PYTHONDONTWRITEBYTECODE=1.  Pair k runs every workload on both
copies at seed S + k, the workloads in turn, with
``perfbench/run.py --seconds <run_seconds of BENCHMARK.json> --trace 0``;
the side that runs first alternates by pair, the parent first in pair 0.

The output is one JSON document: every run's final line, with its seed
and the side that ran first in its pair, under ``parent`` and ``change``,
and a ``summary`` that gives, per workload and end-to-end metric of
BENCHMARK.json, the medians and quartiles (inclusive method) of both
sides, the parent's interquartile range, the change's median over the
parent's minus 1, and the pairs in which the change is strictly better.
A workload is ``ok`` when every run of it exited 0 with a correct result
and no failed job.  The tool exits 1 when any run is not.

Usage: python tools/bench_pairs.py --parent REV [--change REV]
           [--workloads NAME...] [--pairs 10] [--seed S] [--out FILE]
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def schedule(pairs: int, workloads, seed: int) -> list:
    """(pair, seed, workload, side) in the order they run."""
    return [(k, seed + k, w, side) for k in range(pairs) for w in workloads
            for side in (SIDES if k % 2 == 0 else SIDES[::-1])]


def collect(plan, run) -> dict:
    """{side: {workload: [run]}} from run(side, workload, seed), each run
    its final line (or None when it failed) with its seed and ``first``."""
    runs = {side: {} for side in SIDES}
    for k, seed, workload, side in plan:
        final = dict(run(side, workload, seed) or {"correct": False})
        final.update(seed=seed, first=SIDES[k % 2])
        runs[side].setdefault(workload, []).append(final)
    return runs


def _ok(final) -> bool:
    return bool(final.get("correct")) and final.get("failed") == 0


def summarise(runs, metrics) -> dict:
    """The ``summary`` section; ``metrics`` is [(name, better)]."""
    summary = {}
    for workload, parents in runs["parent"].items():
        changes = runs["change"][workload]
        out = summary[workload] = {}
        pairs = [(p, c) for p, c in zip(parents, changes)
                 if _ok(p) and _ok(c)]
        for name, better in metrics:
            values = [(p["metrics"][name]["value"],
                       c["metrics"][name]["value"]) for p, c in pairs]
            if not values:
                continue
            par, cha = zip(*values)
            pq, cq = _quartiles(par), _quartiles(cha)
            won = sum(c < p if better == "lower" else c > p
                      for p, c in values)
            out[name] = {
                "parent_median": pq[1], "change_median": cq[1],
                "parent_q1": pq[0], "parent_q3": pq[2],
                "change_q1": cq[0], "change_q3": cq[2],
                "parent_iqr": pq[2] - pq[0],
                "change_vs_parent": (cq[1] / pq[1] - 1) if pq[1] else None,
                "pairs_won": won, "pairs": len(values)}
        out["ok"] = all(map(_ok, parents + changes))
    return summary


def _quartiles(values) -> list:
    if len(values) == 1:
        return list(values) * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def _export(rev: str, dest: Path) -> str:
    """Extract ``git archive REV`` into dest; the full commit hash."""
    commit = subprocess.run(["git", "rev-parse", "--verify",
                             rev + "^{commit}"], cwd=ROOT, check=True,
                            capture_output=True, text=True).stdout.strip()
    tar = subprocess.run(["git", "archive", commit], cwd=ROOT,
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")
    return commit


def _runner(copies: dict, seconds: int):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")

    def run(side, workload, seed):
        cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        done = subprocess.run(cmd, cwd=copies[side], env=env,
                              capture_output=True, text=True)
        lines = done.stdout.strip().splitlines()
        print(f"{side} {workload} seed {seed}: exit {done.returncode}",
              file=sys.stderr)
        if done.returncode or not lines:
            print(done.stderr[-2000:], file=sys.stderr)
            return None
        return json.loads(lines[-1])

    return run


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", default="HEAD")
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    seconds = bench["run_seconds"]
    with tempfile.TemporaryDirectory() as tmp:
        copies = {side: Path(tmp) / side for side in SIDES}
        commits = {side: _export(getattr(args, side), copies[side])
                   for side in SIDES}
        plan = schedule(args.pairs, args.workloads, args.seed)
        runs = collect(plan, _runner(copies, seconds))
    summary = summarise(runs, [(m["name"], m["better"])
                               for m in bench["end_to_end"]])
    document = {
        "command": f"python3 perfbench/run.py --workload <workload> --seed "
                   f"<seed> --seconds {seconds} --trace 0",
        "notes": f"final JSON line of each run, with its seed and which side "
                 f"ran first in its pair; {args.pairs} pairs per workload at "
                 f"seeds {args.seed}-{args.seed + args.pairs - 1}, the "
                 f"workloads interleaved within each pair, the first side "
                 f"alternating by pair, each side from a clean git-archive "
                 f"copy with PYTHONDONTWRITEBYTECODE=1",
        "commits": commits,
        "environment": {"python": platform.python_version(),
                        "nproc": os.cpu_count()},
        **runs,
        "summary": summary,
    }
    text = json.dumps(document, indent=1) + "\n"
    if args.out:
        args.out.write_text(text)
    else:
        sys.stdout.write(text)
    return 0 if all(s["ok"] for s in summary.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
