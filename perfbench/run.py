"""Benchmark runner for ccv.

    python3 perfbench/run.py --workload count-fp --seed 1 --seconds 20 --trace 0

Runs passes of the workload, one fresh interpreter at a time, until
--seconds have gone by (at least MIN_PASSES of them); pass i takes its
inputs from (seed, i).  Then it starts SETUP_PROBES interpreters that only
set up, so set-up time has enough samples.  The last line of standard
output is one JSON object with keys correct, attempted, failed and
metrics; the line before it records the environment and the job list.

--trace 0 reports the end-to-end metrics, each the median over passes.
--trace 1 runs pass 0 untraced and then traced (spans.py) on the same
inputs, and reports the per-layer metrics plus the tracing overhead.

--record-digests stores the result digests of the passes it ran in
digests.json instead of checking them; later runs at the same seed and
pass compare against them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"

MIN_PASSES = 2
SETUP_PROBES = 5
TIME_LIMIT = 170  # seconds a run may take before it gives up

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402
from spans import COUNTS, TIMES  # noqa: E402


class BenchError(RuntimeError):
    """A pass could not run; the benchmark prints no result."""


def run_child(workload, seed, instance, deadline, trace=False,
              setup_only=False) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--instance", str(instance),
           "--trace", str(int(trace)), "--started", repr(time.time())]
    if setup_only:
        cmd.append("--setup-only")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before a pass could start")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"pass {instance} ran past the time limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"pass {instance} exited {proc.returncode}:\n"
                         f"{proc.stderr[-3000:]}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["instance"] = instance
    return report


def _wall(report) -> float:
    return sum(job["seconds"] for job in report["jobs"])


def end_to_end(passes, setups) -> dict:
    med = statistics.median
    return {
        "wall_s": (med(_wall(p) for p in passes), "s"),
        "job_p50_s": (med(med(j["seconds"] for j in p["jobs"])
                          for p in passes), "s"),
        "largest_job_s": (med(max(j["seconds"] for j in p["jobs"])
                              for p in passes), "s"),
        "setup_s": (med(setups), "s"),
        "peak_rss_mb": (med(p["peak_rss_mb"] for p in passes), "MB"),
    }


def per_layer(untraced, traced) -> dict:
    layers = traced["layers"]
    out = {f"{name}_s": (layers[f"{name}_s"], "s") for name in TIMES}
    out.update({name: (layers[name], "count") for name in COUNTS})
    out["groebner.coeff_bits_max"] = (layers["groebner.coeff_bits_max"],
                                      "bits")
    out["oracle.evaluations_per_pair"] = (
        layers["oracle.evaluations_per_pair"], "evals/pair")
    out["trace.overhead_s"] = (_wall(traced) - _wall(untraced), "s")
    return out


def check_digests(workload, seed, reports, record) -> None:
    """Add a problem to every job whose result digest changed."""
    stored = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    table = stored.setdefault(workload, {})
    for report in reports:
        key = f"{seed}-{report['instance']}"
        if record:
            table[key] = {j["name"]: j["digest"] for j in report["jobs"]}
            continue
        for job in report["jobs"]:
            want = table.get(key, {}).get(job["name"])
            if want is not None and job["digest"] != want:
                job["problems"].append(
                    f"result digest {job['digest']} differs from the "
                    f"recorded {want}")
    if record:
        DIGESTS.write_text(json.dumps(stored, indent=1, sort_keys=True)
                           + "\n")


def environment(workload, seed, reports) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": _commit(),
        "workload": workload,
        "seed": seed,
        "passes": [{"instance": r["instance"],
                    "raw_wall_s": sum(j["raw_seconds"] for j in r["jobs"]),
                    "jobs": {j["name"]: round(j["seconds"], 4)
                             for j in r["jobs"]}} for r in reports],
    }


def _commit():
    """HEAD of the checkout, read without running git; None outside git."""
    try:
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (ROOT / ".git" / head[5:]).read_text().strip()
        return head
    except OSError:
        return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="ccv benchmark: time exact answers, per workload.")
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ccv").is_dir():
        print(f"error: no ccv sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    start = time.monotonic()
    deadline = start + TIME_LIMIT
    try:
        if args.trace:
            untraced = run_child(args.workload, args.seed, 0, deadline)
            traced = run_child(args.workload, args.seed, 0, deadline,
                               trace=True)
            reports = [untraced, traced]
        else:
            reports = []
            while (len(reports) < MIN_PASSES
                   or time.monotonic() - start < args.seconds):
                reports.append(run_child(args.workload, args.seed,
                                         len(reports), deadline))
            setups = [r["setup_s"] for r in reports]
            setups += [run_child(args.workload, args.seed, k, deadline,
                                 setup_only=True)["setup_s"]
                       for k in range(SETUP_PROBES)]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    check_digests(args.workload, args.seed, reports, args.record_digests)
    jobs = [job for r in reports for job in r["jobs"]]
    failed = [job for job in jobs if job["problems"]]
    for job in failed:
        print(f"FAILED {job['name']}: {'; '.join(job['problems'])}",
              file=sys.stderr)
    if args.trace:
        metrics = per_layer(untraced, traced)
    else:
        metrics = end_to_end(reports, setups)
        metrics["ok_frac"] = (1 - len(failed) / len(jobs), "frac")
    print(json.dumps({"env": environment(args.workload, args.seed,
                                         reports)}))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(jobs),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
