"""One pass of a workload in a fresh interpreter.

Imports ccv from src/, writes the pass's generated specs to a temp
directory inside the checkout, then runs each job once through
``ccv.cli.entry([..., "--json"])`` with its output captured, and checks
the answer.  Prints one JSON line: set-up time, job times and problems,
peak RSS, and the per-layer metrics when traced.  run.py starts it.

Every time is rescaled to a nominal machine speed, because the 2-vCPU VM
the benchmark was built on changes speed by up to 1.7x within seconds
(other tenants share its cores).  A fixed pure-Python kernel is timed
PROBE_REPEATS times before and after every job and, from a SIGALRM
handler, every SAMPLE_INTERVAL seconds during it; the job's wall time,
less the time spent in the handler, is multiplied by REFERENCE_SECONDS
over the mean kernel time of that window.  README.md gives the measured
effect.  The raw wall times are reported too.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import shutil
import signal
import sys
import tempfile
import time
import traceback
from pathlib import Path

import checks
import workloads
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

REFERENCE_LOOPS = 20_000
REFERENCE_SECONDS = 0.005
SAMPLE_INTERVAL = 0.1
PROBE_REPEATS = 10


def reference_kernel() -> float:
    """Seconds for a fixed dict-and-integer loop.

    The table stays small, so the kernel adds nothing to peak RSS, and it
    allocates only ints, which the cyclic collector does not track, so it
    neither triggers collections inside a job nor waits on one.
    """
    start = time.perf_counter()
    table = {}
    for i in range(REFERENCE_LOOPS):
        key = i % 31 * 29 + i % 29
        table[key] = table.get(key, 0) + i * i
    return time.perf_counter() - start


class SpeedProbe:
    """Kernel times taken around and, by a timer, during each job."""

    def __init__(self):
        self.samples = []
        self.stolen = 0.0

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL, SAMPLE_INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(reference_kernel())
        self.stolen += time.perf_counter() - start

    def between(self):
        """Sample outside any job; returns the scale of the new samples."""
        new = [reference_kernel() for _ in range(PROBE_REPEATS)]
        self.samples += new
        return REFERENCE_SECONDS / (sum(new) / len(new))

    def timed(self, run):
        """(result, raw seconds, seconds at the nominal speed) of run()."""
        first = len(self.samples)
        self.between()
        self.stolen = 0.0
        start = time.perf_counter()
        result = run()
        raw = time.perf_counter() - start - self.stolen
        self.between()
        window = self.samples[first:]
        return result, raw, raw * REFERENCE_SECONDS * len(window) / sum(window)


def run_job(cli, job, path):
    """(exit code, stdout, stderr) of one ccv invocation."""
    argv = [job.command, str(path), *job.options, "--json"]
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.entry(argv)
    except SystemExit as exc:  # argparse rejected the arguments
        code = exc.code
    except Exception:  # a crash is a failed job, not a failed pass
        code = None
        err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue()


def outcome(job, code, out, err, spec):
    """(problems, digest) of a finished job."""
    if code != 0:
        return [f"exit {code}: {err.strip()[-500:]}"], None
    doc = json.loads(out)
    return (checks.check(job, doc, checks.spec_equations(spec)),
            checks.digest(doc))


def write_input(job, tmp: Path, index: int):
    """(path, spec dict) of a job's variety, writing generated specs to tmp."""
    if job.spec is None:
        path = ROOT / "varieties" / job.shipped
        return path, json.loads(path.read_text())
    path = tmp / f"{index}-{job.spec['name']}.json"
    path.write_text(json.dumps(job.spec, indent=2))
    return path, job.spec


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--instance", type=int, required=True)
    parser.add_argument("--started", type=float, required=True,
                        help="time.time() when the parent started us")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import ccv.cli as cli

    jobs = workloads.jobs(args.workload, args.seed, args.instance)
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=scratch))
    try:
        inputs = [write_input(job, tmp, i) for i, job in enumerate(jobs)]
        tracer = None
        if args.trace:
            tracer = Tracer()
            tracer.install()
        setup_raw = time.time() - args.started
        probe = SpeedProbe()
        scale = probe.between()  # set-up ends here
        results = []
        if not args.setup_only:
            with probe:
                for job, (path, spec) in zip(jobs, inputs):
                    if tracer is not None:
                        tracer.job = job.name
                    # Start each job from the same collector state, so its
                    # collections do not depend on what earlier jobs left.
                    gc.collect()
                    gc.freeze()
                    (code, out, err), raw, seconds = probe.timed(
                        lambda: run_job(cli, job, path))
                    problems, digest = outcome(job, code, out, err, spec)
                    results.append({"name": job.name, "seconds": seconds,
                                    "raw_seconds": raw, "problems": problems,
                                    "digest": digest})
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.rmdir()
    report = {
        "setup_s": setup_raw * scale,
        "raw_setup_s": setup_raw,
        "jobs": results,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
    }
    if tracer is not None:
        factor = (sum(r["seconds"] for r in results)
                  / sum(r["raw_seconds"] for r in results))
        report["layers"] = {k: v * factor if k.endswith("_s") else v
                            for k, v in tracer.metrics().items()}
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
