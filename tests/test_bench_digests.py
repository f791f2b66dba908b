"""The result digests recorded in ``perfbench/digests.json`` still hold.

A benchmark run checks the digests only at the seed it runs, and the
recorded ones are at seed 1, so this test runs pass 0 at seed 1 of every
workload, and passes 1 and 2 of ``count-fp``, which draws new varieties on
every pass, the way ``perfbench/child.py`` does: its ``write_input`` and
``run_job`` call ``ccv.cli.entry`` in this process, and ``outcome`` checks
each answer and hashes its result fields with ``checks.digest``.  The
files under ``perfbench/`` are only read; no bytecode is written there.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

import ccv.cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
RECORDED = json.loads((PERFBENCH / "digests.json").read_text())


def _load(name, monkeypatch):
    """A perfbench module, under the bare name its siblings import."""
    spec = importlib.util.spec_from_file_location(name,
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def _check_pass(workload, instance, tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    for name in ("specs", "checks", "workloads", "spans"):
        _load(name, monkeypatch)
    child = _load("child", monkeypatch)
    recorded = RECORDED[workload][f"1-{instance}"]
    jobs = sys.modules["workloads"].jobs(workload, 1, instance)
    assert sorted(job.name for job in jobs) == sorted(recorded)
    for index, job in enumerate(jobs):
        path, spec = child.write_input(job, tmp_path, index)
        code, out, err = child.run_job(ccv.cli, job, path)
        problems, digest = child.outcome(job, code, out, err, spec)
        assert not problems, (job.name, problems)
        assert digest == recorded[job.name], job.name


@pytest.mark.parametrize("workload", sorted(RECORDED))
def test_pass_0_at_seed_1_matches_the_recorded_digests(workload, tmp_path,
                                                        monkeypatch):
    _check_pass(workload, 0, tmp_path, monkeypatch)


@pytest.mark.parametrize("instance", [1, 2])
def test_count_fp_passes_at_seed_1_match_the_recorded_digests(
        instance, tmp_path, monkeypatch):
    _check_pass("count-fp", instance, tmp_path, monkeypatch)
