"""Self-test of the benchmark's own parts.

    python3 perfbench/selftest.py

Checks that the spec generator is deterministic per seed and that each
output check accepts ccv's real answer and rejects a corrupted one: a
wrong degree, a vertex moved off X, a histogram off by one.  Exits 1 on
the first failure.
"""

from __future__ import annotations

import copy
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import ccv.cli as cli  # noqa: E402
import checks  # noqa: E402
import child  # noqa: E402
import specs  # noqa: E402
import workloads  # noqa: E402


def expect(condition, message) -> None:
    if not condition:
        print(f"FAIL: {message}")
        sys.exit(1)
    print(f"ok: {message}")


def answer(job, tmp: Path):
    """ccv's JSON answer for a job, and the spec's parsed equations."""
    path, spec = child.write_input(job, tmp, 0)
    code, out, _err = child.run_job(cli, job, path)
    expect(code == 0, f"{job.name} exits 0")
    return json.loads(out), checks.spec_equations(spec)


def test_generator() -> None:
    for workload in workloads.WORKLOADS:
        first = workloads.jobs(workload, 5, 1)
        expect(first == workloads.jobs(workload, 5, 1),
               f"{workload}: the same seed gives the same jobs")
        expect(first != workloads.jobs(workload, 6, 1),
               f"{workload}: another seed gives other inputs")
    plain = specs.boundary_equations(1, (3, 2))
    signed = specs.boundary_equations(1, (3, 2), signs="9-0")
    expect(plain != signed and all(
        {m: abs(c) for m, c in a.items()} == {m: abs(c) for m, c in b.items()}
        for a, b in zip(plain, signed)),
        "re-signing changes signs only")
    for degrees in workloads.LADDER:
        spec = specs.boundary_spec(2, degrees)
        expect(checks.spec_equations(spec)
               == specs.boundary_equations(2, degrees),
               f"{degrees}: rendered equations parse back exactly")


def test_checks(tmp: Path) -> None:
    count_job = workloads.jobs("count-fp", 1, 0)[0]
    doc, eqs = answer(count_job, tmp)
    expect(checks.check(count_job, doc, eqs) == [], "count answer passes")
    bad = copy.deepcopy(doc)
    bad["count"]["ideal_degree"] += 1
    expect(checks.check(count_job, bad, eqs), "a wrong degree is caught")

    enum_job = next(j for j in workloads.jobs("enumerate", 1, 0)
                    if j.shipped == "quadric_p3.json")
    doc, eqs = answer(enum_job, tmp)
    expect(doc["search"]["solutions"], "enumeration lists vertices")
    expect(checks.check(enum_job, doc, eqs) == [], "enumeration passes")
    bad = copy.deepcopy(doc)
    vertex = checks.parse_point(bad["search"]["solutions"][0]["vertex"])
    shifted = (vertex[:i] + [vertex[i] + 1] + vertex[i + 1:]
               for i in range(len(vertex)))
    moved = next(m for m in shifted
                 if any(specs.evaluate(eq, m) for eq in eqs))
    bad["search"]["solutions"][0]["vertex"] = \
        "[" + ":".join(str(c) for c in moved) + "]"
    expect(checks.check(enum_job, bad, eqs), "a vertex off X is caught")

    census_job = next(j for j in workloads.jobs("census", 1, 0)
                      if j.kind == "census")
    doc, eqs = answer(census_job, tmp)
    expect(checks.check(census_job, doc, eqs) == [], "census passes")
    bad = copy.deepcopy(doc)
    bad["census"]["histogram"][0]["pairs"] += 1
    expect(checks.check(census_job, bad, eqs),
           "a histogram off by one is caught")

    other = copy.deepcopy(doc)
    other["config"]["json"] = False
    other["stats"] = {"new": 1}
    expect(checks.digest(other) == checks.digest(doc),
           "the digest ignores config and new keys")
    expect(checks.digest(bad) != checks.digest(doc),
           "the digest sees a changed result")


def main() -> int:
    test_generator()
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        test_checks(Path(tmp))
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
