"""The four workloads: which ccv invocations one pass runs.

A pass runs every job of its workload once.  Pass ``instance`` of a run
with seed ``seed`` draws its inputs from (seed, instance), so no job is
repeated within a run and the same seed always gives the same inputs.
README.md says why each workload exists.

count-fp draws fresh varieties for every pass.  Over Q, and for
enumeration over F_p, the cost of a rung depends on the arithmetic of the
particular variety so much (the [3] enumeration over Q took 0.3-6.7 s
across seeds) that no 25% bound could hold, so count-qq and enumerate run
the varieties of generator seed POOL_SEED, re-signed per pass (see
specs.boundary_equations): the input files change with the seed, the
arithmetic does not.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import specs

WORKLOADS = ("count-fp", "count-qq", "enumerate", "census")

POOL_SEED = 1
FP = 32003
LADDER = ((2, 2), (3,), (2, 2, 2), (2, 2, 2, 2), (3, 2),
          (2, 2, 2, 2, 2), (3, 2, 2), (4,))
QQ_LADDER = LADDER[:-1]
ENUM_QQ = ((2, 2), (3,), (2, 2, 2))
ENUM_FP = ((2, 2), (3,))
CENSUS_PAIRS = 16
CENSUS = (("quadric3_p4", (2,), 11), ("fermat_cubic_p4", (3,), 7),
          ("two_quadrics_p6", (2, 2), 5), ("fermat_cubic_p5", (3,), 5))
SCANS = (("two_quadrics_p6", (2, 2), "1,0,0,0,0,0,0", "0,0,0,0,0,0,1"),
         ("fermat_cubic_p5", (3,), "3,4,5,-6,0,0", "0,0,3,4,5,-6"))
# Shipped cases whose vertices are rational, so that enumerate always
# lists vertices for the line checks (the pool varieties list none).
ENUM_SHIPPED = (("quadric_p3", (2,), "1,0,0,0", "0,0,0,1"),
                SCANS[0])


@dataclass(frozen=True)
class Job:
    """One ccv invocation and what its answer must satisfy.

    ``spec`` is a generated variety written to a temp file; ``shipped``
    names a file under varieties/ instead.  ``prime`` is the field the
    answer lives in (None for Q).
    """

    name: str
    kind: str
    command: str
    options: tuple
    degrees: tuple
    x: str
    y: str
    prime: int | None = None
    spec: dict | None = None
    shipped: str | None = None
    pairs: int | None = None


def _coords(point) -> str:
    return ",".join(map(str, point))


def _boundary_job(kind, degrees, seed, signs=None, prime=None,
                  reduce=False) -> Job:
    """A ``ccv conics`` job on a generated rung.

    With ``reduce`` the spec stays rational and ccv gets ``--prime``;
    otherwise a given ``prime`` becomes the spec's own field.
    """
    spec = specs.boundary_spec(seed, degrees, signs=signs,
                               prime=None if reduce else prime)
    x, y = (_coords(p) for p in specs.base_points(degrees))
    options = ("--x", x, "--y", y)
    if kind == "count":
        options += ("--count-only",)
    if reduce:
        options += ("--prime", str(prime))
    field = f"F{prime}" if prime else "Q"
    name = f"{kind}-{field}-" + "-".join(map(str, degrees))
    return Job(name, kind, "conics", options, tuple(degrees), x, y,
               prime=prime, spec=spec)


def jobs(workload: str, seed: int, instance: int) -> list:
    """The jobs of one pass, in the order they run."""
    key = f"{seed}-{instance}"
    if workload == "count-fp":
        return [_boundary_job("count", d, key, prime=FP, reduce=True)
                for d in LADDER]
    if workload == "count-qq":
        return [_boundary_job("count", d, POOL_SEED, signs=key)
                for d in QQ_LADDER]
    if workload == "enumerate":
        return ([_boundary_job("enumerate", d, POOL_SEED, signs=key)
                 for d in ENUM_QQ]
                + [_boundary_job("enumerate", d, POOL_SEED, signs=key,
                                 prime=FP) for d in ENUM_FP]
                + [Job(f"enumerate-Q-{name}", "enumerate", "conics",
                       ("--x", x, "--y", y), degrees, x, y,
                       shipped=f"{name}.json")
                   for name, degrees, x, y in ENUM_SHIPPED])
    if workload == "census":
        rng = random.Random(f"ccv-census:{key}")
        out = []
        for name, degrees, p in CENSUS:
            options = ("--prime", str(p), "--pairs", str(CENSUS_PAIRS),
                       "--seed", str(rng.randrange(2**31)))
            out.append(Job(f"census-{name}-F{p}", "census", "oracle",
                           options, degrees, "", "", prime=p,
                           shipped=f"{name}.json", pairs=CENSUS_PAIRS))
        for name, degrees, x, y in SCANS:
            out.append(Job(f"scan-{name}-F11", "scan", "conics",
                           ("--x", x, "--y", y, "--prime", "11"), degrees,
                           x, y, prime=11, shipped=f"{name}.json"))
        return out
    raise ValueError(f"unknown workload {workload!r}")
