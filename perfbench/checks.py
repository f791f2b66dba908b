"""Exact checks of ccv's answers that share no code with ccv.

Equations are parsed from the spec text by the small parser below and
evaluated with Fraction arithmetic (reduced mod p at the end over F_p);
the count formula comes from :mod:`specs`.  Each check returns a list of
problems, empty when the answer is right.
"""

from __future__ import annotations

import hashlib
import json
import re
from fractions import Fraction

import specs

_TERM = re.compile(r"([+-]?)([^+-]+)")
RESULT_KEYS = ("count", "search", "census")


def parse_equation(text: str, nvars: int) -> dict:
    """{exponent tuple: Fraction} from text such as '3*x0*x1 - x2^2'."""
    terms: dict = {}
    for sign, body in _TERM.findall(text.replace(" ", "")):
        coeff = Fraction(-1 if sign == "-" else 1)
        mono = [0] * nvars
        for factor in body.split("*"):
            if factor.startswith("x"):
                var, _, exp = factor[1:].partition("^")
                mono[int(var)] += int(exp or 1)
            else:
                coeff *= Fraction(factor)
        key = tuple(mono)
        terms[key] = terms.get(key, 0) + coeff
    return {m: c for m, c in terms.items() if c}


def spec_equations(spec: dict) -> list:
    """The equations of a variety-spec dict, parsed."""
    nvars = spec["ambient_dim"] + 1
    return [parse_equation(e, nvars) for e in spec["equations"]]


def parse_point(text: str) -> list:
    """Coordinates of '[1:0:3/2]' or '1,0,3/2' as Fractions."""
    return [Fraction(c) for c in re.split(r"[:,]", text.strip("[] "))]


def _canonical(point, p):
    """Scale so the first nonzero coordinate is 1 (mod p when p is set)."""
    lead = next(c for c in point if (c % p if p else c))
    if p is None:
        return tuple(c / lead for c in point)
    inv = pow(int(lead) % p, -1, p)
    return tuple(int(c) * inv % p for c in point)


def _line_on(equations, a, b, p) -> bool:
    """Whether every equation vanishes on the line through a and b.

    A degree-d form on a line vanishes identically once it vanishes at
    d + 1 distinct points; a + t*b for t = 0..d are distinct because
    a != b projectively (and p > d over F_p).
    """
    d = max(max(map(sum, eq)) for eq in equations)
    for t in range(d + 1):
        pt = [ai + t * bi for ai, bi in zip(a, b)]
        if any(specs.evaluate(eq, pt, p) for eq in equations):
            return False
    return True


def check_count(job, count) -> list:
    if count is None:
        return ["no count in the output"]
    formula = specs.formula_value(job.degrees)
    problems = []
    if count["system_dimension"] != 0:
        problems.append(f"system dimension {count['system_dimension']}, "
                        f"expected 0")
    if count["ideal_degree"] != formula:
        problems.append(f"ideal degree {count['ideal_degree']}, "
                        f"expected {formula}")
    if count["formula_value"] != formula:
        problems.append(f"formula value {count['formula_value']}, "
                        f"expected {formula}")
    if count["matches_formula"] is not True:
        problems.append("matches_formula is not true")
    return problems


def check_search(job, search, equations) -> list:
    """Status, vertex count and every listed vertex with its two lines."""
    if search is None:
        return ["no search in the output"]
    formula = specs.formula_value(job.degrees)
    p = job.prime
    problems = []
    if search["status"] != "finite":
        return [f"status {search['status']!r}, expected 'finite'"]
    if job.kind == "enumerate" and search["degree"] != formula:
        problems.append(f"degree {search['degree']}, expected {formula}")
    solutions = search["solutions"]
    if len(solutions) > formula:
        problems.append(f"{len(solutions)} vertices listed, more than "
                        f"the degree {formula}")
    x = parse_point(job.x)
    y = parse_point(job.y)
    seen = set()
    for sol in solutions:
        vertex = parse_point(sol["vertex"])
        canon = _canonical(vertex, p)
        if canon in seen:
            problems.append(f"vertex {sol['vertex']} listed twice")
        seen.add(canon)
        for base, key in ((x, "line_through_x"), (y, "line_through_y")):
            if canon == _canonical(base, p):
                if sol[key] is not None:
                    problems.append(f"{key} given for a vertex equal to "
                                    f"its base point")
            elif sol[key] is None:
                problems.append(f"{key} missing for {sol['vertex']}")
            elif not _line_on(equations, base, vertex, p):
                problems.append(f"{key} of vertex {sol['vertex']} is not "
                                f"on X")
    return problems


def check_census(job, census) -> list:
    if census is None:
        return ["no census in the output"]
    problems = []
    if census["pairs_tested"] != job.pairs:
        problems.append(f"{census['pairs_tested']} pairs tested, "
                        f"expected {job.pairs}")
    total = sum(h["pairs"] for h in census["histogram"])
    if total != job.pairs:
        problems.append(f"histogram sums to {total}, expected {job.pairs}")
    return problems


def check(job, doc: dict, equations) -> list:
    """Every check that applies to the job's kind."""
    if job.kind == "census":
        return check_census(job, doc.get("census"))
    problems = check_count(job, doc.get("count"))
    if job.kind in ("enumerate", "scan"):
        problems += check_search(job, doc.get("search"), equations)
    return problems


def digest(doc: dict) -> str:
    """Hash of the result fields only, so new keys elsewhere do not count."""
    result = {k: doc[k] for k in RESULT_KEYS if k in doc}
    text = json.dumps(result, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]
