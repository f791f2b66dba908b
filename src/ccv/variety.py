"""Variety descriptions, numerical connectedness criteria, and the
classification of extremal line families.

A variety is given by homogeneous equations in P^N plus optional flags
(claimed dimension, smoothness, scheme-theoretic cut, secant defect, Fano
index).  The criteria engine turns the numbers (N, m, degrees, codimension)
into verdicts on a fixed list of inequalities; one judge makes every
comparison in exact rational arithmetic and reports the exact values.  The
classifier takes the abstract invariants (n, c, a) of a family of lines
through a general point and reports consistency findings and candidate
varieties, drawn only from fixed extremal lists.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass, replace
from fractions import Fraction
from math import factorial

from .fields import QQ, GF, FpElement, Record, field_from_spec
from .parser import parse_polynomial
from .poly import Polynomial, ProjectivePoint
from .groebner import ideal_dimension_and_degree

__all__ = [
    "VarietySpec",
    "build_variety",
    "load_variety",
    "variety_dimension",
    "point_on_variety",
    "reduce_variety_mod",
    "reduce_point_mod",
    "over_prime",
    "Criterion",
    "CriterionReport",
    "criteria_report",
    "Finding",
    "Candidate",
    "ClassificationReport",
    "classify_line_family",
]


# variety specs --------------------------------------------------------------

@dataclass(frozen=True)
class VarietySpec(Record):
    """A projective variety cut out by homogeneous equations in P^N.

    Equations are stored in decreasing degree order.  The flags are taken on
    faith: nothing here verifies smoothness globally or that the equations
    really cut the variety scheme-theoretically.
    """

    name: str
    ambient_dim: int
    field: object
    equations: tuple
    claimed_dim: int | None = None
    scheme_theoretic: bool = False
    smooth: bool = False
    secant_defect: int | None = None
    fano_index: int | None = None
    notes: tuple = ()

    @property
    def nvars(self) -> int:
        return self.ambient_dim + 1

    @property
    def degrees(self) -> tuple:
        return tuple(eq.degree() for eq in self.equations)


_SPEC_KEYS = {
    "name", "ambient_dim", "field", "equations", "claimed_dim",
    "scheme_theoretic", "smooth", "secant_defect", "fano_index",
}


def build_variety(data: dict) -> VarietySpec:
    """Validate a JSON-shaped dict into a VarietySpec.

    Equations are reordered by decreasing degree (with a note) so that
    degree-based criteria can take prefixes.  A zero equation is an error;
    degree <= 1 equations only draw a warning note since they make the
    variety degenerate, not the computation wrong.
    """
    if not isinstance(data, dict):
        raise ValueError(f"a variety spec must be a JSON object, got {data!r}")
    unknown = set(data) - _SPEC_KEYS
    if unknown:
        raise ValueError(f"unknown keys in variety spec: {sorted(unknown)}")
    if "ambient_dim" not in data or "equations" not in data:
        raise ValueError("variety spec needs 'ambient_dim' and 'equations'")
    ambient = data["ambient_dim"]
    if not isinstance(ambient, int) or isinstance(ambient, bool) or ambient < 1:
        raise ValueError(f"ambient_dim must be a positive integer, got {ambient!r}")
    fld = field_from_spec(data.get("field", "rational"))
    raw_eqs = data["equations"]
    if not isinstance(raw_eqs, list) or not raw_eqs:
        raise ValueError("'equations' must be a nonempty list of strings")
    notes = []
    eqs = []
    for i, text in enumerate(raw_eqs):
        if not isinstance(text, str):
            raise ValueError(f"equation {i} is not a string")
        poly = parse_polynomial(text, ambient + 1, fld)
        if poly.is_zero():
            raise ValueError(f"equation {i} is identically zero")
        if not poly.is_homogeneous():
            raise ValueError(f"equation {i} is not homogeneous: {text!r}")
        eqs.append(poly)
    old_degrees = [eq.degree() for eq in eqs]
    eqs.sort(key=lambda eq: -eq.degree())  # stable, so ties keep their order
    if [eq.degree() for eq in eqs] != old_degrees:
        notes.append("equations reordered by decreasing degree")
    for eq in eqs:
        if eq.degree() <= 1:
            notes.append(
                f"equation {eq} has degree {eq.degree()}: the variety is "
                "degenerate and the degree-based criteria lose meaning")
    claimed = data.get("claimed_dim")
    if claimed is not None:
        if (not isinstance(claimed, int) or isinstance(claimed, bool)
                or not 1 <= claimed <= ambient - 1):
            raise ValueError(
                f"claimed_dim must be an integer in [1, {ambient - 1}], got {claimed!r}")
    for flag in ("scheme_theoretic", "smooth"):
        if not isinstance(data.get(flag, False), bool):
            raise ValueError(f"'{flag}' must be a boolean")
    for opt in ("secant_defect", "fano_index"):
        value = data.get(opt)
        if value is not None and (not isinstance(value, int)
                                  or isinstance(value, bool) or value < 0):
            raise ValueError(f"'{opt}' must be a nonnegative integer")
    name = data.get("name", "variety")
    if not isinstance(name, str) or not name:
        raise ValueError("'name' must be a nonempty string")
    return VarietySpec(
        name=name,
        ambient_dim=ambient,
        field=fld,
        equations=tuple(eqs),
        claimed_dim=claimed,
        scheme_theoretic=data.get("scheme_theoretic", False),
        smooth=data.get("smooth", False),
        secant_defect=data.get("secant_defect"),
        fano_index=data.get("fano_index"),
        notes=tuple(notes),
    )


def load_variety(source) -> VarietySpec:
    """Build a VarietySpec from a dict or a JSON file path."""
    if isinstance(source, dict):
        return build_variety(source)
    with open(source, "r", encoding="utf-8") as fh:
        return build_variety(json.load(fh))


def variety_dimension(variety: VarietySpec):
    """(dimension, source): the claimed dimension if given, else the
    projective dimension of the defining ideal."""
    if variety.claimed_dim is not None:
        return variety.claimed_dim, "claimed"
    return (ideal_dimension_and_degree(variety.equations).projective_dimension,
            "computed")


def point_on_variety(variety: VarietySpec, point: ProjectivePoint) -> bool:
    if point.field != variety.field:
        raise ValueError("point and variety over different fields")
    if len(point.coords) != variety.nvars:
        raise ValueError("point does not live in the variety's ambient space")
    return all(not eq.evaluate(point.coords) for eq in variety.equations)


def reduce_variety_mod(variety: VarietySpec, p: int) -> VarietySpec:
    """The same equations with coefficients reduced modulo p.

    Rejects primes dividing any coefficient denominator and primes that
    kill an equation outright, since either would change the geometry.
    """
    if variety.field != QQ:
        raise ValueError("can only reduce a rational variety modulo p")
    fld = GF(p)
    eqs = []
    for eq in variety.equations:
        terms = {}  # an FpElement only for a nonzero residue
        try:
            for m, c in eq.terms.items():
                if r := fld.residue(c):
                    terms[m] = FpElement(r, p)
        except ZeroDivisionError as exc:
            raise ValueError(f"cannot reduce {eq} modulo {p}: {exc}") from exc
        reduced = Polynomial(eq.nvars, fld, terms)
        if reduced.is_zero():
            raise ValueError(f"equation {eq} vanishes identically modulo {p}")
        eqs.append(reduced)
    return replace(variety, field=fld, equations=tuple(eqs),
                   notes=variety.notes + (f"coefficients reduced modulo {p}",))


def reduce_point_mod(point: ProjectivePoint, p: int) -> ProjectivePoint:
    if point.field != QQ:
        raise ValueError("can only reduce a rational point modulo p")
    fld = GF(p)
    try:
        return ProjectivePoint([fld(c) for c in point.coords], fld)
    except ZeroDivisionError as exc:
        raise ValueError(f"cannot reduce {point} modulo {p}: {exc}") from exc


def over_prime(variety: VarietySpec, p: int, *points) -> tuple:
    """(variety, *points) over F_p.

    A rational variety and its points are reduced modulo p; a variety
    already over F_p passes through with its points; any other field is
    rejected.
    """
    if variety.field == QQ:
        return (reduce_variety_mod(variety, p),
                *(reduce_point_mod(pt, p) for pt in points))
    if variety.field.p != p:
        raise ValueError(f"variety is over F_{variety.field.p}, not F_{p}")
    return (variety, *points)


# numerical criteria ----------------------------------------------------------

@dataclass(frozen=True)
class Criterion(Record):
    """One numerical test.

    ``name`` is a stable semantic key, ``inequality`` the general comparison
    being instantiated, ``left``/``right`` the exact values (strings like
    "5/2"), ``verdict`` one of holds / fails / not applicable, and
    ``conclusion`` what a "holds" verdict would mean.
    """

    name: str
    inequality: str
    verdict: str
    left: str | None = None
    right: str | None = None
    op: str = "<="
    conclusion: str = ""
    notes: tuple = ()

    _json_extra = ("comparison",)

    @property
    def comparison(self) -> str | None:
        if self.left is None or self.right is None:
            return None
        return f"{self.left} {self.op} {self.right}"


@dataclass(frozen=True)
class CriterionReport(Record):
    variety: str
    ambient_dim: int
    num_equations: int
    degrees: tuple
    dimension: int | None
    dimension_source: str | None
    codimension: int | None
    criteria: tuple
    caveat: str


_CAVEAT = ("verdicts use only the stated numbers and flags; the geometric "
           "conclusions additionally require the variety and any chosen "
           "points to be general")

_COMPARISONS = {"<=": operator.le, "==": operator.eq}


def _judge(name: str, inequality: str, conclusion: str, sides,
           op: str = "<=", reason: str | None = None,
           notes: tuple = ()) -> Criterion:
    """The verdict on ``left op right`` for ``sides = (left, right)``,
    compared and rendered exactly; not applicable, with ``reason`` as its
    note, when ``sides`` is None."""
    if sides is None:
        return Criterion(name, inequality, "not applicable",
                         conclusion=conclusion, notes=(reason,))
    left, right = (Fraction(side) for side in sides)
    holds = _COMPARISONS[op](left, right)
    return Criterion(name, inequality, "holds" if holds else "fails",
                     str(left), str(right), op, conclusion, notes)


def singular_conic_count_formula(degrees) -> int:
    """prod(d! * (d-1)!) over the degrees: the singular conics through two
    general points of a smooth complete intersection on the boundary."""
    value = 1
    for d in degrees:
        if d < 1:
            raise ValueError("degrees must be positive")
        value *= factorial(d) * factorial(d - 1)
    return value


def criteria_report(variety: VarietySpec) -> CriterionReport:
    """Evaluate every connectedness criterion on one variety.

    Pure in the inputs: equal specs give equal reports.  Criteria whose
    hypotheses are not met are marked not applicable with the missing
    hypothesis named, never dropped.  The dimension is computed from the
    ideal only when some criterion needs it and no claimed_dim is present;
    the report records which source was used.
    """
    N = variety.ambient_dim
    m = len(variety.equations)
    degrees = variety.degrees
    total = sum(degrees)

    dim_cache: list = []

    def dimension():
        if not dim_cache:
            dim_cache.append(variety_dimension(variety))
        return dim_cache[0][0]

    # (a) two general points joined by a pair of lines meeting at a point
    bound_a = Fraction(N + m, 2)
    singular = _judge(
        "singular-conic-connected", "sum(d) <= (N + m)/2",
        "two general points of the variety are connected by a singular "
        "conic: two lines in the variety meeting at a common point",
        (total, bound_a))

    # (b) smooth conics through two general points
    missing_b = []
    if not variety.smooth:
        missing_b.append("the smooth flag")
    if not variety.scheme_theoretic:
        missing_b.append("the scheme-theoretic flag")
    sides_b = None
    codim = None
    if not missing_b:
        n_b = dimension()
        if n_b is None or n_b < 0:
            missing_b.append("a nonempty variety")
        elif m < N - n_b:
            missing_b.append("at least c equations")
        else:
            codim = N - n_b
            sides_b = (sum(degrees[:codim]), Fraction(N + codim, 2))
    smooth_conic = _judge(
        "smooth-conic-connected", "sum of the c largest d <= (N + c)/2",
        "the variety is conic-connected, through smooth conics as well, "
        "and is covered by lines",
        sides_b, reason=f"missing: {', '.join(missing_b)}")

    # (c) covered by lines, with the dimension bounds for the line family
    notes_c = ()
    if total <= N - 1:
        notes_c = (
            f"the lines through a general point form a family of dimension "
            f">= N - 1 - sum(d) = {N - 1 - total}",
            f"the union of those lines has dimension >= N - sum(d) = "
            f"{N - total}",
        )
    covered = _judge(
        "covered-by-lines", "sum(d) <= N - 1",
        "through every general point there is a line inside the variety",
        (total, N - 1), notes=notes_c)

    # (d) complete intersection version with the dimension on the right
    missing_d = []
    sides_d = None
    if not variety.smooth:
        missing_d.append("the smooth flag")
    else:
        n_d = dimension()
        if n_d is None or n_d < 0:
            missing_d.append("a nonempty variety")
        elif m != N - n_d:
            missing_d.append("m == c (a complete intersection)")
        else:
            sides_d = (total, Fraction(n_d, 2) + N - n_d)
    ci = _judge(
        "ci-conic-connected", "sum(d) <= n/2 + c",
        "a smooth complete intersection in this range is conic-connected",
        sides_d, reason=f"missing: {', '.join(missing_d)}")

    # (e) connectedness of the defining system itself
    few = _judge(
        "few-equations-complete-intersection", "m <= N/2",
        "a smooth variety cut out scheme-theoretically by at most N/2 "
        "equations is a complete intersection",
        (m, Fraction(N, 2)))

    # (f) consistency: the singular-conic bound forces 3m <= N
    sides_f = None
    if singular.verdict == "holds" and degrees and min(degrees) >= 2:
        sides_f = (3 * m, N)
    consistency = _judge(
        "equation-count-consistency", "3m <= N",
        "with every degree at least 2, the singular-conic bound already "
        "forces 3m <= N, so a smooth scheme-theoretic cut this small is a "
        "complete intersection",
        sides_f, reason="applies when the singular-conic criterion holds "
                        "and every degree is at least 2")

    # (g) boundary flags for the singular-conic bound
    notes_g = ()
    if total == bound_a:
        n_g = dimension()
        if n_g is not None and n_g >= 0 and m == N - n_g:
            notes_g = (f"for a smooth complete intersection this boundary "
                       f"case carries exactly prod(d! (d-1)!) = "
                       f"{singular_conic_count_formula(degrees)} "
                       f"singular conics through two general points",)
        else:
            notes_g = ("expect finitely many singular conics through two "
                       "general points",)
    boundary = _judge(
        "boundary-equality", "sum(d) == (N + m)/2",
        "the degrees meet the singular-conic bound exactly; only finitely "
        "many singular conics pass through two general points",
        (total, bound_a), op="==", notes=notes_g)

    sharpness = _judge(
        "boundary-sharpness", "sum(d) == (N + m + 1)/2",
        "the degree sum misses the singular-conic bound by the least "
        "possible margin; such a variety (a smooth cubic hypersurface in "
        "P^4, say) can be conic-connected while carrying no singular conic "
        "through two general points, so the bound is sharp",
        (total, Fraction(N + m + 1, 2)), op="==")

    # Hartshorne range: the smooth-conic bound forces 2c <= n
    sides_h = None
    if smooth_conic.verdict == "holds":
        sides_h = (2 * codim, N - codim)
    hartshorne = _judge(
        "complete-intersection-range", "2c <= n",
        "the smooth-conic bound puts the variety in the range n >= 2c "
        "where the Hartshorne conjecture predicts a complete intersection",
        sides_h, reason="applies when the smooth-conic criterion holds")

    dim_val, dim_src = (dim_cache[0] if dim_cache else (None, None))
    return CriterionReport(
        variety=variety.name,
        ambient_dim=N,
        num_equations=m,
        degrees=degrees,
        dimension=dim_val,
        dimension_source=dim_src,
        codimension=(N - dim_val) if dim_val is not None else None,
        criteria=(singular, smooth_conic, covered, ci, few, consistency,
                  boundary, sharpness, hartshorne),
        caveat=_CAVEAT,
    )


# classification of line families ---------------------------------------------

@dataclass(frozen=True)
class Finding(Record):
    key: str
    status: str   # "info" | "warning" | "inconsistent"
    detail: str


@dataclass(frozen=True)
class Candidate(Record):
    key: str
    name: str
    detail: str


@dataclass(frozen=True)
class ClassificationReport(Record):
    inputs: dict
    findings: tuple
    candidates: tuple
    consistent: bool


# the two varieties that close both the dual-defective and the high-index
# border, by (n, c)
_EXTREMAL = {
    (6, 3): Candidate(
        "grassmannian-lines-p4",
        "Grassmannian of lines in P^4, Pluecker-embedded in P^9",
        "dimension 6, codimension 3, dual defect 2"),
    (10, 5): Candidate(
        "spinor-tenfold",
        "spinor variety of dimension 10 in P^15",
        "dimension 10, codimension 5, dual defect 4"),
}


def _unlisted(key: str, n: int, c: int) -> Finding:
    return Finding(key, "inconsistent",
                   f"no variety in the extremal list has (n, c) = ({n}, {c})")


def classify_line_family(n: int, c: int, a: int,
                         delta: int | None = None,
                         index: int | None = None) -> ClassificationReport:
    """Interpret the invariants of the family of lines through a general point.

    n is the variety's dimension, c its codimension in P^(n+c), and a the
    dimension of the family of lines through a general point.  The optional
    secant defect delta and Fano index feed the high-index rules.  Findings
    flag impossible combinations; candidates name the known varieties
    attaining the extremal values.  Candidates come only from the fixed
    extremal lists, never invented.
    """
    for label, value in (("n", n), ("c", c), ("a", a)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"{label} must be an integer")
    if n < 1 or c < 1:
        raise ValueError("need n >= 1 and c >= 1")
    if a < 0:
        raise ValueError("a < 0 means there is no line family to classify")

    findings = []
    candidates = []
    contact = a >= n - c
    border = 2 * a == n + c - 3
    half = Fraction(n + c - 3, 2)

    if contact:
        findings.append(Finding(
            "contact-locus", "info",
            f"a = {a} >= n - c = {n - c}: every line of the family is a "
            f"contact line, so the variety is not a complete intersection"))
        if 2 * a > n + c - 3:
            findings.append(Finding(
                "family-dimension-bound", "inconsistent",
                f"a = {a} exceeds (n + c - 3)/2 = {half}; no variety "
                f"covered by lines has a family this large once a >= n - c"))
        else:
            findings.append(Finding(
                "family-dimension-bound", "info",
                f"a = {a} respects the bound (n + c - 3)/2 = {half}"))
        if n > 2 * c:
            findings.append(Finding(
                "codimension-conjecture", "info",
                f"n = {n} > 2c = {2 * c}: conjecturally, a variety covered "
                f"by lines with a >= n - c always has n <= 2c, so this "
                f"input sits outside the expected range"))

    if 2 * a >= n + c - 2:
        findings.append(Finding(
            "large-family", "info",
            "a >= (n + c - 2)/2: the cones of lines through two general "
            "points must meet, so the variety is conic-connected"))
        if n < 3 * c:
            findings.append(Finding(
                "large-family-codimension", "inconsistent",
                f"a >= (n + c - 2)/2 forces n >= 3c, but n = {n} < {3 * c}"))

    if border and contact:
        findings.append(Finding(
            "dual-defective-border", "info",
            f"a = (n + c - 3)/2 with a >= n - c: the variety is dual "
            f"defective with dual defect k = c - 1 = {c - 1} and its dual "
            f"has the same dimension"))
        if n <= 2 * c:
            if c == n - 1 and n >= 3:
                candidates.append(Candidate(
                    "segre-line-times-space",
                    f"Segre product of a line and a projective "
                    f"{n - 1}-space in P^{2 * n - 1}",
                    f"dimension {n}, codimension {n - 1}, dual defect "
                    f"{n - 2}"))
            elif (n, c) in _EXTREMAL:
                candidates.append(_EXTREMAL[n, c])
            else:
                findings.append(_unlisted("dual-defective-border", n, c))

    if border and not contact and n <= 2 * c and c <= 2:
        candidates.append(Candidate(
            "quadric-surface",
            "smooth quadric surface in P^3",
            "dimension 2, codimension 1; the one extremal case with "
            "a < n - c, outside the contact-line hypothesis"))

    if index is not None:
        if index == a + 2:
            findings.append(Finding(
                "fano-index-consistency", "info",
                f"index {index} equals a + 2, as for a prime Fano variety "
                f"covered by lines"))
        else:
            findings.append(Finding(
                "fano-index-consistency", "warning",
                f"index {index} differs from a + 2 = {a + 2}; for a prime "
                f"Fano variety covered by lines the index is a + 2"))

    if index is not None and delta is not None and 2 * index >= n + delta:
        findings.append(Finding(
            "high-index", "info",
            f"index {index} >= (n + delta)/2 = {Fraction(n + delta, 2)}: "
            f"only quadrics and a short list of codimension >= 3 varieties "
            f"reach this"))
        if c == 1:
            candidates.append(Candidate(
                "quadric-hypersurface",
                f"smooth quadric hypersurface in P^{n + 1}",
                f"dimension {n}, codimension 1, index {n}"))
        elif c == 2:
            findings.append(Finding(
                "high-index", "inconsistent",
                "no non-degenerate variety of codimension 2 reaches the "
                "high-index range"))
        elif n > 2 * c:
            findings.append(Finding(
                "high-index-codimension", "inconsistent",
                f"the high-index range in codimension >= 3 forces n <= 2c, "
                f"but n = {n} > {2 * c}"))
        else:
            findings.append(Finding(
                "high-index-entry-locus", "info",
                "in the high-index range, a conic-connected variety has "
                "quadric entry loci (it is a local quadratic entry locus "
                "variety)"))
            if n == 2 * c:
                findings.append(Finding(
                    "high-index-border", "info",
                    "n = 2c forces the border value a = (n + c - 3)/2; only "
                    "two varieties close this case"))
                if (n, c) in _EXTREMAL:
                    candidates.append(_EXTREMAL[n, c])
                else:
                    findings.append(_unlisted("high-index-border", n, c))

    unique = {}  # by key, first occurrence first
    for cand in candidates:
        unique.setdefault(cand.key, cand)
    return ClassificationReport(
        inputs={"n": n, "c": c, "a": a, "delta": delta, "index": index},
        findings=tuple(findings),
        candidates=tuple(unique.values()),
        consistent=all(f.status != "inconsistent" for f in findings),
    )
