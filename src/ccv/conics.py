"""The cone of lines through a point, the singular conics through two
points, and the closed-form count.

Restricting an equation G of degree d to the pencil of lines through a
point x of X gives conditions of degrees 1..d on the moving point, the
last being G itself.  They cut out the cone of lines on X through x; its
dimension minus one is the dimension a of the family of lines through x.

A singular conic through x and y on X is a pair of lines <x,p> and <y,p>
inside X, so its vertex p lies on both cones: the conic system is the
union of the pencil conditions at x and at y, at most 2*sum(d) - m of
them.  For a smooth complete intersection in the boundary case
2*sum(d) - c = N the number of solutions is exactly prod(d_i! * (d_i - 1)!).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .ffutil import (DEFAULT_POINT_CAP, check_point_budget,
                     require_line_safe, zero_set)
from .fields import Record
from .linalg import kernel_basis, matrix_rank
from .poly import Polynomial, ProjectivePoint, expand_line_pencil
from .groebner import IdealSummary, ideal_dimension_and_degree
from .solve import projective_rational_solutions
from .variety import (VarietySpec, ClassificationReport, classify_line_family,
                      over_prime, point_on_variety,
                      singular_conic_count_formula, variety_dimension)

__all__ = [
    "pencil_conditions",
    "LinesReport",
    "lines_dimension_report",
    "ConicSystem",
    "conic_system",
    "ConicSolution",
    "solution_from_vertex",
    "line_equations",
    "ConicSearchResult",
    "find_singular_conics",
    "CountResult",
    "count_conics",
    "singular_conic_count_formula",
]


def pencil_conditions(variety: VarietySpec, point: ProjectivePoint) -> tuple:
    """The pencil conditions of every equation at a point of X.

    Zero conditions are dropped and duplicates kept once; neither changes
    the ideal, which cuts out the cone of lines on X through the point.
    """
    return tuple(dict.fromkeys(c for eq in variety.equations
                               for c in expand_line_pencil(eq, point) if c))


@dataclass(frozen=True)
class LinesReport(Record):
    base_point: str
    generators: tuple
    generator_degrees: tuple
    locus_dimension: int
    locus_degree: int | None
    a: int
    family_bound: int
    locus_bound: int
    family_bound_met: bool
    locus_bound_met: bool
    classification: ClassificationReport | None
    caveat: str = ("a is defined at a general point; at a special point the "
                   "observed family can be larger or smaller than the "
                   "general value")


def lines_dimension_report(variety: VarietySpec,
                           point: ProjectivePoint) -> LinesReport:
    """Compare the observed line-family dimension with its lower bounds.

    a = dim(cone) - 1; a = -1 means no line through this point lies on
    the variety.  The guaranteed lower bounds are N - 1 - sum(d) for the
    family and N - sum(d) for the cone.  When the variety's dimension is
    known and a line family exists, the invariants (n, c, a) are fed to
    the classifier.
    """
    if not point_on_variety(variety, point):
        raise ValueError(f"{point} does not lie on {variety.name}")
    gens = pencil_conditions(variety, point)
    summary = ideal_dimension_and_degree(gens)
    N, total = variety.ambient_dim, sum(variety.degrees)
    dim = summary.projective_dimension
    a = dim - 1
    classification = None
    if a >= 0:
        n, _src = variety_dimension(variety)
        if n is not None and n >= 1 and N - n >= 1:
            classification = classify_line_family(
                n, N - n, a,
                delta=variety.secant_defect,
                index=variety.fano_index)
    return LinesReport(
        base_point=str(point),
        generators=gens,
        generator_degrees=tuple(g.degree() for g in gens),
        locus_dimension=dim,
        locus_degree=summary.degree,
        a=a,
        family_bound=N - 1 - total,
        locus_bound=N - total,
        family_bound_met=a >= N - 1 - total,
        locus_bound_met=dim >= N - total,
        classification=classification,
    )


@dataclass(frozen=True)
class ConicSystem(Record):
    """Conditions on a vertex p putting both lines <x,p> and <y,p> on X."""

    x: ProjectivePoint
    y: ProjectivePoint
    generators: tuple
    shared_count: int

    _json_extra = ("generator_degrees",)

    @property
    def generator_degrees(self) -> tuple:
        return tuple(g.degree() for g in self.generators)

    @cached_property
    def summary(self) -> IdealSummary:
        """Dimension and degree of the system, from one grevlex basis
        computed on first use."""
        return ideal_dimension_and_degree(self.generators)


def conic_system(variety: VarietySpec, x: ProjectivePoint,
                 y: ProjectivePoint) -> ConicSystem:
    """The pencil conditions at x followed by those at y, each kept once.

    Every equation is the top condition of both pencils and appears once,
    so there are at most 2*sum(d) - m generators.
    """
    if x == y:
        raise ValueError("need two distinct points")
    for label, pt in (("x", x), ("y", y)):
        if not point_on_variety(variety, pt):
            raise ValueError(f"{label} = {pt} does not lie on {variety.name}")
    gens = tuple(dict.fromkeys(pencil_conditions(variety, x)
                               + pencil_conditions(variety, y)))
    return ConicSystem(x, y, gens, len(variety.equations))


def line_equations(a: ProjectivePoint, b: ProjectivePoint):
    """Canonical linear forms cutting out the line through two points.

    The forms come from the reduced echelon kernel of the 2 x (N+1)
    coordinate matrix, so equal lines give identical form lists.
    """
    if a == b:
        raise ValueError("two coincident points do not span a line")
    if a.field != b.field:
        raise ValueError("points over different fields")
    field = a.field
    vectors = kernel_basis([list(a.coords), list(b.coords)],
                           field.one, field.zero)
    nvars = len(a.coords)
    forms = []
    for vec in vectors:
        forms.append(Polynomial.from_terms(
            {tuple(1 if i == j else 0 for i in range(nvars)): c
             for j, c in enumerate(vec) if c},
            nvars, field))
    return tuple(forms)


@dataclass(frozen=True)
class ConicSolution(Record):
    """One vertex of a singular conic, with its two lines.

    ``degenerate`` is set when the vertex lies on the line through x and y
    (including the vertex being x or y itself): the conic collapses onto a
    line and does not genuinely connect the points.  A line entry is None
    only when the vertex equals that base point.
    """

    vertex: ProjectivePoint
    degenerate: bool
    line_through_x: tuple | None
    line_through_y: tuple | None


def solution_from_vertex(vertex: ProjectivePoint, x: ProjectivePoint,
                   y: ProjectivePoint) -> ConicSolution:
    field = vertex.field
    rank = matrix_rank(
        [list(x.coords), list(y.coords), list(vertex.coords)], field.one)
    return ConicSolution(
        vertex=vertex,
        degenerate=rank <= 2,
        line_through_x=None if vertex == x else line_equations(x, vertex),
        line_through_y=None if vertex == y else line_equations(y, vertex),
    )


@dataclass(frozen=True)
class ConicSearchResult(Record):
    """Outcome of a vertex search.

    status "finite": ``solutions`` is the complete list of field-rational
    vertices (degree still counts all of them over the algebraic closure in
    symbolic mode).  status "infinite": the vertex locus has positive
    dimension and nothing is enumerated.  status "empty": no vertex exists
    over any field extension.
    """

    mode: str
    status: str
    dimension: int | None
    degree: int | None
    solutions: tuple
    notes: tuple = ()


def find_singular_conics(variety: VarietySpec, x: ProjectivePoint,
                         y: ProjectivePoint, prime: int | None = None,
                         cap: int = DEFAULT_POINT_CAP,
                         system: ConicSystem | None = None) -> ConicSearchResult:
    """Find all vertices of singular conics through x and y.

    Symbolic mode (prime None) works over the variety's own field through
    Groebner bases: it reports the system's dimension and degree, and when
    zero-dimensional enumerates every field-rational vertex.  Finite-field
    mode works over F_p (see :func:`over_prime`) and evaluates the symbolic
    system at every point of P^N(F_p); it never touches Groebner machinery,
    so the two modes check each other.  ``system`` is a conic_system
    already built for the variety and points of the chosen mode.
    """
    if prime is None:
        system = system or conic_system(variety, x, y)
        summary = system.summary
        if summary.projective_dimension < 0:
            return ConicSearchResult(
                "symbolic", "empty", -1, None, (),
                notes=("no vertex exists over any extension of the base field",))
        if summary.projective_dimension > 0:
            return ConicSearchResult(
                "symbolic", "infinite", summary.projective_dimension,
                summary.degree, (),
                notes=("the vertex locus has positive dimension; no "
                       "enumeration attempted",))
        if variety.field.is_prime_field:  # the root scan visits P^1(F_p)
            check_point_budget(1, variety.field.p, cap)
        vertices = projective_rational_solutions(system.generators)
        solutions = tuple(solution_from_vertex(v, x, y) for v in vertices)
        note = ("degree counts vertices with multiplicity over the "
                "algebraic closure; the list contains the "
                + ("F_p-rational" if variety.field.is_prime_field
                   else "rational") + " ones")
        return ConicSearchResult("symbolic", "finite", 0, summary.degree,
                                 solutions, notes=(note,))

    variety, x, y = over_prime(variety, prime, x, y)
    require_line_safe(variety.degrees, prime)
    system = system or conic_system(variety, x, y)
    N = variety.ambient_dim
    solutions = tuple(
        solution_from_vertex(ProjectivePoint(pt, variety.field), x, y)
        for pt in zero_set(system.generators, N, prime, cap))
    return ConicSearchResult(
        "finite-field", "finite", None, None, solutions,
        notes=(f"exhaustive scan of P^{N}(F_{prime}); the list is the "
               f"complete F_{prime} zero set of the system",))


@dataclass(frozen=True)
class CountResult(Record):
    """Ideal degree of the conic system against the closed formula.

    ``formula_applicable`` needs a complete intersection (m == c);
    ``equality_case`` is the boundary 2*sum(d) - c = N where the formula
    counts exactly; ``matches_formula`` compares the two when both sides
    mean something (zero-dimensional system, formula applicable).
    """

    system_dimension: int
    ideal_degree: int | None
    formula_value: int
    formula_applicable: bool
    equality_case: bool
    matches_formula: bool | None
    notes: tuple = ()

    rational_solutions = None  # kept so the output stays stable
    _json_extra = ("rational_solutions",)


def count_conics(variety: VarietySpec, x: ProjectivePoint,
                 y: ProjectivePoint,
                 system: ConicSystem | None = None) -> CountResult:
    """Count singular-conic vertices by ideal degree and by the formula.

    ``system`` is a conic_system already built for the same inputs; its
    summary is shared with :func:`find_singular_conics`.
    """
    summary = (system or conic_system(variety, x, y)).summary
    degrees = variety.degrees
    m = len(degrees)
    total = sum(degrees)
    n, _src = variety_dimension(variety)
    c = variety.ambient_dim - n if n is not None and n >= 0 else None
    formula_value = singular_conic_count_formula(degrees)
    applicable = c is not None and m == c
    equality = c is not None and 2 * total - c == variety.ambient_dim
    notes = []
    if not applicable:
        notes.append(
            f"the count formula needs a complete intersection (m == c); "
            f"here m = {m} and c = {c}")
    if c is not None and not equality:
        diff = 2 * total - c - variety.ambient_dim
        if diff > 0:
            notes.append(
                f"system over-determined by {diff} relative to the exact "
                f"boundary 2*sum(d) - c = N; expect no solutions in general")
        else:
            notes.append(
                f"system under-determined by {-diff} relative to the exact "
                f"boundary 2*sum(d) - c = N; expect a positive-dimensional "
                f"solution set")
    matches = None
    if applicable and summary.projective_dimension == 0:
        matches = summary.degree == formula_value
    return CountResult(
        system_dimension=summary.projective_dimension,
        ideal_degree=summary.degree,
        formula_value=formula_value,
        formula_applicable=applicable,
        equality_case=equality,
        matches_formula=matches,
        notes=tuple(notes),
    )
