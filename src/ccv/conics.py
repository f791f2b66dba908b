"""Singular conics through two points: system construction, solving,
and the closed-form count.

A singular conic through x and y on X is a pair of lines <x,p> and <y,p>
inside X meeting at a vertex p.  Restricting each defining equation to the
two pencils of lines gives polynomial conditions on p: degrees 1..d_i from
the pencil at x and 1..d_i-1 from the pencil at y (the degree-d_i condition
is the equation itself and is shared), so at most 2*sum(d) - m generators.
For a smooth complete intersection in the boundary case 2*sum(d) - c = N
the number of solutions is exactly prod(d_i! * (d_i - 1)!).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import factorial

from .ffutil import DEFAULT_POINT_CAP, PrimeTooSmall, zero_set
from .linalg import kernel_basis, matrix_rank
from .poly import Polynomial, ProjectivePoint, expand_line_pencil
from .groebner import IdealSummary, groebner_basis, ideal_dimension_and_degree
from .solve import projective_rational_solutions
from .variety import (VarietySpec, over_prime, point_on_variety,
                      variety_dimension)

__all__ = [
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


@dataclass(frozen=True)
class ConicSystem:
    """Conditions on a vertex p putting both lines <x,p> and <y,p> on X."""

    x: ProjectivePoint
    y: ProjectivePoint
    generators: tuple
    shared_count: int

    @cached_property
    def summary(self) -> IdealSummary:
        """Dimension and degree of the system, from one grevlex basis
        computed on first use."""
        return ideal_dimension_and_degree(
            self.generators, basis=groebner_basis(self.generators))

    def to_json(self) -> dict:
        return {
            "x": str(self.x),
            "y": str(self.y),
            "generators": [str(g) for g in self.generators],
            "generator_degrees": [g.degree() for g in self.generators],
            "shared_count": self.shared_count,
        }


def conic_system(variety: VarietySpec, x: ProjectivePoint,
                 y: ProjectivePoint) -> ConicSystem:
    """Merge the pencil conditions at x and at y.

    Each equation appears exactly once (as the top condition of its pencil
    at x; the copy from the pencil at y is dropped), and zero or duplicate
    conditions are dropped, so there are at most 2*sum(d) - m generators.
    """
    if x == y:
        raise ValueError("need two distinct points")
    for label, pt in (("x", x), ("y", y)):
        if not point_on_variety(variety, pt):
            raise ValueError(f"{label} = {pt} does not lie on {variety.name}")
    gens = []
    seen = set()

    def push(poly):
        if not poly.is_zero() and poly not in seen:
            seen.add(poly)
            gens.append(poly)

    for eq in variety.equations:
        for cond in expand_line_pencil(eq, x):
            push(cond)
    for eq in variety.equations:
        for cond in expand_line_pencil(eq, y)[:-1]:
            push(cond)
    return ConicSystem(x, y, tuple(gens), len(variety.equations))


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
class ConicSolution:
    """One vertex of a singular conic, with its two lines.

    ``degenerate`` is set when the vertex lies on the line through x and y
    (including the vertex being x or y itself): the conic collapses onto a
    line and does not genuinely connect the points.  A line entry is None
    only when the vertex equals that base point.
    """

    vertex: ProjectivePoint
    x: ProjectivePoint
    y: ProjectivePoint
    degenerate: bool
    line_x: tuple | None
    line_y: tuple | None

    def to_json(self) -> dict:
        return {
            "vertex": str(self.vertex),
            "degenerate": self.degenerate,
            "line_through_x": ([str(f) for f in self.line_x]
                               if self.line_x is not None else None),
            "line_through_y": ([str(f) for f in self.line_y]
                               if self.line_y is not None else None),
        }


def solution_from_vertex(vertex: ProjectivePoint, x: ProjectivePoint,
                   y: ProjectivePoint) -> ConicSolution:
    field = vertex.field
    rank = matrix_rank(
        [list(x.coords), list(y.coords), list(vertex.coords)], field.one)
    return ConicSolution(
        vertex=vertex,
        x=x,
        y=y,
        degenerate=rank <= 2,
        line_x=None if vertex == x else line_equations(x, vertex),
        line_y=None if vertex == y else line_equations(y, vertex),
    )


@dataclass(frozen=True)
class ConicSearchResult:
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

    def to_json(self) -> dict:
        return {
            "mode": self.mode,
            "status": self.status,
            "dimension": self.dimension,
            "degree": self.degree,
            "solutions": [s.to_json() for s in self.solutions],
            "notes": list(self.notes),
        }


def find_singular_conics(variety: VarietySpec, x: ProjectivePoint,
                         y: ProjectivePoint, prime: int | None = None,
                         cap: int | None = DEFAULT_POINT_CAP,
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
        vertices = projective_rational_solutions(system.generators)
        solutions = tuple(solution_from_vertex(v, x, y) for v in vertices)
        note = ("degree counts vertices with multiplicity over the "
                "algebraic closure; the list contains the "
                + ("F_p-rational" if variety.field.is_prime_field
                   else "rational") + " ones")
        return ConicSearchResult("symbolic", "finite", 0, summary.degree,
                                 solutions, notes=(note,))

    variety, x, y = over_prime(variety, prime, x, y)
    top = max(variety.degrees)
    if prime < top:
        raise PrimeTooSmall(
            f"prime {prime} is below the top degree {top}; vanishing on "
            f"all F_{prime} points of a line would not force the line onto "
            f"the variety")
    system = system or conic_system(variety, x, y)
    N = variety.ambient_dim
    solutions = tuple(
        solution_from_vertex(ProjectivePoint(pt, variety.field), x, y)
        for pt in zero_set(system.generators, N, prime, cap))
    return ConicSearchResult(
        "finite-field", "finite", None, None, solutions,
        notes=(f"exhaustive scan of P^{N}(F_{prime}); the list is the "
               f"complete F_{prime} zero set of the system",))


def singular_conic_count_formula(degrees) -> int:
    """prod(d! * (d-1)!) over the degrees."""
    value = 1
    for d in degrees:
        if d < 1:
            raise ValueError("degrees must be positive")
        value *= factorial(d) * factorial(d - 1)
    return value


@dataclass(frozen=True)
class CountResult:
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

    def to_json(self) -> dict:
        return {
            "system_dimension": self.system_dimension,
            "ideal_degree": self.ideal_degree,
            "formula_value": self.formula_value,
            "formula_applicable": self.formula_applicable,
            "equality_case": self.equality_case,
            "matches_formula": self.matches_formula,
            "rational_solutions": None,  # kept so the output stays stable
            "notes": list(self.notes),
        }


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
