"""The locus swept by lines on a variety through a fixed point.

For each defining equation G of degree d, restricting G to the pencil of
lines through a point x of X produces d conditions on the moving point, of
degrees 1..d (the degree-d one being G itself).  The common zero set of all
these conditions is the locus of the lines on X through x: a cone with
vertex x, living in the ambient projective space.  Its dimension, minus one
for the cone vertex, is the dimension a of the family of lines itself.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fields import Record
from .poly import ProjectivePoint, expand_line_pencil
from .groebner import IdealSummary, ideal_dimension_and_degree
from .variety import (VarietySpec, ClassificationReport, classify_line_family,
                      point_on_variety, variety_dimension)

__all__ = ["LineLocus", "line_locus", "LinesReport", "lines_dimension_report"]

_POINT_CAVEAT = ("a is defined at a general point; at a special point the "
                 "observed family can be larger or smaller than the general "
                 "value")


@dataclass(frozen=True)
class LineLocus:
    """Ideal of the cone of lines on X through base_point, in ambient
    coordinates.  Generators hold each defining equation exactly once and
    number at most sum(d_i)."""

    base_point: ProjectivePoint
    ideal_generators: tuple
    summary: IdealSummary


def line_locus(variety: VarietySpec, point: ProjectivePoint) -> LineLocus:
    """Pencil conditions for every equation at a point of X, summarized.

    Zero polynomials are dropped and exact duplicates kept once; both
    operations leave the ideal unchanged.
    """
    if not point_on_variety(variety, point):
        raise ValueError(f"{point} does not lie on {variety.name}")
    gens = tuple(dict.fromkeys(c for eq in variety.equations
                               for c in expand_line_pencil(eq, point) if c))
    return LineLocus(point, gens, ideal_dimension_and_degree(gens))


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
    caveat: str


def lines_dimension_report(locus: LineLocus, variety: VarietySpec) -> LinesReport:
    """Compare the observed line-family dimension with its lower bounds.

    a = dim(locus) - 1, the locus being a cone with vertex at the base
    point; a = -1 means no line through this point lies on the variety.
    The guaranteed lower bounds are N - 1 - sum(d) for the family and
    N - sum(d) for the locus.  When the variety's dimension is known and a
    line family exists, the invariants (n, c, a) are fed to the classifier.
    """
    N = variety.ambient_dim
    total = sum(variety.degrees)
    dim = locus.summary.projective_dimension
    a = dim - 1
    family_bound = N - 1 - total
    locus_bound = N - total
    classification = None
    if a >= 0:
        n, _src = variety_dimension(variety)
        if n is not None and n >= 1 and N - n >= 1:
            classification = classify_line_family(
                n, N - n, a,
                delta=variety.secant_defect,
                index=variety.fano_index)
    return LinesReport(
        base_point=str(locus.base_point),
        generators=locus.ideal_generators,
        generator_degrees=tuple(g.degree() for g in locus.ideal_generators),
        locus_dimension=dim,
        locus_degree=locus.summary.degree,
        a=a,
        family_bound=family_bound,
        locus_bound=locus_bound,
        family_bound_met=a >= family_bound,
        locus_bound_met=dim >= locus_bound,
        classification=classification,
        caveat=_POINT_CAVEAT,
    )
