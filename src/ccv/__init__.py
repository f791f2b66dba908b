"""Exact toolkit for conic-connectedness of projective varieties.

Check numerical criteria on the degrees of the defining equations, build
and solve the line-locus and singular-conic systems through chosen
points, count singular conics against the closed formula
prod(d! (d-1)!), classify line-family dimensions, and cross-check
everything with a brute-force finite-field oracle.
"""

from .fields import QQ, GF, FieldMismatchError, FpElement, field_from_spec
from .parser import ParseError, parse_polynomial
from .poly import (Polynomial, ProjectivePoint, expand_line_pencil,
                   grevlex_key, lex_key)
from .groebner import (IdealSummary, groebner_basis,
                       ideal_dimension_and_degree, normal_form,
                       s_polynomial, verify_groebner)
from .solve import projective_rational_solutions, rational_roots
from .variety import (Candidate, ClassificationReport, Criterion,
                      CriterionReport, Finding, VarietySpec, build_variety,
                      classify_line_family, criteria_report, load_variety,
                      over_prime, point_on_variety, reduce_point_mod,
                      reduce_variety_mod, variety_dimension)
from .conics import (ConicSearchResult, ConicSolution, ConicSystem,
                     CountResult, LinesReport, conic_system, count_conics,
                     find_singular_conics, line_equations,
                     lines_dimension_report, pencil_conditions,
                     singular_conic_count_formula, solution_from_vertex)
from .oracle import (Lcg64, OracleRefusal, OracleStats, PointCapExceeded,
                     PrimeTooSmall, brute_line_locus, brute_singular_conics,
                     cc_census, line_in_variety, variety_points)
from .ffutil import DEFAULT_POINT_CAP

__version__ = "0.1.0"

__all__ = [
    "QQ", "GF", "FieldMismatchError", "FpElement", "field_from_spec",
    "ParseError", "parse_polynomial",
    "Polynomial", "ProjectivePoint",
    "expand_line_pencil", "grevlex_key", "lex_key",
    "IdealSummary", "groebner_basis",
    "ideal_dimension_and_degree", "normal_form", "s_polynomial",
    "verify_groebner",
    "projective_rational_solutions", "rational_roots",
    "Candidate", "ClassificationReport", "Criterion", "CriterionReport",
    "Finding", "VarietySpec", "build_variety", "classify_line_family",
    "criteria_report", "load_variety", "over_prime",
    "point_on_variety", "reduce_point_mod", "reduce_variety_mod",
    "variety_dimension",
    "LinesReport", "lines_dimension_report", "pencil_conditions",
    "ConicSearchResult", "ConicSolution", "ConicSystem", "CountResult",
    "conic_system", "count_conics", "find_singular_conics",
    "line_equations", "singular_conic_count_formula",
    "solution_from_vertex",
    "Lcg64", "OracleRefusal", "OracleStats", "PointCapExceeded",
    "PrimeTooSmall", "brute_line_locus",
    "brute_singular_conics", "cc_census", "line_in_variety",
    "variety_points",
    "DEFAULT_POINT_CAP",
    "__version__",
]
