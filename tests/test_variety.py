"""Variety specs, the criteria engine, and the line-family classifier."""

import json
import time
from fractions import Fraction

import pytest

from ccv import (GF, QQ, ProjectivePoint, build_variety, classify_line_family,
                 criteria_report, load_variety,
                 over_prime, parse_polynomial, point_on_variety,
                 reduce_point_mod, reduce_variety_mod, variety_dimension)
from ccv.variety import VarietySpec

from conftest import VARIETIES, qpt


# building and loading specs

def test_load_from_dict_path_and_text():
    data = {"ambient_dim": 3, "equations": ["x0*x3 - x1*x2"]}
    from_dict = load_variety(data)
    from_text = load_variety(json.dumps(data))
    from_path = load_variety(VARIETIES / "quadric_p3.json")
    assert from_dict.equations == from_text.equations == from_path.equations
    assert from_dict.name == "variety"  # default
    assert from_path.name == "quadric-surface"


def test_rejects_malformed_specs():
    good = {"ambient_dim": 3, "equations": ["x0*x3 - x1*x2"]}
    bad = [
        ({**good, "colour": "blue"}, "unknown keys"),
        ({"equations": ["x0"]}, "needs"),
        ({"ambient_dim": 0, "equations": ["x0"]}, "positive integer"),
        ({"ambient_dim": True, "equations": ["x0"]}, "positive integer"),
        ({**good, "equations": []}, "nonempty list"),
        ({**good, "equations": [7]}, "not a string"),
        ({**good, "equations": ["x0 - x0"]}, "identically zero"),
        ({**good, "equations": ["x0^2 - x1"]}, "not homogeneous"),
        ({**good, "claimed_dim": 3}, "claimed_dim"),
        ({**good, "claimed_dim": 0}, "claimed_dim"),
        ({**good, "claimed_dim": True}, "claimed_dim"),
        ({**good, "smooth": 1}, "boolean"),
        ({**good, "secant_defect": -1}, "nonnegative"),
        ({**good, "fano_index": False}, "nonnegative"),
        ({**good, "name": ""}, "name"),
        (3, "JSON object"),
        (None, "JSON object"),
        ({**good, "field": {"prime": [5]}}, "integer"),
    ]
    for data, fragment in bad:
        with pytest.raises(ValueError, match=fragment):
            build_variety(data)


def test_equations_sorted_by_decreasing_degree_with_note():
    spec = build_variety({
        "ambient_dim": 2,
        "equations": ["x0*x1", "x0^3 - x1^3"],
    })
    assert spec.degrees == (3, 2)
    assert "equations reordered by decreasing degree" in spec.notes


def test_degree_one_equation_draws_a_warning():
    spec = build_variety({"ambient_dim": 3, "equations": ["x0 + x1"]})
    assert any("degree 1" in note for note in spec.notes)


def test_to_json_round_trip(quadric):
    data = quadric.to_json()
    rebuilt = build_variety({k: v for k, v in data.items() if k != "notes"})
    assert rebuilt == VarietySpec(**{**quadric.__dict__, "notes": rebuilt.notes})
    assert rebuilt.equations == quadric.equations
    assert rebuilt.field == quadric.field


def test_dimension_claimed_versus_computed(quadric):
    assert variety_dimension(quadric) == (2, "claimed")
    cubic_curve = build_variety({"ambient_dim": 3, "equations": [
        "x0*x2 - x1^2", "x0*x3 - x1*x2", "x1*x3 - x2^2"]})
    assert variety_dimension(cubic_curve) == (1, "computed")


def test_point_membership(quadric):
    assert point_on_variety(quadric, qpt(1, 0, 0, 0))
    assert point_on_variety(quadric, qpt(1, 2, 3, 6))
    assert not point_on_variety(quadric, qpt(1, 1, 1, 0))
    with pytest.raises(ValueError, match="different fields"):
        point_on_variety(quadric, qpt(1, 0, 0, 0, field=GF(5)))
    with pytest.raises(ValueError, match="ambient"):
        point_on_variety(quadric, qpt(1, 0, 0))


def test_reduction_mod_p(quadric):
    red = reduce_variety_mod(quadric, 5)
    assert red.field == GF(5)
    assert [str(eq) for eq in red.equations] == ["4*x1*x2 + x0*x3"]
    assert "coefficients reduced modulo 5" in red.notes
    assert red.claimed_dim == quadric.claimed_dim
    with pytest.raises(ValueError, match="rational variety"):
        reduce_variety_mod(red, 5)


def test_reduction_killing_an_equation_is_refused():
    spec = build_variety({"ambient_dim": 1, "equations": ["5*x0^2"]})
    with pytest.raises(ValueError, match="vanishes identically modulo 5"):
        reduce_variety_mod(spec, 5)


def test_reduction_with_denominator_clash_is_refused():
    fifth = parse_polynomial("x0^2", 2) * Fraction(1, 5)
    spec = VarietySpec(name="scaled", ambient_dim=1, field=QQ,
                       equations=(fifth,))
    with pytest.raises(ValueError, match="cannot reduce"):
        reduce_variety_mod(spec, 5)


def test_point_reduction():
    assert reduce_point_mod(qpt(2, 3), 5) == qpt(1, 4, field=GF(5))
    with pytest.raises(ValueError, match="cannot reduce"):
        reduce_point_mod(ProjectivePoint([1, Fraction(1, 5)], QQ), 5)
    with pytest.raises(ValueError, match="rational point"):
        reduce_point_mod(qpt(1, 1, field=GF(5)), 5)


def test_over_prime_reduces_passes_through_or_rejects(quadric):
    red, x = over_prime(quadric, 5, qpt(2, 0, 0, 0))
    assert red == reduce_variety_mod(quadric, 5)
    assert x == qpt(1, 0, 0, 0, field=GF(5))
    assert over_prime(red, 5, x) == (red, x)
    assert over_prime(red, 5) == (red,)
    with pytest.raises(ValueError, match="variety is over F_5, not F_7"):
        over_prime(red, 7, x)


# the criteria engine

CRITERION_NAMES = (
    "singular-conic-connected",
    "smooth-conic-connected",
    "covered-by-lines",
    "ci-conic-connected",
    "few-equations-complete-intersection",
    "equation-count-consistency",
    "boundary-equality",
    "boundary-sharpness",
    "complete-intersection-range",
)


def by_name(report):
    return {c.name: c for c in report.criteria}


def test_every_criterion_always_reported(quadric, fermat4, two_quadrics):
    for variety in (quadric, fermat4, two_quadrics):
        report = criteria_report(variety)
        assert tuple(c.name for c in report.criteria) == CRITERION_NAMES
        assert all(c.verdict in ("holds", "fails", "not applicable")
                   for c in report.criteria)


def test_quadric_verdicts(quadric):
    report = criteria_report(quadric)
    crit = by_name(report)
    assert crit["singular-conic-connected"].verdict == "holds"
    assert crit["singular-conic-connected"].comparison == "2 <= 2"
    assert crit["smooth-conic-connected"].verdict == "holds"
    assert crit["covered-by-lines"].verdict == "holds"
    assert crit["ci-conic-connected"].verdict == "holds"
    assert crit["few-equations-complete-intersection"].comparison == "1 <= 3/2"
    assert crit["equation-count-consistency"].verdict == "holds"
    assert crit["boundary-equality"].verdict == "holds"
    assert any("prod(d! (d-1)!) = 2" in note
               for note in crit["boundary-equality"].notes)
    assert crit["boundary-sharpness"].verdict == "fails"
    assert crit["complete-intersection-range"].verdict == "holds"
    assert (report.dimension, report.dimension_source) == (2, "claimed")
    assert report.codimension == 1


def test_fermat_quartic_space_verdicts(fermat4):
    crit = by_name(criteria_report(fermat4))
    assert crit["singular-conic-connected"].verdict == "fails"
    assert crit["singular-conic-connected"].comparison == "3 <= 5/2"
    assert crit["smooth-conic-connected"].verdict == "fails"
    assert crit["covered-by-lines"].verdict == "holds"
    assert any("family of dimension >= N - 1 - sum(d) = 0" in note
               for note in crit["covered-by-lines"].notes)
    assert crit["ci-conic-connected"].verdict == "fails"
    assert crit["equation-count-consistency"].verdict == "not applicable"
    assert crit["boundary-equality"].verdict == "fails"
    assert crit["boundary-sharpness"].verdict == "holds"
    assert crit["boundary-sharpness"].comparison == "3 == 3"
    assert crit["complete-intersection-range"].verdict == "not applicable"


def test_two_quadrics_verdicts(two_quadrics):
    crit = by_name(criteria_report(two_quadrics))
    for name in CRITERION_NAMES:
        if name == "boundary-sharpness":
            assert crit[name].verdict == "fails"
        else:
            assert crit[name].verdict == "holds", name
    assert crit["equation-count-consistency"].comparison == "6 <= 6"
    assert any("prod(d! (d-1)!) = 4" in note
               for note in crit["boundary-equality"].notes)


def test_not_applicable_names_missing_hypotheses():
    spec = build_variety({"ambient_dim": 4, "equations": [
        "x0^3 + x1^3 + x2^3 + x3^3 + x4^3"]})
    crit = by_name(criteria_report(spec))
    notes_b = crit["smooth-conic-connected"].notes
    assert any("smooth flag" in n and "scheme-theoretic flag" in n
               for n in notes_b)
    assert crit["ci-conic-connected"].verdict == "not applicable"


def test_dimension_computed_only_on_demand():
    # no flag set and no boundary hit: nothing needs the dimension
    spec = build_variety({"ambient_dim": 4, "equations": [
        "x0^3 + x1^3 + x2^3 + x3^3 + x4^3"]})
    report = criteria_report(spec)
    assert report.dimension is None
    assert report.dimension_source is None
    assert report.codimension is None


def test_dimension_of_a_large_quadric_is_computed_quickly():
    # a smooth quadric in P^27 with no claimed dimension
    equation = " + ".join(f"x{2 * i}*x{2 * i + 1}" for i in range(14))
    spec = build_variety({"ambient_dim": 27, "equations": [equation],
                          "smooth": True, "scheme_theoretic": True})
    t0 = time.perf_counter()
    report = criteria_report(spec)
    elapsed = time.perf_counter() - t0
    assert (report.dimension, report.dimension_source) == (26, "computed")
    assert report.codimension == 1
    assert elapsed < 2.0, f"took {elapsed:.2f} s"


def test_degree_one_equations_disable_count_consistency():
    # three hyperplanes: the singular-conic bound holds but (f) needs
    # every degree >= 2
    spec = build_variety({"ambient_dim": 9, "equations": ["x0", "x1", "x2"]})
    crit = by_name(criteria_report(spec))
    assert crit["singular-conic-connected"].verdict == "holds"
    assert crit["equation-count-consistency"].verdict == "not applicable"
    assert any("degree is at least 2" in n
               for n in crit["equation-count-consistency"].notes)


def test_reports_are_pure(quadric):
    assert criteria_report(quadric) == criteria_report(quadric)


def test_singular_conic_bound_implies_covered_by_lines():
    # with every degree >= 2, sum(d) <= (N + m)/2 forces sum(d) <= N - 1
    import random
    rng = random.Random(7)
    for _ in range(60):
        m = rng.randint(1, 4)
        degs = [rng.randint(2, 4) for _ in range(m)]
        N = rng.randint(max(3, m), 14)
        spec = build_variety({
            "ambient_dim": N,
            "equations": [f"x{i}^{d}" for i, d in enumerate(degs)],
        })
        crit = by_name(criteria_report(spec))
        if crit["singular-conic-connected"].verdict == "holds":
            assert crit["covered-by-lines"].verdict == "holds"


def test_report_serializes(quadric):
    blob = json.dumps(criteria_report(quadric).to_json(), sort_keys=True)
    assert json.loads(blob)["variety"] == "quadric-surface"


# the line-family classifier

CANDIDATE_KEYS = {
    "segre-line-times-space",
    "grassmannian-lines-p4",
    "spinor-tenfold",
    "quadric-surface",
    "quadric-hypersurface",
}


def test_classifier_rejects_bad_inputs():
    for args in ((0, 1, 0), (1, 0, 0), (1, 1, -1)):
        with pytest.raises(ValueError):
            classify_line_family(*args)
    with pytest.raises(ValueError, match="integer"):
        classify_line_family(True, 1, 0)
    with pytest.raises(ValueError, match="integer"):
        classify_line_family(3, 1, Fraction(1, 2))


def test_grassmannian_of_lines_case():
    report = classify_line_family(6, 3, 3)
    keys = {f.key: f for f in report.findings}
    assert keys["contact-locus"].status == "info"
    assert keys["family-dimension-bound"].status == "info"
    assert "dual defect k = c - 1 = 2" in keys["dual-defective-border"].detail
    assert [c.key for c in report.candidates] == ["grassmannian-lines-p4"]
    assert report.consistent


def test_spinor_tenfold_case():
    report = classify_line_family(10, 5, 6)
    assert [c.key for c in report.candidates] == ["spinor-tenfold"]
    assert report.consistent


def test_segre_product_case():
    report = classify_line_family(3, 2, 1)
    assert [c.key for c in report.candidates] == ["segre-line-times-space"]
    assert "dual defect 1" in report.candidates[0].detail
    assert report.consistent


def test_border_without_contact_is_the_quadric_surface():
    report = classify_line_family(2, 1, 0)
    assert [c.key for c in report.candidates] == ["quadric-surface"]
    assert not any(f.key == "contact-locus" for f in report.findings)
    assert report.consistent


def test_quadric_hypersurface_from_high_index():
    report = classify_line_family(3, 1, 1, delta=3, index=3)
    assert [c.key for c in report.candidates] == ["quadric-hypersurface"]
    keys = {f.key: f for f in report.findings}
    assert keys["fano-index-consistency"].status == "info"
    assert keys["high-index"].status == "info"
    assert report.consistent


def test_family_dimension_bound_violation():
    report = classify_line_family(4, 2, 2)
    keys = {f.key: f for f in report.findings}
    assert keys["family-dimension-bound"].status == "inconsistent"
    assert not report.consistent


def test_high_index_codimension_two_is_impossible():
    report = classify_line_family(4, 2, 1, delta=2, index=3)
    statuses = [(f.key, f.status) for f in report.findings]
    assert ("high-index", "info") in statuses
    assert ("high-index", "inconsistent") in statuses
    assert not report.consistent


def test_high_index_border_with_unlisted_shape():
    # n = 2c in the high-index range, but (8, 4) closes no extremal case
    report = classify_line_family(8, 4, 4, delta=4, index=6)
    keys = [(f.key, f.status) for f in report.findings]
    assert ("high-index-border", "info") in keys
    assert ("high-index-border", "inconsistent") in keys
    assert report.candidates == ()
    assert not report.consistent


def test_dual_defective_border_with_unlisted_shape():
    # border with contact but (n, c) matching no listed variety
    report = classify_line_family(8, 5, 5)
    keys = [(f.key, f.status) for f in report.findings]
    assert ("dual-defective-border", "info") in keys
    assert ("dual-defective-border", "inconsistent") in keys
    assert report.candidates == ()
    assert not report.consistent


def test_fano_index_warning_does_not_break_consistency():
    report = classify_line_family(3, 1, 1, index=2)
    keys = {f.key: f for f in report.findings}
    assert keys["fano-index-consistency"].status == "warning"
    assert report.consistent


def test_candidates_only_from_the_fixed_list():
    for n in range(1, 9):
        for c in range(1, 5):
            for a in range(0, 6):
                for extra in ({}, {"delta": 1, "index": 2},
                              {"delta": n, "index": (n + n) // 2 + 1}):
                    report = classify_line_family(n, c, a, **extra)
                    assert {cd.key for cd in report.candidates} <= CANDIDATE_KEYS
                    assert all(f.status in ("info", "warning", "inconsistent")
                               for f in report.findings)
                    assert report.consistent == (not any(
                        f.status == "inconsistent" for f in report.findings))


def test_candidates_never_repeat():
    # the Grassmannian case is reachable from two different rules
    report = classify_line_family(6, 3, 3, delta=4, index=5)
    keys = [c.key for c in report.candidates]
    assert keys == ["grassmannian-lines-p4"]
    assert report.consistent
