"""The cone of lines through a point: ideal, dimension, and bounds."""

import pytest

from ccv import (brute_line_locus, lines_dimension_report, pencil_conditions,
                 reduce_point_mod, reduce_variety_mod)
from ccv.ffutil import compile_mod_evaluator, enumerate_points

from conftest import qpt


def test_quadric_locus_is_the_two_rulings(quadric):
    report = lines_dimension_report(quadric, qpt(1, 0, 0, 0))
    assert [str(g) for g in report.generators] == [
        "x3", "-x1*x2 + x0*x3"]
    # two ruling lines through the point: a curve of degree 2
    assert report.locus_dimension == 1
    assert report.locus_degree == 2


def test_quadric_lines_report(quadric):
    report = lines_dimension_report(quadric, qpt(1, 0, 0, 0))
    assert report.a == 0
    assert (report.family_bound, report.locus_bound) == (0, 1)
    assert report.family_bound_met and report.locus_bound_met
    assert [c.key for c in report.classification.candidates] == [
        "quadric-surface", "quadric-hypersurface"]
    assert report.classification.consistent
    assert "general point" in report.caveat


def test_quadric_threefold_locus(quadric3):
    report = lines_dimension_report(quadric3, qpt(1, 0, 0, 0, 0))
    assert [str(g) for g in report.generators] == [
        "x4", "x2^2 - x1*x3 + x0*x4"]
    assert report.locus_dimension == 2
    assert report.locus_degree == 2
    assert report.a == 1
    assert [c.key for c in report.classification.candidates] == [
        "quadric-hypersurface"]


def test_grassmannian_locus(g14):
    base = qpt(1, 0, 0, 0, 0, 0, 0, 0, 0, 0)
    report = lines_dimension_report(g14, base)
    assert tuple(g.degree() for g in report.generators) == (
        1, 2, 1, 2, 1, 2, 2, 2)
    assert report.locus_dimension == 4
    assert report.locus_degree == 3
    assert report.a == 3
    assert (report.family_bound, report.locus_bound) == (-2, -1)
    assert report.family_bound_met and report.locus_bound_met
    assert [c.key for c in report.classification.candidates] == [
        "grassmannian-lines-p4"]
    assert report.classification.consistent


def test_fermat_cubic_locus_at_taxicab_point(fermat4):
    base = qpt(1, -1, 0, 0, 0)
    report = lines_dimension_report(fermat4, base)
    assert [str(g) for g in report.generators] == [
        "3*x0 + 3*x1",
        "3*x0^2 - 3*x1^2",
        "x0^3 + x1^3 + x2^3 + x3^3 + x4^3"]
    assert report.locus_dimension == 2
    assert report.locus_degree == 3
    assert report.a == 1
    assert report.family_bound_met and report.locus_bound_met
    assert [(f.key, f.status) for f in report.classification.findings] == [
        ("large-family", "info")]


def test_base_point_must_lie_on_the_variety(quadric):
    with pytest.raises(ValueError, match="does not lie on"):
        lines_dimension_report(quadric, qpt(1, 1, 1, 0))


def test_locus_is_a_cone_with_vertex_at_the_base_point(g14, fermat4):
    for variety, base in ((g14, qpt(1, 0, 0, 0, 0, 0, 0, 0, 0, 0)),
                          (fermat4, qpt(1, -1, 0, 0, 0))):
        for gen in pencil_conditions(variety, base):
            assert not gen.evaluate(base.coords)


def test_each_equation_kept_exactly_once(two_quadrics, g14):
    for variety, base in ((two_quadrics, qpt(1, 0, 0, 0, 0, 0, 0)),
                          (g14, qpt(1, 0, 0, 0, 0, 0, 0, 0, 0, 0))):
        gens = pencil_conditions(variety, base)
        for eq in variety.equations:
            assert sum(1 for g in gens if g == eq) == 1
        assert len(gens) <= sum(variety.degrees)


def test_locus_zero_set_matches_brute_force_mod_5(quadric3):
    red = reduce_variety_mod(quadric3, 5)
    base = reduce_point_mod(qpt(1, 0, 0, 0, 0), 5)
    brute = brute_line_locus(red, base)
    gens = pencil_conditions(red, base)
    evaluators = [compile_mod_evaluator(g, 5) for g in gens]
    symbolic = tuple(pt for pt in enumerate_points(4, 5)
                     if all(ev(pt) == 0 for ev in evaluators))
    assert len(brute) == 31
    assert symbolic == brute


def test_grassmannian_locus_point_count_mod_5(g14):
    # the cone over a Segre product of a line and a plane:
    # (5 + 1)(25 + 5 + 1) Segre points, each line to the vertex carrying
    # 5 more points, plus the vertex: 6 * 31 * 5 + 1 = 931
    base = qpt(1, 0, 0, 0, 0, 0, 0, 0, 0, 0)
    gens = pencil_conditions(g14, base)
    evaluators = [compile_mod_evaluator(g, 5)
                  for g in sorted(gens, key=lambda g: g.degree())]
    count = 0
    for pt in enumerate_points(9, 5):
        for ev in evaluators:
            if ev(pt):
                break
        else:
            count += 1
    assert count == 931


def test_report_serializes(quadric):
    report = lines_dimension_report(quadric, qpt(1, 0, 0, 0))
    blob = report.to_json()
    assert blob["a"] == 0
    assert blob["classification"]["consistent"] is True
