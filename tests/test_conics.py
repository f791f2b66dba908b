"""Singular-conic systems: construction, search, and the count formula."""

import pytest

from ccv import (GF, conic_system, count_conics, expand_line_pencil,
                 find_singular_conics, line_equations, load_variety,
                 parse_polynomial, pencil_conditions, reduce_variety_mod,
                 singular_conic_count_formula, solution_from_vertex)
from ccv.ffutil import PrimeTooSmall

from conftest import qpt
from test_golden import CASES, ROOT


def test_quadric_system_generators(quadric):
    system = conic_system(quadric, qpt(1, 0, 0, 0), qpt(0, 0, 0, 1))
    assert [str(g) for g in system.generators] == [
        "x3", "-x1*x2 + x0*x3", "x0"]
    assert system.shared_count == 1


# (spec, points) of every golden lines and conics case that runs
GOLDEN_POINTS = sorted({
    (argv[1], tuple(argv[i + 1] for i, opt in enumerate(argv)
                    if opt in ("--point", "--x", "--y")))
    for name, (argv, _cap) in CASES.items()
    if argv[0] in ("lines", "conics") and not name.startswith("refuse-")})


@pytest.mark.parametrize("spec, points", GOLDEN_POINTS, ids=[
    " ".join((spec.split("/")[-1],) + pts) for spec, pts in GOLDEN_POINTS])
def test_system_is_the_union_of_the_two_pencils(spec, points):
    # the top pencil condition is the equation itself, so the pencil at x
    # already holds every equation the pencil at y ends with
    variety = load_variety(ROOT / spec)
    pts = [qpt(*(c.strip() for c in text.split(","))) for text in points]
    for pt in pts:
        for eq in variety.equations:
            assert expand_line_pencil(eq, pt)[-1] == eq
    if len(pts) == 2:
        x, y = pts
        assert conic_system(variety, x, y).generators == tuple(dict.fromkeys(
            pencil_conditions(variety, x) + pencil_conditions(variety, y)))


def test_system_rejects_bad_points(quadric):
    pt = qpt(1, 0, 0, 0)
    with pytest.raises(ValueError, match="two distinct points"):
        conic_system(quadric, pt, pt)
    with pytest.raises(ValueError, match="y = .* does not lie on"):
        conic_system(quadric, pt, qpt(1, 1, 1, 0))


def test_generator_budget(quadric, two_quadrics, g14, fermat5):
    pairs = (
        (quadric, qpt(1, 0, 0, 0), qpt(0, 0, 0, 1)),
        (two_quadrics, qpt(1, 0, 0, 0, 0, 0, 0), qpt(0, 0, 0, 0, 0, 0, 1)),
        (g14, qpt(1, 0, 0, 0, 0, 0, 0, 0, 0, 0),
         qpt(0, 0, 0, 0, 0, 0, 0, 0, 0, 1)),
        (fermat5, qpt(3, 4, 5, -6, 0, 0), qpt(0, 0, 3, 4, 5, -6)),
    )
    for variety, x, y in pairs:
        system = conic_system(variety, x, y)
        m = len(variety.equations)
        assert len(system.generators) <= 2 * sum(variety.degrees) - m
        for eq in variety.equations:
            assert sum(1 for g in system.generators if g == eq) == 1


def test_line_equations_are_canonical():
    a, b = qpt(1, 0, 0, 0), qpt(0, 1, 0, 0)
    forms = line_equations(a, b)
    assert [str(f) for f in forms] == ["x2", "x3"]
    assert line_equations(b, a) == forms
    assert line_equations(a, qpt(1, 1, 0, 0)) == forms  # same line, new span
    with pytest.raises(ValueError, match="coincident"):
        line_equations(a, a)
    with pytest.raises(ValueError, match="different fields"):
        line_equations(a, qpt(0, 1, 0, 0, field=GF(5)))


def test_solution_from_vertex_flags():
    x, y = qpt(1, 0, 0, 0), qpt(0, 0, 0, 1)
    off_line = solution_from_vertex(qpt(0, 1, 0, 0), x, y)
    assert not off_line.degenerate
    assert [str(f) for f in off_line.line_through_x] == ["x2", "x3"]
    assert [str(f) for f in off_line.line_through_y] == ["x0", "x2"]
    on_line = solution_from_vertex(qpt(1, 0, 0, 1), x, y)
    assert on_line.degenerate
    at_base = solution_from_vertex(x, x, y)
    assert at_base.degenerate
    assert at_base.line_through_x is None
    assert at_base.line_through_y is not None


def test_quadric_search_finds_the_two_ruling_vertices(quadric):
    result = find_singular_conics(quadric, qpt(1, 0, 0, 0), qpt(0, 0, 0, 1))
    assert (result.mode, result.status) == ("symbolic", "finite")
    assert (result.dimension, result.degree) == (0, 2)
    assert [str(s.vertex) for s in result.solutions] == [
        "[0:1:0:0]", "[0:0:1:0]"]
    assert all(not s.degenerate for s in result.solutions)


def test_search_is_symmetric_in_the_two_points(quadric):
    x, y = qpt(1, 0, 0, 0), qpt(0, 0, 0, 1)
    forward = find_singular_conics(quadric, x, y)
    backward = find_singular_conics(quadric, y, x)
    assert ({str(s.vertex) for s in forward.solutions}
            == {str(s.vertex) for s in backward.solutions})


def test_collinear_points_give_an_infinite_family(quadric):
    # the line through these two points lies on the quadric, and every
    # point of it is a vertex
    result = find_singular_conics(quadric, qpt(1, 0, 0, 0), qpt(0, 1, 0, 0))
    assert result.status == "infinite"
    assert (result.dimension, result.degree) == (1, 1)
    assert result.solutions == ()


def test_plane_conic_has_no_singular_conics():
    from ccv import build_variety
    conic = build_variety({"ambient_dim": 2, "equations": ["x0*x2 - x1^2"]})
    result = find_singular_conics(conic, qpt(1, 0, 0), qpt(0, 0, 1))
    assert result.status == "empty"
    assert (result.dimension, result.degree) == (-1, None)


def test_two_quadrics_rational_vertex(two_quadrics):
    x, y = qpt(1, 0, 0, 0, 0, 0, 0), qpt(0, 0, 0, 0, 0, 0, 1)
    result = find_singular_conics(two_quadrics, x, y)
    assert (result.status, result.dimension, result.degree) == ("finite", 0, 4)
    assert [(str(s.vertex), s.degenerate) for s in result.solutions] == [
        ("[0:0:0:0:1:0:0]", False)]


def test_finite_field_mode_agrees_with_symbolic(quadric):
    x, y = qpt(1, 0, 0, 0), qpt(0, 0, 0, 1)
    symbolic = find_singular_conics(quadric, x, y)
    for p in (5, 7):
        ff = find_singular_conics(quadric, x, y, prime=p)
        assert (ff.mode, ff.status) == ("finite-field", "finite")
        assert (ff.dimension, ff.degree) == (None, None)
        assert ([str(s.vertex) for s in ff.solutions]
                == [str(s.vertex) for s in symbolic.solutions])
        assert any("exhaustive scan" in note for note in ff.notes)


@pytest.mark.parametrize("q", [7, 11])
def test_symbolic_search_over_fq_matches_the_brute_force_scan(two_quadrics, q):
    x = qpt(1, 0, 0, 0, 0, 0, 0)
    y = qpt(0, 0, 0, 0, 0, 0, 1)
    red = reduce_variety_mod(two_quadrics, q)
    xq, yq = (qpt(*pt.coords, field=GF(q)) for pt in (x, y))
    symbolic = find_singular_conics(red, xq, yq)
    brute = find_singular_conics(two_quadrics, x, y, prime=q)
    assert (symbolic.mode, brute.mode) == ("symbolic", "finite-field")
    assert ({str(s.vertex) for s in symbolic.solutions}
            == {str(s.vertex) for s in brute.solutions})


def test_finite_field_mode_needs_a_large_enough_prime(fermat4):
    with pytest.raises(PrimeTooSmall, match="below the top degree 3"):
        find_singular_conics(fermat4, qpt(1, -1, 0, 0, 0),
                             qpt(0, 0, 1, -1, 0), prime=2)


def test_finite_field_mode_prime_mismatch(quadric):
    red = reduce_variety_mod(quadric, 5)
    x = qpt(1, 0, 0, 0, field=GF(5))
    y = qpt(0, 0, 0, 1, field=GF(5))
    assert find_singular_conics(red, x, y, prime=5).status == "finite"
    with pytest.raises(ValueError, match="F_5, not F_7"):
        find_singular_conics(red, x, y, prime=7)


def test_count_formula_values():
    assert singular_conic_count_formula([2]) == 2
    assert singular_conic_count_formula([2, 2]) == 4
    assert singular_conic_count_formula([3]) == 12
    assert singular_conic_count_formula([3, 2]) == 24
    assert singular_conic_count_formula([1]) == 1
    assert singular_conic_count_formula([]) == 1
    with pytest.raises(ValueError, match="positive"):
        singular_conic_count_formula([0])


def test_quadric_count(quadric):
    result = count_conics(quadric, qpt(1, 0, 0, 0), qpt(0, 0, 0, 1))
    assert result.system_dimension == 0
    assert result.ideal_degree == 2
    assert result.formula_value == 2
    assert result.formula_applicable
    assert result.equality_case
    assert result.matches_formula is True
    assert result.to_json()["rational_solutions"] is None
    assert result.notes == ()


def test_quadric_count_with_enumeration(quadric):
    # the search and the count share one system and its summary
    x, y = qpt(1, 0, 0, 0), qpt(0, 0, 0, 1)
    system = conic_system(quadric, x, y)
    search = find_singular_conics(quadric, x, y, system=system)
    count = count_conics(quadric, x, y, system=system)
    assert [str(s.vertex) for s in search.solutions] == [
        "[0:1:0:0]", "[0:0:1:0]"]
    assert search.degree == count.ideal_degree == 2


def test_two_quadrics_count(two_quadrics):
    result = count_conics(two_quadrics, qpt(1, 0, 0, 0, 0, 0, 0),
                          qpt(0, 0, 0, 0, 0, 0, 1))
    assert (result.system_dimension, result.ideal_degree) == (0, 4)
    assert result.formula_value == 4
    assert result.formula_applicable and result.equality_case
    assert result.matches_formula is True


def test_fermat_fourfold_count(fermat5):
    # 3^3 + 4^3 + 5^3 = 6^3 puts both points on the cubic
    result = count_conics(fermat5, qpt(3, 4, 5, -6, 0, 0),
                          qpt(0, 0, 3, 4, 5, -6))
    assert (result.system_dimension, result.ideal_degree) == (0, 12)
    assert result.formula_value == 12
    assert result.matches_formula is True
    assert result.equality_case


def test_overdetermined_count_notes(g14):
    result = count_conics(g14, qpt(1, 0, 0, 0, 0, 0, 0, 0, 0, 0),
                          qpt(0, 0, 0, 0, 0, 0, 0, 0, 0, 1))
    assert not result.formula_applicable
    assert result.matches_formula is None
    assert any("m == c" in note and "m = 5 and c = 3" in note
               for note in result.notes)
    assert any("over-determined by 8" in note for note in result.notes)


def test_underdetermined_count_notes(quadric3):
    # one quadric in P^4: 2*sum(d) - c = 3 < 4
    result = count_conics(quadric3, qpt(1, 0, 0, 0, 0), qpt(0, 0, 0, 0, 1))
    assert not result.equality_case
    assert any("under-determined by 1" in note for note in result.notes)
    assert result.system_dimension > 0


def test_search_result_serializes(quadric):
    result = find_singular_conics(quadric, qpt(1, 0, 0, 0), qpt(0, 0, 0, 1))
    blob = result.to_json()
    assert blob["status"] == "finite"
    assert blob["solutions"][0]["vertex"] == "[0:1:0:0]"
    assert blob["solutions"][0]["line_through_x"] == ["x2", "x3"]
