"""Singular-conic systems: construction, search, and the count formula."""

import random
import time

import pytest

from ccv import (GF, QQ, ConicSystem, Polynomial, brute_singular_conics,
                 build_variety, conic_system, count_conics,
                 expand_line_pencil, find_singular_conics,
                 ideal_dimension_and_degree, line_equations, load_variety,
                 over_prime, parse_polynomial, pencil_conditions,
                 point_on_variety, projective_rational_solutions,
                 reduce_point_mod, reduce_variety_mod,
                 singular_conic_count_formula, solution_from_vertex)
from ccv.conics import _zeros_on_span
from ccv.ffutil import (PointCapExceeded, PrimeTooSmall,
                        compile_mod_evaluator, enumerate_points,
                        projective_point_count)

from conftest import VARIETIES, qpt
from test_golden import CASES, ROOT
from test_groebner import _specs
from test_solve import ENUMERATE_CASES


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


def _full_scan(polys, n, p):
    """Every point of P^n(F_p) where all the polynomials vanish."""
    evaluators = [compile_mod_evaluator(f, p) for f in polys]
    return tuple(q for q in enumerate_points(n, p)
                 if not any(ev(q) for ev in evaluators))


def _vertices(solutions):
    return tuple(tuple(c.value for c in s.vertex.coords) for s in solutions)


def _random_pair(variety, p, seed):
    """Two distinct F_p points of the variety, drawn by rejection."""
    rng = random.Random(seed)
    evaluators = [compile_mod_evaluator(eq, p) for eq in variety.equations]
    points = []
    while len(points) < 2:
        q = [rng.randrange(p) for _ in range(variety.ambient_dim + 1)]
        if any(q) and not any(ev(q) for ev in evaluators):
            pt = qpt(*q, field=GF(p))
            if pt not in points:
                points.append(pt)
    return points


# Every golden pair, and two seeded random pairs of F_p points on each of
# three shipped specs.  The full-scan reference visits all of P^N(F_p), so
# a pair is checked at a prime only while that space is small enough.
SPAN_PAIRS = ([(spec, pts) for spec, pts in GOLDEN_POINTS if len(pts) == 2]
              + [(f"varieties/{name}.json", seed)
                 for name in ("two_quadrics_p6", "fermat_cubic_p5",
                              "quadric3_p4")
                 for seed in (1, 2)])
SPAN_PRIMES = (5, 7, 11)
FULL_SCAN_POINTS = 200_000
SPAN_CASES = [
    (spec, p, pair) for p in SPAN_PRIMES for spec, pair in SPAN_PAIRS
    if projective_point_count(load_variety(ROOT / spec).ambient_dim, p)
    <= FULL_SCAN_POINTS]


@pytest.mark.parametrize("spec, p, pair", SPAN_CASES, ids=[
    f"{spec.split('/')[-1]}-p{p}-"
    + (f"seed{pair}" if isinstance(pair, int) else "golden")
    for spec, p, pair in SPAN_CASES])
def test_span_scan_equals_the_full_scan(spec, p, pair):
    variety = load_variety(ROOT / spec)
    if isinstance(pair, int):
        red = reduce_variety_mod(variety, p)
        x, y = _random_pair(red, p, 1000 * p + pair)
    else:
        red, x, y = over_prime(variety, p, *(
            qpt(*(c.strip() for c in text.split(","))) for text in pair))
    found = _vertices(find_singular_conics(red, x, y, p).solutions)
    full = _full_scan(conic_system(red, x, y).generators,
                      red.ambient_dim, p)
    assert found == full
    assert found == _vertices(brute_singular_conics(red, x, y))


def _cone(equation, p):
    """A quadric cone in P^3 over F_p."""
    return reduce_variety_mod(
        build_variety({"ambient_dim": 3, "equations": [equation]}), p)


@pytest.mark.parametrize("p", SPAN_PRIMES)
def test_span_scan_with_no_linear_condition(p):
    # the vertex of the cone is singular: its pencil has no degree-1
    # condition, so the kernel is all of F_p^4
    cone = _cone("x0*x1 - x2^2", p)
    gens = pencil_conditions(cone, qpt(0, 0, 0, 1, field=GF(p)))
    assert [g.degree() for g in gens] == [2]
    assert _zeros_on_span(gens, 3, p) == _full_scan(gens, 3, p)
    assert len(_zeros_on_span(gens, 3, p)) == 1 + p * (p + 1)


@pytest.mark.parametrize("p", SPAN_PRIMES)
def test_span_scan_with_rank_deficient_linear_conditions(p):
    # two points on one ruling of a cone with vertex e_0 share a tangent
    # plane, and their conditions x2 and 2*x2 are both kept
    cone = _cone("x1*x2 - x3^2", p)
    x, y = (qpt(1, k, 0, 0, field=GF(p)) for k in (1, 2))
    system = conic_system(cone, x, y)
    assert [str(g) for g in system.generators if g.degree() == 1] == [
        "x2", "2*x2"]
    found = _vertices(find_singular_conics(cone, x, y, p).solutions)
    assert found == _full_scan(system.generators, 3, p)
    assert found == _vertices(brute_singular_conics(cone, x, y))
    assert len(found) == p + 1  # the ruling through x and y


def test_span_scan_with_a_zero_kernel():
    # four independent linear forms in P^3 leave no projective point
    forms = [parse_polynomial(text, 4, GF(7))
             for text in ("x0", "x0 + x1", "x1 + 2*x2", "x2 - x3",
                          "x0*x1 + x2*x3")]
    assert _zeros_on_span(forms[:4], 3, 7) == ()
    assert _zeros_on_span(forms, 3, 7) == ()


def test_span_scan_is_budgeted_on_the_span(two_quadrics):
    # the kernel is a P^2 of 31 points, P^6(F_5) has 19531
    x, y = qpt(1, 0, 0, 0, 0, 0, 0), qpt(0, 0, 0, 0, 0, 0, 1)
    assert len(find_singular_conics(two_quadrics, x, y, 5,
                                    cap=31).solutions) == 1
    with pytest.raises(PointCapExceeded,
                       match="P\\^2\\(F_5\\) has 31 points"):
        find_singular_conics(two_quadrics, x, y, 5, cap=30)


def test_span_scan_runs_the_cubic_quadric_rung_under_the_default_cap():
    # P^8(F_11) has 235794769 points, over the default cap; the kernel of
    # the degree-1 conditions at e_0 and e_8 is far smaller
    variety = load_variety(VARIETIES / "ci_3_2_p8.json")
    x, y = qpt(1, *[0] * 8), qpt(*[0] * 8, 1)
    found = find_singular_conics(variety, x, y, 11)
    symbolic = find_singular_conics(*over_prime(variety, 11, x, y))
    assert symbolic.mode == "symbolic"
    assert _vertices(found.solutions) == _vertices(symbolic.solutions)
    assert [str(s.vertex) for s in found.solutions] == ["[1:3:2:5:2:2:1:7:8]"]


def test_span_scan_stays_on_the_span(two_quadrics, monkeypatch):
    # P^6(F_23) has about 1.6e8 points, too many to visit here; the kernel
    # of the degree-1 conditions at e_0 and e_6 is a P^2 of 553 points
    visited = []

    def counted(n, p):
        for q in enumerate_points(n, p):
            visited.append(q)
            assert len(visited) <= projective_point_count(2, 23)
            yield q

    monkeypatch.setattr("ccv.conics.enumerate_points", counted)
    x, y = qpt(1, 0, 0, 0, 0, 0, 0), qpt(0, 0, 0, 0, 0, 0, 1)
    red, xq, yq = over_prime(two_quadrics, 23, x, y)
    found = find_singular_conics(two_quadrics, x, y, 23, cap=10**10)
    symbolic = find_singular_conics(red, xq, yq)
    assert symbolic.mode == "symbolic"
    assert _vertices(found.solutions) == _vertices(symbolic.solutions)
    assert found.solutions
    assert len(visited) == projective_point_count(2, 23)


def test_full_enumeration_on_the_cubic_quadric_rung_over_q():
    # degree 24: a lex solve of the first cell ran past 300 s
    variety = load_variety(VARIETIES / "ci_3_2_p8.json")
    x, y = qpt(1, *[0] * 8), qpt(*[0] * 8, 1)
    start = time.perf_counter()
    result = find_singular_conics(variety, x, y)
    assert time.perf_counter() - start < 30
    assert (result.status, result.dimension, result.degree) == (
        "finite", 0, 24)
    for p in (11, 13):  # both have F_p-rational vertices
        scan = _vertices(find_singular_conics(variety, x, y, p,
                                              cap=10**10).solutions)
        assert scan
        assert all(reduce_point_mod(s.vertex, p).coords in {
            tuple(map(GF(p), q)) for q in scan} for s in result.solutions)
        red, xp, yp = over_prime(variety, p, x, y)
        assert set(_vertices(find_singular_conics(red, xp, yp).solutions)) \
            == set(scan)
    assert all(point_on_variety(variety, s.vertex) for s in result.solutions)


def test_quartic_and_quadric_count_over_fp_within_budget():
    # [4,2] in P^10, degree 288 = 4!*3! * 2!*1!; its grevlex basis took
    # about 10 s while it reduced every S-pair the Hilbert bound skips
    variety = load_variety(VARIETIES / "ci_4_2_p10.json")
    variety, x, y = over_prime(variety, 32003, qpt(1, *[0] * 10),
                               qpt(*[0] * 10, 1))
    start = time.perf_counter()
    result = count_conics(variety, x, y)
    assert time.perf_counter() - start < 6
    assert (result.system_dimension, result.ideal_degree,
            result.formula_value, result.matches_formula) == (0, 288, 288,
                                                              True)


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


def _search_summary(variety, x, y, generators=None):
    """The status of a symbolic search and whether the summary it read off
    the solver's basis, kept for the count, is the one of
    ideal_dimension_and_degree, the route of --count-only."""
    system = conic_system(variety, x, y)
    if generators is not None:
        system = ConicSystem(x, y, generators, system.shared_count)
    result = find_singular_conics(variety, x, y, system=system)
    expected = ideal_dimension_and_degree(system.generators)
    return result.status, (system.summary == expected and (
        result.dimension, result.degree) == (expected.projective_dimension,
                                              expected.degree))


def test_search_summary_on_the_enumerate_cases():
    for name, n, prime in ENUMERATE_CASES:
        variety = load_variety(VARIETIES / f"{name}.json")
        x, y = qpt(1, *[0] * n), qpt(*[0] * n, 1)
        if prime is not None:
            variety, x, y = over_prime(variety, prime, x, y)
        assert _search_summary(variety, x, y) == ("finite", True), name


@pytest.mark.parametrize("prime", [None, 32003], ids=["QQ", "F32003"])
def test_search_summary_on_the_boundary_rungs(prime):
    rungs = [(2, 2), (3,), (2, 2, 2), (3, 2), (2, 2, 2, 2)]
    if prime:
        rungs += [(3, 2, 2), (2, 2, 2, 2, 2), (4,), (3, 3)]
    for degrees in rungs:
        variety = build_variety(_specs().boundary_spec(1, degrees, prime))
        x, y = (qpt(*p, field=variety.field)
                for p in _specs().base_points(degrees))
        assert _search_summary(variety, x, y) == ("finite", True), degrees


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=["QQ", "F32003"])
def test_search_summary_when_infinite_or_empty(field):
    for name, x, y in [("quadric_p3", (1, 0, 0, 0), (0, 1, 0, 0)),
                       ("fermat_cubic_p5", (1, -1, 0, 0, 0, 0),
                        (0, 0, 1, -1, 0, 0))]:
        variety = load_variety(VARIETIES / f"{name}.json")
        x, y = qpt(*x), qpt(*y)
        if field != QQ:
            variety, x, y = over_prime(variety, field.p, x, y)
        assert _search_summary(variety, x, y) == ("infinite", True), name
        unit = (Polynomial(variety.ambient_dim + 1, field, {
            (0,) * (variety.ambient_dim + 1): field.one}),)
        assert _search_summary(variety, x, y, unit) == ("empty", True), name


def test_a_search_off_the_boundary_shape_takes_the_count_route(
        quadric3, monkeypatch):
    # 3 generators in P^4 are infinite by Krull's height theorem: the
    # mod-32003 certificate answers, and no basis over Q is taken
    import ccv.groebner
    import ccv.solve
    fields, engine = [], ccv.groebner._buchberger

    def spy(rows, packing, mod, reduce_tails):
        fields.append(mod)
        return engine(rows, packing, mod, reduce_tails)

    for module in (ccv.groebner, ccv.solve):
        monkeypatch.setattr(module, "_buchberger", spy)
    x, y = qpt(1, 0, 0, 0, 0), qpt(0, 0, 0, 0, 1)
    assert _search_summary(quadric3, x, y) == ("infinite", True)
    assert fields == [32003, 32003]  # the search's, then the reference's
    # the public solver takes the same route
    fields.clear()
    with pytest.raises(ValueError, match="^system is not zero-dimensional$"):
        projective_rational_solutions(conic_system(quadric3, x, y).generators)
    assert fields == [32003]


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
