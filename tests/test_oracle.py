"""Brute-force finite-field checks and the sampling census."""

from collections import Counter
from functools import cache

import pytest

import ccv.oracle
from ccv import (Lcg64, OracleRefusal, PointCapExceeded, PrimeTooSmall,
                 brute_line_locus, brute_singular_conics, build_variety,
                 cc_census, conic_system, line_in_variety, load_variety,
                 reduce_point_mod, reduce_variety_mod, variety_points)
from ccv.ffutil import (compile_mod_evaluator, enumerate_points,
                        projective_point_count)

from conftest import VARIETIES, qpt


@pytest.fixture
def quadric5(quadric):
    return reduce_variety_mod(quadric, 5)


def test_lcg_replays_identically():
    assert [Lcg64(0).next_raw() for _ in range(1)] == [167951807]
    gen = Lcg64(0)
    assert [gen.next_raw() for _ in range(4)] == [
        167951807, 218396424, 1299921937, 861605236]
    gen1 = Lcg64(1)
    assert [gen1.next_raw() for _ in range(4)] == [
        908834774, 1093944153, 1392341196, 822192870]


def test_lcg_seed_is_masked_to_64_bits():
    assert Lcg64(2 ** 64 + 5).next_raw() == Lcg64(5).next_raw()


def test_lcg_draw():
    assert Lcg64(42).draw(10) == Lcg64(42).next_raw() % 10
    with pytest.raises(ValueError, match="positive"):
        Lcg64(0).draw(0)


def test_line_membership(quadric5):
    # the ruling lines of the quadric lie on it, a skew probe does not
    assert line_in_variety(quadric5, (1, 0, 0, 0), (0, 1, 0, 0))
    assert line_in_variety(quadric5, (1, 0, 0, 0), (0, 0, 1, 0))
    assert not line_in_variety(quadric5, (1, 0, 0, 0), (0, 0, 0, 1))


def test_line_membership_invariances(quadric5):
    a, b = (1, 0, 0, 0), (0, 1, 0, 0)
    assert line_in_variety(quadric5, a, b) == line_in_variety(quadric5, b, a)
    # any two distinct points of the line give the same answer
    assert line_in_variety(quadric5, (1, 1, 0, 0), (1, 2, 0, 0))
    with pytest.raises(ValueError, match="coincident"):
        line_in_variety(quadric5, a, (2, 0, 0, 0))


def test_canonical_residue_tuples_pass_straight_through(quadric5):
    field = quadric5.field
    for point in ((1, 0, 0, 0), (0, 1, 4, 2), (0, 0, 0, 1)):
        assert ccv.oracle._as_tuple(point, field) is point
    # anything else is canonicalized, or refused, as before
    for point, canonical in (((2, 0, 0, 0), (1, 0, 0, 0)),
                             ((1, 5, 0, 6), (1, 0, 0, 1)),
                             ([1, 0, 0, 0], (1, 0, 0, 0)),
                             (qpt(1, 2, 3, 4, field=field), (1, 2, 3, 4))):
        assert ccv.oracle._as_tuple(point, field) == canonical
    for point, error in (((0, 0, 0, 0), ValueError), ((1,), ValueError),
                         ((True, 0, 0, 0), TypeError)):
        with pytest.raises(error):
            line_in_variety(quadric5, point, (0, 1, 0, 0))
    assert line_in_variety(quadric5, (6, 0, 0, 0), (0, 1, 0, 0))


def test_brute_checks_refuse_unsound_inputs(quadric, quadric5, fermat4):
    with pytest.raises(OracleRefusal, match="prime field"):
        line_in_variety(quadric, (1, 0, 0, 0), (0, 1, 0, 0))
    fermat2 = reduce_variety_mod(fermat4, 2)
    with pytest.raises(PrimeTooSmall, match="below the top degree 3"):
        line_in_variety(fermat2, (1, 1, 0, 0, 0), (0, 0, 1, 1, 0))
    with pytest.raises(PointCapExceeded):
        brute_line_locus(quadric5, (1, 0, 0, 0), cap=100)


def test_brute_locus_matches_the_conic_of_rulings(quadric5):
    locus = brute_line_locus(quadric5, (1, 0, 0, 0))
    # two ruling lines through the point: 2(p + 1) - 1 points
    assert len(locus) == 11
    assert (1, 0, 0, 0) in locus      # the base point itself
    assert locus == tuple(sorted(locus, key=list(
        enumerate_points(3, 5)).index))
    with pytest.raises(ValueError, match="does not lie on"):
        brute_line_locus(quadric5, (1, 1, 1, 0))


def test_brute_locus_equals_symbolic_zero_set(quadric5):
    from ccv import pencil_conditions
    base = reduce_point_mod(qpt(1, 0, 0, 0), 5)
    gens = pencil_conditions(quadric5, base)
    evaluators = [compile_mod_evaluator(g, 5) for g in gens]
    symbolic = tuple(pt for pt in enumerate_points(3, 5)
                     if all(ev(pt) == 0 for ev in evaluators))
    assert brute_line_locus(quadric5, (1, 0, 0, 0)) == symbolic


def test_brute_conics_match_the_symbolic_system(quadric5):
    x, y = (1, 0, 0, 0), (0, 0, 0, 1)
    solutions = brute_singular_conics(quadric5, x, y)
    assert [str(s.vertex) for s in solutions] == ["[0:1:0:0]", "[0:0:1:0]"]
    system = conic_system(quadric5, reduce_point_mod(qpt(1, 0, 0, 0), 5),
                          reduce_point_mod(qpt(0, 0, 0, 1), 5))
    evaluators = [compile_mod_evaluator(g, 5) for g in system.generators]
    zero_set = [pt for pt in enumerate_points(3, 5)
                if all(ev(pt) == 0 for ev in evaluators)]
    assert [tuple(int(c.value) for c in s.vertex.coords)
            for s in solutions] == zero_set


def test_direction_scan_matches_the_whole_space_scan(fermat4):
    # x's first nonzero coordinate is not x0, so the scanned hyperplane is
    # x1 = 0 and line points need rescaling
    cubic7 = reduce_variety_mod(fermat4, 7)
    x, y = (0, 1, 6, 0, 0), (0, 0, 0, 1, 6)

    space = tuple(enumerate_points(4, 7))
    cone_x, cone_y = ({q for q in space
                       if q == base or line_in_variety(cubic7, base, q)}
                      for base in (x, y))
    assert brute_line_locus(cubic7, x) == tuple(
        q for q in space if q in cone_x)
    assert [tuple(c.value for c in s.vertex.coords)
            for s in brute_singular_conics(cubic7, x, y)] == [
        q for q in space if q in cone_x and q in cone_y]


def test_brute_conics_flag_degenerate_vertices(quadric5):
    # collinear pair: the whole line consists of degenerate vertices
    solutions = brute_singular_conics(quadric5, (1, 0, 0, 0), (0, 1, 0, 0))
    assert len(solutions) == 6
    assert all(s.degenerate for s in solutions)
    assert solutions[0].line_through_x is None  # vertex == x
    assert solutions[-1].line_through_y is None  # vertex == y
    with pytest.raises(ValueError, match="two distinct points"):
        brute_singular_conics(quadric5, (1, 0, 0, 0), (2, 0, 0, 0))


def test_variety_point_counts(quadric):
    # a smooth quadric surface has (p + 1)^2 points over F_p
    assert len(variety_points(reduce_variety_mod(quadric, 5))) == 36
    assert len(variety_points(reduce_variety_mod(quadric, 7))) == 64


def test_census_is_deterministic_and_frozen(quadric5):
    stats = cc_census(quadric5, 50, seed=1)
    assert stats.prime == 5
    assert stats.point_count == 36
    assert stats.pairs_tested == 50
    assert stats.pairs_connected == 50
    assert stats.pairs_with_nondegenerate == 31
    assert stats.histogram == ((0, 19), (2, 31))
    assert stats.connected_fraction == 1
    assert str(stats.nondegenerate_fraction) == "31/50"
    assert cc_census(quadric5, 50, seed=1) == stats


def test_census_json_rendering(quadric5):
    blob = cc_census(quadric5, 50, seed=1).to_json()
    assert blob["histogram"] == [{"vertices": 0, "pairs": 19},
                                 {"vertices": 2, "pairs": 31}]
    assert blob["connected_fraction"] == "1"
    assert blob["nondegenerate_fraction"] == "31/50"


def test_census_refusals(quadric5):
    with pytest.raises(ValueError, match="positive"):
        cc_census(quadric5, 0)
    # x0^2 + x1^2 has a single F_3 point in the plane: no pairs to draw
    lonely = build_variety({"ambient_dim": 2, "equations": ["x0^2 + x1^2"],
                            "field": {"prime": 3}})
    assert len(variety_points(lonely)) == 1
    with pytest.raises(OracleRefusal, match="needs at least two"):
        cc_census(lonely, 10)


# Reference oracle: cones straight from the definition, through
# line_in_variety only, and the census replayed from the Lcg64 draws.

def _canon(vals, p):
    inv = pow(next(v for v in vals if v), p - 2, p)
    return tuple(v * inv % p for v in vals)


def _line(x, y, p):
    """The p + 1 points of the line through x and y."""
    return {_canon([(s * a + t * b) % p for a, b in zip(x, y)], p)
            for s in range(p) for t in range(p) if s or t}


def _reduced(name, p):
    return reduce_variety_mod(load_variety(VARIETIES / f"{name}.json"), p)


def _points(variety, p):
    """The F_p points of the variety, listed without the oracle."""
    evaluators = [compile_mod_evaluator(eq, p) for eq in variety.equations]
    return [q for q in enumerate_points(variety.ambient_dim, p)
            if not any(ev(q) for ev in evaluators)]


def _reference_cones(variety, points):
    """x -> {q : q == x or line_in_variety(x, q)}.  A point off the variety
    lies on no line of it, so q runs over ``points`` only."""
    on = cache(lambda line: line_in_variety(variety, *line))
    return cache(lambda x: {q for q in points
                            if q == x or on(frozenset((x, q)))})


def _draws(points, pairs, seed):
    rng = Lcg64(seed)
    for _ in range(pairs):
        i = rng.draw(len(points))
        j = rng.draw(len(points) - 1)
        yield points[i], points[j + (j >= i)]


# p equal to the top degree leaves no spare point on a tested line
@pytest.mark.parametrize("name, p", [("quadric3_p4", 5), ("quadric3_p4", 2),
                                     ("fermat_cubic_p4", 7),
                                     ("fermat_cubic_p4", 3)])
def test_census_equals_the_reference_census(name, p):
    variety = _reduced(name, p)
    points = _points(variety, p)
    cone = _reference_cones(variety, points)
    for seed in range(10):
        histogram = Counter()
        connected = with_nondeg = 0
        for x, y in _draws(points, 3, seed):
            vertices = cone(x) & cone(y)
            nondeg = len(vertices - _line(x, y, p))
            connected += bool(vertices)
            with_nondeg += bool(nondeg)
            histogram[nondeg] += 1
        stats = cc_census(variety, 3, seed=seed)
        assert stats.point_count == len(points)
        assert (stats.pairs_connected, stats.pairs_with_nondegenerate,
                stats.histogram) == (connected, with_nondeg,
                                     tuple(sorted(histogram.items())))


@pytest.mark.parametrize("p", [5, 2])
def test_brute_locus_equals_the_reference_at_every_point(p):
    variety = _reduced("quadric3_p4", p)
    points = _points(variety, p)
    cone = _reference_cones(variety, points)
    # every point of X, so every hyperplane x_k = 0 the scan can use
    # (x0 = x1 = 0 forces x2 = 0 on x0*x4 - x1*x3 + x2^2)
    assert {x.index(1) for x in points} == {0, 1, 3, 4}
    for x in points:
        assert brute_line_locus(variety, x) == tuple(
            q for q in points if q in cone(x))


def _count_evaluations(monkeypatch):
    """Log every evaluator call the oracle makes, and for each cone its
    base point with the calls made while building it."""
    calls, cones = [], []
    compile_real, cone_real = ccv.oracle.compile_mod_evaluator, \
        ccv.oracle._cone

    def compile_counted(poly, p):
        ev = compile_real(poly, p)
        return lambda v: calls.append(v) or ev(v)

    def cone_logged(evaluators, p, xt, directions):
        start = len(calls)
        cone = cone_real(evaluators, p, xt, directions)
        cones.append((xt, calls[start:]))
        return cone

    monkeypatch.setattr(ccv.oracle, "compile_mod_evaluator", compile_counted)
    monkeypatch.setattr(ccv.oracle, "_cone", cone_logged)
    return calls, cones


def test_cones_never_evaluate_their_base_point(monkeypatch):
    variety = _reduced("quadric3_p4", 5)
    points = _points(variety, 5)
    calls, cones = _count_evaluations(monkeypatch)
    bases = points[::5]
    assert {x.index(1) for x in bases} == {0, 1, 3, 4}
    for x in bases:
        del calls[:]
        brute_line_locus(variety, x)
        assert calls and all(_canon(v, 5) != x for v in calls)
        # one evaluation per hyperplane point, p - 1 per direction on X
        directions = sum(1 for q in points if not q[x.index(1)])
        assert len(calls) <= projective_point_count(3, 5) + directions * 4
    del cones[:]
    cc_census(variety, 20, seed=2)
    assert cones
    for x, made in cones:
        assert made and all(_canon(v, 5) != x for v in made)


def test_census_evaluation_budget(monkeypatch):
    p, pairs, seed = 5, 8, 1
    variety = _reduced("two_quadrics_p6", p)
    points = _points(variety, p)
    calls, _ = _count_evaluations(monkeypatch)
    cc_census(variety, pairs, seed=seed)
    sampled = {q for pair in _draws(points, pairs, seed) for q in pair}
    directions = sum(sum(1 for q in points if not q[x.index(1)])
                     for x in sampled)
    assert len(calls) <= len(variety.equations) * (
        projective_point_count(6, p) + directions * (p - 1))


def _reference_line_points(a, b, p):
    """The line's points scaled by an inverse each, as the oracle once
    listed them."""
    return [_canon([(ai + t * bi) % p for ai, bi in zip(a, b)], p)
            for t in range(p)] + [b]


@pytest.mark.parametrize("n, p", [(3, 5), (2, 7)])
def test_line_points_need_no_inverses(n, p):
    # every ordered pair: leading index of a before, after and equal to b's
    space = list(enumerate_points(n, p))
    for a in space:
        for b in space:
            if a == b:
                continue
            line = ccv.oracle._line_points(a, b, p)
            assert len(set(line)) == p + 1
            assert set(line) == set(_reference_line_points(a, b, p))


# Evaluator calls per cone, recorded from the per-direction ``any`` scan
# with reduced points that the step-by-step filter replaced: it must do
# the same evaluations, not merely find the same cones.
CENSUS_CONE_CALLS = [
    ((1, 3, 3, 4, 1, 4, 4), 243), ((0, 1, 0, 4, 1, 4, 4), 235),
    ((1, 3, 0, 3, 1, 3, 2), 284), ((1, 4, 0, 0, 0, 4, 4), 231),
    ((1, 3, 2, 2, 0, 1, 3), 276), ((1, 4, 3, 0, 1, 2, 4), 254),
    ((1, 4, 3, 4, 1, 1, 2), 271), ((0, 1, 2, 3, 3, 0, 3), 224),
    ((1, 3, 3, 0, 1, 2, 1), 261), ((0, 1, 1, 0, 2, 3, 1), 210),
    ((1, 4, 1, 4, 0, 3, 2), 253), ((0, 1, 0, 0, 4, 0, 3), 259),
    ((1, 0, 4, 1, 4, 2, 3), 242), ((0, 1, 0, 4, 1, 4, 1), 216),
    ((1, 2, 1, 4, 3, 0, 1), 249), ((1, 3, 3, 3, 3, 1, 4), 260)]


def test_cone_evaluations_match_the_recorded_counts(monkeypatch):
    variety = _reduced("quadric3_p4", 5)
    points = _points(variety, 5)
    calls, cones = _count_evaluations(monkeypatch)
    for x in points:
        brute_line_locus(variety, x)
    assert [(x, len(made)) for x, made in cones] == [
        (x, 49) for x in points]
    del calls[:], cones[:]
    cc_census(_reduced("two_quadrics_p6", 5), 8, seed=1)
    assert [(x, len(made)) for x, made in cones] == CENSUS_CONE_CALLS
    assert len(calls) == 27405  # the point sweep included


def test_brute_checks_touch_no_symbolic_machinery(monkeypatch, quadric5):
    import ccv.conics
    import ccv.groebner
    import ccv.poly
    spied = {(ccv.conics, "pencil_conditions"),
             (ccv.poly, "expand_line_pencil"),
             (ccv.groebner, "_minimal_basis")}
    calls = []
    for module, name in spied:
        real = getattr(module, name)

        def spy(*args, _real=real, _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        # every module that imported the function by name gets the spy too
        for other in [ccv, *vars(ccv).values()]:
            if getattr(other, name, None) is real:
                monkeypatch.setattr(other, name, spy)
    cc_census(quadric5, 20, seed=3)
    brute_line_locus(quadric5, (1, 0, 0, 0))
    brute_singular_conics(quadric5, (1, 0, 0, 0), (0, 0, 0, 1))
    assert calls == []
    conic_system(quadric5, reduce_point_mod(qpt(1, 0, 0, 0), 5),
                 reduce_point_mod(qpt(0, 0, 0, 1), 5)).summary
    assert {"pencil_conditions", "expand_line_pencil",
            "_minimal_basis"} <= set(calls)
