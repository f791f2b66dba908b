"""Brute-force finite-field checks and the sampling census."""

import pytest

from ccv import (Lcg64, OracleRefusal, PointCapExceeded, PrimeTooSmall,
                 brute_line_locus, brute_singular_conics, build_variety,
                 cc_census, conic_system, line_in_variety, reduce_point_mod,
                 reduce_variety_mod, variety_points)
from ccv.ffutil import compile_mod_evaluator, enumerate_points

from conftest import qpt


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
    from ccv import line_locus
    base = reduce_point_mod(qpt(1, 0, 0, 0), 5)
    gens = line_locus(quadric5, base).ideal_generators
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
