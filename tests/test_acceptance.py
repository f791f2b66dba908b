"""Acceptance gate: the headline checks, one test per criterion.

Each test exercises the full advertised behaviour at its stated tolerance
(always exact) and within its stated runtime budget, and prints one
PASS line with the measured time (visible with -s).
"""

import json
import random
import time
from fractions import Fraction

from ccv import (Polynomial, classify_line_family, conic_system,
                 criteria_report, count_conics, groebner_basis, lex_key,
                 lines_dimension_report, load_variety, normal_form,
                 pencil_conditions, reduce_point_mod, reduce_variety_mod,
                 variety_points, brute_line_locus, brute_singular_conics,
                 verify_groebner)
from ccv.cli import entry
from ccv.ffutil import compile_mod_evaluator, enumerate_points

from conftest import VARIETIES, qpt


def run_json(capsys, *argv):
    code = entry(list(argv) + ["--json"])
    out = capsys.readouterr().out
    assert code == 0
    return json.loads(out)


def report(k, elapsed, budget, detail):
    assert elapsed < budget, f"criterion {k} took {elapsed:.2f}s (budget {budget}s)"
    print(f"ACCEPTANCE {k}: PASS ({elapsed:.3f}s < {budget}s) - {detail}")


def test_criterion_1_quadric_worked_example(capsys):
    t0 = time.perf_counter()
    doc = run_json(capsys, "conics", str(VARIETIES / "quadric_p3.json"),
                   "--x", "1,0,0,0", "--y", "0,0,0,1")
    elapsed = time.perf_counter() - t0
    sols = doc["search"]["solutions"]
    nondeg = [s for s in sols if not s["degenerate"]]
    assert len(nondeg) == 2 and len(sols) == 2
    conics = {(tuple(s["line_through_x"]), tuple(s["line_through_y"]))
              for s in nondeg}
    assert conics == {(("x2", "x3"), ("x0", "x2")),
                      (("x1", "x3"), ("x0", "x1"))}
    assert doc["count"]["ideal_degree"] == 2
    assert doc["count"]["formula_value"] == 2      # 2! * 1!
    assert doc["count"]["equality_case"] is True
    assert doc["count"]["matches_formula"] is True
    report(1, elapsed, 1.0,
           "quadric: 2 non-degenerate singular conics, degree 2 = 2!*1!")


def test_criterion_2_two_quadrics_count(capsys):
    t0 = time.perf_counter()
    doc = run_json(capsys, "conics", str(VARIETIES / "two_quadrics_p6.json"),
                   "--x", "1,0,0,0,0,0,0", "--y", "0,0,0,0,0,0,1",
                   "--count-only")
    elapsed = time.perf_counter() - t0
    count = doc["count"]
    assert count["ideal_degree"] == 4
    assert count["formula_value"] == 4             # 2!*1! * 2!*1!
    assert count["formula_applicable"] is True
    assert count["equality_case"] is True          # 2*4 - 2 == 6 == N
    assert count["matches_formula"] is True
    report(2, elapsed, 30.0,
           "two quadrics in P^6: ideal degree 4 = (2!*1!)^2, equality case")


def test_criterion_3_fermat_cubic_fourfold(fermat5):
    x = qpt(3, 4, 5, -6, 0, 0)
    y = qpt(0, 0, 3, 4, 5, -6)
    t0 = time.perf_counter()
    system = conic_system(fermat5, x, y)
    count = count_conics(fermat5, x, y)
    elapsed = time.perf_counter() - t0
    assert len(system.generators) == 5
    assert tuple(g.degree() for g in system.generators) == (1, 2, 3, 1, 2)
    assert count.system_dimension == 0
    assert count.ideal_degree == 12                # 3! * 2!
    assert count.formula_value == 12
    assert count.equality_case is True             # 2*3 - 1 == 5 == N
    assert count.matches_formula is True
    report(3, elapsed, 60.0,
           "Fermat cubic in P^5: 5-generator system, ideal degree 12 = 3!*2!")


def test_criterion_4_criteria_engine_exactness(quadric, fermat4, two_quadrics):
    t0 = time.perf_counter()
    crit_q = {c.name: c for c in criteria_report(quadric).criteria}
    crit_f = {c.name: c for c in criteria_report(fermat4).criteria}
    crit_t = {c.name: c for c in criteria_report(two_quadrics).criteria}
    elapsed = time.perf_counter() - t0
    assert crit_q["singular-conic-connected"].comparison == "2 <= 2"
    assert crit_q["singular-conic-connected"].verdict == "holds"
    assert crit_f["singular-conic-connected"].comparison == "3 <= 5/2"
    assert crit_f["singular-conic-connected"].verdict == "fails"
    assert crit_f["covered-by-lines"].comparison == "3 <= 3"
    assert crit_f["covered-by-lines"].verdict == "holds"
    assert crit_f["boundary-sharpness"].verdict == "holds"
    assert "sharp" in crit_f["boundary-sharpness"].conclusion
    assert crit_t["singular-conic-connected"].comparison == "4 <= 4"
    assert crit_t["singular-conic-connected"].verdict == "holds"
    assert crit_t["smooth-conic-connected"].comparison == "4 <= 4"
    assert crit_t["smooth-conic-connected"].verdict == "holds"
    # every comparison is carried out in exact rational arithmetic
    for crit in (*crit_q.values(), *crit_f.values(), *crit_t.values()):
        if crit.left is not None:
            Fraction(crit.left), Fraction(crit.right)
    report(4, elapsed, 60.0,
           "exact verdicts: 2 <= 2, 3 <= 5/2 with sharpness, twice 4 <= 4")


def test_criterion_5_classifier_table():
    t0 = time.perf_counter()
    g = classify_line_family(6, 3, 3)
    assert [c.key for c in g.candidates] == ["grassmannian-lines-p4"]
    assert any("dual defect k = c - 1 = 2" in f.detail for f in g.findings)
    s = classify_line_family(10, 5, 6)
    assert [c.key for c in s.candidates] == ["spinor-tenfold"]
    for n in (3, 4, 6):
        q = classify_line_family(n, 1, n - 2, delta=n, index=n)
        assert [c.key for c in q.candidates] == ["quadric-hypersurface"]
        assert q.consistent
    # every over-the-bound contact family must be flagged inconsistent
    checked = 0
    for n in range(1, 9):
        for c in range(1, 9):
            for a in range(0, 9):
                if a >= n - c and 2 * a > n + c - 3:
                    rep = classify_line_family(n, c, a)
                    assert not rep.consistent, (n, c, a)
                    checked += 1
    assert checked > 100
    elapsed = time.perf_counter() - t0
    report(5, elapsed, 60.0,
           f"G(1,4), S^10, quadrics, {checked} inconsistent border cases")


def test_criterion_6_oracle_symbolic_equivalence(quadric):
    t0 = time.perf_counter()
    pairs_checked = 0
    for p in (5, 7):
        reduced = reduce_variety_mod(quadric, p)
        points = variety_points(reduced)
        space = tuple(enumerate_points(3, p))
        field = reduced.field

        def zero_set(gens):
            evaluators = [compile_mod_evaluator(g, p) for g in gens]
            return tuple(q for q in space
                         if all(ev(q) == 0 for ev in evaluators))

        for pt in points:
            proj = qpt(*pt, field=field)
            assert zero_set(pencil_conditions(reduced, proj)) == \
                brute_line_locus(reduced, pt)
        for i, xt in enumerate(points):
            for yt in points[i + 1:]:
                xs = qpt(*xt, field=field)
                ys = qpt(*yt, field=field)
                system = conic_system(reduced, xs, ys)
                brute = brute_singular_conics(reduced, xt, yt)
                brute_pts = tuple(
                    tuple(c.value for c in s.vertex.coords) for s in brute)
                assert zero_set(system.generators) == brute_pts, (p, xt, yt)
                pairs_checked += 1
    elapsed = time.perf_counter() - t0
    assert pairs_checked == 36 * 35 // 2 + 64 * 63 // 2
    report(6, elapsed, 120.0,
           f"quadric over F_5 and F_7: all {pairs_checked} point pairs and "
           f"all 100 loci agree with brute force")


def test_criterion_7_line_family_dimensions(quadric3, g14):
    t0 = time.perf_counter()
    rep_q = lines_dimension_report(quadric3, qpt(1, 0, 0, 0, 0))
    assert rep_q.locus_dimension == 2
    assert rep_q.a == 1
    assert rep_q.family_bound == 1                  # N - 1 - sum(d) = 1
    assert rep_q.a == rep_q.family_bound            # met at equality

    # cross-check the cone over F_5 against brute force
    red = reduce_variety_mod(quadric3, 5)
    base5 = reduce_point_mod(qpt(1, 0, 0, 0, 0), 5)
    gens5 = pencil_conditions(red, base5)
    evaluators = [compile_mod_evaluator(g, 5) for g in gens5]
    symbolic = tuple(pt for pt in enumerate_points(4, 5)
                     if all(ev(pt) == 0 for ev in evaluators))
    brute = brute_line_locus(red, (1, 0, 0, 0, 0))
    assert symbolic == brute and len(brute) == 31

    rep_g = lines_dimension_report(g14, qpt(1, 0, 0, 0, 0, 0, 0, 0, 0, 0))
    assert rep_g.a == 3                             # the border value
    elapsed = time.perf_counter() - t0
    report(7, elapsed, 60.0,
           "Q^3 gives a = 1 (= N - 1 - sum(d), oracle-checked over F_5); "
           "G(1,4) gives a = 3")


def _random_ideal(rng, nvars):
    gens = []
    for _ in range(rng.randint(2, 4)):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            mono = [0] * nvars
            for _ in range(rng.randint(0, 3)):
                mono[rng.randrange(nvars)] += 1
            mono = tuple(mono)
            terms[mono] = terms.get(mono, 0) + rng.choice(
                [-3, -2, -1, 1, 2, 3])
        poly = Polynomial.from_terms(
            {m: Fraction(c) for m, c in terms.items() if c}, nvars)
        if not poly.is_zero():
            gens.append(poly)
    return gens or [Polynomial.variable(0, nvars)]


def test_criterion_8_groebner_kernel_properties():
    rng = random.Random(1234321)
    t0 = time.perf_counter()
    for trial in range(20):
        nvars = rng.randint(2, 5)
        gens = _random_ideal(rng, nvars)
        basis = groebner_basis(gens)
        basis_lex = groebner_basis(gens, key=lex_key)
        # post-hoc S-polynomial reduction plus generator membership
        assert verify_groebner(basis, generators=gens)
        assert verify_groebner(basis_lex, key=lex_key, generators=gens)
        for _ in range(4):
            probe = _random_ideal(rng, nvars)[0]
            nf = normal_form(probe, basis)
            assert normal_form(nf, basis) == nf
            nf_lex = normal_form(probe, basis_lex, key=lex_key)
            assert nf.is_zero() == nf_lex.is_zero()
    elapsed = time.perf_counter() - t0
    report(8, elapsed, 60.0,
           "20 randomized ideals: S-polynomials reduce to zero, normal form "
           "idempotent, grevlex/lex membership agrees")


def test_criterion_9_quartic_count_over_fp(capsys):
    t0 = time.perf_counter()
    doc = run_json(capsys, "conics", str(VARIETIES / "ci_4_p7.json"),
                   "--x", "1,0,0,0,0,0,0,0", "--y", "0,0,0,0,0,0,0,1",
                   "--count-only", "--prime", "32003")
    elapsed = time.perf_counter() - t0
    assert doc["count"]["ideal_degree"] == 144
    assert doc["count"]["formula_value"] == 144    # 4! * 3!
    assert doc["count"]["matches_formula"] is True
    report(9, elapsed, 5.0,
           "quartic in P^7 over F_32003: degree 144 = 4!*3!")


def test_criterion_10_quartic_count_over_q(capsys):
    t0 = time.perf_counter()
    doc = run_json(capsys, "conics", str(VARIETIES / "ci_4_p7.json"),
                   "--x", "1,0,0,0,0,0,0,0", "--y", "0,0,0,0,0,0,0,1",
                   "--count-only")
    elapsed = time.perf_counter() - t0
    assert doc["variety"]["field"] == "rational"
    assert doc["count"]["system_dimension"] == 0
    assert doc["count"]["ideal_degree"] == 144
    assert doc["count"]["matches_formula"] is True
    report(10, elapsed, 5.0,
           "quartic in P^7 over Q: degree 144 = 4!*3!, certified mod 32003")
