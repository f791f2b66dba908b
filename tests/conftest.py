from itertools import combinations
from operator import le, mul
from pathlib import Path

import pytest

from ccv import (QQ, ProjectivePoint, grevlex_key, load_variety, normal_form,
                 s_polynomial)

VARIETIES = Path(__file__).resolve().parent.parent / "varieties"


def pack(packing, mono):
    """An exponent tuple as the packed int of the engine's layout."""
    return sum(map(mul, mono, packing.units))


def qpt(*coords, field=QQ):
    return ProjectivePoint([field(c) for c in coords], field)


def textbook_basis(gens):
    """The reduced grevlex Groebner basis of the generators, monic and in
    ascending order, from the field-scalar layer alone: Buchberger's
    algorithm on s_polynomial and normal_form, the pair of smallest lcm
    first, skipping only pairs with coprime leading monomials.  The
    reference for the packed engine."""
    basis = [g for g in gens if not g.is_zero()]
    leads = [g.leading_monomial() for g in basis]
    pairs = set(combinations(range(len(basis)), 2))
    while pairs:
        i, j = min(pairs, key=lambda ij: grevlex_key(
            tuple(map(max, leads[ij[0]], leads[ij[1]]))))
        pairs.remove((i, j))
        if not any(map(min, leads[i], leads[j])):
            continue  # coprime: the S-polynomial reduces to zero
        r = normal_form(s_polynomial(basis[i], basis[j]), basis)
        if not r.is_zero():
            pairs.update((k, len(basis)) for k in range(len(basis)))
            basis.append(r)
            leads.append(r.leading_monomial())
    minimal = []
    for g in sorted(basis, key=lambda g: grevlex_key(g.leading_monomial())):
        if not any(all(map(le, h.leading_monomial(), g.leading_monomial()))
                   for h in minimal):
            minimal.append(g)
    # no other leading monomial divides a term of g: a tail term that g's
    # own lead divided would be larger than it
    reduced = [normal_form(g, minimal[:k] + minimal[k + 1:])
               for k, g in enumerate(minimal)]
    return [g / g.leading_coefficient() for g in reduced]


@pytest.fixture
def quadric():
    return load_variety(VARIETIES / "quadric_p3.json")


@pytest.fixture
def quadric3():
    return load_variety(VARIETIES / "quadric3_p4.json")


@pytest.fixture
def fermat4():
    return load_variety(VARIETIES / "fermat_cubic_p4.json")


@pytest.fixture
def fermat5():
    return load_variety(VARIETIES / "fermat_cubic_p5.json")


@pytest.fixture
def two_quadrics():
    return load_variety(VARIETIES / "two_quadrics_p6.json")


@pytest.fixture
def g14():
    return load_variety(VARIETIES / "g14_p9.json")
