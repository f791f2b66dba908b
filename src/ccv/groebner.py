"""Groebner bases, ideal membership, and projective dimension/degree.

The Buchberger engine keeps integer coefficients internally: content-free
with positive leading coefficient over the rationals (no Fraction churn),
monic residues modulo p.  Pair selection is normal strategy (smallest lcm
first) with the coprime-lm and chain criteria.  Public results are monic
polynomials sorted by ascending leading monomial.

:func:`normal_form`, :func:`s_polynomial`, and :func:`verify_groebner` are a
separate textbook implementation over field scalars, so a basis produced by
the integer engine can be checked by code that shares none of its internals.

Dimension and degree of a homogeneous ideal both come from the Hilbert
series N(t)/(1-t)^nvars of its leading-term ideal, whose numerator is found
by a variable-pivot recursion on the monomial ideal.  The pole order at t = 1
is the affine dimension: N is divided by 1-t while N(1) = 0, and what is
left, evaluated at 1, is the degree (Bayer and Stillman, "Computation of
Hilbert functions", J. Symbolic Comput. 14, 1992).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import accumulate
from math import gcd

from .fields import FieldMismatchError
from .poly import Polynomial, grevlex_key

__all__ = [
    "groebner_basis",
    "normal_form",
    "s_polynomial",
    "verify_groebner",
    "IdealSummary",
    "ideal_dimension_and_degree",
]


def _divides(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _common_ring(polys):
    nvars = polys[0].nvars
    field = polys[0].field
    for p in polys[1:]:
        if p.nvars != nvars:
            raise ValueError("generators live in different rings")
        if p.field != field:
            raise FieldMismatchError("generators over different fields")
    return nvars, field


# integer-coefficient internals -------------------------------------------

def _int_terms(poly: Polynomial, mod):
    """Plain {monomial: int} dict from a polynomial, denominators cleared."""
    if mod is None:
        denom = 1
        for c in poly.terms.values():
            denom = denom * c.denominator // gcd(denom, c.denominator)
        return {m: int(c * denom) for m, c in poly.terms.items()}
    return {m: c.value for m, c in poly.terms.items()}


def _normalize(terms, mod, key):
    """Content 1 and positive leading coefficient (mod None), or monic."""
    if not terms:
        return terms
    if mod is None:
        content = gcd(*terms.values())
        if terms[max(terms, key=key)] < 0:
            content = -content
        if content != 1:
            terms = {m: c // content for m, c in terms.items()}
        return terms
    lead = terms[max(terms, key=key)]
    if lead != 1:
        inv = pow(lead, mod - 2, mod)
        terms = {m: c * inv % mod for m, c in terms.items()}
    return terms


def _entry(terms, key):
    lm = max(terms, key=key)
    return (lm, terms[lm], terms)


def _reduce(f, entries, key, mod):
    """Remainder of f on division by the entries, never leaving the integers.

    Over the rationals the whole partial result is rescaled whenever a
    reduction step needs it (fraction-free division); mod p the divisors are
    monic so no rescaling happens.  The remainder is not normalized here.
    """
    work = dict(f)
    rem = {}
    while work:
        mono = max(work, key=key)
        hit = None
        for lm, lc, terms in entries:
            if _divides(lm, mono):
                hit = (lm, lc, terms)
                break
        if hit is None:
            rem[mono] = work.pop(mono)
            continue
        lm, lc, terms = hit
        coeff = work[mono]
        if mod is None:
            g = gcd(coeff, lc)
            mult = lc // g
            q = coeff // g
            if mult != 1:
                for m in work:
                    work[m] *= mult
                for m in rem:
                    rem[m] *= mult
        else:
            q = coeff  # divisor is monic
        shift = tuple(a - b for a, b in zip(mono, lm))
        for m2, c2 in terms.items():
            m = tuple(a + b for a, b in zip(m2, shift))
            acc = work.get(m, 0) - q * c2
            if mod is not None:
                acc %= mod
            if acc:
                work[m] = acc
            else:
                work.pop(m, None)
    return rem


def _spair(ei, ej, key, mod):
    """S-polynomial of two entries as an integer term dict."""
    lmi, lci, ti = ei
    lmj, lcj, tj = ej
    lcm = tuple(max(a, b) for a, b in zip(lmi, lmj))
    if mod is None:
        g = gcd(lci, lcj)
        ci, cj = lcj // g, lci // g
    else:
        ci = cj = 1  # both monic
    si = tuple(a - b for a, b in zip(lcm, lmi))
    sj = tuple(a - b for a, b in zip(lcm, lmj))
    s = {}
    for m, c in ti.items():
        mm = tuple(a + b for a, b in zip(m, si))
        s[mm] = s.get(mm, 0) + ci * c
    for m, c in tj.items():
        mm = tuple(a + b for a, b in zip(m, sj))
        acc = s.get(mm, 0) - cj * c
        if mod is not None:
            acc %= mod
        if acc:
            s[mm] = acc
        else:
            s.pop(mm, None)
    if mod is not None:
        s = {m: c % mod for m, c in s.items() if c % mod}
    else:
        s = {m: c for m, c in s.items() if c}
    return s


def _is_unit(terms, nvars) -> bool:
    return len(terms) == 1 and (0,) * nvars in terms


def groebner_basis(polys, key=grevlex_key):
    """Reduced Groebner basis (monic, ascending leading monomials)."""
    polys = [p for p in polys if not p.is_zero()]
    if not polys:
        return []
    nvars, field = _common_ring(polys)
    mod = field.p if field.is_prime_field else None
    one = [Polynomial.constant(1, nvars, field)]

    entries = []
    for p in sorted(polys, key=lambda q: key(q.leading_monomial(key))):
        r = _normalize(_reduce(_int_terms(p, mod), entries, key, mod), mod, key)
        if not r:
            continue
        if _is_unit(r, nvars):
            return one
        entries.append(_entry(r, key))

    heap = []
    pending = set()
    for i in range(len(entries)):
        for j in range(i + 1, len(entries)):
            lcm = tuple(max(a, b) for a, b in zip(entries[i][0], entries[j][0]))
            heapq.heappush(heap, (key(lcm), i, j))
            pending.add((i, j))

    while heap:
        _, i, j = heapq.heappop(heap)
        pending.discard((i, j))
        lmi, lmj = entries[i][0], entries[j][0]
        lcm = tuple(max(a, b) for a, b in zip(lmi, lmj))
        if all(a + b == c for a, b, c in zip(lmi, lmj, lcm)):
            continue  # coprime leading monomials
        skip = False
        for t in range(len(entries)):
            if t in (i, j) or not _divides(entries[t][0], lcm):
                continue
            a = (min(i, t), max(i, t))
            b = (min(j, t), max(j, t))
            if a not in pending and b not in pending:
                skip = True  # both companion pairs already handled
                break
        if skip:
            continue
        r = _normalize(_reduce(_spair(entries[i], entries[j], key, mod),
                               entries, key, mod), mod, key)
        if not r:
            continue
        if _is_unit(r, nvars):
            return one
        k = len(entries)
        entries.append(_entry(r, key))
        for t in range(k):
            lcm = tuple(max(a, b) for a, b in zip(entries[t][0], entries[k][0]))
            heapq.heappush(heap, (key(lcm), t, k))
            pending.add((t, k))

    # minimalize: keep only entries with minimal leading monomials
    order = sorted(range(len(entries)), key=lambda t: key(entries[t][0]))
    kept = []
    for t in order:
        if not any(_divides(entries[s][0], entries[t][0]) for s in kept):
            kept.append(t)
    entries = [entries[t] for t in kept]

    # inter-reduce tails until nothing changes
    changed = True
    while changed:
        changed = False
        for t in range(len(entries)):
            others = entries[:t] + entries[t + 1 :]
            r = _normalize(_reduce(dict(entries[t][2]), others, key, mod),
                           mod, key)
            if r != entries[t][2]:
                entries[t] = _entry(r, key)
                changed = True

    out = []
    for lm, lc, terms in sorted(entries, key=lambda e: key(e[0])):
        if mod is None:
            coeffs = {m: field(c) / field(lc) for m, c in terms.items()}
        else:
            coeffs = {m: field(c) for m, c in terms.items()}
        out.append(Polynomial.from_terms(coeffs, nvars, field))
    return out


# field-scalar checking layer ----------------------------------------------

def normal_form(f: Polynomial, basis, key=grevlex_key) -> Polynomial:
    """Remainder of f on division by the basis, computed with field scalars."""
    basis = [g for g in basis if not g.is_zero()]
    rem = Polynomial.zero(f.nvars, f.field)
    work = f
    leads = [(g.leading_monomial(key), g.leading_coefficient(key), g)
             for g in basis]
    while work:
        mono = work.leading_monomial(key)
        coeff = work.leading_coefficient(key)
        hit = next(((lm, lc, g) for lm, lc, g in leads if _divides(lm, mono)),
                   None)
        if hit is None:
            term = Polynomial.from_terms({mono: coeff}, work.nvars, work.field)
            rem = rem + term
            work = work - term
            continue
        lm, lc, g = hit
        shift = tuple(a - b for a, b in zip(mono, lm))
        factor = Polynomial.from_terms({shift: coeff / lc},
                                       work.nvars, work.field)
        work = work - factor * g
    return rem


def s_polynomial(f: Polynomial, g: Polynomial, key=grevlex_key) -> Polynomial:
    """S-polynomial (lcm/lt(f)) f - (lcm/lt(g)) g."""
    _common_ring([f, g])
    lmf, lmg = f.leading_monomial(key), g.leading_monomial(key)
    lcm = tuple(max(a, b) for a, b in zip(lmf, lmg))
    mf = Polynomial.from_terms(
        {tuple(a - b for a, b in zip(lcm, lmf)): 1 / f.leading_coefficient(key)},
        f.nvars, f.field)
    mg = Polynomial.from_terms(
        {tuple(a - b for a, b in zip(lcm, lmg)): 1 / g.leading_coefficient(key)},
        g.nvars, g.field)
    return mf * f - mg * g


def verify_groebner(basis, key=grevlex_key, generators=None) -> bool:
    """Check the Groebner property from first principles.

    Every pairwise S-polynomial must reduce to zero against the basis, and,
    when the original generators are supplied, each must reduce to zero too
    (containment of the generated ideal).  The reductions run through
    :func:`normal_form`, not the integer engine that built the basis.
    """
    basis = [g for g in basis if not g.is_zero()]
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            if not normal_form(s_polynomial(basis[i], basis[j], key),
                               basis, key).is_zero():
                return False
    if generators is not None:
        for f in generators:
            if not normal_form(f, basis, key).is_zero():
                return False
    return True


# dimension and degree ------------------------------------------------------

@dataclass(frozen=True)
class IdealSummary:
    """Projective dimension and degree read off a Groebner basis.

    ``projective_dimension`` is -1 when the ideal cuts out nothing in
    projective space (unit ideal, or only the affine origin), in which case
    ``degree`` is None.
    """

    projective_dimension: int
    degree: int | None


def ideal_dimension_and_degree(polys, key=grevlex_key) -> IdealSummary:
    """Dimension and degree of the projective scheme cut out by the ideal.

    Generators should be homogeneous; one Groebner basis for ``key`` is
    computed and its leading monomials give both numbers.
    """
    polys = list(polys)
    if not polys:
        raise ValueError("no generators")
    nvars = polys[0].nvars
    lts = _minimalize_monos(
        [g.leading_monomial(key) for g in groebner_basis(polys, key=key)])
    if (0,) * nvars in lts:
        return IdealSummary(-1, None)  # unit ideal
    coeffs = _hilbert_numerator(tuple(sorted(lts)), nvars, {})
    affine_dim = nvars
    while sum(coeffs) == 0:  # N(1) = 0: N/(1-t) is the partial sums
        coeffs = tuple(accumulate(coeffs))[:-1]
        affine_dim -= 1
    if affine_dim == 0:
        return IdealSummary(-1, None)  # cone is just the origin
    degree = sum(coeffs)
    if degree <= 0:
        raise ArithmeticError("Hilbert computation produced a bad degree")
    return IdealSummary(affine_dim - 1, degree)


def _minimalize_monos(monos):
    monos = sorted(set(monos), key=lambda m: (sum(m), m))
    out = []
    for m in monos:
        if not any(_divides(b, m) for b in out):
            out.append(m)
    return out


def _hilbert_numerator(monos, nvars: int, cache: dict):
    """Numerator of the Hilbert series of R/(monomial ideal) over (1-t)^nvars.

    Pairwise-coprime generators give the closed form prod(1 - t^deg); any
    shared variable v splits the ideal as N(I) = N(I + v) + t * N(I : v).
    Unwinding the recursion reproduces inclusion-exclusion over generator
    subsets, just with shared subproblems cached in ``cache``, which lives
    for one top-level call.
    """
    keyed = frozenset(monos)
    hit = cache.get(keyed)
    if hit is not None:
        return hit
    monos = _minimalize_monos(monos)
    if monos and sum(monos[0]) == 0:
        result = (0,)
    else:
        pivot = _shared_variable(monos, nvars)
        if pivot is None:
            result = (1,)
            for m in monos:
                result = _poly_mul(result, _one_minus_power(sum(m)))
        else:
            plus = [tuple(1 if i == pivot else 0 for i in range(nvars))]
            plus += [m for m in monos if not m[pivot]]
            colon = [tuple(e - 1 if i == pivot and e else e
                           for i, e in enumerate(m)) for m in monos]
            left = _hilbert_numerator(
                tuple(sorted(_minimalize_monos(plus))), nvars, cache)
            right = _hilbert_numerator(
                tuple(sorted(_minimalize_monos(colon))), nvars, cache)
            result = _poly_add(left, (0,) + tuple(right))
    cache[keyed] = result
    return result


def _shared_variable(monos, nvars: int):
    """A variable in more than one generator's support, or None if the
    generators are pairwise coprime.  Picks the most shared one."""
    counts = [0] * nvars
    for m in monos:
        for i, e in enumerate(m):
            if e:
                counts[i] += 1
    best = max(range(nvars), key=counts.__getitem__, default=None)
    if best is None or counts[best] < 2:
        return None
    return best


def _one_minus_power(d: int):
    return (1,) + (0,) * (d - 1) + (-1,)


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def _poly_add(a, b):
    n = max(len(a), len(b))
    a = a + (0,) * (n - len(a))
    b = b + (0,) * (n - len(b))
    return tuple(x + y for x, y in zip(a, b))
