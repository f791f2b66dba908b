"""Groebner bases, ideal membership, and projective dimension/degree.

The Buchberger engine computes grevlex bases only, and keeps integer
coefficients internally: content-free with positive leading coefficient
over the rationals (no Fraction churn), monic residues modulo p.  Pair
selection is normal strategy (smallest lcm first, ties by pair index) with
the coprime-lm and chain criteria: the pairs wait in one bucket per lcm
degree, and the loop takes the lowest degree, sorts its bucket once, and
walks it in order (a pair found meanwhile in that degree or a lower one,
which only inhomogeneous input makes, waits in a new bucket).  Public
results are monic polynomials sorted by ascending leading monomial.

Inside :func:`groebner_basis` a monomial is one Python int with a field of
2 * half bits per exponent, whose top bit is a guard.  The fields hold
x_N ... x_0 from the top down, and the total degree is subtracted above
them, so a smaller int is a larger monomial.  A product is ``+``, a
quotient ``-``, and b divides a exactly when ``(a - b) & guards`` is 0 (a
field that borrows sets its guard bit).  Basis exponents and reduction
multipliers must stay below 2^half, which keeps every sum below the guard
bits; anything larger raises :class:`ExponentOverflow` rather than risk a
wrong basis.  The lcm is the maximum field by field: with the degree
masked off, ``((a | guards) - b) & guards`` keeps a field's guard exactly
when a_i >= b_i, and no field borrows, since each exponent is below
2^half; the guard, spread over the bits below it, picks a_i or b_i by
xor.  The lcm's degree is the top field of its exponents times the int
with a one in every field, which is exact because the degree, at most
nvars (2^half - 1), stays below 2^(2 half) - 1 when nvars < 2^half.

Each basis first takes the narrow fields, half = max(8, bit length of
nvars): 16 bits up to 255 variables, so a monomial in 16 variables is
an int of about 260 bits, not 700.  If any step in them, the loop or the
inter-reduction of :func:`groebner_basis`, raises ExponentOverflow, the
basis is taken once more from the start in the wide fields, half = 22,
and only there does the overflow refuse (exit 3).  An overflow can meet
the inter-reduction alone: a tail reduced by an element found after it
can take an exponent that no step of the loop formed.  The solver retakes
a whole solve the same way.

Over the rationals division pops monomials off a heap (Monagan and Pearce,
"Sparse polynomial division using a heap", J. Symbolic Comput. 46, 2011):
each monomial is pushed once, cancelled terms are skipped when popped, and
the divisor's leading term, which always cancels, is never formed.  Modulo
p the S-pairs of one lcm degree are reduced as one sparse matrix (Faugere,
"A new efficient algorithm for computing Groebner bases (F4)", J. Pure
Appl. Algebra 139, 1999).  Symbolic preprocessing adds a reducer m*g for
every column that a leading monomial divides, until no column is new; each
monomial of m*g is formed once and numbered when first found, and once the
columns are sorted a reducer keeps only its column indices and shares g's
tail coefficients (Faugere and Lachartre, PASCO 2010).  The rows are
eliminated together in column order: a column is one int with a slot per
row, so a step on every row is one multiply-add, and a residue is reduced
mod p only when read.  A nonzero result becomes a monic basis element and a
pivot for the rows after it.  A reducer column is eliminated as it is
read and, the loop only moving right, never read again, so it is not
written back and the results are read off the other columns.

The same reduction, one matrix mod p and one division after another over
Q, echelons the generators and inter-reduces the final basis, one leading
degree at a time, by the elements of lower degree and each element by the
ones before it.  That is enough because grevlex is degree-compatible: a
leading monomial that divides a tail term has a lower degree, or has the
same and is smaller, so it leads an earlier element (they ascend).

:func:`normal_form`, :func:`s_polynomial`, and :func:`verify_groebner` are a
separate textbook implementation over tuple monomials and field scalars, so
a basis produced by the packed engine can be checked by code that shares
none of its internals.

Homogeneous input skips every S-pair that the Hilbert function proves
reduces to zero (Traverso, "Hilbert functions and the Buchberger
algorithm", J. Symbolic Comput. 22, 1996).  When the r nonzero generators
are forms with r <= nvars, dim I_d <= ci_d, the degree-d dimension of a
complete intersection of the generators' degrees d_i, whose series is
prod(1 - t^d_i) / (1-t)^nvars (Froberg, "An inequality for Hilbert series
of graded algebras", Math. Scand. 56, 1985).  The bound holds in every
characteristic: I_d is the image of sum_i R_(d-d_i) under the generators,
a rank that is lower semicontinuous in their coefficients and so at most
its generic value, and that value is ci_d because x_1^d_1, ..., x_r^d_r is
a regular sequence.  Normal strategy takes such pairs in non-decreasing
lcm degree, so when it reaches degree d the leading monomials so far span
lt(I) below d, and each new basis element adds exactly one degree-d
monomial to <lt G>.  Once <lt G> has ci_d of them it is all of lt(I)_d,
and every remaining pair of degree d reduces to zero and is skipped (mod
p, a matrix takes at most as many); a degree that has no room when it is
reached is dropped whole.  The loop stops as soon as the numerator it
keeps for <lt G> (below) equals prod(1 - t^d_i), the bound's: then
HF_ci <= HF(R/I) <= HF(R/<lt G>) = HF_ci in every degree, the second
because <lt G> is inside lt(I), so <lt G> = lt(I) and G is already a
Groebner basis; every pair still queued would reduce to zero.  Only zero
reductions are skipped, so the reduced basis, which is unique, does not
change.

Dimension and degree of a homogeneous ideal both come from the Hilbert
series N(t)/(1-t)^nvars of its leading-term ideal, N a sparse
{degree: coefficient} map.  The loop keeps N for the minimal leading
exponents J found so far and updates it with each new leading monomial m
as N(J + m) = N(J) - t^|m| N(J : m), where J : m is generated by the
g / gcd(g, m) (Bigatti, "Computation of Hilbert-Poincare series", J. Pure
Appl. Algebra 119, 1997); J then drops the exponents that m divides and
takes m.  The room left in a degree is read off that N, and so are the
dimension and degree once the loop ends.  Each colon generator is
lcm(g, m) / m, and one of degree 1 is a variable x_v: with V the set of
these, J : m = (x_v : v in V) + I', where I' is generated by the colon
generators free of every x_v in V.  The two parts share no variable, so
N((x_V) + I') = (1 - t)^|V| N(I'), with N(0) = 1; on the count ladder
I' is always 0, and N(J : m) is the binomial row sum_k (-1)^k C(|V|, k)
t^k.  Otherwise N(I') takes the same update: the generators of I' are
added one by one to the zero ideal, in ascending degree, and one that an
earlier one divides is skipped, so each is new and divides none before
it.  I' has at most as many generators as J, and the k-th one added meets
k - 1 leads, so each nested call starts from fewer leads than its caller:
the recursion is at most as deep as J has minimal generators, and no step
depends on the size of an exponent.  N vanishes at t = 1 to the
codimension m, the first order with a nonzero N^(m)(1) / m! = sum_k c_k
C(k, m), and (-1)^m times that sum is the degree (Bayer and Stillman,
"Computation of Hilbert functions", J. Symbolic Comput. 14, 1992).  Only
the leading monomials of a minimal basis are needed, so the summary
neither inter-reduces the tails nor builds polynomials.

Over the rationals that basis is first taken modulo p = 32003, which skips
the coefficient swell of the fraction-free engine.  Each of the r nonzero
homogeneous generators is scaled to its primitive integer form, which has
no denominator and never reduces to zero: its terms are multiplied by the
lcm of the denominators, divided by their gcd, signed so that the first
stored term is positive, and reduced straight into F_p.  The ideal of the
reductions spans no more in any degree than the ideal over Q, so the
Hilbert function can only rise modulo p and the dimension with it; Krull's
height theorem bounds the dimension over Q from below by nvars - r.  So
when the basis mod p shows affine dimension nvars - r, both ideals are
complete intersections with the Hilbert series
prod(1 - t^d_i) / (1 - t)^nvars, and the summary mod p is the summary over
Q (Cox, Little and O'Shea, *Ideals, Varieties, and Algorithms*, ch. 9;
Traverso, cited above).  Its degree must then be the product of the
generator degrees, which is checked.  Any other outcome, and any input
that is not homogeneous, falls back to the basis over Q.

Before either basis, r = nvars - 1 nonzero forms f_1, ..., f_r (over Q,
their primitive forms modulo p) are cut by x_N = 0, x_N = x_(nvars-1) the
smallest variable: each form drops its terms in x_N, the substitution the
solver relies on (Bayer and Stillman, "A criterion for detecting
m-regularity", Invent. Math. 87, 1987).  R / (I + (x_N)) is
k[x_0..x_(N-1)] modulo this section, and x_N is absent from it, so when
its basis shows affine dimension 1 in all nvars variables the section is
Artinian in the other r.  Then f_1, ..., f_r, x_N are N + 1 forms that
generate an ideal primary to the irrelevant ideal, so they are a regular
sequence in the Cohen-Macaulay ring k[x_0..x_N], and a homogeneous
regular sequence stays regular in any order: f_1, ..., f_r is a complete
intersection, with numerator prod(1 - t^d_i) (Bruns and Herzog,
*Cohen-Macaulay Rings*, CUP 1993, sections 1.5 and 4.1).  The section's
forms have the same degrees and are a complete intersection too, so the
numerator its loop keeps is that same product, and the dimension and
degree read off it, after the same Bezout check, are the system's; over
Q the argument above carries them from p to Q.  A section of larger
dimension proves nothing, and the routes above run as before: that
happens when a point of V(I) lies on x_N = 0, or when I is not a
complete intersection.  So do a form that x_N divides, whose section is
0, and any other r: r = nvars - 1 is the shape of every conic system on
the boundary, and exactly the case in which the section can be Artinian.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import reduce
from itertools import groupby
from math import comb, gcd, inf, lcm, prod
from operator import le, mul, or_

from .fields import GF, QQ, FieldMismatchError
from .ffutil import OracleRefusal
from .poly import Polynomial

__all__ = [
    "groebner_basis",
    "normal_form",
    "s_polynomial",
    "verify_groebner",
    "ExponentOverflow",
    "IdealSummary",
    "ideal_dimension_and_degree",
]

_WIDTH = 44  # bits per exponent in the wide fields, the top one a guard
_HALF = _WIDTH // 2  # basis exponents and multipliers stay below 2^_HALF
_CERTIFICATE_PRIME = 32003


class ExponentOverflow(OracleRefusal):
    """An exponent would not fit the packed monomial fields (a refusal, so
    the command line exits 3 as for every other one)."""


def _overflow(what):
    raise ExponentOverflow(f"{what} has an exponent of 2^{_HALF} or more, "
                           "past the packed monomial fields")


# packed-integer engine -----------------------------------------------------

class _Packing:
    """Layout of grevlex exponent tuples as ints, in which a smaller int is
    a larger monomial (module docstring), with fields of 2 * half bits whose
    exponents stay below 2^half; reversed, x_0 is the smallest variable."""

    def __init__(self, nvars: int, half: int = _HALF, reverse=False):
        self.half, self.width = half, 2 * half
        self.top = self.width * nvars
        self.offsets = tuple(range(0, self.top, self.width))[
            ::-1 if reverse else 1]
        self.units = tuple((1 << o) - (1 << self.top) for o in self.offsets)
        self.ones = sum(1 << o for o in self.offsets)
        self.guards = self.ones << (self.width - 1)
        self.overflow = self.ones * ((1 << self.width) - (1 << half))
        self.mask = (1 << self.width) - 1
        self.low = (1 << self.top) - 1  # the exponent fields, no degree

    def lcms(self, m: int, others):
        """The packed lcm of m and each of ``others`` in turn, all with
        exponents below 2^half: each field the larger, picked through the
        guards."""
        low, guards, ones, mask = self.low, self.guards, self.ones, self.mask
        top, below, spread = self.top, self.top - self.width, self.width - 1
        guarded = (em := m & low) | guards
        for g in others:
            eg = g & low
            # a field keeps its guard exactly when m_i >= g_i; none borrows
            keep = (guarded - eg) & guards
            e = eg ^ ((em ^ eg) & (keep - (keep >> spread)))
            yield e - ((e * ones >> below & mask) << top)

    def unpack(self, m: int) -> tuple:
        return tuple((m >> o) & self.mask for o in self.offsets)

    def terms(self, poly: Polynomial, mod) -> dict:
        """{packed monomial: int} from a polynomial, denominators cleared."""
        if poly.degree() >> self.half and any(
                max(m) >> self.half for m in poly.terms):
            _overflow("a generator")
        units = self.units
        if mod is None:
            return {sum(map(mul, m, units)): c
                    for m, c in _integral(poly).items()}
        return {sum(map(mul, m, units)): c.value
                for m, c in poly.terms.items()}


def _integral(poly: Polynomial) -> dict:
    """{monomial: int}: a polynomial over Q times the lcm of its
    denominators, in the polynomial's term order."""
    denom = lcm(*(c.denominator for c in poly.terms.values()))
    return {m: c.numerator * (denom // c.denominator)
            for m, c in poly.terms.items()}


def _common_ring(polys):
    nvars, field = polys[0].nvars, polys[0].field
    for p in polys[1:]:
        if p.nvars != nvars:
            raise ValueError("generators live in different rings")
        if p.field != field:
            raise FieldMismatchError("generators over different fields")
    return nvars, field, field.p if field.is_prime_field else None


def _normalize(terms):
    """Content 1 and a positive first coefficient, for integer terms.  The
    first is the leading one for terms that run from the leading monomial
    down, as :func:`_reduce` makes them."""
    if not terms:
        return terms
    content = gcd(*terms.values())
    if terms[next(iter(terms))] < 0:
        content = -content
    if content != 1:
        terms = {m: c // content for m, c in terms.items()}
    return terms


def _entry(terms, packing):
    """(lm, lc, tail) of a new basis element."""
    if reduce(or_, terms) & packing.overflow:
        _overflow("a basis element")
    items = iter(terms.items())
    lm, lc = next(items)
    return (lm, lc, list(items))


def _reduce(f, entries, packing):
    """Remainder of f on division by the entries over the rationals, never
    leaving the integers: the whole partial result is rescaled whenever a
    step needs it (fraction-free division).  It runs from its leading
    monomial down and is not normalized here."""
    guards = packing.guards
    work = dict(f)
    heap = list(work)
    heapq.heapify(heap)
    push, pop = heapq.heappush, heapq.heappop
    rem = {}
    while heap:
        mono = pop(heap)
        coeff = work.pop(mono)
        if not coeff:
            continue
        for lm, lc, tail in entries:
            shift = mono - lm
            if not shift & guards:
                break
        else:
            rem[mono] = coeff
            continue
        if shift & packing.overflow:
            _overflow("a reduction multiplier")
        g = gcd(coeff, lc)
        mult = lc // g
        q = -(coeff // g)
        if mult != 1:
            for m in work:
                work[m] *= mult
            for m in rem:
                rem[m] *= mult
        for m2, c2 in tail:
            m = m2 + shift
            c = work.get(m)
            if c is None:
                work[m] = q * c2
                push(heap, m)
            else:
                work[m] = c + q * c2
    return rem


def _echelon(rows, entries, packing, mod):
    """The term dicts reduced modulo p by the entries, and each by the rows
    before it, as one sparse matrix (F4, module docstring): the nonzero
    results as monic entries, in row order."""
    guards, overflow = packing.guards, packing.overflow
    found = list(set().union(*rows))  # the columns, in order of discovery
    cols = {m: k for k, m in enumerate(found)}  # monomial -> its number
    multiples = {}  # id(g) -> (g, [(m*lm(g), numbers of m*tail(g))])
    for m in found:  # symbolic preprocessing, until no column is new
        for e in entries:
            shift = m - e[0]
            if not shift & guards:
                break
        else:
            continue
        if shift & overflow:
            _overflow("a reduction multiplier")
        numbers = []  # each monomial m*t is formed once
        for t, _ in e[2]:
            if (k := cols.get(t := t + shift)) is None:
                k = cols[t] = len(found)
                found.append(t)
            numbers.append(k)
        multiples.setdefault(id(e), (e, []))[1].append((m, numbers))
    order = sorted(found)  # largest monomial first
    for k, m in enumerate(order):  # found[n] and cols[m] become columns
        found[cols[m]] = k
        cols[m] = k
    pivots = {}  # column -> (columns, coefficients) of its reducer
    for e, products in multiples.values():
        coeffs = [c for _, c in e[2]]  # shared by every multiple of g
        while products:  # each list of numbers is freed as it is mapped
            m, numbers = products.pop()
            pivots[cols[m]] = [found[k] for k in numbers], coeffs
    # elimination: a slot of ``width`` bits holds n products of residues
    width = 2 * mod.bit_length() + len(order).bit_length() + 1
    mask, shifts = (1 << width) - 1, range(0, width * len(rows), width)
    packed = [0] * len(order)
    for s, row in zip(shifts, rows):
        for m, c in row.items():
            packed[cols[m]] += c % mod << s
    leads = {}  # row -> (its lead's place in ``free``, the lead's inverse)
    free = []  # the columns without a reducer
    for k, v in enumerate(packed):
        cs = [(v >> s & mask) % mod for s in shifts]
        if k in pivots:  # every row takes away its multiple of the reducer
            if q := sum(mod - c << s for c, s in zip(cs, shifts) if c):
                for j, a in zip(*pivots[k]):
                    packed[j] += a * q
            continue
        # no reducer: the first row still without a lead takes the column
        free.append(k)
        r = next((r for r, c in enumerate(cs) if c and r not in leads), None)
        if r is None:
            continue
        leads[r] = len(free) - 1, pow(cs[r], -1, mod)
        q = sum(c * (mod - leads[r][1]) % mod << s
                for c, s in zip(cs[r + 1:], shifts[r + 1:]))
        for j in range(k, len(order)) if q else ():
            if a := (packed[j] >> shifts[r] & mask) % mod:
                packed[j] += a * q
    # a reducer column is never read again once passed (its zeros are not
    # written back): the results are read off the columns without one
    return [_entry({order[j]: c * inv % mod for j in free[f:]
                    if (c := (packed[j] >> shifts[r] & mask) % mod)}, packing)
            for r, (f, inv) in sorted(leads.items())]


def _spair(ei, ej, lcm, mod):
    """S-polynomial of two entries as an integer term dict.  The leading
    terms cancel and are left out; zero and unreduced coefficients are left
    for the reduction."""
    lmi, lci, taili = ei
    lmj, lcj, tailj = ej
    if mod is None:
        g = gcd(lci, lcj)
        ci, cj = lcj // g, lci // g
    else:
        ci = cj = 1  # both monic
    si, sj = lcm - lmi, lcm - lmj
    s = {m + si: ci * c for m, c in taili}
    for m, c in tailj:
        m += sj
        s[m] = s.get(m, 0) - cj * c
    return s


def _reduce_rows(rows, entries, packing, mod):
    """The term dicts reduced by the entries, and each by the rows before
    it: the nonzero results as entries, in row order.  Modulo p they form
    one matrix; over Q each is divided in turn and made primitive."""
    if mod is not None:
        return _echelon(rows, entries, packing, mod)
    new = []
    for f in rows:
        if r := _normalize(_reduce(f, entries + new, packing)):
            new.append(_entry(r, packing))
    return new


def _minimal_basis(polys, reduce_tails=False):
    """(packing, entries, numerator): the minimal Groebner basis of nonzero
    polynomials, ascending, tails inter-reduced only if asked (1 for the
    unit ideal), and the Hilbert numerator of its leading monomials."""
    if not polys:
        return None, [], {0: 1}
    nvars, _, mod = _common_ring(polys)
    return _in_fields(nvars, lambda packing: (packing, *_buchberger(
        [packing.terms(p, mod) for p in polys], packing, mod, reduce_tails)))


def _in_fields(nvars: int, run, reverse=False):
    """run(packing) in the narrow fields, or the wide ones on an overflow."""
    try:
        return run(_Packing(nvars, max(8, nvars.bit_length()), reverse))
    except ExponentOverflow:
        return run(_Packing(nvars, _HALF, reverse))


def _buchberger(rows, packing, mod, reduce_tails):
    """(entries, numerator) of :func:`_minimal_basis` from nonzero term
    dicts in this packing, with ints mod p or integers over Q."""
    nvars, top, guards = len(packing.offsets), packing.top, packing.guards
    entries, leads = [], []
    buckets, pending = {}, set()  # lcm degree -> [(-lcm, i, j)]; unwalked
    # one matrix per leading degree, ascending
    gens = sorted(((min(terms), terms) for terms in rows), key=lambda g: -g[0])
    # the numerator of the minimal leading exponents so far, and for the
    # Hilbert-driven skip (module docstring) the complete-intersection
    # bound: ``room`` is how many more degree-d leading monomials it allows
    numerator, minimal, bound = {0: 1}, [], None
    if len(gens) <= nvars and all(  # homogeneous: max and min in one degree
            lead >> top == max(terms) >> top for lead, terms in gens):
        bound = _one_minus_powers(-(lead >> top) for lead, _ in gens)

    def add(new):
        """Append new entries and their pairs; False on the unit ideal."""
        for e in new:
            if not e[0]:
                return False
            k = len(entries)
            _add_lead(numerator, minimal, e[0], packing)
            for t, lcm in enumerate(packing.lcms(e[0], leads)):
                buckets.setdefault(-(lcm >> top), []).append((-lcm, t, k))
                pending.add((t, k))
            entries.append(e)
            leads.append(e[0])
        return True

    for _, group in groupby(gens, key=lambda g: -(g[0] >> top)):
        if not add(_reduce_rows([terms for _, terms in group], entries,
                                packing, mod)):
            return [(0, 1, [])], {}

    # one lcm degree at a time, until the leads meet the bound (docstring)
    while buckets and numerator != bound:
        d = min(buckets)
        walk = iter(sorted(buckets.pop(d)))
        room = (_hilbert_function(numerator, nvars, d)
                - _hilbert_function(bound, nvars, d)) if bound else inf
        while room != 0:
            # over Q one pair at a time; mod p one matrix of degree d, <= room
            cap = room if mod is not None else 1
            rows = []
            for lcm, i, j in walk:
                lcm = -lcm
                pending.discard((i, j))
                if lcm == leads[i] + leads[j]:
                    continue  # coprime leading monomials
                if any(t != i and t != j and not (lcm - lt) & guards
                       and (min(i, t), max(i, t)) not in pending
                       and (min(j, t), max(j, t)) not in pending
                       for t, lt in enumerate(leads)):
                    continue  # both companion pairs already handled
                rows.append(_spair(entries[i], entries[j], lcm, mod))
                if len(rows) == cap:
                    break
            if not rows:  # the degree is walked
                break
            new = _reduce_rows(rows, entries, packing, mod)
            if not add(new):
                return [(0, 1, [])], {}
            room -= len(new)
        # the rest of a degree left without room reduces to zero
        pending.difference_update((i, j) for _, i, j in walk)

    # the entries with minimal leading monomials, which _add_lead kept,
    # in ascending order
    kept = set(minimal)
    kept = sorted((e for e in entries if e[0] in kept), key=lambda e: -e[0])
    if reduce_tails:  # one leading degree at a time (module docstring)
        start = 0
        for _, run in groupby([-(e[0] >> top) for e in kept]):
            stop = start + len(list(run))
            rows = [dict([e[:2], *e[2]]) for e in kept[start:stop]]
            kept[start:stop] = _reduce_rows(rows, kept[:start], packing, mod)
            start = stop
    return kept, numerator


def groebner_basis(polys):
    """Reduced grevlex Groebner basis (monic, ascending leading monomials).

    Refuses with :class:`ExponentOverflow` if an exponent would outgrow its
    packed field.
    """
    polys = [p for p in polys if not p.is_zero()]
    packing, entries, _ = _minimal_basis(polys, reduce_tails=True)
    basis = []
    while entries:  # free each entry as its polynomial is built
        lm, lc, tail = entries.pop()
        field = polys[0].field
        inv = field.inv(lc)
        basis.append(Polynomial(polys[0].nvars, field, {
            packing.unpack(m): field(c) * inv for m, c in [(lm, lc), *tail]}))
    return basis[::-1]


# field-scalar checking layer ----------------------------------------------

def normal_form(f: Polynomial, basis) -> Polynomial:
    """Remainder of f on division by the basis, computed with field scalars."""
    basis = [g for g in basis if not g.is_zero()]
    rem = Polynomial.zero(f.nvars, f.field)
    work = f
    leads = [(g.leading_monomial(), g.leading_coefficient(), g)
             for g in basis]
    while work:
        mono = work.leading_monomial()
        coeff = work.leading_coefficient()
        hit = next(((lm, lc, g) for lm, lc, g in leads
                    if all(map(le, lm, mono))), None)
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


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    """S-polynomial (lcm/lt(f)) f - (lcm/lt(g)) g."""
    lmf, lmg = f.leading_monomial(), g.leading_monomial()
    lcm = tuple(max(a, b) for a, b in zip(lmf, lmg))
    mf = Polynomial.from_terms(
        {tuple(a - b for a, b in zip(lcm, lmf)): 1 / f.leading_coefficient()},
        f.nvars, f.field)
    mg = Polynomial.from_terms(
        {tuple(a - b for a, b in zip(lcm, lmg)): 1 / g.leading_coefficient()},
        g.nvars, g.field)
    return mf * f - mg * g


def verify_groebner(basis, generators=None) -> bool:
    """Check the Groebner property from first principles.

    Every pairwise S-polynomial must reduce to zero against the basis, and,
    when the original generators are supplied, each must reduce to zero too
    (containment of the generated ideal).  The reductions run through
    :func:`normal_form`, not the integer engine that built the basis.
    """
    basis = [g for g in basis if not g.is_zero()]
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            if not normal_form(s_polynomial(basis[i], basis[j]),
                               basis).is_zero():
                return False
    if generators is not None:
        for f in generators:
            if not normal_form(f, basis).is_zero():
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


def ideal_dimension_and_degree(polys) -> IdealSummary:
    """Dimension and degree of the projective scheme cut out by the ideal.

    r = nvars - 1 homogeneous generators are first cut by x_N = 0: when
    that section shows affine dimension 1, the generators are a complete
    intersection and its basis gives both numbers.  Next, over the
    rationals, homogeneous generators are tried modulo 32003: when that
    basis shows a complete intersection, its summary is the one over Q.
    Otherwise, and over a prime field, one grevlex basis of the generators
    themselves gives both numbers (see the module docstring for each).
    """
    polys = list(polys)
    if not polys:
        raise ValueError("no generators")
    nvars = polys[0].nvars
    live = [p for p in polys if not p.is_zero()]
    if live and all(p.is_homogeneous() for p in live):
        rational = _common_ring(live)[1] == QQ
        forms = ([_primitive_mod(p, GF(_CERTIFICATE_PRIME)) for p in live]
                 if rational else live)
        if len(forms) == nvars - 1:  # the section by x_N = 0
            section = [Polynomial(nvars, f.field, {
                m: c for m, c in f.terms.items() if not m[-1]})
                for f in forms]
            if all(section) and (summary := _complete_intersection(section)):
                return summary
        if rational and (summary := _complete_intersection(forms)):
            return summary
    return _summary(*_leading_dimension_and_degree(live, nvars))


def _complete_intersection(forms):
    """The summary of nonzero forms whose basis shows affine dimension
    nvars - len(forms), a complete intersection, or None."""
    nvars = forms[0].nvars
    dim, degree = _bezout(*_leading_dimension_and_degree(forms, nvars), forms)
    return _summary(dim, degree) if dim == nvars - len(forms) else None


def _bezout(dim: int, degree: int, forms) -> tuple:
    """(dim, degree) as given, the affine dimension and degree of the ideal
    of these nonzero forms, once a complete intersection (dim = nvars -
    len(forms)) is checked to have degree prod(d_i)."""
    if (dim == forms[0].nvars - len(forms)
            and degree != prod(f.degree() for f in forms)):
        raise ArithmeticError("a complete intersection broke Bezout")
    return dim, degree


def _leading_dimension_and_degree(polys, nvars: int) -> tuple:
    """(affine dimension, degree) of the minimal grevlex basis of nonzero
    polynomials, read off the numerator that the loop kept."""
    return _pole_order(_minimal_basis(polys)[2], nvars)


def _primitive_mod(poly: Polynomial, field) -> Polynomial:
    """The primitive integer multiple of a nonzero polynomial over Q, reduced
    into ``field``.  Its coefficients have gcd 1, so it never vanishes."""
    ints = _normalize(_integral(poly))
    return Polynomial(poly.nvars, field,
                      {m: r for m, c in ints.items() if (r := field(c))})


def _pole_order(numerator: dict, nvars: int) -> tuple:
    """(affine dimension, degree) from the Hilbert numerator N over
    (1-t)^nvars; (-1, 0) for N = 0, the unit ideal."""
    if not numerator:
        return -1, 0
    # N = (1 - t)^m Q with Q(1) != 0, so N^(j)(1) = 0 for j < m and
    # N^(m)(1) / m! = (-1)^m Q(1), the degree
    m = 0
    while not (value := sum(c * comb(k, m) for k, c in numerator.items())):
        m += 1
    return nvars - m, (-1) ** m * value


def _summary(affine_dim: int, degree: int) -> IdealSummary:
    if affine_dim <= 0:
        return IdealSummary(-1, None)  # unit ideal, or the cone is the origin
    if degree <= 0:
        raise ArithmeticError("Hilbert computation produced a bad degree")
    return IdealSummary(affine_dim - 1, degree)


def _add_lead(numerator: dict, minimal: list, m: int, packing) -> None:
    """Add the packed lead m, which no lead in ``minimal`` divides, to the
    ideal J they generate, updating ``minimal`` and J's Hilbert numerator
    in place: N(J + m) = N(J) - t^|m| N(J : m), where J : m = (x_v : v in
    V) + I' and N(J : m) = (1 - t)^|V| N(I').  N(I') takes the same update,
    so the recursion is at most as deep as J has minimal generators (module
    docstring)."""
    top, guards = packing.top, packing.guards
    variables, rest = 0, []  # V, one bit per x_v; the other colon generators
    for q in packing.lcms(m, minimal):
        q -= m
        if q >> top == -1:  # of degree 1
            variables |= q & packing.low
        else:
            rest.append(q)
    n = variables.bit_count()
    if rest := [q for q in rest if not q & variables * packing.mask]:
        inner, leads = {0: 1}, []
        for q in sorted(rest, reverse=True):  # ascending degree
            if all((q - g) & guards for g in leads):
                _add_lead(inner, leads, q, packing)
        colon = _one_minus_powers([1] * n, inner)
    else:  # I' = 0: the binomial row of (1 - t)^|V|
        colon = {k: (-1) ** k * comb(n, k) for k in range(n + 1)}
    degree = -(m >> top)
    for k, c in colon.items():
        _add_term(numerator, k + degree, -c)
    minimal[:] = [g for g in minimal if (g - m) & guards]
    minimal.append(m)


def _one_minus_powers(degrees, result=None) -> dict:
    """prod(1 - t^d) over the degrees, times ``result`` when given, as a
    sparse {degree: coeff} map."""
    result = {0: 1} if result is None else result
    for d in degrees:
        out = dict(result)
        for e, c in result.items():
            _add_term(out, e + d, -c)
        result = out
    return result


def _add_term(poly: dict, degree: int, coeff: int) -> None:
    """Add coeff * t^degree to a sparse polynomial, dropping a zero."""
    total = poly.get(degree, 0) + coeff
    if total:
        poly[degree] = total
    else:
        poly.pop(degree, None)


def _hilbert_function(numerator: dict, nvars: int, d: int) -> int:
    """Coefficient of t^d in numerator / (1 - t)^nvars."""
    return sum(c * comb(d - k + nvars - 1, nvars - 1)
               for k, c in numerator.items() if k <= d)
