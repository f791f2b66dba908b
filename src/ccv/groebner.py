"""Groebner bases, ideal membership, and projective dimension/degree.

The Buchberger engine keeps integer coefficients internally: content-free
with positive leading coefficient over the rationals (no Fraction churn),
monic residues modulo p.  Pair selection is normal strategy (smallest lcm
first, by degree first except in lex over Q, ties by pair index) with the
coprime-lm and chain criteria.  Public results are monic polynomials sorted
by ascending leading monomial.

Inside :func:`groebner_basis` a monomial is one Python int with a
fixed-width field per exponent, whose top bit is a guard.  Grevlex lays out
x_N ... x_0 from the top field down and subtracts the total degree above
them, so a smaller int is a larger monomial; lex lays out x_0 ... x_N, so a
larger int is larger.  A product is ``+``, a quotient ``-``, and b divides a
exactly when ``(a - b) & guards`` is 0 (a field that borrows sets its guard
bit).  Basis exponents and reduction multipliers must stay below 2^_HALF,
half the field, which keeps every sum below the guard bits; anything larger
raises :class:`ExponentOverflow` rather than risk a wrong basis.

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
pivot for the rows after it.  The same kernel echelons the generators and
inter-reduces the final basis, one leading degree at a time.

:func:`normal_form`, :func:`s_polynomial`, and :func:`verify_groebner` are a
separate textbook implementation over tuple monomials and field scalars, so
a basis produced by the packed engine can be checked by code that shares
none of its internals.

Homogeneous input in grevlex skips every S-pair that the Hilbert function
proves reduces to zero (Traverso, "Hilbert functions and the Buchberger
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
p, a matrix takes at most as many).  Only zero reductions are skipped, so
the reduced basis, which is unique, does not change.

Dimension and degree of a homogeneous ideal both come from the Hilbert
series N(t)/(1-t)^nvars of its leading-term ideal.  N is a sparse
{degree: coefficient} map found by a pivot recursion on the monomial ideal
that splits on the smallest positive power of a shared variable, so
exponents near the field limit cost no more than small ones.  N vanishes
at t = 1 to the codimension m, the first order with a nonzero N^(m)(1) /
m! = sum_k c_k C(k, m), and (-1)^m times that sum is the degree (Bayer and
Stillman, "Computation of Hilbert functions", J. Symbolic Comput. 14,
1992).  Only the leading monomials of a minimal basis are needed, so the
summary neither inter-reduces the tails nor builds polynomials.

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
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import reduce
from itertools import groupby
from math import comb, gcd, lcm, prod
from operator import le, or_

from .fields import GF, QQ, FieldMismatchError
from .ffutil import OracleRefusal
from .poly import Polynomial, grevlex_key, lex_key

__all__ = [
    "groebner_basis",
    "normal_form",
    "s_polynomial",
    "verify_groebner",
    "ExponentOverflow",
    "IdealSummary",
    "ideal_dimension_and_degree",
]

_WIDTH = 44  # bits per exponent field, the top one a guard
_HALF = _WIDTH // 2  # basis exponents and multipliers stay below 2^_HALF
_CERTIFICATE_PRIME = 32003


class ExponentOverflow(OracleRefusal):
    """An exponent would not fit the packed monomial fields (a refusal, so
    the command line exits 3 as for every other one)."""


def _overflow(what):
    raise ExponentOverflow(f"{what} has an exponent of 2^{_HALF} or more, "
                           "past the packed monomial fields")


def _divides(a, b) -> bool:
    return all(map(le, a, b))


# packed-integer engine -----------------------------------------------------

class _Packing:
    """Layout of exponent tuples as ints for grevlex or lex (see the module
    docstring).  ``down`` is 1 when a smaller int is a larger monomial and
    -1 otherwise, so ``down * m`` is a min-heap priority, largest first."""

    def __init__(self, nvars: int, graded: bool):
        self.graded = graded
        self.down = 1 if graded else -1
        self.top = _WIDTH * nvars
        self.offsets = tuple(_WIDTH * (i if graded else nvars - 1 - i)
                             for i in range(nvars))
        ones = sum(1 << o for o in self.offsets)
        self.guards = ones << (_WIDTH - 1)
        self.overflow = ones * ((1 << _WIDTH) - (1 << _HALF))
        self.mask = (1 << _WIDTH) - 1

    def pack(self, mono) -> int:
        if mono and max(mono) >> _HALF:
            _overflow("a generator")
        m = sum(e << o for e, o in zip(mono, self.offsets))
        return m - (sum(mono) << self.top) if self.graded else m

    def unpack(self, m: int) -> tuple:
        return tuple((m >> o) & self.mask for o in self.offsets)

    def terms(self, poly: Polynomial, mod) -> dict:
        """{packed monomial: int} from a polynomial, denominators cleared."""
        if mod is None:
            return {self.pack(m): c for m, c in _integral(poly).items()}
        return {self.pack(m): c.value for m, c in poly.terms.items()}


def _integral(poly: Polynomial) -> dict:
    """{monomial: int}: a polynomial over Q times the lcm of its
    denominators, in the polynomial's term order."""
    denom = lcm(*(c.denominator for c in poly.terms.values()))
    return {m: c.numerator * (denom // c.denominator)
            for m, c in poly.terms.items()}


def _common_ring(polys):
    nvars = polys[0].nvars
    field = polys[0].field
    for p in polys[1:]:
        if p.nvars != nvars:
            raise ValueError("generators live in different rings")
        if p.field != field:
            raise FieldMismatchError("generators over different fields")
    return nvars, field


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
    down, guards = packing.down, packing.guards
    work = dict(f)
    heap = [down * m for m in work]
    heapq.heapify(heap)
    push, pop = heapq.heappush, heapq.heappop
    rem = {}
    while heap:
        mono = down * pop(heap)
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
                push(heap, down * m)
            else:
                work[m] = c + q * c2
    return rem


def _echelon(rows, entries, packing, mod, own=()):
    """The term dicts reduced modulo p by the entries, and each by the rows
    before it, as one sparse matrix (F4, module docstring): the nonzero
    results as monic entries, in row order.  A monomial in ``own`` leads
    one of the rows, its pivot, so no reducer is sought for it."""
    guards, overflow = packing.guards, packing.overflow
    found = list(set().union(*rows))  # the columns, in order of discovery
    cols = {m: k for k, m in enumerate(found)}  # monomial -> its number
    multiples = {}  # id(g) -> (g, [(m*lm(g), numbers of m*tail(g))])
    for m in found:  # symbolic preprocessing, until no column is new
        if m in own:
            continue
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
    order = sorted(found, reverse=packing.down < 0)  # largest monomial first
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
    leads = {}  # row -> (its leading column, the inverse of its lead)
    for k, v in enumerate(packed):
        cs = [(v >> s & mask) % mod for s in shifts]
        if k in pivots:  # every row takes away its multiple of the reducer
            if q := sum(mod - c << s for c, s in zip(cs, shifts) if c):
                packed[k] += q
                for j, a in zip(*pivots[k]):
                    packed[j] += a * q
            continue
        # no reducer: the first row still without a lead takes the column
        r = next((r for r, c in enumerate(cs) if c and r not in leads), None)
        if r is None:
            continue
        leads[r] = k, pow(cs[r], -1, mod)
        q = sum(c * (mod - leads[r][1]) % mod << s
                for c, s in zip(cs[r + 1:], shifts[r + 1:]))
        for j in range(k, len(order)) if q else ():
            if a := (packed[j] >> shifts[r] & mask) % mod:
                packed[j] += a * q
    return [_entry({order[j]: c * inv % mod for j in range(k, len(order))
                    if (c := (packed[j] >> shifts[r] & mask) % mod)}, packing)
            for r, (k, inv) in sorted(leads.items())]


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


def _minimal_basis(polys, key=grevlex_key):
    """(packing, entries) of the minimal Groebner basis of nonzero
    polynomials, ascending, tails not inter-reduced; 1 for the unit ideal."""
    if not polys:
        return None, []
    nvars, field = _common_ring(polys)
    mod = field.p if field.is_prime_field else None
    packing = _Packing(nvars, key is grevlex_key)
    down, guards = packing.down, packing.guards
    entries, exps = [], []  # exps: exponents of each leading monomial
    # pairs (lcm degree, priority, i, j, lcm), by degree so that a matrix
    # takes one; not for lex over Q, where that made a basis 400x slower
    by_degree = packing.graded or mod is not None
    heap, pending = [], set()

    def echelon(rows):  # the rows reduced by the entries and each other
        if mod is not None:
            return _echelon(rows, entries, packing, mod)
        new = []
        for f in rows:
            if r := _normalize(_reduce(f, entries + new, packing)):
                new.append(_entry(r, packing))
        return new

    def add(new):
        """Append new entries and their pairs; False on the unit ideal."""
        for e in new:
            if not e[0]:
                return False
            k = len(entries)
            entries.append(e)
            exps.append(packing.unpack(e[0]))
            for t in range(k):
                lcm = tuple(map(max, exps[t], exps[k]))
                packed = packing.pack(lcm)
                heapq.heappush(heap, (sum(lcm) if by_degree else 0,
                                      -down * packed, t, k, packed))
                pending.add((t, k))
        return True

    # one matrix per leading degree, ascending
    for _, group in groupby(sorted(
            ((q.leading_monomial(key), q) for q in polys),
            key=lambda t: key(t[0])), key=lambda t: sum(t[0])):
        if not add(echelon([packing.terms(p, mod) for _, p in group])):
            return packing, [(0, 1, [])]

    # Hilbert-driven skip (module docstring): ``room`` is how many more
    # degree-d leading monomials the complete-intersection bound allows
    bound = None
    if packing.graded and len(polys) <= nvars and all(
            p.is_homogeneous() for p in polys):
        bound = _one_minus_powers(p.degree() for p in polys)
    degree = room = None
    cache = {}  # Hilbert subproblems, shared across degrees

    while heap:
        d = heap[0][0]
        if bound is not None and d != degree:
            lts = _hilbert_numerator(
                tuple(sorted(_minimalize_monos(exps))), nvars, cache)
            degree = d
            room = (_hilbert_function(lts, nvars, d)
                    - _hilbert_function(bound, nvars, d))
        # over Q one pair at a time; mod p one matrix of degree d, <= room
        cap = (room or len(heap)) if mod is not None else 1
        rows = []
        while heap and heap[0][0] == d and len(rows) < cap:
            _, _, i, j, lcm = heapq.heappop(heap)
            pending.discard((i, j))
            if room == 0 or lcm == entries[i][0] + entries[j][0]:
                continue  # no room left, or coprime leading monomials
            if any(t != i and t != j and not (lcm - entries[t][0]) & guards
                   and (min(i, t), max(i, t)) not in pending
                   and (min(j, t), max(j, t)) not in pending
                   for t in range(len(entries))):
                continue  # both companion pairs already handled
            rows.append(_spair(entries[i], entries[j], lcm, mod))
        if rows:
            new = echelon(rows)
            if not add(new):
                return packing, [(0, 1, [])]
            if bound is not None:
                room -= len(new)

    # minimalize: keep only minimal leading monomials, in ascending order
    kept = []
    for e in sorted(entries, key=lambda e: -down * e[0]):
        if all((e[0] - k[0]) & guards for k in kept):
            kept.append(e)
    return packing, kept


def groebner_basis(polys, key=grevlex_key):
    """Reduced Groebner basis (monic, ascending leading monomials).

    ``key`` is :func:`~ccv.poly.grevlex_key` or :func:`~ccv.poly.lex_key`;
    any other order raises ValueError.  Refuses with
    :class:`ExponentOverflow` if an exponent would outgrow its packed field.
    """
    if key is not grevlex_key and key is not lex_key:
        raise ValueError("groebner_basis supports grevlex_key and lex_key")
    polys = [p for p in polys if not p.is_zero()]
    if not polys:
        return []
    nvars, field = _common_ring(polys)
    packing, entries = _minimal_basis(polys, key)

    # inter-reduce tails: no leading monomial divides another, so reduction
    # never changes one, and one pass leaves every tail reduced
    if not field.is_prime_field:
        for t in range(len(entries)):
            lm, lc, tail = entries.pop(t)
            entries.insert(t, _entry(_normalize(_reduce(
                [(lm, lc), *tail], entries, packing)), packing))
    else:  # one matrix per leading degree, written back in place
        start = 0
        for _, run in groupby([sum(packing.unpack(e[0])) for e in entries]):
            stop = start + len(list(run))
            rows = [dict([e[:2], *e[2]]) for e in entries[start:stop]]
            entries[start:stop] = _echelon(rows, entries, packing, field.p,
                                           {next(iter(r)) for r in rows})
            start = stop

    basis = []
    while entries:  # free each entry as its polynomial is built
        lm, lc, tail = entries.pop()
        inv = field.inv(lc)
        basis.append(Polynomial(nvars, field, {
            packing.unpack(m): field(c) * inv for m, c in [(lm, lc), *tail]}))
    return basis[::-1]


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


def ideal_dimension_and_degree(polys) -> IdealSummary:
    """Dimension and degree of the projective scheme cut out by the ideal.

    Over the rationals, homogeneous generators are first tried modulo
    32003: when that basis shows a complete intersection, its summary is
    the one over Q (see the module docstring).  Otherwise, and over a prime
    field, one grevlex basis of the generators themselves gives both
    numbers.
    """
    polys = list(polys)
    if not polys:
        raise ValueError("no generators")
    nvars = polys[0].nvars
    live = [p for p in polys if not p.is_zero()]
    if live and _common_ring(live)[1] == QQ and all(
            p.is_homogeneous() for p in live):
        field = GF(_CERTIFICATE_PRIME)
        dim, degree = _leading_dimension_and_degree(
            [_primitive_mod(p, field) for p in live], nvars)
        if dim == nvars - len(live):
            if degree != prod(p.degree() for p in live):
                raise ArithmeticError("a complete intersection modulo "
                                      f"{_CERTIFICATE_PRIME} broke Bezout")
            return _summary(dim, degree)
    return _summary(*_leading_dimension_and_degree(live, nvars))


def _leading_dimension_and_degree(polys, nvars: int) -> tuple:
    """:func:`_hilbert_dimension_and_degree` of the minimal grevlex basis of
    nonzero polynomials, read off its packed leading monomials alone."""
    packing, entries = _minimal_basis(polys)
    return _dimension_and_degree([packing.unpack(e[0]) for e in entries],
                                 nvars)


def _primitive_mod(poly: Polynomial, field) -> Polynomial:
    """The primitive integer multiple of a nonzero polynomial over Q, reduced
    into ``field``.  Its coefficients have gcd 1, so it never vanishes."""
    ints = _normalize(_integral(poly))
    return Polynomial(poly.nvars, field,
                      {m: r for m, c in ints.items() if (r := field(c))})


def _hilbert_dimension_and_degree(basis, nvars: int) -> tuple:
    """(affine dimension, degree) of the ideal of a grevlex basis: the pole
    order of its Hilbert series at t = 1 and the numerator left there.  The
    unit ideal, whose series is 0, gives (-1, 0)."""
    return _dimension_and_degree([g.leading_monomial() for g in basis], nvars)


def _dimension_and_degree(leads, nvars: int) -> tuple:
    """:func:`_hilbert_dimension_and_degree` from the leading exponents."""
    lts = _minimalize_monos(leads)
    if (0,) * nvars in lts:
        return -1, 0
    numerator = _hilbert_numerator(tuple(sorted(lts)), nvars, {})
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


def _minimalize_monos(monos):
    monos = sorted(set(monos), key=lambda m: (sum(m), m))
    out = []
    for m in monos:
        if not any(_divides(b, m) for b in out):
            out.append(m)
    return out


def _hilbert_numerator(monos, nvars: int, cache: dict) -> dict:
    """Numerator of the Hilbert series of R/(monomial ideal) over (1-t)^nvars,
    as a sparse {degree: nonzero coefficient} map.

    Pairwise-coprime generators give the closed form prod(1 - t^deg); any
    shared variable v splits the ideal on x_v^k, k the smallest positive
    exponent of v, as N(I) = N(I + x_v^k) + t^k * N(I : x_v^k).  Unwinding
    the recursion reproduces inclusion-exclusion over generator subsets,
    just with shared subproblems cached in ``cache``, which the caller
    keeps for as long as it likes.  ``monos`` is minimal and sorted.
    """
    hit = cache.get(monos)
    if hit is not None:
        return hit
    if monos and sum(monos[0]) == 0:
        result = {}
    else:
        pivot = _shared_variable(monos, nvars)
        if pivot is None:
            result = _one_minus_powers(sum(m) for m in monos)
        else:
            k = min(m[pivot] for m in monos if m[pivot])
            plus = [tuple(k if i == pivot else 0 for i in range(nvars))]
            plus += [m for m in monos if not m[pivot]]
            colon = [tuple(max(e - k, 0) if i == pivot else e
                           for i, e in enumerate(m)) for m in monos]
            result = dict(_hilbert_numerator(tuple(sorted(plus)), nvars,
                                             cache))
            right = _hilbert_numerator(
                tuple(sorted(_minimalize_monos(colon))), nvars, cache)
            for e, c in right.items():
                _add_term(result, e + k, c)
    cache[monos] = result
    return result


def _shared_variable(monos, nvars: int):
    """A variable in more than one generator's support, or None if the
    generators are pairwise coprime.  Picks the most shared one."""
    counts = [sum(1 for m in monos if m[i]) for i in range(nvars)]
    best = max(range(nvars), key=counts.__getitem__, default=None)
    return best if best is not None and counts[best] > 1 else None


def _one_minus_powers(degrees) -> dict:
    """prod(1 - t^d) over the degrees, as a sparse {degree: coeff} map."""
    result = {0: 1}
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
