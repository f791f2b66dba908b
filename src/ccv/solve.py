"""Enumerate the points of a zero-dimensional projective system exactly.

Projective space is split into the disjoint cells x0 = ... = x_{j-1} = 0,
x_j = 1.  One substitution on the engine's packed entries fixes every
variable the solver fixes: x_j = 1 for a cell, x_j = 0 for the hyperplane
after it, and x_j = r for each root r below.  Setting 0 drops the terms
in x_j and setting 1 takes e times the packed x_j off a term in x_j^e, so
neither multiplies a scalar; a root a/b scales it by a^e b^(max e - e).

The system must be homogeneous, and one grevlex Groebner basis G of it
serves every cell.  G packs x_0 in the top field, so that x_0 is the
smallest variable, x_1 the smallest of the rest, and so on.  For a
homogeneous basis and its smallest variable x, the leading monomial of
each form has the least power of x among its terms, and:
- x = 1 gives a Groebner basis of the cell: it divides every leading
  monomial by that power, which keeps it leading and merges no terms,
  and the results generate the leading ideal of the cell (Cox, Little and
  O'Shea, *Ideals, Varieties, and Algorithms*, ch. 8 section 4); packed,
  a term with more x than the lead loses more degree: the lead stays least;
- x = 0 gives a homogeneous Groebner basis of the hyperplane, in which
  the next variable is the smallest: in(J + (x)) = in(J) + (x) for revlex
  (Bayer and Stillman, Invent. Math. 87, 1987), a form whose leading
  monomial x divides is a multiple of x and drops out, and every other
  keeps its leading monomial.
So no cell or hyperplane takes a basis of its own, and a cell with no
point shows a nonzero constant at once; a hyperplane never does, since
x = 0 leaves each term of a form at its positive degree.  A cell's basis
need be neither reduced nor minimal, since the multiplication map below
reduces as it goes.  Only the system left after a root substitution
takes a fresh basis.  The Hilbert numerator that the engine keeps for
the leading monomials of G gives the dimension and degree of the system,
since R/I and R/in(I) have one Hilbert series for every term order (Cox,
Little and O'Shea, ch. 9 section 3), and no cell is solved unless it
shows projective dimension 0.  Every cell of a finite projective scheme,
and every fiber of a cell over a root, is then finite.  N = nvars - 1
generators take their summary from G; any other number, infinite or
empty in general, takes it from groebner.ideal_dimension_and_degree
first, and G only when that shows projective dimension 0.

The monic generator of I and k[x], for a variable x, is the minimal
polynomial of 1 under the map M of multiplication by x on k[x]/I (FGLM
restricted to one variable: Faugere, Gianni, Lazard and Mora, J. Symbolic
Comput. 16, 1993).  Its roots are the values of x on the points over the
closure, so no form of the cell's basis becomes a nonzero constant at a
root r, and the basis of the fiber x = r is not (1); and fixing each
root and solving the rest gives the same points whichever variable comes
first.  The solver fixes the smallest live variable first: in grevlex
x*s is again a standard monomial for most standard s, so most columns of
its map are unit columns, where the largest variable's map is dense
(Faugere and Mou, ISSAC 2011).  The columns of M are the normal
forms of x*s for the standard monomials s reachable from 1, reduced by the
cell's basis as it is; over Q each column is integers over one
denominator.  The Krylov vectors 1, M 1, M^2 1, ... are residues packed
into one int each, echeloned in turn until the first dependency.  Over Q
that echelon runs modulo primes counted down from 2^62 - 57, skipping any
that divides a denominator of M; a prime that gives a lower degree than
another is unlucky and is dropped.  The residues are combined by the
Chinese remainder theorem and each coefficient is reconstructed as a
fraction (P. S. Wang, 1981).  The first reconstruction of every
coefficient that differs from the last one checked is accepted only if
g(M) 1 = 0 in exact integer arithmetic.  The true minimal polynomial f
then divides g, while deg g <= deg f, since the Krylov rank can only drop
modulo p; so g = f, however many unlucky primes agreed on a wrong g.  Its
coefficients go to the root finder as they are; each root r is substituted
into the cell's basis, and the smaller system takes its own basis and is
solved the same way.  The points of a cell are then sorted once into the
order a lex solve gives, x_N first, then x_{N-1}, and so on: a coordinate
by its residue over F_p, and over Q by (|numerator|, denominator), the
positive one of a pair first, the order of the roots.

Univariate roots over a prime field are the residues where the polynomial
vanishes; gcd(f, t^p - t) counts them first, so a scan that can find none
never starts and the others stop at the last one.  Over the rationals they
come from p-adic lifting (Loos, SIAM J. Comput. 12, 1983): the roots of the
square-free part modulo a small prime at which they are all simple are
lifted by Newton's method past the size bound on a/b, recovered by rational
reconstruction and kept only when exact evaluation gives zero.  So for a
zero-dimensional system the enumeration of rational points is exhaustive.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from functools import partial, reduce
from itertools import chain, count, islice, takewhile
from math import gcd, isqrt, lcm

from .ffutil import check_point_budget
from .fields import is_prime
from .poly import ProjectivePoint
from .groebner import (_buchberger, _common_ring, _in_fields, _normalize,
                       _overflow, _summary, ideal_dimension_and_degree)

__all__ = ["projective_rational_solutions", "rational_roots"]

# First prime tried by the modular square-free test; one this large rarely
# divides disc(f), so a square-free f nearly always skips the remainders.
_SQUAREFREE_PRIME = 32003

# The primes below 2^62 in descending order: the first eight, which every
# cell of the benchmark stays within, and the others found when first needed
_PRIMES = [2**62 - 57, 2**62 - 87, 2**62 - 117, 2**62 - 143, 2**62 - 153,
           2**62 - 167, 2**62 - 171, 2**62 - 195]


def projective_rational_solutions(gens) -> list:
    """All field-rational points of V(gens) in projective space.

    The generators must be homogeneous and cut out a zero-dimensional
    projective scheme (over the algebraic closure); otherwise a ValueError
    is raised rather than returning a silently incomplete list.
    """
    summary, points = summary_and_points(gens)
    if summary.projective_dimension > 0:
        raise ValueError("system is not zero-dimensional")
    return points or []


def summary_and_points(gens, cap=None) -> tuple:
    """(summary, points) of homogeneous generators: their
    :class:`IdealSummary`, and the points when it shows projective
    dimension 0, or else None, by the one rule of the module docstring.
    Over F_p a ``cap`` bounds P^1(F_p), which the root scan visits, before
    any root."""
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        raise ValueError("empty system is not zero-dimensional")
    if not all(g.is_homogeneous() for g in gens):
        raise ValueError("the system is not homogeneous")
    nvars, field, mod = _common_ring(gens)
    if len(gens) != nvars - 1 and (
            summary := ideal_dimension_and_degree(gens)).projective_dimension:
        return summary, None
    return _in_fields(nvars, partial(_points, gens, field, mod, cap),
                      reverse=True)


def _points(gens, field, mod, cap, packing) -> tuple:
    """:func:`summary_and_points` in one reversed packing."""
    nvars = len(packing.offsets)
    basis, numerator = _buchberger([packing.terms(g, mod) for g in gens],
                                   packing, mod, True)
    summary = _summary(numerator, nvars, gens)
    if summary.projective_dimension:
        return summary, None
    if mod and cap:
        check_point_budget(1, mod, cap)
    points = []
    for j in range(nvars):
        if (cell := _substitute(basis, j, 1, packing, mod)) is not None:
            live = list(range(j + 1, nvars))  # the smallest first
            sols = _affine_points(_entries(cell), live, packing, mod)
            for sol in sorted(sols, key=lambda s: [  # x_N first
                    _rational_key(s[i]) for i in reversed(live)]):
                points.append(ProjectivePoint(
                    [0] * j + [1] + [sol[i] for i in live], field))
        basis = _entries(_substitute(basis, j, 0, packing, mod))
    return summary, points


def _substitute(entries, j, value, packing, mod):
    """The nonzero term dicts, lead first, left by x_j = value in packed
    entries, or None when one is a nonzero constant (module docstring)."""
    shift, mask, unit = packing.offsets[j], packing.mask, packing.units[j]
    out = []
    for lead, lc, tail in entries:
        terms, scale = {}, None
        if value not in (0, 1):  # a root a/b: a^e b^(E - e) for each e
            top = max(m >> shift & mask for m, _ in chain([(lead, lc)], tail))
            scale = [pow(value.numerator, e, mod) * value.denominator
                     ** (top - e) for e in range(top + 1)]
        for m, c in chain([(lead, lc)], tail):
            if (e := m >> shift & mask) and not value:
                continue
            if scale:
                c = c * scale[e] % mod if mod else c * scale[e]
            if (v := terms.get(m := m - e * unit)) is None:
                terms[m] = c
            elif v := (v + c) % mod if mod else v + c:
                terms[m] = v
            else:
                del terms[m]
        if scale and not mod:
            terms = _normalize(terms)
        if terms:
            if not any(terms):
                return None
            out.append(terms)
    return out


def _entries(polys) -> list:
    """The lead-first term dicts as entries (lead, lc, tail), in place."""
    return [(lead, terms.pop(lead), terms.items())
            for terms in polys for lead in [next(iter(terms))]]


def _affine_points(basis, live, packing, mod):
    """Solutions {var: value} of the affine system on ``live`` that this
    packed grevlex Groebner basis generates."""
    if not live:
        return [] if basis else [{}]
    var, rest = live[0], live[1:]  # the smallest live variable first
    out = []
    for root in _univariate_roots(_minimal_polynomial(basis, var, packing,
                                                      mod), mod):
        sub = _substitute(basis, var, root, packing, mod)
        sub = _buchberger(sub, packing, mod, True)[0] if rest else sub
        for sol in _affine_points(sub, rest, packing, mod):
            sol[var] = root
            out.append(sol)
    return out


def _minimal_polynomial(basis, var, packing, mod) -> list:
    """Coefficients, lowest first, of the monic generator of I and k[var],
    for the zero-dimensional ideal I of a packed grevlex Groebner basis
    (not the unit ideal): ints mod p, or Fractions."""
    columns = _multiplication_map(basis, packing.units[var], packing, mod)
    return (_rational_minimal_polynomial(columns) if mod is None
            else _minimal_polynomial_mod([c for _, c in columns], mod))


def _multiplication_map(reducers, step, packing, mod) -> list:
    """Sparse columns (den, {row: int}) of multiplication by the packed
    monomial ``step`` on the standard monomials reachable from 1, which are
    numbered as they are found (1 is row 0); entry i of a column is its
    int over den, in lowest terms, and den is 1 mod p.

    Column s is the normal form of step * s.  A heap pops the largest
    monomial left: one whose normal form is known adds that form, and any
    other is a standard monomial or is replaced by its first reducer's
    tail times the quotient, subtracted.  Residues are reduced mod p when
    popped.  Over Q no fraction is formed: adding c/d times a form or a
    tail first scales the column's work, form and denominator by
    d / gcd(c, d).
    """
    guards, overflow = packing.guards, packing.overflow
    known = {0: (1, {0: 1})}  # packed monomial -> its normal form
    found, columns = [0], []
    for s in found:  # the loop reaches the rows found on the way
        work, den = {s + step: 1}, 1
        heap, form = list(work), {}
        while heap:
            m = heapq.heappop(heap)
            c = work.pop(m) if mod is None else work.pop(m) % mod
            if not c:
                continue
            if (nf := known.get(m)) is None and (hit := next(
                    (r for r in reducers if not (m - r[0]) & guards),
                    None)) is None:
                nf = known[m] = 1, {len(found): 1}  # standard: a new row
                found.append(m)
            d, terms = nf or hit[1:]  # add c/d times a form or a tail
            if d != 1:  # over Q: scale the column by d / gcd(c, d)
                q = d // gcd(c, d)
                c, den = c * q // d, den * q
                work = {t: a * q for t, a in work.items()}
                form = {i: a * q for i, a in form.items()}
            if nf is None:  # m = u * lead: subtract c * u * tail
                if (u := m - hit[0]) & overflow:
                    _overflow("a reduction multiplier")
                for t, a in terms:
                    if (v := work.get(t := t + u)) is None:
                        work[t] = -c * a
                        heapq.heappush(heap, t)
                    else:
                        work[t] = v - c * a
                continue
            for i, a in terms.items():
                form[i] = form.get(i, 0) + c * a
        if mod is None:
            g = gcd(den, *form.values())
            col = den // g, {i: a // g for i, a in form.items() if a}
        else:
            col = 1, {i: v for i, a in form.items() if (v := a % mod)}
        known[s + step] = col
        columns.append(col)
    return columns


def _minimal_polynomial_mod(columns, p) -> list:
    """Coefficients, lowest first, of the monic minimal polynomial of e_0
    under the matrix with these sparse columns of residues mod p.

    Each Krylov vector M^k e_0, followed by its combination of the powers
    of M, is one int with a slot per entry, as in groebner._echelon: a step
    by a kept row, monic at its pivot, is one multiply-add, and a residue
    is reduced mod p only when read.  The first vector to reduce to zero
    gives the dependency.
    """
    n = len(columns)
    width = 2 * p.bit_length() + (2 * n + 2).bit_length()
    mask, shifts = (1 << width) - 1, range(0, width * (2 * n + 1), width)
    columns = [sum(a << shifts[i] for i, a in col.items()) for col in columns]
    rows, power = [], 1  # (pivot's shift, row); M^k e_0
    for k in range(n + 1):
        vec = power + (1 << shifts[n + k])
        for s, row in rows:
            if c := (vec >> s & mask) % p:
                vec += (p - c) * row
        vals = [(vec >> s & mask) % p for s in shifts[:n + k + 1]]
        pivot = next((i for i, a in enumerate(vals[:n]) if a), None)
        if pivot is None:
            return vals[n:]
        inv = pow(vals[pivot], -1, p)
        rows.append((shifts[pivot], sum(a * inv % p << s
                                        for a, s in zip(vals, shifts) if a)))
        power = sum(c * col for c, col in zip(
            [(power >> s & mask) % p for s in shifts[:n]], columns) if c)
    raise ArithmeticError("n + 1 Krylov vectors of length n are independent")


def _rational_minimal_polynomial(columns) -> list:
    """Coefficients, lowest first, of the monic minimal polynomial of e_0
    under a matrix over Q with these sparse columns (den, ints), from
    residues checked exactly (module docstring)."""
    dens, ints = zip(*columns)
    residues, modulus, checked = [], 1, None
    for p in map(_prime, count()):
        if any(d % p == 0 for d in dens):
            continue
        g = _minimal_polynomial_mod(
            [{i: a * s % p for i, a in col.items()}
             for col, s in zip(ints, [pow(d, -1, p) for d in dens])], p)
        if len(g) > len(residues):  # every earlier prime was unlucky
            residues, modulus = [0] * len(g), 1
        elif len(g) < len(residues):
            continue  # unlucky
        inv = pow(modulus, -1, p)
        residues = [r + modulus * ((a - r) * inv % p)
                    for r, a in zip(residues, g)]
        modulus *= p
        bound = isqrt(modulus // 2)
        cand = list(takewhile(lambda q: q is not None, (
            _reconstruct(r, modulus, bound) for r in residues)))
        if len(cand) == len(g) and cand != checked:
            if _annihilates(cand, ints, dens):
                return cand
            checked = cand


def _prime(k: int) -> int:
    """The k-th prime below 2^62, counting down from 2^62 - 57 as 0."""
    while len(_PRIMES) <= k:
        p = _PRIMES[-1] - 2
        while not is_prime(p):
            p -= 2
        _PRIMES.append(p)
    return _PRIMES[k]


def _annihilates(coeffs, ints, dens) -> bool:
    """Whether sum(coeffs[i] * M^i) e_0 = 0 exactly, for the matrix M whose
    column j is ints[j] / dens[j]: Horner's rule on v = w / den, with the
    integer vector w and den kept in lowest terms."""
    scale = lcm(*(c.denominator for c in coeffs))
    coeffs = [c.numerator * (scale // c.denominator) for c in coeffs]
    w, den = [coeffs[-1]] + [0] * (len(ints) - 1), 1
    for c in reversed(coeffs[:-1]):
        common = lcm(*(d for d, a in zip(dens, w) if a))
        nxt = [0] * len(w)
        for col, d, a in zip(ints, dens, w):
            if a:
                a *= common // d
                for i, b in col.items():
                    nxt[i] += a * b
        den *= common
        nxt[0] += c * den
        content = gcd(den, *nxt)
        w, den = [a // content for a in nxt], den // content
    return not any(w)


def _univariate_roots(coeffs: list, mod):
    """Roots of sum(coeffs[e] * t^e) with coefficients mod p, as ascending
    residues, or in Q, as Fractions."""
    if mod:
        return _roots_mod(coeffs, mod)
    denom = lcm(*(c.denominator for c in coeffs))
    return rational_roots({e: c.numerator * (denom // c.denominator)
                           for e, c in enumerate(coeffs)})


def rational_roots(coeffs: dict) -> list:
    """Rational roots of sum(coeffs[e] * t^e) with integer coefficients.

    Complete and exact: every root a/b in lowest terms has |a| <= |g(0)|
    and b <= |lc(g)| for the square-free part g, so it is the unique
    reconstruction of its p-adic lift once the modulus passes
    2 * max(|g(0)|, |lc(g)|)^2, and every candidate is checked by exact
    evaluation.  Roots come sorted by (|numerator|, denominator), the
    positive one of a pair first.
    """
    coeffs = {e: c for e, c in coeffs.items() if c}
    if not coeffs:
        raise ValueError("the zero polynomial has every root")
    low = min(coeffs)
    roots = [Fraction(0)] if low > 0 else []
    if max(coeffs) == low:
        return roots
    g = _squarefree_part([coeffs.get(e, 0)
                          for e in range(low, max(coeffs) + 1)])
    dg = [e * c for e, c in enumerate(g)][1:]
    p = 2
    # g is square-free, so any prime dividing neither lc(g) nor disc(g) stops
    # the search: modulo it every root of g is simple.
    while True:
        if g[-1] % p and is_prime(p):
            residues = _roots_mod(g, p)
            if all(_eval_mod(dg, r, p) for r in residues):
                break
        p += 1
    bound = max(abs(g[0]), abs(g[-1]))  # on |a| and b for every root a/b
    for r in residues:
        m = p
        while m <= 2 * bound * bound:
            m *= m
            r = (r - _eval_mod(g, r, m) * pow(_eval_mod(dg, r, m), -1, m)) % m
        cand = _reconstruct(r, m, bound)
        if cand is not None and not reduce(lambda acc, c: acc * cand + c,
                                           reversed(g), 0):
            roots.append(cand)
    return sorted(roots, key=_rational_key)


def _rational_key(q) -> tuple:
    """(|numerator|, denominator), the positive one of a pair first."""
    return abs(q.numerator), q.denominator, q < 0


def _eval_mod(dense: list, t: int, m: int) -> int:
    acc = 0
    for c in reversed(dense):
        acc = (acc * t + c) % m
    return acc


def _roots_mod(dense: list, p: int) -> list:
    """Residues t in [0, p), ascending, where the polynomial vanishes mod p.

    gcd(f, t^p - t) is, up to a unit, the product of t - r over the
    distinct roots r, so its degree says how many residues the scan must
    find before it stops.
    """
    f = _trim([c % p for c in dense])
    if not f:
        return list(range(p))  # the zero polynomial
    h = _x_to_the_p(f, p) + [0, 0]
    h[1] -= 1  # t^p - t modulo f
    count = len(_gcd_mod(f, _trim([c % p for c in h]), p)) - 1
    return list(islice((t for t in range(p) if not _eval_mod(f, t, p)),
                       count))


def _trim(f: list) -> list:
    while f and not f[-1]:
        f.pop()
    return f


def _rem_mod(a: list, b: list, p: int) -> list:
    """Remainder of a on division by b (nonzero, trimmed), mod p."""
    a, inv = list(a), pow(b[-1], -1, p)
    for k in range(len(a) - len(b), -1, -1):
        q = a[k + len(b) - 1] * inv % p
        if q:
            for i, bi in enumerate(b):
                a[k + i] = (a[k + i] - q * bi) % p
    return _trim(a[:len(b) - 1])


def _x_to_the_p(f: list, p: int) -> list:
    """t^p modulo f and p, by repeated squaring."""
    r = _rem_mod([1], f, p)
    for bit in bin(p)[2:]:
        sq = [0] * max(2 * len(r) - 1, 0)
        for i, x in enumerate(r):
            if x:  # r is one term until the power passes deg f
                for j, y in enumerate(r):
                    sq[i + j] += x * y
        r = _rem_mod(sq, f, p)
        if bit == "1":
            r = _rem_mod([0] + r, f, p)
    return r


def _gcd_mod(a: list, b: list, p: int) -> list:
    """A gcd of two trimmed polynomials mod p, not both zero."""
    while b:
        a, b = b, _rem_mod(a, b, p)
    return a


def _primitive(f: list) -> list:
    content = gcd(*f) or 1  # gcd() of the empty list is 0
    return [c // content for c in f]


def _pseudo_divmod(a: list, b: list) -> tuple:
    """q, r with lc(b)^k * a = q * b + r and deg r < deg b, over the
    integers, so that no fraction ever appears."""
    a, q = list(a), [0] * max(len(a) - len(b) + 1, 0)
    for k in range(len(a) - len(b), -1, -1):
        c = a[k + len(b) - 1]
        a = [b[-1] * x for x in a]
        q = [b[-1] * x for x in q]
        q[k] = c
        for i, bi in enumerate(b):
            a[k + i] -= c * bi
    return q, _trim(a[:len(b) - 1])


def _squarefree_part(f: list) -> list:
    """f / gcd(f, f') as a primitive integer polynomial: the roots of f,
    each simple.

    If f and f' are coprime modulo a prime that does not divide lc(f),
    disc(f) is not zero and f is its own square-free part.  Otherwise the
    gcd comes from the primitive remainder sequence.
    """
    df = [e * c for e, c in enumerate(f)][1:]
    p = _SQUAREFREE_PRIME
    while not (f[-1] % p and is_prime(p)):
        p += 1
    if len(_gcd_mod(_trim([c % p for c in f]), _trim([c % p for c in df]),
                    p)) == 1:
        return _primitive(f)
    return _remainder_squarefree_part(f)


def _remainder_squarefree_part(f: list) -> list:
    """f / gcd(f, f'), the gcd from the primitive remainder sequence."""
    a, b = f, [e * c for e, c in enumerate(f)][1:]
    while b:
        a, b = b, _primitive(_pseudo_divmod(a, b)[1])
    return _primitive(_pseudo_divmod(f, a)[0])


def _reconstruct(r: int, m: int, bound: int):
    """The fraction a/b with |a|, b <= bound and a = r*b mod m, or None.

    Extended Euclid on (m, r), stopped at the first remainder <= bound; the
    answer is unique when m > 2 * bound^2 (P. S. Wang, 1981).
    """
    r0, r1, s0, s1 = m, r, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
    return Fraction(r1, s1) if abs(s1) <= bound else None
