"""Enumerate the points of a zero-dimensional projective system exactly.

Projective space is split into the disjoint cells x0 = ... = x_{j-1} = 0,
x_j = 1.  Each cell gives an affine system with a grevlex Groebner basis G.
The minimal polynomial of its last live variable x, the monic generator of
I and k[x], comes from the normal forms of 1, x, x^2, ... against G: an
incremental echelon stops at the first linear dependency (FGLM restricted
to one variable: Faugere, Gianni, Lazard and Mora, J. Symbolic Comput. 16,
1993).  It must come within as many powers as G has standard monomials,
the degree read off the Hilbert series of the leading monomials (Bayer and
Stillman, J. Symbolic Comput. 14, 1992).  The cell's fixed variables are
free there, so the same series refuses a cell whose affine dimension is
more than their number.  Each root r is put into G and the smaller system
solved the same way.  The generator is the univariate element of the lex
basis, so points come out in the order a lex solve gives.

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

from fractions import Fraction
from functools import reduce
from itertools import islice
from math import gcd, lcm

from .fields import FpElement, is_prime
from .poly import Polynomial, ProjectivePoint
from .groebner import (_hilbert_dimension_and_degree, groebner_basis,
                       normal_form)

__all__ = ["projective_rational_solutions", "rational_roots"]

# First prime tried by the modular square-free test; one this large rarely
# divides disc(f), so a square-free f nearly always skips the remainders.
_SQUAREFREE_PRIME = 32003


def projective_rational_solutions(gens) -> list:
    """All field-rational points of V(gens) in projective space.

    The generators must cut out a zero-dimensional projective scheme (over
    the algebraic closure); otherwise some cell has leftover freedom and a
    ValueError is raised rather than returning a silently incomplete list.
    """
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        raise ValueError("empty system is not zero-dimensional")
    nvars, field = gens[0].nvars, gens[0].field
    points = []
    for j in range(nvars):
        cell = _restrict(gens, {i: int(i == j) for i in range(j + 1)})
        if cell is None:
            continue  # a nonzero constant rules the whole cell out
        live = list(range(j + 1, nvars))
        for sol in _affine_points(cell, live, field):
            coords = [field.zero] * j + [field.one]
            coords += [sol[i] for i in live]
            points.append(ProjectivePoint(coords, field))
    return points


def _affine_points(gens, live, field):
    """Solutions {var: value} of an affine system supported on ``live``."""
    if not live:
        return [{}] if not gens else []
    if not gens:
        raise ValueError("system is not zero-dimensional")
    basis = groebner_basis(gens)
    if basis[0].is_constant():
        return []  # unit ideal
    last = live[-1]
    uni = _minimal_polynomial(basis, live, last)
    out = []
    for root in _univariate_roots(uni, last, field):
        if (sub := _restrict(basis, {last: root})) is None:
            continue
        for sol in _affine_points(sub, live[:-1], field):
            sol[last] = root
            out.append(sol)
    return out


def _restrict(polys, assignments):
    """The nonzero polynomials left when the assigned variables are fixed,
    or None when one of them is a nonzero constant and so has no zero."""
    out = [g for g in (f.specialize(assignments) for f in polys) if g]
    return None if any(g.is_constant() for g in out) else out


def _minimal_polynomial(basis, live, var) -> Polynomial:
    """The monic generator of I and k[var], for the ideal I of a reduced
    grevlex basis in the variables ``live`` (not the unit ideal).

    Every normal form lies in the span of the standard monomials, as many
    as the degree of I, so the normal forms of 1, var, var^2, ... turn
    dependent within that many powers.  Each is var times the previous one,
    reduced through the normal forms of var * s for standard s.
    """
    nvars, field = basis[0].nvars, basis[0].field
    dim, standard = _hilbert_dimension_and_degree(basis, nvars)
    if dim != nvars - len(live):  # the fixed variables are free
        raise ValueError("system is not zero-dimensional")
    step = tuple(int(i == var) for i in range(nvars))
    times_var = {}  # standard s -> terms of the normal form of var*s
    rows = []  # (pivot, reduced vector, its combination of powers of var)
    power = {(0,) * nvars: field.one}  # normal form of var^k
    for k in range(standard + 1):
        vec, combo = dict(power), {k: field.one}
        for pivot, row, row_combo in rows:
            c = vec.get(pivot)
            if c:
                _axpy(vec, -c, row)
                _axpy(combo, -c, row_combo)
        if not vec:  # a dependency: sum(combo[e] * var^e) lies in I
            return Polynomial(nvars, field, {
                tuple(e * s for s in step): c for e, c in combo.items()})
        pivot = next(iter(vec))
        inv = field.inv(vec[pivot])
        rows.append((pivot, {m: c * inv for m, c in vec.items()},
                     {e: c * inv for e, c in combo.items()}))
        nxt = {}
        for s, c in power.items():
            if s not in times_var:
                mono = tuple(a + b for a, b in zip(s, step))
                times_var[s] = normal_form(
                    Polynomial(nvars, field, {mono: field.one}), basis).terms
            _axpy(nxt, c, times_var[s])
        power = nxt
    raise ArithmeticError("no dependency among the normal forms of the "
                          "powers of the last variable")


def _axpy(acc: dict, c, terms) -> None:
    """acc += c * terms, dropping the entries that cancel."""
    for m, d in terms.items():
        v = acc.get(m)
        v = c * d if v is None else v + c * d
        if v:
            acc[m] = v
        else:
            acc.pop(m, None)


def _univariate_roots(poly: Polynomial, var: int, field):
    coeffs = {mono[var]: c for mono, c in poly.terms.items()}
    if field.is_prime_field:
        dense = _dense({e: c.value for e, c in coeffs.items()})
        return [FpElement(v, field.p) for v in _roots_mod(dense, field.p)]
    denom = lcm(*(c.denominator for c in coeffs.values()))
    return rational_roots({e: int(c * denom) for e, c in coeffs.items()})


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
    g = _squarefree_part(_dense({e - low: c for e, c in coeffs.items()}))
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
    return sorted(roots, key=lambda q: (abs(q.numerator), q.denominator, q < 0))


def _dense(coeffs: dict) -> list:
    """Coefficient list, lowest degree first, of {exponent: coefficient}."""
    dense = [0] * (max(coeffs) + 1)
    for e, c in coeffs.items():
        dense[e] = c
    return dense


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
