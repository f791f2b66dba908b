"""Seeded complete-intersection specs on the boundary 2*sum(d) - c = N.

For degrees d_1..d_c the ambient space is P^N with N = 2*sum(d) - c and
the base points are x = e_0 and y = e_N.  Every monomial of degree d_i
except x_0^d and x_N^d gets a coefficient drawn from [-3, 3] without 0;
leaving those two out puts both points on X.  Zero draws are excluded
because a missing coefficient can make the conic system special (with
zeros allowed, seed 8 of the [2,2] rung gave a positive-dimensional
vertex locus).  The same (seed, degrees) always gives the same
equations, so the workloads can share varieties rung by rung.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations_with_replacement
from math import factorial, prod

COEFFS = (-3, -2, -1, 1, 2, 3)


def ambient_dim(degrees) -> int:
    return 2 * sum(degrees) - len(degrees)


def formula_value(degrees) -> int:
    """prod(d! (d-1)!), the paper's count of singular-conic vertices."""
    return prod(factorial(d) * factorial(d - 1) for d in degrees)


def monomials(nvars: int, degree: int):
    """Exponent tuples of the given total degree, in a fixed order."""
    out = []
    for combo in combinations_with_replacement(range(nvars), degree):
        mono = [0] * nvars
        for i in combo:
            mono[i] += 1
        out.append(tuple(mono))
    return out


def boundary_equations(seed: int, degrees, signs=None) -> list:
    """One {monomial: int coefficient} dict per equation.

    ``signs`` is an optional seed for the change of coordinates
    x_i -> -x_i on a random subset of 1..N-1.  It fixes x and y and leaves
    every coefficient's size alone, so the re-signed variety costs ccv the
    same arithmetic as the original while its input files differ.
    """
    n = ambient_dim(degrees)
    rng = random.Random(f"ccv-boundary:{seed}:{','.join(map(str, degrees))}")
    flip = [False] * (n + 1)
    if signs is not None:
        srng = random.Random(f"ccv-signs:{signs}:{n}")
        flip[1:n] = [srng.random() < 0.5 for _ in range(1, n)]
    equations = []
    for d in degrees:
        terms = {}
        for mono in monomials(n + 1, d):
            if mono[0] == d or mono[n] == d:
                continue
            c = rng.choice(COEFFS)
            odd = sum(e for e, f in zip(mono, flip) if f) % 2
            terms[mono] = -c if odd else c
        equations.append(terms)
    return equations


def base_points(degrees):
    n = ambient_dim(degrees)
    x = (1,) + (0,) * n
    y = (0,) * n + (1,)
    return x, y


def evaluate(terms: dict, point, p=None):
    """Exact value of a polynomial at a point; its residue mod p if p is set."""
    total = Fraction(0)
    for mono, c in terms.items():
        term = Fraction(c)
        for v, e in zip(point, mono):
            if e:
                term *= v ** e
        total += term
    if p is None:
        return total
    return total.numerator * pow(total.denominator, -1, p) % p


def render(terms: dict) -> str:
    """Polynomial text in the x0, x1, ... syntax ccv parses."""
    text = ""
    for mono in sorted(terms, reverse=True):
        c = terms[mono]
        factors = [f"x{i}" + (f"^{e}" if e > 1 else "")
                   for i, e in enumerate(mono) if e]
        if abs(c) != 1:
            factors.insert(0, str(abs(c)))
        sign = "-" if c < 0 else "+"
        text += f" {sign} " + "*".join(factors)
    return text[3:] if text.startswith(" + ") else "-" + text[3:]


def boundary_spec(seed: int, degrees, prime=None, signs=None) -> dict:
    """Variety-spec dict for one rung; checks that x and y lie on X."""
    degrees = tuple(sorted(degrees, reverse=True))
    n = ambient_dim(degrees)
    equations = boundary_equations(seed, degrees, signs)
    for pt in base_points(degrees):
        for terms in equations:
            if evaluate(terms, pt) != 0:
                raise AssertionError(f"base point {pt} is not on the spec")
    return {
        "name": "ci-" + "-".join(map(str, degrees)) + f"-p{n}-s{seed}",
        "ambient_dim": n,
        "field": "rational" if prime is None else {"prime": prime},
        "equations": [render(t) for t in equations],
        "claimed_dim": n - len(degrees),
        "smooth": True,
        "scheme_theoretic": True,
    }
