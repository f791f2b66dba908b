"""Text form of polynomials.

Grammar (whitespace ignored everywhere):

    expr   := ['-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := base ['^' UINT]
    base   := INT | VAR | '(' expr ')'
    VAR    := 'x' UINT

INT and UINT are runs of the ASCII digits 0-9; any other digit, such as a
superscript, is an unexpected character.

Coefficients in text are integers, so parse/print/parse is a fixed point for
printed polynomials (printing uses descending grevlex term order).

Each ``expr`` adds its terms into one dict, so a sum costs time linear in
its number of terms.  A ``term`` multiplies its numbers into one
coefficient and adds its variables' exponents into one monomial; only a
parenthesized factor becomes a :class:`~ccv.poly.Polynomial`, multiplied
into the product as written.
"""

from __future__ import annotations

from operator import add

from .fields import QQ
from .poly import Polynomial

__all__ = ["parse_polynomial", "ParseError", "MAX_EXPONENT"]

MAX_EXPONENT = 10**6


class ParseError(ValueError):
    """Syntax error in polynomial text; ``position`` is a 0-based offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_DIGITS = frozenset("0123456789")  # ASCII only: int() rejects other digits


def _tokenize(text: str):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*^()":
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch == "x":
            j = i + 1
            while j < n and text[j] in _DIGITS:
                j += 1
            if j == i + 1:
                raise ParseError("variable name needs an index, like x0", i)
            tokens.append(("var", int(text[i + 1 : j]), i))
            i = j
            continue
        if ch in _DIGITS:
            j = i
            while j < n and text[j] in _DIGITS:
                j += 1
            tokens.append(("int", int(text[i:j]), i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", None, n))
    return tokens


class _Parser:
    """Recursive descent over the token list; ``pos`` indexes the next
    token, and the closing "end" token stops every loop."""

    def __init__(self, tokens, nvars, field):
        self.tokens = tokens
        self.pos = 0
        self.nvars = nvars
        self.field = field

    def expr(self) -> Polynomial:
        terms = {}  # every term of the sum, added in place
        tokens = self.tokens
        negate = tokens[self.pos][0] == "-"
        self.pos += negate
        while True:
            for mono, coeff in self.term(negate):
                acc = terms.get(mono)
                if acc is None:
                    terms[mono] = coeff
                elif acc := acc + coeff:
                    terms[mono] = acc
                else:
                    del terms[mono]
            op = tokens[self.pos][0]
            if op != "+" and op != "-":
                return Polynomial(self.nvars, self.field, terms)
            self.pos += 1
            negate = op == "-"

    def term(self, negate: bool):
        """The (monomial, coefficient) pairs of one product of factors,
        negated if asked.  Numbers and variable powers go straight into one
        coefficient and one exponent list; only a parenthesized factor is
        a Polynomial."""
        field, tokens, i = self.field, self.tokens, self.pos
        # an int until a power of a number makes it a field scalar
        coeff, mono, product = -1 if negate else 1, [0] * self.nvars, None
        while True:
            kind, value, pos = tokens[i]
            i += 1
            if kind == "var":
                if value >= self.nvars:
                    raise ParseError(
                        f"variable x{value} out of range; ring has "
                        f"x0..x{self.nvars - 1}", pos)
            elif kind == "(":
                self.pos = i
                value = self.expr()
                close, _, pos = tokens[self.pos]
                i = self.pos + 1
                if close != ")":
                    raise ParseError("expected ')'", pos)
            elif kind != "int":
                raise ParseError("expected a number, variable, or '('", pos)
            exponent = 1
            if tokens[i][0] == "^":
                kind_e, exponent, pos = tokens[i + 1]
                i += 2
                if kind_e != "int":
                    raise ParseError("exponent must be an unsigned integer",
                                     pos)
                if exponent > MAX_EXPONENT:
                    raise ParseError(
                        f"exponent {exponent} exceeds limit {MAX_EXPONENT}",
                        pos)
            if kind == "var":
                mono[value] += exponent
            elif kind == "int":
                coeff *= value if exponent == 1 else field(value) ** exponent
            else:
                value = value if exponent == 1 else value ** exponent
                product = value if product is None else product * value
            if tokens[i][0] != "*":
                break
            i += 1
        self.pos = i
        if not (coeff := field(coeff)):
            return ()
        if product is None:
            return ((tuple(mono), coeff),)
        return ((tuple(map(add, m, mono)), c * coeff)
                for m, c in product.terms.items())


def parse_polynomial(text: str, nvars: int, field=QQ) -> Polynomial:
    """Parse polynomial text in variables x0..x{nvars-1} over ``field``."""
    parser = _Parser(_tokenize(text), nvars, field)
    result = parser.expr()
    kind, _, pos = parser.tokens[parser.pos]
    if kind != "end":
        raise ParseError("trailing input after polynomial", pos)
    return result
