"""Text form of polynomials.

Grammar (whitespace ignored everywhere):

    expr   := ['-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := base ['^' UINT]
    base   := INT | VAR | '(' expr ')'
    VAR    := 'x' UINT

Coefficients in text are integers, so parse/print/parse is a fixed point for
printed polynomials (printing uses descending grevlex term order).
"""

from __future__ import annotations

from .fields import QQ
from .poly import Polynomial

__all__ = ["parse_polynomial", "ParseError", "MAX_EXPONENT"]

MAX_EXPONENT = 10**6


class ParseError(ValueError):
    """Syntax error in polynomial text; ``position`` is a 0-based offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


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
            while j < n and text[j].isdigit():
                j += 1
            if j == i + 1:
                raise ParseError("variable name needs an index, like x0", i)
            tokens.append(("var", int(text[i + 1 : j]), i))
            i = j
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("int", int(text[i:j]), i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", None, n))
    return tokens


class _Parser:
    def __init__(self, tokens, nvars, field):
        self.tokens = tokens
        self.pos = 0
        self.nvars = nvars
        self.field = field

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def accept_op(self, *ops):
        kind, _, _ = self.peek()
        if kind in ops:
            return self.advance()[0]
        return None

    def expr(self) -> Polynomial:
        negate = self.accept_op("-") is not None
        result = self.term()
        if negate:
            result = -result
        while True:
            op = self.accept_op("+", "-")
            if op is None:
                return result
            rhs = self.term()
            result = result + rhs if op == "+" else result - rhs

    def term(self) -> Polynomial:
        result = self.factor()
        while self.accept_op("*"):
            result = result * self.factor()
        return result

    def factor(self) -> Polynomial:
        base = self.base()
        if self.accept_op("^"):
            kind, value, pos = self.advance()
            if kind != "int":
                raise ParseError("exponent must be an unsigned integer", pos)
            if value > MAX_EXPONENT:
                raise ParseError(f"exponent {value} exceeds limit {MAX_EXPONENT}", pos)
            return base ** value
        return base

    def base(self) -> Polynomial:
        kind, value, pos = self.advance()
        if kind == "int":
            return Polynomial.constant(value, self.nvars, self.field)
        if kind == "var":
            if value >= self.nvars:
                raise ParseError(
                    f"variable x{value} out of range; ring has x0..x{self.nvars - 1}",
                    pos)
            return Polynomial.variable(value, self.nvars, self.field)
        if kind == "(":
            inner = self.expr()
            kind, _, pos = self.advance()
            if kind != ")":
                raise ParseError("expected ')'", pos)
            return inner
        raise ParseError("expected a number, variable, or '('", pos)


def parse_polynomial(text: str, nvars: int, field=QQ) -> Polynomial:
    """Parse polynomial text in variables x0..x{nvars-1} over ``field``."""
    parser = _Parser(_tokenize(text), nvars, field)
    result = parser.expr()
    kind, _, pos = parser.peek()
    if kind != "end":
        raise ParseError("trailing input after polynomial", pos)
    return result
