"""Recursive-descent parser for the x0, x1, ... polynomial syntax."""

import importlib.util
import random
from pathlib import Path

import pytest

from ccv import GF, QQ, ParseError, Polynomial, build_variety, parse_polynomial
from ccv.parser import MAX_EXPONENT, _tokenize

SPECS_FILE = (Path(__file__).resolve().parent.parent / "perfbench"
              / "specs.py")


def test_parse_simple_binomial():
    p = parse_polynomial("x0*x3 - x1*x2", 4)
    assert p.nvars == 4
    assert p.degree() == 2
    assert p.terms[(1, 0, 0, 1)] == 1
    assert p.terms[(0, 1, 1, 0)] == -1


def test_whitespace_is_ignored():
    assert (parse_polynomial("  x0 * x1+ 2* x2 ^ 2 ", 3)
            == parse_polynomial("x0*x1+2*x2^2", 3))


def test_precedence_power_binds_tighter_than_product():
    p = parse_polynomial("2*x0^3", 2)
    assert p.terms == {(3, 0): 2}
    q = parse_polynomial("(2*x0)^3", 2)
    assert q.terms == {(3, 0): 8}


def test_leading_minus_and_constants():
    p = parse_polynomial("-x0^2 + 5", 1)
    assert p.terms == {(2,): -1, (0,): 5}
    assert parse_polynomial("2^3", 1).terms == {(0,): 8}
    assert parse_polynomial("7", 1).terms == {(0,): 7}
    assert parse_polynomial("0", 1).is_zero()


def test_parenthesized_expansion():
    p = parse_polynomial("(x0 + x1)^2", 2)
    assert p == parse_polynomial("x0^2 + 2*x0*x1 + x1^2", 2)


def test_variable_out_of_range():
    with pytest.raises(ParseError) as err:
        parse_polynomial("x0 + x7", 4)
    assert err.value.position == 5


def test_error_positions_are_zero_based():
    with pytest.raises(ParseError) as err:
        parse_polynomial("x0 + @", 4)
    assert err.value.position == 5
    with pytest.raises(ParseError) as err:
        parse_polynomial("@", 4)
    assert err.value.position == 0


def test_rejects_trailing_input():
    with pytest.raises(ParseError):
        parse_polynomial("x0 x1", 4)  # no implicit product
    with pytest.raises(ParseError):
        parse_polynomial("x0 +", 4)
    with pytest.raises(ParseError):
        parse_polynomial("", 4)
    with pytest.raises(ParseError):
        parse_polynomial("(x0", 4)


def test_exponent_limit():
    parse_polynomial("x0^1000000", 1)
    with pytest.raises(ParseError):
        parse_polynomial("x0^1000001", 1)


def test_parse_over_prime_field_reduces_coefficients():
    p = parse_polynomial("6*x0 + 5", 2, GF(5))
    assert p == Polynomial.variable(0, 2, GF(5))


def test_parse_print_parse_is_identity():
    samples = [
        "x0*x3 - x1*x2",
        "x0^3 + x1^3 + x2^3 + x3^3 + x4^3",
        "-x0^2 + 2*x0*x1 - 17",
        "x0*x1*x2 - 3*x2^2 + x0 - 1",
    ]
    for text in samples:
        p = parse_polynomial(text, 5)
        assert parse_polynomial(str(p), 5) == p
        # printing is canonical: a second round trip changes nothing
        assert str(parse_polynomial(str(p), 5)) == str(p)


def test_parse_error_is_a_value_error():
    assert issubclass(ParseError, ValueError)


# --- the Polynomial-arithmetic parser as the reference -----------------------

class _ReferenceParser:
    """The parser as it was before terms were accumulated in one dict:
    every number and variable is a Polynomial and every '+', '*' and '^'
    is Polynomial arithmetic.  Slow (quadratic in the number of terms),
    but built only from the ring operations."""

    def __init__(self, text, nvars, field):
        self.tokens = _tokenize(text)
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

    def parse(self):
        result = self.expr()
        kind, _, pos = self.peek()
        if kind != "end":
            raise ParseError("trailing input after polynomial", pos)
        return result

    def expr(self):
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

    def term(self):
        result = self.factor()
        while self.accept_op("*"):
            result = result * self.factor()
        return result

    def factor(self):
        base = self.base()
        if self.accept_op("^"):
            kind, value, pos = self.advance()
            if kind != "int":
                raise ParseError("exponent must be an unsigned integer", pos)
            if value > MAX_EXPONENT:
                raise ParseError(
                    f"exponent {value} exceeds limit {MAX_EXPONENT}", pos)
            return base ** value
        return base

    def base(self):
        kind, value, pos = self.advance()
        if kind == "int":
            return Polynomial.constant(value, self.nvars, self.field)
        if kind == "var":
            if value >= self.nvars:
                raise ParseError(
                    f"variable x{value} out of range; ring has "
                    f"x0..x{self.nvars - 1}", pos)
            return Polynomial.variable(value, self.nvars, self.field)
        if kind == "(":
            inner = self.expr()
            kind, _, pos = self.advance()
            if kind != ")":
                raise ParseError("expected ')'", pos)
            return inner
        raise ParseError("expected a number, variable, or '('", pos)


def _random_factor(rng, nvars, depth):
    roll = rng.random()
    if depth and roll < 0.25:
        text = "(" + _random_expr(rng, nvars, depth - 1) + ")"
    elif roll < 0.55:
        text = str(rng.choice([0, 1, 2, 3, 5, 7, 12, 32003, 64007]))
    else:
        text = f"x{rng.randrange(nvars)}"
    if rng.random() < 0.3:
        text += f"^{rng.randint(0, 3 if text[0] != '(' else 2)}"
    return text


def _random_term(rng, nvars, depth):
    return "*".join(_random_factor(rng, nvars, depth)
                    for _ in range(rng.randint(1, 3)))


def _random_expr(rng, nvars, depth):
    terms = [_random_term(rng, nvars, depth)
             for _ in range(rng.randint(1, 4))]
    # repeat some terms with either sign, so that sums cancel to zero and
    # a cancelled monomial can come back later in the text
    terms += rng.sample(terms, rng.randint(0, len(terms)))
    text = ("-" if rng.random() < 0.3 else "") + terms[0]
    for term in terms[1:]:
        text += rng.choice([" + ", " - "]) + term
    return text


FIELDS = [QQ, GF(2), GF(32003)]
FIELD_IDS = ["QQ", "F2", "F32003"]


def _same_polynomial(text, nvars, field):
    got = parse_polynomial(text, nvars, field)
    want = _ReferenceParser(text, nvars, field).parse()
    # equal terms, in the same order, over the same ring
    assert list(got.terms.items()) == list(want.terms.items()), text
    assert (got.nvars, got.field) == (want.nvars, want.field)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_parser_matches_the_reference_on_random_texts(field):
    rng = random.Random(f"ccv-parser:{field!r}")
    for _ in range(300):
        nvars = rng.randint(1, 5)
        _same_polynomial(_random_expr(rng, nvars, depth=2), nvars, field)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("text", [
    "((x0 + x1)*(x0 - x1) + (x2 - (x0 - x1)^2))^2",
    "-(x0 + 2*x1)^3*x2 + 3*(x0 - x1)^0",
    "2^3*x0 - 8*x0 + 5^2*x1^2*x0 + 3^0",
    "0*x1 + x0*0 + 0^0*x2 + 0^2",
    "x0*x1 - x1*x0 + x0^2 - x0^2 + x0*x1",
    "32003*x0 + 64006*(x1 + x2) + x0",
    "x0^2*(x1 - x1) + (x0 - x0)^2 - x1",
    "(x1 + x0)*x2^2*(x0 - x1)*3 + 3*x2^2*x1^2",
])
def test_parser_matches_the_reference_on_chosen_texts(field, text):
    _same_polynomial(text, 3, field)


@pytest.mark.parametrize("text", [
    "x0*-x1", "x9", "x0 + x3*x9^2", "x0^", "x0^1000001", "2^1000001",
    "(x0 + x1)^1000001", "x0^x1", "x0 + ", "+x0", "x0 x1", "(x0 + x1",
    "(x0 + x1))", "x0 + (x1 * )", "x", "3*x0 @ x1", "", "x0**2",
    "-", "x0^-1", "((x0)", "x0 + -x1", "x0\u00b2", "2\u00b2*x0",
    "\u0663*x0",
])
def test_parse_errors_match_the_reference(text):
    with pytest.raises(ParseError) as got:
        parse_polynomial(text, 3)
    with pytest.raises(ParseError) as want:
        _ReferenceParser(text, 3, QQ).parse()
    assert str(got.value) == str(want.value)
    assert got.value.position == want.value.position


@pytest.mark.parametrize("text, position", [
    ("x0\u00b2", 2), ("2\u00b2*x0", 1), ("\u0663*x0", 0), ("x1^\u00b9", 3),
])
def test_only_ascii_digits_are_digits(text, position):
    """A superscript or non-ASCII decimal digit is an unexpected character
    at its offset, not a bare int() failure or a silently read number."""
    with pytest.raises(ParseError) as got:
        parse_polynomial(text, 3)
    assert str(got.value) == (f"unexpected character {text[position]!r} "
                              f"(at position {position})")
    assert got.value.position == position


def test_a_parenthesis_free_equation_makes_one_polynomial(monkeypatch):
    """Loading the quintic in P^9 (2,000 terms) builds O(1) Polynomials:
    the terms go into one dict, not one Polynomial each."""
    loader = importlib.util.spec_from_file_location(
        "perfbench_specs", SPECS_FILE)
    specs = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(specs)
    spec = specs.boundary_spec(1, (5,))
    assert "(" not in spec["equations"][0]
    assert len(spec["equations"][0].split("+")) > 1000  # about 2,000 terms
    made = []
    init = Polynomial.__init__

    def spy(self, *args):
        made.append(1)
        init(self, *args)

    monkeypatch.setattr(Polynomial, "__init__", spy)
    variety = build_variety(spec)
    assert len(variety.equations[0].terms) == 2000
    assert len(made) <= 2 * len(spec["equations"])
