"""Exact scalar arithmetic: rationals and prime fields never mix silently."""

import time
from fractions import Fraction
from math import isqrt
from operator import add, mul, sub, truediv

import pytest

from ccv import GF, QQ, FieldMismatchError, FpElement, field_from_spec
from ccv.fields import is_prime


def test_gf_requires_prime_modulus():
    for bad in (0, 1, 4, 6, 91, -5):
        with pytest.raises(ValueError):
            GF(bad)
    GF(2)
    GF(97)


def test_gf_refuses_moduli_from_2_to_the_31():
    assert GF(2**31 - 1).p == 2**31 - 1
    for big in (2**31, 2**61 - 1, 10**30 + 57):
        with pytest.raises(ValueError, match="below 2\\^31"):
            GF(big)


def test_gf_is_cached():
    assert GF(5) is GF(5)
    assert GF(5) == GF(5)
    assert GF(5) != GF(7)


def test_is_prime_small_values():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
              59, 61, 67, 71, 73, 79, 83, 89, 97, 101}
    for n in range(-2, 102):
        assert is_prime(n) == (n in primes)


def _trial_division(n):
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


def _prime_factors(n):
    out, d = [], 2
    while d * d <= n:
        while n % d == 0:
            out.append(d)
            n //= d
        d += 1
    return out + [n] * (n > 1)


# the 43 Carmichael numbers below 10^6 (OEIS A002997)
CARMICHAEL = [561, 1105, 1729, 2465, 2821, 6601, 8911, 10585, 15841, 29341,
              41041, 46657, 52633, 62745, 63973, 75361, 101101, 115921,
              126217, 162401, 172081, 188461, 252601, 278545, 294409,
              314821, 334153, 340561, 399001, 410041, 449065, 488881,
              512461, 530881, 552721, 656601, 658801, 670033, 748657,
              825265, 838201, 852841, 997633]


def test_is_prime_agrees_with_trial_division():
    for n in range(10**5):
        assert is_prime(n) == _trial_division(n), n


def test_is_prime_refuses_strong_pseudoprimes_and_carmichael_numbers():
    # 3215031751 = 151 * 751 * 28351, a strong pseudoprime to 2, 3, 5, 7
    assert not is_prime(3215031751)
    assert is_prime(2**31 - 1)
    # 3825123056546413051 = 149491 * 747451 * 34233211, a strong
    # pseudoprime to every prime base up to 31: only base 37 refuses it
    factors = [149491, 747451, 34233211]
    n = 3825123056546413051
    assert n == factors[0] * factors[1] * factors[2]
    assert all(map(_trial_division, factors))
    assert not is_prime(n)
    assert is_prime(2**62 - 57) and not is_prime(2**62 - 55)
    for n in CARMICHAEL:  # Korselt: square-free, p - 1 | n - 1
        factors = _prime_factors(n)
        assert len(set(factors)) == len(factors) > 1
        assert all((n - 1) % (q - 1) == 0 for q in factors)
        assert not is_prime(n)


def test_is_prime_refuses_past_the_bound_of_its_bases():
    """The twelve bases decide primality below 318665857834031151167461;
    from there on is_prime raises at once, even on a probable prime."""
    assert not is_prime(318665857834031151167461 - 1)  # even
    for n in (318665857834031151167461, 318665857834031151167483, 2**80):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="only below"):
            is_prime(n)
        assert time.perf_counter() - start < 0.1


def test_fp_arithmetic_mod_7():
    F = GF(7)
    a, b = F(3), F(5)
    assert a + b == F(1)
    assert a - b == F(5)
    assert a * b == F(1)
    assert a / b == F(2)
    assert -a == F(4)
    assert a ** 6 == F(1)
    assert a ** -1 == F(5)
    assert b.inverse() == F(3)


def test_fp_mixes_with_plain_ints():
    F = GF(5)
    assert F(3) + 4 == F(2)
    assert 4 + F(3) == F(2)
    assert 2 - F(3) == F(4)
    assert F(2) == 7
    assert F(2) != 8


def test_fp_zero_has_no_inverse():
    with pytest.raises(ZeroDivisionError):
        GF(5)(0).inverse()
    with pytest.raises(ZeroDivisionError):
        GF(5)(1) / GF(5)(0)


def test_different_primes_never_combine():
    with pytest.raises(FieldMismatchError):
        GF(5)(1) + GF(7)(1)
    with pytest.raises(FieldMismatchError):
        GF(5)(1) == GF(7)(1)
    with pytest.raises(FieldMismatchError):
        GF(5)(1) * Fraction(1, 2)
    with pytest.raises(FieldMismatchError):
        QQ(GF(5)(1))


def test_fp_refuses_what_it_cannot_combine():
    a = GF(5)(2)
    with pytest.raises(FieldMismatchError):
        a == Fraction(1, 2)
    with pytest.raises(TypeError):
        GF(5)(None)
    for op in (add, sub, mul, truediv):
        for other in ("2", None, True):
            with pytest.raises(TypeError):
                op(a, other)
            with pytest.raises(TypeError):
                op(other, a)
        with pytest.raises(FieldMismatchError):
            op(a, GF(7)(1))
    with pytest.raises(TypeError):
        a ** 0.5
    assert a != "2" and not GF(5)(1) == True  # noqa: E712


def test_field_mismatch_is_a_type_error():
    # callers that catch TypeError still see the failure
    assert issubclass(FieldMismatchError, TypeError)


def test_floats_are_rejected():
    with pytest.raises(TypeError):
        QQ(0.5)
    with pytest.raises(TypeError):
        GF(5)(0.5)


def test_prime_field_rejects_bool():
    with pytest.raises(TypeError):
        GF(5)(True)


def test_rational_field_coercions():
    assert QQ(3) == Fraction(3)
    assert QQ("3/4") == Fraction(3, 4)
    assert QQ(Fraction(-2, 6)) == Fraction(-1, 3)
    assert QQ.inv(Fraction(2)) == Fraction(1, 2)
    with pytest.raises(ZeroDivisionError):
        QQ.inv(0)


def test_prime_field_coerces_fractions_via_inverse():
    F = GF(7)
    assert F(Fraction(1, 2)) == F(4)
    assert F("10") == F(3)
    with pytest.raises(ZeroDivisionError):
        F(Fraction(1, 7))


def test_prime_field_reduces_every_exact_scalar():
    F = GF(5)
    assert F(12).value == 2
    assert F(-1).value == 4
    assert F(Fraction(1, 2)).value == 3
    assert GF(7)(GF(7)(3)).value == 3
    with pytest.raises(ZeroDivisionError):
        F(Fraction(1, 5))
    with pytest.raises(FieldMismatchError):
        F(GF(7)(3))
    with pytest.raises(TypeError):
        F(0.5)


def test_fp_element_hash_consistent_with_eq():
    a = GF(11)(4)
    b = GF(11)(15)
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_field_from_spec():
    assert field_from_spec("rational") == QQ
    assert field_from_spec({"prime": 11}) == GF(11)
    with pytest.raises(ValueError):
        field_from_spec({"prime": 4})
    with pytest.raises(ValueError):
        field_from_spec("complex")
    with pytest.raises(ValueError):
        field_from_spec({"prime": 5, "extra": 1})
    for prime in ([5], True, 5.0):
        with pytest.raises(ValueError, match="integer"):
            field_from_spec({"prime": prime})


def test_describe_round_trips_through_spec():
    for field in (QQ, GF(5), GF(101)):
        assert field_from_spec(field.describe()) == field


def test_fp_repr_is_unambiguous():
    assert repr(FpElement(3, 5)) == "FpElement(3, 5)"
    assert str(FpElement(3, 5)) == "3"
