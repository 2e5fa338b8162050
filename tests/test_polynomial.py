import json

import pytest
from hypothesis import given

from unicoh import ExactDivisionError, IntPolynomial
from unicoh.polynomial import prod, q_minus_one, q_minus_sign

from strategies import int_polys


def test_trimming_and_zero():
    assert IntPolynomial((1, 2, 0, 0)).coeffs == (1, 2)
    assert IntPolynomial(()).is_zero()
    assert IntPolynomial((0, 0)).is_zero()
    assert IntPolynomial.zero().degree == -1


def test_basic_arithmetic():
    p = IntPolynomial((1, 1))  # 1 + q
    q = IntPolynomial((-1, 1))  # q - 1
    assert p * q == IntPolynomial((-1, 0, 1))
    assert p + q == IntPolynomial((0, 2))
    assert p - p == IntPolynomial.zero()
    assert p**3 == IntPolynomial((1, 3, 3, 1))
    assert 2 * p == IntPolynomial((2, 2))
    assert p + 1 == IntPolynomial((2, 1))


def test_evaluation():
    p = IntPolynomial((3, 0, 1))  # q^2 + 3
    assert p(0) == 3
    assert p(5) == 28
    assert p(-2) == 7


def test_q_factors():
    assert q_minus_one(3) == IntPolynomial((-1, 0, 0, 1))
    assert q_minus_sign(2) == IntPolynomial((-1, 0, 1))
    assert q_minus_sign(3) == IntPolynomial((1, 0, 0, 1))


def test_exact_division():
    num = q_minus_one(6)
    den = q_minus_one(3)
    assert num.exact_div(den) == IntPolynomial((1, 0, 0, 1))
    with pytest.raises(ExactDivisionError):
        q_minus_one(5).exact_div(q_minus_one(3))


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        IntPolynomial((1,)).divmod(IntPolynomial.zero())


def test_str():
    assert str(IntPolynomial.zero()) == "0"
    assert str(IntPolynomial((0, -1, 0, 1))) == "q^3 - q"
    assert str(IntPolynomial((1, 2))) == "2*q + 1"


def test_json_round_trip():
    encoded = IntPolynomial((10**30, -3, 7)).to_json()
    assert encoded == [str(10**30), "-3", "7"]
    assert json.loads(json.dumps(encoded)) == encoded


@given(int_polys(), int_polys(), int_polys())
def test_ring_axioms(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)


@given(int_polys(), int_polys())
def test_multiply_then_divide(a, b):
    if b.is_zero():
        return
    quotient, remainder = (a * b).divmod(b)
    assert quotient == a
    assert remainder.is_zero()


def test_prod():
    assert prod([]) == IntPolynomial.one()
    assert prod([IntPolynomial((0, 1))] * 3) == IntPolynomial.q_power(3)
