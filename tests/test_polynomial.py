import json
from functools import reduce

import pytest
from hypothesis import given
from hypothesis import example, strategies as st

from unicoh import ExactDivisionError, IntPolynomial
from unicoh.polynomial import prod, q_minus_sign
from unicoh.polynomial import linear_combination, two_term_ratio

from oracles import q_minus_one
from strategies import int_polys


def test_trimming_and_zero():
    assert IntPolynomial((1, 2, 0, 0)).coeffs == (1, 2)
    assert IntPolynomial(iter([0, 2, 0])).coeffs == (0, 2)
    assert not IntPolynomial(())
    assert not IntPolynomial((0, 0))
    assert IntPolynomial.zero().degree == -1


@pytest.mark.parametrize("coeffs", [(1.5, 3), (2.0,), ("3",), [1, "3"]])
def test_rejects_coefficients_that_are_not_integers(coeffs):
    # neither truncated nor parsed
    with pytest.raises(TypeError):
        IntPolynomial(coeffs)


def test_basic_arithmetic():
    p = IntPolynomial((1, 1))  # 1 + q
    q = IntPolynomial((-1, 1))  # q - 1
    assert p * q == IntPolynomial((-1, 0, 1))
    assert p + q == IntPolynomial((0, 2))
    assert p - p == IntPolynomial.zero()
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


def test_truth_value_and_repr():
    # without __bool__ the zero polynomial would be truthy
    assert not IntPolynomial.zero()
    assert IntPolynomial.q_power(1)
    assert repr(IntPolynomial([1, 0, -2])) == "IntPolynomial([1, 0, -2])"


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
    if not b:
        return
    quotient, remainder = (a * b).divmod(b)
    assert quotient == a
    assert not remainder


def test_prod():
    assert prod([]) == IntPolynomial.one()
    assert prod([IntPolynomial((0, 1))] * 3) == IntPolynomial.q_power(3)


@given(st.integers(min_value=-(2**70), max_value=2**70))
@example(0)
@example(2**64 + 1)
@example(-(2**64) - 1)
def test_constant_hashes_like_its_int(n):
    p = IntPolynomial((n,))
    assert p == n
    assert hash(p) == hash(n)
    assert len({p, n}) == 1
    assert {n: "x"}.get(p) == "x"


def test_zero_hashes_like_zero():
    assert hash(IntPolynomial(())) == hash(0) == hash(IntPolynomial.zero())
    assert {0: "x"}.get(IntPolynomial(())) == "x"


def test_linear_combination_cases():
    p = IntPolynomial((1, 1))  # 1 + q
    q = IntPolynomial((0, 0, 3))  # 3q^2
    assert linear_combination([]) == IntPolynomial.zero()
    assert linear_combination([(1, p)]) == p
    assert linear_combination([(2, p), (1, q)]) == IntPolynomial((2, 2, 3))
    assert linear_combination([(0, p), (-1, q)]) == IntPolynomial((0, 0, -3))
    assert linear_combination([(1, q), (-2, p)]) == IntPolynomial((-2, -2, 3))
    cancelled = linear_combination([(2, q), (-1, q), (1, p), (-1, q), (-1, p)])
    assert cancelled.coeffs == ()
    assert cancelled.degree == -1


@given(st.lists(st.tuples(st.integers(min_value=-3, max_value=3), int_polys()), max_size=6))
def test_linear_combination_matches_running_sum(terms):
    running = reduce(lambda acc, term: acc + term[0] * term[1], terms, IntPolynomial.zero())
    assert linear_combination(terms) == running
    assert linear_combination(iter(terms)) == running


@pytest.mark.parametrize("sign, factor", [(-1, q_minus_sign), (1, q_minus_one)])
def test_two_term_ratio_cancels_then_divides(sign, factor):
    assert two_term_ratio((), (), sign, 3, "q^3") == IntPolynomial.q_power(3)
    # {1, 2, 3, 4, 4} over {1, 2, 2}: (q^3 - s^3)(q^4 - s^4)^2 / (q^2 - s^2)
    ratio = two_term_ratio([1, 2, 3, 4, 4], [2, 1, 2], sign, 2, "test ratio")
    expected = IntPolynomial.q_power(2) * factor(3) * factor(4) * factor(4)
    assert ratio == expected.exact_div(factor(2))


@pytest.mark.parametrize("numerator, denominator, sign, message", [
    ([1], [2], -1, "what not polynomial: degree 1 below hook factor q^2"),
    ([1], [2], 1, "what not polynomial: degree 1 below hook factor q^2"),
    ([3], [2], -1, "what not polynomial: nonzero remainder q + 1 dividing by q^2 - 1"),
    ([3], [2], 1, "what not polynomial: nonzero remainder q - 1 dividing by q^2 - 1"),
])
def test_two_term_ratio_not_divisible_raises(numerator, denominator, sign, message):
    with pytest.raises(ExactDivisionError) as info:
        two_term_ratio(numerator, denominator, sign, 0, "what")
    assert str(info.value) == message
