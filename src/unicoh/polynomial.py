"""Dense integer polynomials in the indeterminate q.

Coefficients are arbitrary-precision Python ints, stored lowest power first
with no trailing (leading-power) zeros.  Division is exact division: a
nonzero remainder raises rather than silently passing to rationals.

Every dimension sum in the library (a multiset's generic degrees, Euler
characteristics, alternating sums along an eigenvalue chain) is one
`linear_combination`: column sums over the coefficient lists, one polynomial
built at the end.  Every generic degree is one `two_term_ratio`: a quotient
of products of two-term factors q**j - s**j, built by one-pass steps on a
single coefficient list by `two_term_steps`.  The Harish-Chandra index
forms of one stratum row start from one `two_term_ratio` and step from cell
to cell by one `two_term_steps` each: one multiply and one exact-divide pass.
The ring operators are the reference arithmetic of the test oracles and of
the Coxeter closed form.
"""

from __future__ import annotations

from collections import Counter
from itertools import zip_longest
from operator import index
from typing import Iterable

from .errors import ExactDivisionError


def _trim(coeffs: tuple[int, ...]) -> tuple[int, ...]:
    n = len(coeffs)
    while n and coeffs[n - 1] == 0:
        n -= 1
    return coeffs[:n]


class IntPolynomial:
    """Immutable integer polynomial; () is the zero polynomial.

    Coefficients must be integers (`operator.index`): a float or a string
    raises TypeError rather than being truncated or parsed.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        object.__setattr__(self, "coeffs", _trim(tuple(map(index, coeffs))))

    def __setattr__(self, name, value):
        raise AttributeError("IntPolynomial is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "IntPolynomial":
        return cls(())

    @classmethod
    def one(cls) -> "IntPolynomial":
        return cls((1,))

    @classmethod
    def constant(cls, c: int) -> "IntPolynomial":
        return cls((c,))

    @classmethod
    def q_power(cls, k: int) -> "IntPolynomial":
        """q**k."""
        if k < 0:
            raise ValueError("negative power")
        return cls([0] * k + [1])

    # -- basic queries -------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; the zero polynomial has degree -1 by convention."""
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, IntPolynomial):
            return self.coeffs == other.coeffs
        if isinstance(other, int):
            return self.coeffs == _trim((other,))
        return NotImplemented

    def __hash__(self) -> int:
        # a constant equals its int (zero included), so it hashes like one
        if len(self.coeffs) < 2:
            return hash(self.coeffs[0] if self.coeffs else 0)
        return hash(self.coeffs)

    def __call__(self, q0: int) -> int:
        """Evaluate at an integer, exactly (Horner)."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * q0 + c
        return acc

    # -- ring operations -----------------------------------------------

    @staticmethod
    def _coerce(other) -> "IntPolynomial":
        if isinstance(other, IntPolynomial):
            return other
        if isinstance(other, int):
            return IntPolynomial((other,))
        raise TypeError(f"cannot combine IntPolynomial with {type(other).__name__}")

    def __add__(self, other) -> "IntPolynomial":
        other = self._coerce(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial(out)

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial([-c for c in self.coeffs])

    def __sub__(self, other) -> "IntPolynomial":
        return self + (-self._coerce(other))

    def __mul__(self, other) -> "IntPolynomial":
        other = self._coerce(other)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPolynomial(())
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return IntPolynomial(out)

    __rmul__ = __mul__

    def divmod(self, other: "IntPolynomial") -> tuple["IntPolynomial", "IntPolynomial"]:
        """Long division over the integers.

        Every elimination step must divide exactly in the leading
        coefficient, otherwise ExactDivisionError is raised.  (All divisors
        used in this library are monic, so the step always succeeds.)
        """
        other = self._coerce(other)
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        div = other.coeffs
        dq = len(rem) - len(div)
        if dq < 0:
            return IntPolynomial(()), self
        quot = [0] * (dq + 1)
        lead = div[-1]
        for k in range(dq, -1, -1):
            top = rem[k + len(div) - 1]
            if top % lead != 0:
                raise ExactDivisionError(
                    f"leading coefficient {top} not divisible by {lead}"
                )
            c = top // lead
            quot[k] = c
            if c:
                for j, d in enumerate(div):
                    rem[k + j] -= c * d
        return IntPolynomial(quot), IntPolynomial(rem)

    def exact_div(self, other: "IntPolynomial") -> "IntPolynomial":
        """Divide, requiring a zero remainder."""
        quot, rem = self.divmod(other)
        if rem:
            raise ExactDivisionError(f"nonzero remainder {rem} dividing {self} by {other}")
        return quot

    # -- presentation ----------------------------------------------------

    def __repr__(self) -> str:
        return f"IntPolynomial({list(self.coeffs)!r})"

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        terms = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            if k == 0:
                body = str(abs(c))
            else:
                mag = "" if abs(c) == 1 else f"{abs(c)}*"
                body = f"{mag}q" if k == 1 else f"{mag}q^{k}"
            if not terms:
                terms.append(body if c > 0 else f"-{body}")
            else:
                terms.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(terms)

    def to_json(self) -> list[str]:
        """Coefficients as decimal strings, lowest power first."""
        return [str(c) for c in self.coeffs]


def prod(factors: Iterable[IntPolynomial]) -> IntPolynomial:
    acc = IntPolynomial.one()
    for f in factors:
        acc = acc * f
    return acc


def linear_combination(terms: Iterable[tuple[int, IntPolynomial]]) -> IntPolynomial:
    """Sum of c * p over (c, p) pairs, in one pass: the column sums of every
    coefficient list (scaled only when c != 1) build a single polynomial."""
    rows = [p.coeffs if c == 1 else [c * x for x in p.coeffs] for c, p in terms]
    return IntPolynomial(map(sum, zip_longest(*rows, fillvalue=0)))


def two_term_steps(
    coeffs: list[int], numerator: Iterable[int], denominator: Iterable[int], sign: int, what: str
) -> list[int]:
    """coeffs * prod_{j in numerator} (q**j - sign**j) / prod_{h in denominator} (q**h - sign**h),
    on a coefficient list (lowest power first), all multiplications first.

    Each factor is two-term, so each multiplication and each exact division
    is one pass over a single list; nothing cancels beforehand.  A nonzero
    remainder or a quotient of negative degree raises ExactDivisionError,
    whose message starts with `what` (the quantity being computed).
    """
    for j in numerator:
        e = sign**j
        product = [0] * j + coeffs
        for k, c in enumerate(coeffs):
            product[k] -= e * c
        coeffs = product
    for h in denominator:
        e = sign**h
        # coeffs = quot * (q**h - e): top-down, quot[m] = coeffs[m + h] + e * quot[m + h]
        quot = coeffs[h:]
        if not quot:
            raise ExactDivisionError(
                f"{what} not polynomial: degree {len(coeffs) - 1} below hook factor q^{h}"
            )
        for m in range(len(quot) - 1 - h, -1, -1):
            quot[m] += e * quot[m + h]
        remainder = [coeffs[k] + e * (quot[k] if k < len(quot) else 0) for k in range(h)]
        if any(remainder):
            raise ExactDivisionError(
                f"{what} not polynomial: "
                f"nonzero remainder {IntPolynomial(remainder)} dividing by {IntPolynomial.q_power(h) - e}"
            )
        coeffs = quot
    return coeffs


def two_term_ratio(
    numerator: Iterable[int], denominator: Iterable[int], sign: int, shift: int, what: str
) -> IntPolynomial:
    """q**shift * prod_{j in numerator} (q**j - sign**j) / prod_{h in denominator} (q**h - sign**h),
    over two multisets of exponents.

    Factors common to the two multisets cancel first; `two_term_steps` builds
    the rest from the constant 1, and raises as it does.
    """
    numerator, denominator = Counter(numerator), Counter(denominator)
    coeffs = two_term_steps(
        [1], (numerator - denominator).elements(), (denominator - numerator).elements(), sign, what
    )
    return IntPolynomial([0] * shift + coeffs)


def q_minus_sign(j: int) -> IntPolynomial:
    """q**j - (-1)**j, the factor attached to unitary groups."""
    return IntPolynomial.q_power(j) - IntPolynomial.constant((-1) ** j)
