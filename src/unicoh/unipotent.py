"""Labels and generic degrees of unipotent representations of GL_n(q) and U_n(q).

Two labelings are supported: by a partition of n, and (for the unitary
group) by a symbol triple (t, alpha, beta) recording the cuspidal support
staircase(t) and a bipartition.  Generic degrees are exact integer
polynomials in q produced by the hook formulas, q**a(lam) times
prod (q**j - e**j) over j <= n divided by prod (q**h - e**h) over the hook
lengths h, with e = -1 for U and e = 1 for GL.  `polynomial.two_term_ratio`
cancels the factors shared by the two products and builds the rest by
one-pass multiply and exact-divide steps; any nonzero remainder is a bug
and raises.
"""

from __future__ import annotations

from functools import cache, total_ordering
from operator import index
from typing import NamedTuple

from .partitions import (
    Bipartition,
    Partition,
    core_quotient,
    from_core_quotient,
    hook_lengths,
    staircase,
    two_core,
)
from .polynomial import IntPolynomial, two_term_ratio


def a_exponent(lam: Partition) -> int:
    """The q-power prefix exponent sum((i-1) * lam_i)."""
    return sum(i * p for i, p in enumerate(Partition(lam)))


def _hooks_flat(lam: Partition) -> list[int]:
    return [h for row in hook_lengths(lam) for h in row]


def _hook_degree(lam: Partition, sign: int) -> IntPolynomial:
    """q**a(lam) * prod_{j<=n} (q**j - sign**j) / prod_{hooks h} (q**h - sign**h)."""
    lam = Partition(lam)
    group = "U" if sign < 0 else "GL"
    return two_term_ratio(
        range(1, lam.size + 1), _hooks_flat(lam), sign, a_exponent(lam),
        f"{group} degree of {tuple(lam)}",
    )


@cache
def degree_gl(lam: Partition) -> IntPolynomial:
    """Generic degree of the unipotent representation of GL_n(q) labelled by lam."""
    return _hook_degree(lam, 1)


@cache
def degree_u(lam: Partition) -> IntPolynomial:
    """Generic degree of the unipotent representation of U_n(q) labelled by lam."""
    return _hook_degree(lam, -1)


@total_ordering
class SymbolLabel:
    """Cuspidal-support label (t, alpha, beta) of a unipotent representation of U_n(q).

    t must be an integer (`operator.index`), like the parts of a Partition,
    and alpha and beta are stored as Partitions, so parts that do not form a
    partition raise the Partition error.  Immutable: assigning to any
    attribute raises AttributeError.  Labels compare (equality and order) by
    (t, alpha, beta), and only with other labels.
    """

    # rank: n = 2(|alpha| + |beta|) + t(t+1)/2 of the ambient unitary group;
    # support: (t, rank), shared by every label of one RepMultiset.
    # _hash: hash((t, alpha, beta)), stored so that dict and set lookups do
    # not rebuild the tuple.
    __slots__ = ("t", "alpha", "beta", "rank", "support", "_hash")

    def __init__(self, t: int, alpha: Partition, beta: Partition):
        t = index(t)
        if t < 0:
            raise ValueError("cuspidal support index must be nonnegative")
        alpha, beta = Partition(alpha), Partition(beta)
        setter = object.__setattr__
        setter(self, "t", t)
        setter(self, "alpha", alpha)
        setter(self, "beta", beta)
        setter(self, "rank", 2 * (sum(alpha) + sum(beta)) + t * (t + 1) // 2)
        setter(self, "support", (t, self.rank))
        setter(self, "_hash", hash((t, alpha, beta)))

    def __setattr__(self, name, value):
        raise AttributeError("SymbolLabel is immutable")

    def __delattr__(self, name):
        raise AttributeError("SymbolLabel is immutable")

    def __reduce__(self):
        return SymbolLabel, (self.t, self.alpha, self.beta)

    def __repr__(self) -> str:
        return f"SymbolLabel(t={self.t!r}, alpha={self.alpha!r}, beta={self.beta!r})"

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not SymbolLabel:
            return NotImplemented
        return self._hash == other._hash and (self.t, self.alpha, self.beta) == (
            other.t, other.alpha, other.beta
        )

    def __lt__(self, other):
        if other.__class__ is not SymbolLabel:
            return NotImplemented
        return (self.t, self.alpha, self.beta) < (other.t, other.alpha, other.beta)

    @property
    def bipartition(self) -> Bipartition:
        return Bipartition(self.alpha, self.beta)

    def to_json(self) -> dict:
        return {"t": self.t, "alpha": list(self.alpha), "beta": list(self.beta)}


@cache
def symbol(t: int, alpha: Partition, beta: Partition) -> SymbolLabel:
    """The label (t, alpha, beta), built once per process.

    Stratum terms ask for the same few labels tens of thousands of times,
    once their two paths agree on bipartitions.  Keyed on all
    three arguments: alpha and beta must be hashable, and a plain tuple of
    parts finds the entry of the equal Partition only without trailing
    zeros.  On a miss SymbolLabel makes them Partitions.  The only memo
    that returns labels, so clearing it on its own drops every label.
    t must already be an int: the memo keys 1.0 and 1 as one entry, so after
    symbol(1, (2,), ()) a call symbol(1.0, (2,), ()) returns that label instead
    of raising.  SymbolLabel checks; every caller in the package passes an int.
    """
    return SymbolLabel(t, alpha, beta)


@cache
def _to_symbol(lam: Partition) -> tuple[int, Partition, Partition]:
    t, (q0, q1) = core_quotient(lam)
    return (t, q0, q1) if t % 2 == 0 else (t, q1, q0)


def to_symbol(lam: Partition) -> SymbolLabel:
    """Translate a partition label of U_n(q) into its symbol triple.

    The bipartition is the 2-quotient, with the two components swapped when
    the 2-core index t is odd; both come from one beta set of lam.

    Memoised per partition, like its inverse `from_symbol`: lam is made a
    Partition first (so a list or a tuple with trailing zeros finds the same
    entry).  The memo holds the triple, not the label, and the label comes
    from the `symbol` memo.
    """
    return symbol(*_to_symbol(Partition(lam)))


@cache
def from_symbol(sym: SymbolLabel) -> Partition:
    """Inverse of to_symbol.

    Memoised: a label is frozen and hashable and the partition immutable, so
    each label is translated once per process.  `symbol_degree` stays
    uncached and looks up `degree_u` at call time.
    """
    if sym.t % 2 == 0:
        quotient = Bipartition(sym.alpha, sym.beta)
    else:
        quotient = Bipartition(sym.beta, sym.alpha)
    return from_core_quotient(sym.t, quotient)


def symbol_degree(sym: SymbolLabel) -> IntPolynomial:
    return degree_u(from_symbol(sym))


class HCSeries(NamedTuple):
    """Harish-Chandra series data of a unipotent representation of U_n(q)."""

    t: int
    n: int
    principal: bool
    cuspidal: bool

    @property
    def weyl_rank(self) -> int:
        """Rank a of the relative Weyl group W_a attached to the series."""
        return (self.n - self.t * (self.t + 1) // 2) // 2


def hc_series(lam: Partition) -> HCSeries:
    """Series membership of the unipotent representation of U_n(q) labelled by lam.

    The series index is the 2-core staircase index; the principal series is
    t = 0 for n even and t = 1 for n odd; the label is cuspidal exactly when
    it equals its own 2-core.
    """
    lam = Partition(lam)
    n = lam.size
    t = two_core(lam)
    principal = t == (n % 2)
    cuspidal = lam == staircase(t)
    return HCSeries(t=t, n=n, principal=principal, cuspidal=cuspidal)


def cuspidal_partition(n: int):
    """The unique unipotent cuspidal label of U_n(q), or None.

    One exists iff n is triangular, in which case it is the staircase.
    """
    if n < 0:
        raise ValueError("rank must be nonnegative")
    t = 0
    while t * (t + 1) // 2 < n:
        t += 1
    if t * (t + 1) // 2 == n:
        return staircase(t)
    return None
