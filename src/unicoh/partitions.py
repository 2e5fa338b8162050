"""Partitions, beta-sets, border strips, 2-cores and 2-quotients.

A partition is stored canonically as a weakly decreasing tuple of positive
integers; trailing zeros passed to the constructor are trimmed.  All values
here are immutable, so they are safe hash keys for memoisation and safe to
share across threads.
"""

from __future__ import annotations

from functools import cache
from itertools import chain
from operator import add, ge, index, sub
from typing import Iterable, Iterator, NamedTuple, Optional

from .errors import VerificationError


class Partition(tuple):
    """A weakly decreasing tuple of positive integers; () is the empty partition.

    Parts must be integers (`operator.index`): a float or a string raises
    TypeError rather than being truncated or parsed.  A Partition passed in
    is returned as it is, since it was checked when it was built and cannot
    change.  Trailing zeros go in one backward scan and one slice.
    """

    def __new__(cls, parts: Iterable[int] = ()):
        if type(parts) is cls:
            return parts
        parts = tuple(map(index, parts))
        end = len(parts)
        while end and parts[end - 1] == 0:
            end -= 1
        parts = parts[:end]  # the tuple itself when nothing is trimmed
        # weakly decreasing with a positive last part means every part is positive
        if parts and (parts[-1] < 0 or not all(map(ge, parts, parts[1:]))):
            _reject(parts)
        return tuple.__new__(cls, parts)

    @property
    def size(self) -> int:
        return sum(self)

    def transpose(self) -> "Partition":
        """Conjugate diagram (column lengths); an involution."""
        if not self:
            return Partition()
        cols = [0] * self[0]
        for p in self:
            for j in range(p):
                cols[j] += 1
        return Partition(cols)

    def __repr__(self) -> str:
        return f"Partition({tuple(self)!r})"


def _reject(parts: tuple[int, ...]) -> None:
    """Raise the error for the first part, left to right, that breaks the
    rules; called only once the fast check in Partition found one."""
    for i, p in enumerate(parts):
        if p <= 0:
            raise ValueError(f"parts must be positive, got {p} in {parts}")
        if i and parts[i - 1] < p:
            raise ValueError(f"parts must be weakly decreasing, got {parts}")


EMPTY = Partition()


class Bipartition(NamedTuple):
    first: Partition
    second: Partition

    @property
    def size(self) -> int:
        return self.first.size + self.second.size

    @classmethod
    def of(cls, first: Iterable[int], second: Iterable[int]) -> "Bipartition":
        return cls(Partition(first), Partition(second))


class BorderStrip(NamedTuple):
    """A removable border strip: its height (rows spanned minus 1) and the
    partition left after removal."""

    height: int
    result: Partition


class CoreQuotient(NamedTuple):
    """2-core staircase index together with the 2-quotient bipartition."""

    core_index: int
    quotient: Bipartition


def staircase(t: int) -> Partition:
    """The staircase partition (t, t-1, ..., 1); t = 0 gives the empty partition."""
    if t < 0:
        raise ValueError("staircase index must be nonnegative")
    return Partition(range(t, 0, -1))


def beta_set(lam: Partition, rows: Optional[int] = None) -> tuple[int, ...]:
    """Beta set of lam at the given row count (default: number of nonzero
    parts): the strictly decreasing values beta_i = lambda_i + rows - i."""
    lam = Partition(lam)
    if rows is None:
        rows = len(lam)
    if rows < len(lam):
        raise ValueError(f"row count {rows} below number of parts {len(lam)}")
    return tuple(map(add, lam + (0,) * (rows - len(lam)), range(rows - 1, -1, -1)))


def from_beta_set(values: Iterable[int]) -> Partition:
    """Invert beta_set: lambda_i = beta_i + i - len(values) (1-indexed).

    Partition rejects values that are not strictly decreasing or that are
    negative: lambda_i >= lambda_(i+1) exactly when beta_i > beta_(i+1), and
    the last part is nonnegative exactly when the last value is.
    """
    values = tuple(values)
    return Partition(map(sub, values, range(len(values) - 1, -1, -1)))


def hook_lengths(lam: Partition) -> tuple[tuple[int, ...], ...]:
    """Hook length of every box, row by row: arm + leg + 1."""
    lam = Partition(lam)
    conj = lam.transpose()
    return tuple(
        tuple(lam[i] - (j + 1) + conj[j] - (i + 1) + 1 for j in range(lam[i]))
        for i in range(len(lam))
    )


def border_strips(lam: Partition, size: int) -> tuple[BorderStrip, ...]:
    """All removable border strips of the given size.

    Removing a strip of size x is the beta-set move beta_i -> beta_i - x
    landing on a free nonnegative value; the height is the number of beta
    values strictly between beta_i - x and beta_i.

    Not memoised: the Murnaghan-Nakayama recursion asks for each (lam, size)
    once, through `weyl_characters._strip_moves`, which keeps the strips as
    positions in `partitions_of`.
    """
    lam = Partition(lam)
    if size <= 0:
        raise ValueError("strip size must be positive")
    values = beta_set(lam)
    strips = []
    for i, b in enumerate(values):
        target = b - size
        if target < 0 or target in values:
            continue
        height = sum(1 for v in values if target < v < b)
        moved = sorted(values[:i] + (target,) + values[i + 1 :], reverse=True)
        strips.append(BorderStrip(height, from_beta_set(moved)))
    return tuple(strips)


def core_quotient(lam: Partition, rows: Optional[int] = None) -> CoreQuotient:
    """2-core index and 2-quotient of lam, read off the 2-abacus of its beta
    set (at `rows` rows, default the number of nonzero parts) run by run.

    Removing a domino moves one beta value b to a free b - 2: one bead down
    its runner (even or odd values), so the bead count of each runner never
    changes.  No domino is left exactly when every bead sits at the bottom of
    its runner: the e even values are 0, 2, ..., 2(e - 1) and the o odd
    values 1, 3, ..., 2o - 1.  Each part counts the free values below its
    bead.  If e > o, the beads fill 0, ..., 2o and leave e - o - 1 gaps above
    that block; if o >= e, they fill 0, ..., 2e - 1 and leave the odd beads
    2e + 1, ..., 2o - 1.  So t = max(e - o - 1, o - e), with no domino
    removed one by one.  The halved values on each runner are the beta sets
    of the quotient components, ordered by the parity of the row count.
    A run of m equal parts p above `below` rows is the m values from p + below
    up: consecutive beads on each runner, so one run of equal parts of each
    component.  The runs are read from the bottom, the zero rows first.
    Neither t nor the quotient depends on padding lam with zero rows.
    """
    lam = Partition(lam)
    j = len(lam)
    if rows is None:
        rows = j
    if rows < j:
        raise ValueError(f"row count {rows} below number of parts {j}")
    even_parts, odd_parts = [], []  # each runner's component, bottom up
    part = below = even_below = 0  # even_below: the beads below on the even runner
    m = rows - j
    while True:
        low = part + below
        n_even = (m + 1 - low % 2) // 2
        even_parts += [(low + 1) // 2 - even_below] * n_even
        odd_parts += [low // 2 - below + even_below] * (m - n_even)
        even_below += n_even
        below += m
        if not j:
            break
        part = lam[j - 1]
        start = lam.index(part)  # a run starts at the first part equal to its own
        m, j = j - start, start
    mu0, mu1 = Partition(even_parts[::-1]), Partition(odd_parts[::-1])
    quotient = Bipartition(mu0, mu1) if rows % 2 else Bipartition(mu1, mu0)
    return CoreQuotient(max(2 * even_below - rows - 1, rows - 2 * even_below), quotient)


def two_core(lam: Partition) -> int:
    """Staircase index t of the 2-core, read off the 2-abacus (see `core_quotient`)."""
    return core_quotient(lam).core_index


def two_quotient(lam: Partition, rows: Optional[int] = None) -> Bipartition:
    """2-quotient: split the beta-set by parity, halve, and order by row-count parity.

    The result does not depend on padding lam with zero rows; the default
    row count is the number of nonzero parts.
    """
    return core_quotient(lam, rows).quotient


def from_core_quotient(t: int, quotient: Bipartition) -> Partition:
    """The unique partition with 2-core staircase(t) and the given 2-quotient.

    Constructive inverse: at an odd row count R the quotient components sit
    on the even and odd beta values in that order, and the parity counts are
    those of the beta-set of staircase(t) at R.  The beta values of the two
    components are doubled (resp. doubled plus one) and interleaved.
    """
    if t < 0:
        raise ValueError("core index must be nonnegative")
    first, second = Partition(quotient[0]), Partition(quotient[1])
    rows = 2 * (t + len(first) + len(second) + 1) + 1
    core_values = beta_set(staircase(t), rows)
    n_even = sum(1 for b in core_values if b % 2 == 0)
    n_odd = rows - n_even
    b0 = beta_set(first, n_even)
    b1 = beta_set(second, n_odd)
    merged = sorted([2 * b for b in b0] + [2 * b + 1 for b in b1], reverse=True)
    lam = from_beta_set(merged)
    if lam.size != t * (t + 1) // 2 + 2 * (first.size + second.size):  # forced by the construction
        raise VerificationError(f"reconstructed {tuple(lam)} has the wrong size for t={t}")
    return lam


@cache
def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of n in descending tuple order, built once per int n (a
    first part, then a partition of the rest with no larger part): the one
    tuple the type-B labels and strip moves index into.  A negative n raises
    ValueError on every call, as an exception is not cached."""
    if n < 0:
        raise ValueError(f"size must be nonnegative, got {n}")
    first_parts = range(n, 0, -1)
    found = (Partition((p,) + rest) for p in first_parts for rest in partitions_of(n - p) if rest[:1] <= (p,))
    return tuple(found) or (EMPTY,)  # the empty partition is the one partition of 0


def bipartitions_of(n: int) -> Iterator[Bipartition]:
    """All bipartitions of n in descending tuple order; a negative n raises ValueError."""
    if n < 0:
        raise ValueError(f"size must be nonnegative, got {n}")
    firsts = sorted(chain.from_iterable(map(partitions_of, range(n + 1))), reverse=True)
    return (Bipartition(first, second) for first in firsts for second in partitions_of(n - first.size))
