"""Exact irreducible characters of symmetric groups and hyperoctahedral groups.

Character values are computed by one recursion, the type-B variant of the
Murnaghan-Nakayama rule (strip removal with alternating signs), one class
column at a time: `typeb_column(klass)` is the tuple of the values of every
label of W_a at klass, built by one strip-removal step from the column of
the class with its last cycle removed.  A column lists its values in
`labels_typeb` order, one block per alpha with beta running over the
partitions of a - |alpha|, so a strip taken from alpha moves a whole block
and a strip taken from beta moves a position inside one.  Those moves depend
only on the rank and the length x of the removed cycle: `_block_moves(a, x)`
reads both kinds from `_strip_moves(k, x)`, the strips of each partition of
k as positions in `partitions_of(k - x)`, the one tuple per size that labels,
blocks and moves index into, and a column is summed by integer indexing into
the previous one.  `chi_typeb` reads its value from that column at its
label's position, and the W_a character table takes each class's whole
column as it is, so its values do not pass through `chi_typeb`.  A
symmetric-group value is the type-B value at (lam, empty), (nu, empty); the
S_n table reads them one `chi_sym` value at a time.
`signed_class_sizes` counts the classes of the type-B group by brute force
over signed permutations, an independent oracle for small rank.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from collections import Counter
from functools import cache, reduce
from math import factorial
from typing import Iterator, NamedTuple

from .errors import RankCapError
from .partitions import (
    EMPTY,
    Bipartition,
    Partition,
    bipartitions_of,
    border_strips,
    partitions_of,
)

BRUTE_FORCE_RANK_CAP = 5


@cache
def chi_sym(lam: Partition, nu: Partition) -> int:
    """Character value of the symmetric group irreducible lam at cycle type nu:
    (lam, empty) is the W_n irreducible that factors through W_n -> S_n, so the
    value is chi_typeb at it and at the all-positive class (nu, empty)."""
    lam, nu = Partition(lam), Partition(nu)
    if lam.size != nu.size:
        raise ValueError(f"size mismatch: |{tuple(lam)}| != |{tuple(nu)}|")
    return chi_typeb(Bipartition(lam, EMPTY), Bipartition(nu, EMPTY))


@cache
def chi_typeb(label: Bipartition, klass: Bipartition) -> int:
    """Character value of the hyperoctahedral group W_a.

    label = (alpha, beta) names the irreducible, klass = (gamma, theta)
    the conjugacy class (positive / negative cycle lengths).  Both are made
    Bipartitions of Partitions first, so a plain tuple reads the same value
    whatever the memos hold.  The value is read from the class's column at
    the label's position; a label of another size is not in it.
    """
    label, klass = Bipartition.of(*label), Bipartition.of(*klass)
    labels = labels_typeb(klass.size)
    # the labels descend, so label's position is the first one not above it
    position = bisect_left(labels, True, key=label.__ge__)
    if labels[position : position + 1] != (label,):
        raise ValueError(f"size mismatch between label {label} and class {klass}")
    return typeb_column(klass)[position]


@cache
def typeb_column(klass: Bipartition) -> tuple[int, ...]:
    """Every character value of W_a at one class: the value of each label of
    size a, in `labels_typeb` order.  klass is made a Bipartition of
    Partitions first, as in `chi_typeb`.

    One Murnaghan-Nakayama step from the column of the class with its last
    cycle x removed: the last part of gamma with epsilon = 1, or of theta
    with epsilon = -1 once gamma is exhausted.  A label's value sums, over
    the strips of size x taken from alpha or from beta, the value of what is
    left, with sign (-1)**height and an extra factor epsilon for a strip
    taken from beta.  The strips come from `_block_moves(a, x)`, shared by
    every class of rank a whose last cycle has length x, as positions in the
    previous column: a value is read by integer indexing, with no strip
    lookup and no label key.
    """
    gamma, theta = klass = Bipartition.of(*klass)
    if not gamma and not theta:
        return (1,)
    if gamma:
        eps, x = 1, gamma[-1]
        rest = Bipartition(Partition(gamma[:-1]), theta)
    else:
        eps, x = -1, theta[-1]
        rest = Bipartition(gamma, Partition(theta[:-1]))
    previous = typeb_column(rest)
    values = []
    for start, beta_moves, alpha_even, alpha_odd in _block_moves(klass.size, x):
        for j, (even, odd) in enumerate(beta_moves):
            total = 0
            for position in even:
                total += previous[start + position]
            for position in odd:
                total -= previous[start + position]
            total *= eps
            for first in alpha_even:
                total += previous[first + j]
            for first in alpha_odd:
                total -= previous[first + j]
            values.append(total)
    return tuple(values)


def _blocks(a: int) -> Iterator[tuple[Partition, int, int]]:
    """(alpha, its position in `partitions_of(|alpha|)`, offset) for each block
    of `labels_typeb(a)`, in order: the labels (alpha, beta), beta running over
    `partitions_of(a - |alpha|)`, start at that offset.  The alphas of one size
    descend, as in `partitions_of`, so a position counts the alphas of its size."""
    labels, seen, offset = labels_typeb(a), [0] * (a + 1), 0
    while offset < len(labels):
        alpha = labels[offset].first
        yield alpha, seen[alpha.size], offset
        seen[alpha.size] += 1
        offset += len(partitions_of(a - alpha.size))


@cache
def _block_moves(a: int, x: int) -> tuple[tuple, ...]:
    """The strips of size x of the labels of W_a, one entry per block of
    `labels_typeb(a)`: the offset of alpha's own block in the W_(a-x) column
    (None if |alpha| > a - x, when no beta has a strip); the strips of each
    beta, as positions in that block; and the strips of alpha, as the offsets
    there of the blocks of what they leave, those of even height and those of
    odd height.  Both come from `_strip_moves`."""
    offsets = {(alpha.size, i): offset for alpha, i, offset in _blocks(a - x)}
    moves = []
    for alpha, i, _ in _blocks(a):
        m = alpha.size
        even, odd = (tuple(offsets[m - x, j] for j in js) for js in _strip_moves(m, x)[i])
        moves.append((offsets.get((m, i)), _strip_moves(a - m, x), even, odd))
    return tuple(moves)


@cache
def _strip_moves(k: int, x: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """The strips of size x of each partition of k, in `partitions_of(k)` order,
    as the positions in `partitions_of(k - x)` of what they leave, split by
    `_by_parity`: read by the alpha and the beta side of every rank, so
    `border_strips` is asked once per (partition, x)."""
    if k < x:  # no partition of k has a strip of size x
        return (((), ()),) * len(partitions_of(k))
    position = {nu: i for i, nu in enumerate(partitions_of(k - x))}.__getitem__
    return tuple(_by_parity(border_strips(mu, x), position) for mu in partitions_of(k))


def _by_parity(strips, place) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(place of what each strip of even height leaves, same for odd height)."""
    even, odd = [], []
    for height, result in strips:
        (odd if height % 2 else even).append(place(result))
    return tuple(even), tuple(odd)


@cache
def labels_typeb(a: int) -> tuple[Bipartition, ...]:
    """All labels of W_a, in descending tuple order (that of bipartitions_of)."""
    return tuple(bipartitions_of(a))


# -- class sizes -------------------------------------------------------


def sym_centralizer_order(nu: Partition) -> int:
    return reduce(
        lambda acc, item: acc * item[0] ** item[1] * factorial(item[1]),
        Counter(Partition(nu)).items(),
        1,
    )


def sym_class_size(nu: Partition) -> int:
    """Number of permutations of cycle type nu."""
    nu = Partition(nu)
    return factorial(nu.size) // sym_centralizer_order(nu)


def typeb_class_size(klass: Bipartition) -> int:
    """Number of signed permutations of signed cycle type (gamma, theta); a
    cycle of length l adds 2l to the centralizer order where S_a's adds l."""
    gamma, theta = klass = Bipartition.of(*klass)
    z = 2 ** (len(gamma) + len(theta)) * sym_centralizer_order(gamma) * sym_centralizer_order(theta)
    return (2**klass.size * factorial(klass.size)) // z


# -- brute-force signed permutations ------------------------------------


def signed_permutations(a: int) -> Iterator[tuple[int, ...]]:
    """All signed permutations of rank a as tuples f with f[i] = image of i+1.

    Images range over {+-1, ..., +-a}; the action on negatives is forced by
    f(-j) = -f(j).
    """
    for perm in itertools.permutations(range(1, a + 1)):
        for signs in itertools.product((1, -1), repeat=a):
            yield tuple(s * p for s, p in zip(signs, perm))


def signed_cycle_type(element: tuple[int, ...]) -> Bipartition:
    """Signed cycle type: positive-cycle lengths, negative-cycle lengths."""
    a = len(element)
    seen = [False] * a
    pos, neg = [], []
    for start in range(a):
        if seen[start]:
            continue
        sign, length, j = 1, 0, start
        while not seen[j]:
            seen[j] = True
            length += 1
            image = element[j]
            if image < 0:
                sign = -sign
            j = abs(image) - 1
        (pos if sign > 0 else neg).append(length)
    return Bipartition(Partition(sorted(pos, reverse=True)), Partition(sorted(neg, reverse=True)))


def signed_class_sizes(a: int) -> Counter[Bipartition]:
    """Class sizes of W_a by brute force: how many of its 2**a * a! signed permutations
    have each signed cycle type.  The independent side of the class-size checks, for
    small rank: ranks above the cap are rejected before any element is built."""
    if a < 0:
        raise ValueError("rank must be nonnegative")
    if a > BRUTE_FORCE_RANK_CAP:
        raise RankCapError(f"rank {a} above brute-force cap {BRUTE_FORCE_RANK_CAP}")
    return Counter(map(signed_cycle_type, signed_permutations(a)))


# -- character tables ----------------------------------------------------


class CharacterTable(NamedTuple):
    group: str
    labels: tuple
    classes: tuple
    class_sizes: tuple[int, ...]
    values: tuple[tuple[int, ...], ...]

    @property
    def group_order(self) -> int:
        return sum(self.class_sizes)

    def value(self, label, klass) -> int:
        return self.values[self.labels.index(label)][self.classes.index(klass)]

    def is_orthogonal(self, order: int) -> bool:
        """The class sizes add up to `order` and the rows are orthogonal: the sum
        over classes of size * chi_i * chi_j is `order` when i == j, else 0."""
        rows = self.values
        return self.group_order == order and all(
            sum(s * x * y for s, x, y in zip(self.class_sizes, rows[i], rows[j]))
            == (order if i == j else 0)
            for i in range(len(rows))
            for j in range(i, len(rows))
        )

    def to_json(self) -> dict:
        def encode(item):
            if isinstance(item, Bipartition):
                return [list(item.first), list(item.second)]
            return list(item)

        return {
            "group": self.group,
            "labels": [encode(l) for l in self.labels],
            "classes": [encode(c) for c in self.classes],
            "class_sizes": [str(s) for s in self.class_sizes],
            "values": [[str(v) for v in row] for row in self.values],
        }


def _character_table(group: str, labels, class_size, column) -> CharacterTable:
    """Square table: labels and classes are both `labels`, which come in
    descending tuple order.  `column(klass)` is the tuple of the values of
    every label at klass, in that order, and is taken once per class as it is."""
    labels = tuple(labels)
    return CharacterTable(
        group=group,
        labels=labels,
        classes=labels,
        class_sizes=tuple(class_size(k) for k in labels),
        values=tuple(zip(*map(column, labels))),
    )


def _sym_column(nu: Partition) -> tuple[int, ...]:
    # one chi_sym value per label, so a fault in chi_sym or chi_typeb shows here
    return tuple(chi_sym(lam, nu) for lam in partitions_of(nu.size))


def character_table_sym(n: int) -> CharacterTable:
    """Full character table of the symmetric group on n letters."""
    if n < 0:
        raise ValueError("rank must be nonnegative")
    return _character_table(f"S{n}", partitions_of(n), sym_class_size, _sym_column)


def character_table_typeb(a: int) -> CharacterTable:
    """Full character table of the hyperoctahedral group W_a, read from the
    memoised class columns: the module-level `typeb_column` is looked up at
    call time, and no value goes through `chi_typeb`."""
    if a < 0:
        raise ValueError("rank must be nonnegative")
    return _character_table(f"W{a}", labels_typeb(a), typeb_class_size, typeb_column)
