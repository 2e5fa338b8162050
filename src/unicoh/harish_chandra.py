"""Harish-Chandra induction of unipotent representations of U_n(q).

Everything is computed on the Coxeter-group side of the comparison
dictionary: induction and restriction through a maximal chain of Levi
subgroups reduce to the type-B Pieri rule (add or delete boxes, no two in
the same column).  A Frobenius-reciprocity oracle built from explicit
character tables cross-checks the rule at small rank.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator, Mapping
from functools import cache, partial
from itertools import accumulate, chain, product, repeat, starmap
from math import factorial
from operator import attrgetter, index, is_not

from .errors import RankCapError
from . import weyl_characters
from .partitions import Bipartition, Partition, bipartitions_of, partitions_of
from .polynomial import IntPolynomial, linear_combination
from .unipotent import SymbolLabel, symbol, symbol_degree

ORACLE_RANK_CAP = 6


# -- horizontal strips ---------------------------------------------------


def _interlacing(lo: tuple[int, ...], hi: tuple[int, ...], total: int) -> tuple[Partition, ...]:
    """Every mu with lo_i <= mu_i <= hi_i and sum(mu_i - lo_i) == total, in
    descending tuple order.

    The bounds must make every such mu a partition.  Only the rows with
    hi_i > lo_i can move, so the recursion runs over those alone and the
    other rows keep lo_i: adding to a one-column lam, it recurses over two
    rows, not len(lam) + 1.  The movable rows after the j-th move at most
    cap[j + 1] = sum of their hi_i - lo_i boxes, so the j-th moves at least
    `remaining - cap[j + 1]`: every branch yields exactly one mu.
    """
    rows = [i for i in range(len(lo)) if hi[i] > lo[i]]
    spans = [hi[i] - lo[i] for i in rows]
    cap = list(accumulate(reversed(spans), initial=0))[::-1]
    if not 0 <= total <= cap[0]:
        return ()
    if not rows:
        return (Partition(lo),)
    out: list[Partition] = []
    parts = list(lo)
    last = len(rows) - 1

    def build(j: int, remaining: int) -> None:
        if j == last:  # the last movable row takes what is left
            parts[rows[j]] = lo[rows[j]] + remaining
            out.append(Partition(parts))
            return
        # every leaf sets each movable row on its way down, so no reset is needed
        i = rows[j]
        for move in range(min(spans[j], remaining), max(0, remaining - cap[j + 1]) - 1, -1):
            parts[i] = lo[i] + move
            build(j + 1, remaining - move)

    build(0, total)
    return tuple(out)


@cache
def add_horizontal_strips(lam: Partition, boxes: int) -> tuple[Partition, ...]:
    """All partitions obtained from lam by adding `boxes` boxes, no two in a column.

    Equivalently all mu interlacing lam from above, mu_1 >= lam_1 >= mu_2 >=
    lam_2 >= ... >= mu_{r+1} >= 0, in descending tuple order.

    Memoised per (lam, boxes), so lam must be hashable (a Partition or a
    plain tuple of parts, not a list).
    """
    lam = Partition(lam)
    if boxes < 0:
        raise ValueError("cannot add a negative number of boxes")
    return _interlacing(lam + (0,), ((lam[0] if lam else 0) + boxes,) + lam, boxes)


def remove_horizontal_strips(lam: Partition, boxes: int) -> tuple[Partition, ...]:
    """All partitions obtained from lam by deleting `boxes` boxes, no two in a column.

    Equivalently all mu interlacing lam from below, lam_1 >= mu_1 >= lam_2 >=
    mu_2 >= ... >= lam_r >= mu_r >= 0, in descending tuple order.  Such a mu
    keeps lam_2 + ... + lam_r boxes plus lam_1 - `boxes` more.
    """
    lam = Partition(lam)
    if boxes < 0:
        raise ValueError("cannot delete a negative number of boxes")
    return _interlacing(lam[1:] + (0,) if lam else (), lam, (lam[0] if lam else 0) - boxes)


# -- Pieri rule ----------------------------------------------------------


def _pair_strips(start: tuple[Partition, Partition], boxes: int, strips) -> tuple[tuple[Partition, Partition], ...]:
    """Every (first, second) with d boxes moved on the first component and
    boxes - d on the second, in descending tuple order.

    `start` is a Bipartition or any plain (first, second) pair of
    partitions.  Each strip tuple is already in that order, so sorting the
    first components once and emitting each one's seconds as they come gives
    the order of sorting every pair.  A first component of size
    sum(first) + d (adding) or sum(first) - d (deleting) takes the seconds of
    d.  Each pair is a plain 2-tuple of Partitions, made by `product` at C
    level; it equals, and hashes as, the Bipartition of its two components.
    """
    first, second = start
    firsts = sorted(chain.from_iterable(map(strips, repeat(first), range(boxes + 1))), reverse=True)
    seconds = list(map(strips, repeat(second), range(boxes, -1, -1)))
    base = sum(first)
    return tuple(chain.from_iterable(map(product, zip(firsts), [seconds[abs(sum(f) - base)] for f in firsts])))


def pieri_induce(start: tuple[Partition, Partition], boxes: int) -> tuple[tuple[Partition, Partition], ...]:
    """Constituents of Ind(chi_start x trivial) from W_r x S_boxes to W_{r+boxes}.

    `start` is any (first, second) pair of partitions: a Bipartition, a
    plain tuple, or an output of this function or of `pieri_restrict`.
    Multiplicity-free: split the boxes between the two components in every
    way and add each share as a horizontal strip.  Each component's strips
    are enumerated once per box count and then paired, in descending tuple
    order (`stratum_term` checks it).  Each constituent is a plain
    (first, second) tuple of Partitions.
    """
    if boxes < 0:
        raise ValueError("cannot add a negative number of boxes")
    return _pair_strips(start, boxes, add_horizontal_strips)


def pieri_restrict(start: tuple[Partition, Partition], boxes: int) -> tuple[tuple[Partition, Partition], ...]:
    """Constituents of the restriction from W_a to W_{a-boxes} (times S_boxes, trivial part).

    `start` is any (first, second) pair of partitions, of a = the sum of
    both components' parts; the constituents are plain (first, second)
    tuples of Partitions in descending tuple order, as from `pieri_induce`.
    """
    if boxes < 0:
        raise ValueError("cannot delete a negative number of boxes")
    first, second = start
    size = sum(first) + sum(second)
    if boxes > size:
        raise ValueError(f"cannot delete {boxes} boxes from a bipartition of {size}")
    return _pair_strips(start, boxes, remove_horizontal_strips)


# -- multisets of unipotent labels ----------------------------------------


class RepMultiset:
    """Multiset of symbol labels with positive multiplicities.

    All labels must share the same cuspidal support t and ambient rank n.
    Multiplicities must be integers (`operator.index`): a float or a string
    raises TypeError, and so does an element or key that is not a label.
    Zero multiplicities are dropped.
    """

    __slots__ = ("counts",)

    def __init__(self, items: Mapping[SymbolLabel, int] | Iterable[SymbolLabel] = ()):
        # a dict, list or tuple skips the Mapping ABC check; an iterable is
        # counted by Counter only when a label repeats; the rest is C level
        if isinstance(items, dict) or (type(items) not in (list, tuple) and isinstance(items, Mapping)):
            counts = dict(items)
            mults = list(map(index, counts.values()))
            if any(map(is_not, mults, counts.values())):  # a bool or another integer type
                counts = dict(zip(counts, mults))
            if 0 in mults:
                counts = {label: mult for label, mult in counts.items() if mult}
            if mults and min(mults) < 0:
                raise ValueError("multiplicities must be nonnegative")
        else:
            labels = list(items)
            counts = dict.fromkeys(labels, 1)
            if len(counts) != len(labels):
                counts = dict(Counter(labels))  # every count is a positive int
        try:
            supports = set(map(attrgetter("support"), counts))
        except AttributeError:
            for label in counts:
                if not isinstance(label, SymbolLabel):
                    raise TypeError(f"a RepMultiset holds symbol labels, not {label!r}") from None
            raise
        if len(supports) > 1:
            raise ValueError(f"mixed cuspidal supports in one multiset: {supports}")
        object.__setattr__(self, "counts", counts)

    def __setattr__(self, name, value):
        raise AttributeError("RepMultiset is immutable")

    def __len__(self) -> int:
        return sum(self.counts.values())

    def __iter__(self) -> Iterator[SymbolLabel]:
        return iter(self.sorted_labels())

    def __contains__(self, label: SymbolLabel) -> bool:
        return label in self.counts

    def __eq__(self, other) -> bool:
        return isinstance(other, RepMultiset) and self.counts == other.counts

    def __hash__(self) -> int:
        return hash(frozenset(self.counts.items()))

    def __repr__(self) -> str:
        body = ", ".join(
            f"(t={l.t}, {tuple(l.alpha)}, {tuple(l.beta)})x{self.counts[l]}" for l in self.sorted_labels()
        )
        return f"RepMultiset({{{body}}})"

    def multiplicity(self, label: SymbolLabel) -> int:
        return self.counts.get(label, 0)

    def is_multiplicity_free(self) -> bool:
        return max(self.counts.values(), default=1) == 1

    def sorted_labels(self) -> list[SymbolLabel]:
        """The labels in descending tuple order; one support means one t."""
        return sorted(self.counts, reverse=True)

    def union(self, other: "RepMultiset") -> "RepMultiset":
        merged = dict(self.counts)
        for label, mult in other.counts.items():
            merged[label] = merged.get(label, 0) + mult
        return RepMultiset(merged)

    def dimension_poly(self) -> IntPolynomial:
        """Sum of generic degrees over the multiset, as a polynomial in q,
        weighted by multiplicity in one `linear_combination`."""
        return linear_combination(
            (mult, symbol_degree(label)) for label, mult in self.counts.items()
        )

    def to_json(self) -> list[dict]:
        return [
            {"label": label.to_json(), "multiplicity": self.counts[label]}
            for label in self.sorted_labels()
        ]


# -- Harish-Chandra induction ---------------------------------------------


def hc_induce(unitary: SymbolLabel, gl_ranks: tuple[int, ...]) -> RepMultiset:
    """Harish-Chandra induction from the block-diagonal Levi
    U_b(q) x GL_{a_1}(q^2) x ... x GL_{a_r}(q^2), b = unitary.rank and
    (a_1, ..., a_r) = gl_ranks, up to U_n(q), n = b + 2 * sum(gl_ranks), of
    `unitary` on the unitary block tensored with the trivial label of every
    GL block.

    The bipartition side is an iterated Pieri induction, one GL block at a
    time, and each Pieri output, a plain (alpha, beta) pair, becomes its
    label (from the `symbol` memo) as it comes.  Rank-zero GL blocks are the
    identity and are skipped.  Multiplicities add up in a plain dict.  `unicoh induce` calls it, and
    the tests use it as the oracle of `deligne_lusztig.stratum_term`.
    """
    if min(gl_ranks, default=0) < 0:
        raise ValueError("ranks must be nonnegative")
    label_of = partial(symbol, unitary.t)
    current = {label_of(unitary.alpha, unitary.beta): 1}
    for a in gl_ranks:
        if a == 0:
            continue
        nxt: dict[SymbolLabel, int] = {}
        for label, mult in current.items():
            # pieri_induce is multiplicity-free, so each output adds mult
            for out in starmap(label_of, pieri_induce(label.bipartition, a)):
                nxt[out] = nxt.get(out, 0) + mult
        current = nxt
    return RepMultiset(current)


# -- Frobenius reciprocity oracle ------------------------------------------


def _fuse_class(b_class: Bipartition, s_class: Partition) -> Bipartition:
    """Class fusion of W_r x S_s into W_{r+s}: the S_s cycles join the positive cycles."""
    merged = sorted(tuple(b_class.first) + tuple(s_class), reverse=True)
    return Bipartition(Partition(merged), b_class.second)


def induction_multiplicity_oracle(
    r: int,
    s: int,
    weyl_label: Bipartition,
    sym_label: Partition,
    target: Bipartition,
) -> int:
    """Multiplicity of chi_target in Ind from W_r x S_s, by Frobenius reciprocity.

    Computed directly from character values and class sizes:
    <Ind(phi), chi> = sum over classes of W_r x S_s of
    |class| * phi(class) * chi(fused class) / |W_r x S_s|.
    """
    if r + s > ORACLE_RANK_CAP:
        raise RankCapError(f"oracle rank {r + s} above cap {ORACLE_RANK_CAP}")
    weyl_label, sym_label, target = Bipartition.of(*weyl_label), Partition(sym_label), Bipartition.of(*target)
    if weyl_label.size != r or sym_label.size != s:
        raise ValueError("label sizes must match the subgroup ranks")
    if target.size != r + s:
        raise ValueError("target label must be a bipartition of r + s")
    total = 0
    for b_class in bipartitions_of(r):
        size_b = weyl_characters.typeb_class_size(b_class) if r else 1
        chi_b = weyl_characters.chi_typeb(weyl_label, b_class)
        if chi_b == 0:
            continue
        for s_class in partitions_of(s):
            size_s = weyl_characters.sym_class_size(s_class) if s else 1
            chi_s = weyl_characters.chi_sym(sym_label, s_class)
            if chi_s == 0:
                continue
            fused = _fuse_class(b_class, s_class)
            total += size_b * size_s * chi_b * chi_s * weyl_characters.chi_typeb(target, fused)
    order = (2**r * factorial(r)) * factorial(s)
    mult, rem = divmod(total, order)
    if rem:
        raise ArithmeticError(f"inner product {total}/{order} is not an integer")
    if mult < 0:
        raise ArithmeticError(f"negative multiplicity {mult}")
    return mult
