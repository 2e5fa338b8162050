import re
from collections import Counter
from itertools import product
from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unicoh import (
    Bipartition,
    Partition,
    RankCapError,
    RepMultiset,
    bipartitions_of,
    hc_induce,
    induction_multiplicity_oracle,
    partitions_of,
    pieri_induce,
    pieri_restrict,
)
from unicoh.harish_chandra import add_horizontal_strips, remove_horizontal_strips
from unicoh.unipotent import symbol

from oracles import (
    hc_induce_by_pieri_counter,
    label_sort_key,
    pieri_by_nested_strips,
    unpruned_add_strips,
    unpruned_remove_strips,
)
from strategies import bipartitions, partitions, partitions_up_to


class TestHorizontalStrips:
    def test_additions(self):
        assert set(add_horizontal_strips(Partition((2, 1)), 2)) == {
            (4, 1),
            (3, 2),
            (3, 1, 1),
            (2, 2, 1),
        }

    def test_deletions(self):
        assert set(remove_horizontal_strips(Partition((2, 2)), 2)) == {(2,)}
        assert set(remove_horizontal_strips(Partition((3, 1)), 2)) == {(2,), (1, 1)}

    @given(partitions(max_part=6, max_rows=5), st.integers(min_value=0, max_value=4))
    @settings(max_examples=60)
    def test_addition_then_deletion(self, lam, d):
        for mu in add_horizontal_strips(lam, d):
            assert lam in set(remove_horizontal_strips(mu, d))

    @given(partitions(max_part=6, max_rows=5), st.integers(min_value=0, max_value=4))
    @settings(max_examples=60)
    def test_interlacing(self, lam, d):
        # no two added boxes in a column means mu_1 >= lam_1 >= mu_2 >= lam_2 >= ...
        padded = tuple(lam) + (0,) * (d + 1)
        for mu in add_horizontal_strips(lam, d):
            assert mu.size == lam.size + d
            for i, part in enumerate(mu):
                assert part >= padded[i]
                if i > 0:
                    assert part <= padded[i - 1]


class TestStripsMatchUnprunedOracle:
    """The pruned recursions give the unpruned oracle's lists, in its order."""

    def test_exhaustive(self):
        for n in range(15):
            for lam in partitions_of(n):
                for d in range(9):
                    assert list(add_horizontal_strips(lam, d)) == unpruned_add_strips(lam, d)
                    assert list(remove_horizontal_strips(lam, d)) == unpruned_remove_strips(lam, d)

    # long runs of rows that cannot move, which the recursion skips: the
    # fixed rows must stay in place and the order must not change
    SHAPES = {
        "columns": [Partition((1,) * c) for c in range(13)],
        "hooks": [Partition((h,) + (1,) * c) for h in range(1, 7) for c in range(11)],
        "boxes": [Partition((w,) * h) for w in range(1, 6) for h in range(1, 6)],
    }

    @pytest.mark.parametrize("shape", SHAPES)
    def test_shapes_with_fixed_rows(self, shape):
        for lam in self.SHAPES[shape]:
            for d in range(lam.size + 2):
                assert list(add_horizontal_strips(lam, d)) == unpruned_add_strips(lam, d)
                assert list(remove_horizontal_strips(lam, d)) == unpruned_remove_strips(lam, d)

    @given(partitions_up_to(30), st.integers(min_value=0, max_value=8))
    @settings(max_examples=60, deadline=None)
    def test_add_property(self, lam, d):
        assert list(add_horizontal_strips(lam, d)) == unpruned_add_strips(lam, d)

    @given(partitions_up_to(30), st.integers(min_value=0, max_value=8))
    @settings(max_examples=60, deadline=None)
    def test_remove_property(self, lam, d):
        assert list(remove_horizontal_strips(lam, d)) == unpruned_remove_strips(lam, d)

    def test_pieri_order_identical(self):
        for n in range(7):
            for start in bipartitions_of(n):
                for boxes in range(5):
                    expected = pieri_by_nested_strips(start, boxes, unpruned_add_strips)
                    got = pieri_induce(start, boxes)
                    assert got == expected
                    # equal plain pairs would compare equal too
                    assert all(type(out) is Bipartition for out in got)
                for boxes in range(n + 1):
                    expected = pieri_by_nested_strips(start, boxes, unpruned_remove_strips)
                    got = pieri_restrict(start, boxes)
                    assert got == expected
                    assert all(type(out) is Bipartition for out in got)


class TestStripCache:
    """What the strips, the memo of add_horizontal_strips and the sort-once
    Pieri pairing rely on."""

    @pytest.mark.parametrize("n", range(13))
    def test_strips_come_in_sort_key_order(self, n):
        # _pair_strips emits each first component's seconds unsorted
        for lam in partitions_of(n):
            for d in range(13 - n):
                added = add_horizontal_strips(lam, d)
                assert list(added) == sorted(added, key=label_sort_key), (lam, d)
            for d in range(n + 1):
                removed = remove_horizontal_strips(lam, d)
                assert list(removed) == sorted(removed, key=label_sort_key), (lam, d)

    @pytest.mark.parametrize("strips", [add_horizontal_strips, remove_horizontal_strips])
    def test_plain_tuple_and_partition_keys_agree(self, strips):
        # equal keys share one memo entry, so a memo is filled from each side in turn
        clear = getattr(strips, "cache_clear", lambda: None)
        clear()
        from_tuple = strips((4, 2, 2, 1), 3)
        clear()
        from_partition = strips(Partition((4, 2, 2, 1)), 3)
        assert from_tuple == from_partition
        assert isinstance(from_tuple, tuple)
        assert all(type(mu) is Partition for mu in from_tuple)

    def test_negative_boxes_raise_every_time(self):
        # exceptions are not cached, so the check runs on each call
        for _ in range(2):
            with pytest.raises(ValueError, match="negative number of boxes"):
                add_horizontal_strips(Partition((2, 1)), -1)
            with pytest.raises(ValueError, match="negative number of boxes"):
                remove_horizontal_strips(Partition((2, 1)), -1)


class TestPieri:
    def test_single_box_from_empty(self):
        outs = pieri_induce(Bipartition.of((), ()), 1)
        assert set(outs) == {Bipartition.of((1,), ()), Bipartition.of((), (1,))}

    def test_zero_boxes_identity(self):
        label = Bipartition.of((3, 1), (2,))
        assert pieri_induce(label, 0) == (label,)
        assert pieri_restrict(label, 0) == (label,)

    def test_column_plus_one(self):
        k = 3
        outs = set(pieri_induce(Bipartition.of((), (1,) * k), 1))
        assert Bipartition.of((1,), (1,) * k) in outs
        assert Bipartition.of((), (2,) + (1,) * (k - 1)) in outs
        assert Bipartition.of((), (1,) * (k + 1)) in outs
        assert len(outs) == 3

    def test_restrict_column(self):
        for k in range(1, 6):
            outs = pieri_restrict(Bipartition.of((), (1,) * k), 1)
            assert outs == (Bipartition.of((), (1,) * (k - 1)),)

    def test_restrict_row_plus_box(self):
        k = 4
        outs = set(pieri_restrict(Bipartition.of((k - 1,), (1,)), 1))
        assert outs == {Bipartition.of((k - 1,), ()), Bipartition.of((k - 2,), (1,))}

    def test_restrict_too_many(self):
        with pytest.raises(ValueError):
            pieri_restrict(Bipartition.of((1,), ()), 2)

    def test_negative_boxes_raise(self):
        # the strip functions are never reached with a negative count, so
        # the Pieri functions check it themselves
        label = Bipartition.of((2, 1), (1,))
        with pytest.raises(ValueError, match="cannot add a negative number of boxes"):
            pieri_induce(label, -1)
        with pytest.raises(ValueError, match="cannot delete a negative number of boxes"):
            pieri_restrict(label, -1)

    @given(bipartitions(max_part=4, max_rows=3), st.integers(min_value=0, max_value=3))
    @settings(max_examples=60)
    def test_multiplicity_free(self, label, s):
        outs = pieri_induce(label, s)
        assert len(outs) == len(set(outs))

    def test_adjunction_exhaustive(self):
        # induction and restriction are adjoint: 0/1 multiplicities agree
        for a in range(0, 6):
            for r in range(a + 1):
                s = a - r
                for phi in bipartitions_of(r):
                    induced = set(pieri_induce(phi, s))
                    for chi in bipartitions_of(a):
                        assert (chi in induced) == (phi in set(pieri_restrict(chi, s)))

    def test_transitivity_against_oracle(self):
        # inducing s1 boxes then s2 boxes, summed over intermediates, is the
        # induction of phi x trivial x trivial from W_r x S_s1 x S_s2.  The
        # doubly trivial symmetric factor induces to the multiplicity-free
        # sum of two-row characters, so the oracle gives an independent count.
        for r in range(0, 4):
            for s1 in range(0, 4):
                for s2 in range(0, 4 - s1):
                    a = r + s1 + s2
                    if a > 5:
                        continue
                    for phi in bipartitions_of(r):
                        twice: dict[Bipartition, int] = {}
                        for mid in pieri_induce(phi, s1):
                            for out in pieri_induce(mid, s2):
                                twice[out] = twice.get(out, 0) + 1
                        for chi in bipartitions_of(a):
                            via_oracle = sum(
                                induction_multiplicity_oracle(
                                    r,
                                    s1 + s2,
                                    phi,
                                    Partition((s1 + s2 - d, d)),
                                    chi,
                                )
                                for d in range(min(s1, s2) + 1)
                            )
                            assert twice.get(chi, 0) == via_oracle, (r, s1, s2, phi, chi)


class TestOracle:
    def test_rank_one(self):
        assert (
            induction_multiplicity_oracle(
                0, 1, Bipartition.of((), ()), Partition((1,)), Bipartition.of((1,), ())
            )
            == 1
        )

    def test_rank_two(self):
        assert (
            induction_multiplicity_oracle(
                1, 1, Bipartition.of((1,), ()), Partition((1,)), Bipartition.of((2,), ())
            )
            == 1
        )

    def test_absent_label_is_zero(self):
        assert (
            induction_multiplicity_oracle(
                1, 1, Bipartition.of((1,), ()), Partition((1,)), Bipartition.of((), (2,))
            )
            == 0
        )

    @pytest.mark.parametrize("a", range(0, 5))
    def test_agreement_with_pieri(self, a):
        for r in range(a + 1):
            s = a - r
            for phi in bipartitions_of(r):
                induced = pieri_induce(phi, s)
                for chi in bipartitions_of(a):
                    expected = 1 if chi in induced else 0
                    got = induction_multiplicity_oracle(
                        r, s, phi, Partition((s,) if s else ()), chi
                    )
                    assert got == expected, (r, s, phi, chi)

    def test_nontrivial_sym_part(self):
        # the sign character of S_2 induces to different constituents than
        # the trivial one; the oracle handles any S_s label
        mult = induction_multiplicity_oracle(
            0, 2, Bipartition.of((), ()), Partition((1, 1)), Bipartition.of((1, 1), ())
        )
        assert mult == 1
        assert (
            induction_multiplicity_oracle(
                0, 2, Bipartition.of((), ()), Partition((1, 1)), Bipartition.of((2,), ())
            )
            == 0
        )

    def test_rank_cap(self):
        with pytest.raises(RankCapError):
            induction_multiplicity_oracle(
                4, 3, Bipartition.of((2, 2), ()), Partition((3,)), Bipartition.of((7,), ())
            )


class LabelDict(dict):
    """A dict subclass that is not a Counter: it takes the dict path too."""


def generator(labels):
    return (label for label in labels)


# a dict (or a subclass), a list and a tuple skip the Mapping ABC check;
# MappingProxyType, iter and generators take it.  An iterable is counted by
# dict.fromkeys, and by a Counter when a label repeats.
MAPPINGS = [dict, Counter, LabelDict, MappingProxyType]
ITERABLES = [list, tuple, iter, generator]


class TestRepMultiset:
    A, B, OTHER = symbol(1, (2,), ()), symbol(1, (1, 1), ()), symbol(2, (1,), ())

    def test_homogeneity_enforced(self):
        with pytest.raises(ValueError):
            RepMultiset([symbol(1, (1,), ()), symbol(2, (1,), ())])

    @pytest.mark.parametrize("kind", MAPPINGS)
    def test_mapping_drops_zeros(self, kind):
        multiset = RepMultiset(kind({self.A: 0, self.B: 2}))
        assert multiset.counts == {self.B: 2}
        assert self.A not in multiset
        assert RepMultiset(kind({self.A: 0})).counts == {}

    @pytest.mark.parametrize("kind", MAPPINGS)
    def test_mapping_rejects_negatives(self, kind):
        with pytest.raises(ValueError, match="multiplicities must be nonnegative"):
            RepMultiset(kind({self.A: 1, self.B: -1}))

    @pytest.mark.parametrize("kind", MAPPINGS)
    def test_mapping_rejects_mixed_supports(self, kind):
        with pytest.raises(ValueError, match="mixed cuspidal supports"):
            RepMultiset(kind({self.A: 1, self.OTHER: 1}))

    @pytest.mark.parametrize("kind", MAPPINGS)
    @pytest.mark.parametrize("mult", [1.5, 2.0, "3", None])
    def test_mapping_rejects_multiplicities_that_are_not_integers(self, kind, mult):
        with pytest.raises(TypeError):
            RepMultiset(kind({self.A: 1, self.B: mult}))

    @pytest.mark.parametrize("kind", MAPPINGS)
    def test_mapping_stores_plain_ints(self, kind):
        multiset = RepMultiset(kind({self.A: True, self.B: 2}))
        assert multiset.counts == {self.A: 1, self.B: 2}
        assert all(type(m) is int for m in multiset.counts.values())
        assert multiset.to_json()[0]["multiplicity"] == 1
        assert type(multiset.to_json()[0]["multiplicity"]) is int
        assert RepMultiset(kind({self.A: False})).counts == {}

    def test_repr_lists_labels_in_descending_order(self):
        multiset = RepMultiset({self.B: 1, self.A: 2})
        assert repr(multiset) == "RepMultiset({(t=1, (2,), ())x2, (t=1, (1, 1), ())x1})"
        assert multiset.sorted_labels() == list(multiset) == [self.A, self.B]

    @pytest.mark.parametrize("kind", ITERABLES)
    def test_iterable_counts_labels(self, kind):
        multiset = RepMultiset(kind([self.A, self.B, self.A]))
        assert multiset.counts == {self.A: 2, self.B: 1}
        assert RepMultiset(kind([])).counts == {}
        assert RepMultiset(kind([self.B, self.A, self.A, self.A])).counts == {self.B: 1, self.A: 3}
        distinct = RepMultiset(kind([self.B, self.A]))
        assert distinct.counts == {self.B: 1, self.A: 1}
        assert all(type(m) is int for m in distinct.counts.values())

    def test_every_path_raises_the_same_error(self):
        # each bad input through every mapping kind (a bool multiplicity
        # takes the int-conversion path first) and, said as labels, through
        # every iterable kind with and without a repeated label
        bad = 1.5
        cases = [
            ({self.A: True, self.B: -1}, None, ValueError, "multiplicities must be nonnegative"),
            ({self.A: 1, bad: 2}, [self.A, bad], TypeError, f"a RepMultiset holds symbol labels, not {bad!r}"),
            ({self.A: True, self.OTHER: 1}, [self.A, self.OTHER], ValueError, "mixed cuspidal supports"),
        ]
        for mapping, labels, error, message in cases:
            inputs = [kind(mapping) for kind in MAPPINGS]
            if labels is not None:
                inputs += [kind(items) for kind in ITERABLES for items in (labels, labels + [self.A])]
            seen = set()
            for items in inputs:
                with pytest.raises(error, match=re.escape(message)) as info:
                    RepMultiset(items)
                seen.add((type(info.value), str(info.value)))
            assert len(seen) == 1, seen

    @pytest.mark.parametrize("kind", ITERABLES)
    def test_iterable_rejects_mixed_supports(self, kind):
        with pytest.raises(ValueError, match="mixed cuspidal supports"):
            RepMultiset(kind([self.A, self.OTHER]))

    @pytest.mark.parametrize("kind", ITERABLES)
    def test_iterable_rejects_elements_that_are_not_labels(self, kind):
        for bad in (1.5, "3"):
            with pytest.raises(TypeError, match=re.escape(f"holds symbol labels, not {bad!r}")):
                RepMultiset(kind([self.A, bad]))

    @pytest.mark.parametrize("kind", MAPPINGS)
    def test_mapping_rejects_keys_that_are_not_labels(self, kind):
        for bad in (1.5, "3", (1, (2,), ())):
            with pytest.raises(TypeError, match=re.escape(f"holds symbol labels, not {bad!r}")):
                RepMultiset(kind({self.A: 1, bad: 2}))

    def test_union_difference_intersection(self):
        b = symbol(1, (1, 1), ())
        right = RepMultiset([b])
        assert right.union(right).multiplicity(b) == 2
        assert not right.union(right).is_multiplicity_free()

    def test_to_json_shape(self):
        a, b = symbol(1, (2,), ()), symbol(1, (1, 1), ())
        assert RepMultiset([b, a, a]).to_json() == [
            {"label": a.to_json(), "multiplicity": 2},
            {"label": b.to_json(), "multiplicity": 1},
        ]


class TestHCInduce:
    def test_rank_one_pieri(self):
        # U_1 x GL_1 inside U_3: trivial and Steinberg constituents
        result = hc_induce(symbol(1, (), ()), (1,))
        assert result == RepMultiset([symbol(1, (1,), ()), symbol(1, (), (1,))])

    def test_zero_blocks_identity(self):
        sym = symbol(1, (2, 1), (1,))
        assert hc_induce(sym, ()) == RepMultiset([sym])

    def test_rank_zero_gl_block_skipped(self):
        sym = symbol(2, (1,), ())
        assert hc_induce(sym, (0,)) == RepMultiset([sym])

    @pytest.mark.parametrize("unitary_rank, gl_ranks", [(1, (-1,)), (1, (2, -1))])
    def test_negative_rank_is_rejected(self, unitary_rank, gl_ranks):
        unitary = symbol(1, (), ())
        assert unitary.rank == unitary_rank
        with pytest.raises(ValueError, match="ranks must be nonnegative"):
            hc_induce(unitary, gl_ranks)

    def test_rank_bookkeeping(self):
        result = hc_induce(symbol(2, (), ()), (2, 1))
        assert len(result) > 0
        for out in result:
            assert out.rank == 3 + 2 * (2 + 1) == 9
            assert out.t == 2

    def test_blocks_match_counter_oracle(self):
        # two or three GL blocks: after the first, every label of the block
        # before feeds the next one, so outputs merge into the plain dict
        blocks = [b for r in (2, 3) for b in product(range(4), repeat=r) if sum(b) <= 3]
        merged = 0
        for t in range(3):
            for n in range(5):
                for bip in bipartitions_of(n):
                    unitary = symbol(t, bip.first, bip.second)
                    for gl_ranks in blocks:
                        result = hc_induce(unitary, gl_ranks)
                        assert result.counts == dict(hc_induce_by_pieri_counter(unitary, gl_ranks))
                        merged += not result.is_multiplicity_free()
        assert merged > 0

    def test_two_gl_one_blocks_multiplicity(self):
        # two rank-1 blocks over the empty core: the two-dimensional label
        # appears twice, matching the order 8 of the target group
        result = hc_induce(symbol(0, (), ()), (1, 1))
        assert result.multiplicity(symbol(0, (1,), (1,))) == 2
        assert len(result) == 6
