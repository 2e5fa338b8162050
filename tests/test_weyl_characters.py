from math import factorial
from operator import mul

import pytest

from unicoh import (
    Bipartition,
    Partition,
    RankCapError,
    bipartitions_of,
    character_table_sym,
    character_table_typeb,
    chi_sym,
    chi_typeb,
    partitions_of,
    signed_class_sizes,
    sym_class_size,
    typeb_class_size,
)
from unicoh.weyl_characters import _strip_moves, labels_typeb, signed_cycle_type, signed_permutations, typeb_column

from oracles import (
    chi_typeb_by_recursion,
    compose,
    geometric_border_strips,
    label_sort_key,
    permutation_of_cycle_type,
    permutation_sign,
    sym_class_size_bruteforce,
    syt_count,
)


class TestChiSym:
    def test_worked_example(self):
        assert chi_sym(Partition((3, 3, 2, 2, 1)), Partition((4, 4, 3))) == -2

    def test_trivial_character(self):
        for nu in partitions_of(6):
            assert chi_sym(Partition((6,)), nu) == 1

    def test_sign_character_against_permutation_sign(self):
        for n in range(1, 9):
            for nu in partitions_of(n):
                expected = permutation_sign(permutation_of_cycle_type(nu))
                assert expected == (-1) ** (n - len(nu))
                assert chi_sym(Partition((1,) * n), nu) == expected

    def test_three_cycle_on_sign(self):
        assert chi_sym(Partition((1, 1, 1)), Partition((3,))) == 1

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            chi_sym(Partition((2, 1)), Partition((2,)))

    def test_degrees_count_standard_tableaux(self):
        for n in range(1, 9):
            identity = Partition((1,) * n)
            for lam in partitions_of(n):
                assert chi_sym(lam, identity) == syt_count(lam)


class TestChiTypeB:
    def test_worked_example(self):
        assert chi_typeb(Bipartition.of((3, 1, 1), (4, 2)), Bipartition.of((4,), (5, 2))) == -1

    def test_worked_example_intermediate(self):
        assert chi_typeb(Bipartition.of((3, 1, 1), ()), Bipartition.of((), (5,))) == 1

    def test_trivial_character(self):
        for a in range(1, 5):
            label = Bipartition.of((a,), ())
            for klass in bipartitions_of(a):
                assert chi_typeb(label, klass) == 1

    def test_sign_character_of_w1(self):
        label = Bipartition.of((), (1,))
        assert chi_typeb(label, Bipartition.of((1,), ())) == 1
        assert chi_typeb(label, Bipartition.of((), (1,))) == -1

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            chi_typeb(Bipartition.of((1,), ()), Bipartition.of((2,), ()))

    def test_degrees_positive_and_square_sum(self):
        for a in range(1, 6):
            identity = Bipartition.of((1,) * a, ())
            degrees = [chi_typeb(label, identity) for label in bipartitions_of(a)]
            assert all(d > 0 for d in degrees)
            assert sum(d * d for d in degrees) == 2**a * factorial(a)


class TestColumnsAgainstRecursion:
    """chi_typeb reads per-class columns; the scalar recursion is the oracle."""

    @pytest.mark.parametrize("a", range(7))
    def test_every_typeb_value(self, a):
        labels = tuple(bipartitions_of(a))
        for klass in labels:
            column = typeb_column(klass)
            assert type(column) is tuple and len(column) == len(labels)
            for value, label in zip(column, labels):
                expected = chi_typeb_by_recursion(label, klass)
                assert value == chi_typeb(label, klass) == expected, (label, klass)

    @pytest.mark.parametrize("n", range(9))
    def test_every_sym_value(self, n):
        for nu in partitions_of(n):
            for lam in partitions_of(n):
                expected = chi_typeb_by_recursion(Bipartition(lam, Partition()), Bipartition(nu, Partition()))
                assert chi_sym(lam, nu) == expected, (lam, nu)

    @pytest.mark.parametrize(
        "label, klass",
        [
            (Bipartition.of((2, 1), (1,)), Bipartition.of((2,), (1,))),
            (Bipartition.of((1,), ()), Bipartition.of((1,), (2, 1))),
        ],
        ids=["label-larger", "class-larger"],
    )
    def test_size_mismatch_message(self, label, klass):
        with pytest.raises(ValueError) as oracle:
            chi_typeb_by_recursion(label, klass)
        with pytest.raises(ValueError) as fast:
            chi_typeb(label, klass)
        assert str(fast.value) == str(oracle.value) == f"size mismatch between label {label} and class {klass}"


class TestStripMoves:
    """`_strip_moves(k, x)` keeps the strips of size x of each partition of k
    as positions in `partitions_of(k - x)`; the diagram walk is the oracle."""

    @pytest.mark.parametrize("k", range(13))
    def test_moves_name_the_strips(self, k):
        parts = partitions_of(k)
        assert _strip_moves(k, k + 1) == (((), ()),) * len(parts)
        for x in range(1, k + 1):
            moves, rest = _strip_moves(k, x), partitions_of(k - x)
            assert len(moves) == len(parts)
            for mu, (even, odd) in zip(parts, moves):
                read = [(rest[j], 0) for j in even] + [(rest[j], 1) for j in odd]
                expected = [(nu, height % 2) for nu, height in geometric_border_strips(mu, x)]
                assert sorted(read) == sorted(expected), (mu, x)


class TestClassSizes:
    def test_sym_identity_and_cycle(self):
        for n in range(1, 7):
            assert sym_class_size(Partition((1,) * n)) == 1
            assert sym_class_size(Partition((n,))) == factorial(n - 1)

    def test_sym_against_bruteforce(self):
        for n in range(1, 7):
            for nu in partitions_of(n):
                assert sym_class_size(nu) == sym_class_size_bruteforce(nu)

    def test_sym_total(self):
        for n in range(1, 8):
            assert sum(sym_class_size(nu) for nu in partitions_of(n)) == factorial(n)

    def test_typeb_examples(self):
        assert typeb_class_size(Bipartition.of((1, 1), ())) == 1
        assert typeb_class_size(Bipartition.of((), (1,))) == 1
        assert typeb_class_size(Bipartition.of((1,), (1,))) == 2

    def test_typeb_total(self):
        for a in range(1, 7):
            total = sum(typeb_class_size(k) for k in bipartitions_of(a))
            assert total == 2**a * factorial(a)


class TestSignedPermutations:
    def test_group_orders(self):
        for a in range(5):
            assert sum(signed_class_sizes(a).values()) == 2**a * factorial(a)

    def test_rank_one_classes(self):
        sizes = signed_class_sizes(1)
        assert sizes == {
            Bipartition.of((1,), ()): 1,
            Bipartition.of((), (1,)): 1,
        }

    def test_rank_two_class_count(self):
        sizes = signed_class_sizes(2)
        assert len(sizes) == 5
        assert sum(sizes.values()) == 8

    def test_class_count_is_bipartition_count(self):
        for a in range(5):
            sizes = signed_class_sizes(a)
            assert len(sizes) == len(list(bipartitions_of(a)))

    def test_class_sizes_match_formula(self):
        for a in range(5):
            brute = signed_class_sizes(a)
            for klass in bipartitions_of(a):
                assert brute[klass] == typeb_class_size(klass)

    def test_signed_cycle_type_and_composition(self):
        flip_one = (-1, 2)
        swap = (2, 1)
        assert signed_cycle_type(flip_one) == Bipartition.of((1,), (1,))
        assert signed_cycle_type(swap) == Bipartition.of((2,), ())
        # swap then flip first coordinate: 1 -> 2, 2 -> -1, a negative 2-cycle
        composed = compose(flip_one, swap)
        assert signed_cycle_type(composed) == Bipartition.of((), (2,))

    def test_conjugation_preserves_class(self):
        elements = tuple(signed_permutations(3))
        g = elements[17]
        label = signed_cycle_type(g)
        for h in elements[::30]:
            inverse = next(
                x for x in elements if compose(h, x) == tuple(range(1, 4))
            )
            assert signed_cycle_type(compose(h, compose(g, inverse))) == label

    def test_rank_cap(self):
        with pytest.raises(RankCapError):
            signed_class_sizes(9)


class TestCharacterTables:
    def test_s2(self):
        table = character_table_sym(2)
        assert table.labels == (Partition((2,)), Partition((1, 1)))
        assert table.value(Partition((2,)), Partition((1, 1))) == 1
        assert table.value(Partition((1, 1)), Partition((2,))) == -1

    def test_w1_matches_sign_table(self):
        table = character_table_typeb(1)
        assert table.labels == (Bipartition.of((1,), ()), Bipartition.of((), (1,)))
        assert table.values == ((1, 1), (1, -1))

    def test_s3_degree_column(self):
        table = character_table_sym(3)
        identity = Partition((1, 1, 1))
        degrees = sorted(table.value(lam, identity) for lam in table.labels)
        assert degrees == [1, 1, 2]

    @pytest.mark.parametrize("n", range(1, 9))
    def test_sym_orthogonality(self, n):
        table = character_table_sym(n)
        order = table.group_order
        assert order == factorial(n)
        for i in range(len(table.labels)):
            for j in range(i, len(table.labels)):
                inner = sum(
                    size * table.values[i][k] * table.values[j][k]
                    for k, size in enumerate(table.class_sizes)
                )
                assert inner == (order if i == j else 0)

    @pytest.mark.parametrize("a", range(1, 9))
    def test_typeb_orthogonality(self, a):
        # row relation: sum over classes of |C| chi(C) psi(C) = |W_a| [chi = psi];
        # column relation: sum over labels of chi(g) chi(h) = |C(g)| [g = h].
        # Neither relation reads a strip or the block layout of a column.
        table = character_table_typeb(a)
        order = table.group_order
        assert order == 2**a * factorial(a)
        rows = table.values
        for i, row in enumerate(rows):
            weighted = tuple(map(mul, table.class_sizes, row))
            for j in range(i, len(rows)):
                assert sum(map(mul, weighted, rows[j])) == (order if i == j else 0)
        columns = tuple(zip(*rows))
        for g, column in enumerate(columns):
            for h in range(g, len(columns)):
                centralizer = order // table.class_sizes[g] if g == h else 0
                assert sum(map(mul, column, columns[h])) == centralizer

    def test_is_orthogonal_method(self):
        # the method behind the verify sweep's orthogonality checks accepts
        # the true tables and rejects a wrong order or one altered value
        sym, typeb = character_table_sym(4), character_table_typeb(3)
        assert sym.is_orthogonal(factorial(4))
        assert typeb.is_orthogonal(2**3 * factorial(3))
        assert not sym.is_orthogonal(factorial(4) + 1)
        rows = [list(row) for row in typeb.values]
        rows[1][2] += 1
        tampered = typeb._replace(values=tuple(tuple(row) for row in rows))
        assert not tampered.is_orthogonal(2**3 * factorial(3))

    @pytest.mark.parametrize("a", range(1, 6))
    def test_table_rows_are_labels_and_columns_are_classes(self, a):
        # the W_a table reads whole class columns; each entry must still be
        # the single value chi_typeb(label, class), and likewise for S_a
        for table, chi in ((character_table_typeb(a), chi_typeb), (character_table_sym(a), chi_sym)):
            assert table.values == tuple(
                tuple(chi(label, klass) for klass in table.classes) for label in table.labels
            )

    def test_negative_sym_rank_is_rejected(self):
        # not an empty table named S-1
        with pytest.raises(ValueError, match="rank must be nonnegative"):
            character_table_sym(-1)

    def test_negative_typeb_rank_is_rejected(self):
        with pytest.raises(ValueError, match="rank must be nonnegative"):
            character_table_typeb(-1)

    def test_negative_typeb_rank_has_no_labels_and_caches_nothing(self):
        cached = labels_typeb.cache_info().currsize
        with pytest.raises(ValueError, match="size must be nonnegative, got -1"):
            labels_typeb(-1)
        assert labels_typeb.cache_info().currsize == cached

    def test_label_order_is_documented_total_order(self):
        labels = [Partition(p) for p in ((3,), (2, 1), (1, 1, 1))]
        assert sorted(labels, key=label_sort_key) == labels

    def test_json_schema(self):
        table = character_table_typeb(2)
        data = table.to_json()
        assert set(data) == {"group", "labels", "classes", "class_sizes", "values"}
        assert all(isinstance(v, str) for row in data["values"] for v in row)
        assert len(data["values"]) == len(data["labels"]) == len(data["classes"])


class TestOneLabelOrder:
    """Enumerations and character tables list labels in descending tuple
    order, the order of the `label_sort_key` oracle."""

    @pytest.mark.parametrize("n", range(8))
    def test_enumerations(self, n):
        partitions = list(partitions_of(n))
        assert partitions == sorted(partitions, key=label_sort_key)
        labels = list(bipartitions_of(n))
        assert labels == sorted(labels, key=label_sort_key) == sorted(labels, reverse=True)
        assert len(set(labels)) == len(labels)
        assert labels_typeb(n) == tuple(labels)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_character_table_labels(self, n):
        for table in (character_table_sym(n), character_table_typeb(n)):
            assert list(table.labels) == sorted(table.labels, key=label_sort_key)
            assert table.classes == table.labels
