import copy
import itertools
import pickle
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unicoh import (
    Bipartition,
    Partition,
    VerificationError,
    beta_set,
    bipartitions_of,
    border_strips,
    core_quotient,
    from_beta_set,
    from_core_quotient,
    hook_lengths,
    partitions_of,
    staircase,
    two_core,
    two_quotient,
)

from oracles import domino_peeling_core, geometric_border_strips, partition_parts_by_loop, two_quotient_by_parity_split
from strategies import partitions, partitions_up_to


class TestPartitionType:
    def test_trims_trailing_zeros(self):
        assert Partition((3, 2, 0, 0)) == (3, 2)

    def test_long_run_of_trailing_zeros_in_linear_time(self):
        # one slice per zero is quadratic in the run of zeros; one backward scan is linear
        start = time.perf_counter()
        assert Partition((3, 1) + (0,) * 100_000) == (3, 1)
        assert time.perf_counter() - start < 2

    def test_rejects_increasing(self):
        with pytest.raises(ValueError):
            Partition((1, 2))

    def test_rejects_negative_and_interior_zero(self):
        with pytest.raises(ValueError):
            Partition((3, -1))
        with pytest.raises(ValueError):
            Partition((3, 0, 2))

    @pytest.mark.parametrize("parts", [(2.5, 1), (2.9,), ("3", "1")])
    def test_rejects_parts_that_are_not_integers(self, parts):
        # neither truncated nor parsed
        with pytest.raises(TypeError):
            Partition(parts)

    def test_partition_is_returned_as_it_is(self):
        lam = Partition((3, 1))
        assert Partition(lam) is lam

    def test_no_attribute_can_be_set(self):
        # partitions are memo keys and memo values, so none may carry state
        lam = Partition((2, 1))
        with pytest.raises(AttributeError):
            lam.note = 1
        assert not hasattr(lam, "__dict__")

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip_keeps_type_and_value(self, protocol):
        for lam in (Partition(), Partition((3, 2, 2, 1))):
            copied = pickle.loads(pickle.dumps(lam, protocol))
            assert type(copied) is Partition and copied == lam

    def test_deepcopy_keeps_type_and_value(self):
        lam = Partition((3, 2, 2, 1))
        copied = copy.deepcopy(lam)
        assert type(copied) is Partition and copied == lam

    def test_size_and_rows(self):
        lam = Partition((3, 3, 2, 2, 1))
        assert lam.size == 11
        assert len(lam) == 5

    def test_transpose_examples(self):
        assert Partition((3, 1)).transpose() == (2, 1, 1)
        assert Partition((4,)).transpose() == (1, 1, 1, 1)
        assert Partition((3, 3, 2, 2, 1)).transpose() == (5, 4, 2)

    @given(partitions())
    def test_transpose_involutive(self, lam):
        assert lam.transpose().transpose() == lam


def _outcome(build, parts):
    """("ok", the parts build(parts) keeps) or ("error", its ValueError message)."""
    try:
        return ("ok", tuple(build(parts)))
    except ValueError as exc:
        return ("error", str(exc))


def _nudged(lam: Partition, zeros: int, index: int, delta: int) -> tuple[int, ...]:
    """lam padded with zeros, one part moved by delta: near-valid inputs."""
    parts = list(lam) + [0] * zeros
    if parts:
        parts[index % len(parts)] += delta
    return tuple(parts)


INT_TUPLES = st.one_of(
    st.lists(st.integers(min_value=-3, max_value=9), max_size=10).map(tuple),
    st.lists(st.integers(min_value=-2, max_value=9), max_size=8).map(lambda xs: tuple(sorted(xs))),
    st.builds(
        _nudged,
        partitions(),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=9),
        st.integers(min_value=-2, max_value=2),
    ),
)


class TestPartitionValidationOracle:
    """The constructor accepts, trims and rejects exactly what the per-part
    loop does, with the same ValueError message."""

    def test_exhaustive_short_tuples(self):
        for length in range(6):
            for parts in itertools.product(range(-2, 4), repeat=length):
                assert _outcome(Partition, parts) == _outcome(partition_parts_by_loop, parts), parts

    @given(INT_TUPLES)
    @settings(max_examples=300)
    def test_int_tuples(self, parts):
        assert _outcome(Partition, parts) == _outcome(partition_parts_by_loop, parts)

    def test_result_is_a_partition(self):
        lam = Partition([3, 3, 1, 0, 0])
        assert type(lam) is Partition
        assert tuple(lam) == (3, 3, 1)

    @pytest.mark.parametrize(
        "parts, message",
        [
            ((3, -1), "parts must be positive, got -1 in (3, -1)"),
            ((3, 0, 2), "parts must be positive, got 0 in (3, 0, 2)"),
            ((1, 2, 0), "parts must be weakly decreasing, got (1, 2)"),
            ((-1, -2), "parts must be positive, got -1 in (-1, -2)"),
        ],
    )
    def test_messages(self, parts, message):
        with pytest.raises(ValueError) as info:
            Partition(parts)
        assert str(info.value) == message


class TestBetaSet:
    def test_worked_example(self):
        assert beta_set(Partition((3, 3, 2, 2, 1)), 5) == (7, 6, 4, 3, 1)

    def test_empty_partition(self):
        assert beta_set(Partition(), 3) == (2, 1, 0)

    def test_padded_row_count(self):
        assert beta_set(Partition((3, 3, 2, 2, 1)), 6) == (8, 7, 5, 4, 2, 0)

    def test_row_count_too_small(self):
        with pytest.raises(ValueError):
            beta_set(Partition((3, 1)), 1)

    @given(partitions(), st.integers(min_value=0, max_value=5))
    def test_round_trip(self, lam, extra):
        bs = beta_set(lam, len(lam) + extra)
        assert bs == tuple(sorted(bs, reverse=True))
        assert len(set(bs)) == len(bs)
        assert from_beta_set(bs) == lam

    def test_partition_from_beta_values_validates(self):
        with pytest.raises(ValueError):
            from_beta_set((3, 3))

    def test_from_beta_set_rejects_negative_value(self):
        with pytest.raises(ValueError):
            from_beta_set((1, -1))


class TestHooks:
    def test_figure(self):
        assert hook_lengths(Partition((3, 3, 2, 2, 1))) == (
            (7, 5, 2),
            (6, 4, 1),
            (4, 2),
            (3, 1),
            (1,),
        )

    def test_single_box(self):
        assert hook_lengths(Partition((1,))) == ((1,),)

    def test_two_one(self):
        assert hook_lengths(Partition((2, 1))) == ((3, 1), (1,))

    @given(partitions())
    def test_corner_hook_is_one(self, lam):
        table = hook_lengths(lam)
        for i, row in enumerate(table):
            if i + 1 == len(table) or lam[i] > lam[i + 1]:
                assert row[-1] == 1


class TestBorderStrips:
    def test_worked_example(self):
        strips = border_strips(Partition((3, 3, 2, 2, 1)), 4)
        assert len(strips) == 2
        assert all(s.height == 2 for s in strips)
        assert {tuple(s.result) for s in strips} == {(3, 3, 1), (3, 1, 1, 1, 1)}

    def test_single_row(self):
        (strip,) = border_strips(Partition((6,)), 6)
        assert strip.height == 0
        assert strip.result == ()

    def test_hook_column(self):
        (strip,) = border_strips(Partition((3, 1, 1, 1, 1)), 4)
        assert strip.height == 3
        assert strip.result == (3,)

    def test_no_strip(self):
        # the whole of (2,2) is a square, not a strip
        assert border_strips(Partition((2, 2)), 4) == ()

    @pytest.mark.parametrize("n", range(1, 11))
    def test_matches_geometric_oracle(self, n):
        for lam in partitions_of(n):
            for size in range(1, n + 1):
                ours = sorted((s.result, s.height) for s in border_strips(lam, size))
                assert ours == geometric_border_strips(lam, size), (lam, size)

    @given(partitions(max_part=6, max_rows=5), st.integers(min_value=1, max_value=8))
    @settings(max_examples=60)
    def test_matches_geometric_oracle_random(self, lam, size):
        ours = sorted((s.result, s.height) for s in border_strips(lam, size))
        assert ours == geometric_border_strips(lam, size)


class TestBorderStripCache:
    def test_repeated_calls_agree(self):
        lam = Partition((4, 3, 3, 1))
        first = border_strips(lam, 3)
        assert isinstance(first, tuple)
        assert border_strips(lam, 3) == first

    def test_nonpositive_size_raises_every_time(self):
        # exceptions are not cached, so the check runs on each call
        for _ in range(2):
            with pytest.raises(ValueError, match="strip size must be positive"):
                border_strips(Partition((2, 1)), 0)

    def test_plain_tuple_and_partition_agree(self):
        assert border_strips((3, 3, 2, 2, 1), 4) == border_strips(Partition((3, 3, 2, 2, 1)), 4)
        assert all(isinstance(s.result, Partition) for s in border_strips((3, 1, 1), 2))


class TestCoreQuotient:
    def test_core_worked_example(self):
        assert two_core(Partition((3, 3, 2, 2, 1))) == 1

    def test_core_of_staircase(self):
        for t in range(6):
            assert two_core(staircase(t)) == t

    def test_core_of_domino(self):
        assert two_core(Partition((2,))) == 0

    def test_quotient_worked_example(self):
        assert two_quotient(Partition((3, 3, 2, 2, 1))) == Bipartition.of((2, 2), (1,))

    def test_quotient_empty(self):
        assert two_quotient(Partition()) == Bipartition.of((), ())

    @pytest.mark.parametrize("k", range(1, 6))
    def test_quotient_of_hooks(self, k):
        # (1 + 2a', 1**(2k - 2a')) has quotient ((1**(k - a')), (a'))
        for a_half in range(k + 1):
            lam = Partition((1 + 2 * a_half,) + (1,) * (2 * k - 2 * a_half))
            expected = Bipartition.of((1,) * (k - a_half), (a_half,) if a_half else ())
            assert two_quotient(lam) == expected
            assert two_core(lam) == 1

    @given(partitions(), st.integers(min_value=0, max_value=4))
    def test_quotient_padding_invariance(self, lam, extra):
        assert two_quotient(lam, len(lam) + extra) == two_quotient(lam)

    def test_reconstruct_worked_example(self):
        assert from_core_quotient(1, Bipartition.of((2, 2), (1,))) == (3, 3, 2, 2, 1)

    def test_reconstruct_empty_quotient(self):
        for t in range(6):
            assert from_core_quotient(t, Bipartition.of((), ())) == staircase(t)

    @pytest.mark.parametrize("k", range(1, 5))
    def test_reconstruct_odd_hooks(self, k):
        # core 2 with quotient ((a'), (1**(k - a' - 1))) gives (2a' + 2, 1**(2k - 2a' - 1))
        for a_half in range(k):
            quotient = Bipartition.of(
                (a_half,) if a_half else (), (1,) * (k - a_half - 1)
            )
            expected = Partition((2 * a_half + 2,) + (1,) * (2 * k - 2 * a_half - 1))
            assert from_core_quotient(2, quotient) == expected

    @pytest.mark.parametrize("n", range(0, 13))
    def test_round_trip_exhaustive(self, n):
        for lam in partitions_of(n):
            cq = core_quotient(lam)
            assert from_core_quotient(cq.core_index, cq.quotient) == lam
            t = cq.core_index
            assert lam.size == t * (t + 1) // 2 + 2 * cq.quotient.size

    def test_size_guard_survives_python_O(self, monkeypatch):
        # the size identity is forced by the construction; if the beta-set
        # step is broken it must raise, not pass silently under -O
        from unicoh import partitions

        monkeypatch.setattr(partitions, "from_beta_set", lambda values: Partition((1,)))
        with pytest.raises(VerificationError):
            from_core_quotient(1, Bipartition.of((2,), ()))


class TestCoreQuotientRunByRun:
    """core_quotient reads the abacus one run of equal parts at a time, the
    zero rows below `rows` as one more run; the oracles read it bead by bead."""

    CASES = [Partition((1 + a,) + (1,) * (2 * k - a)) for k in range(31) for a in range(2 * k + 1)] + [
        lam for n in range(13) for lam in partitions_of(n)
    ]

    def test_matches_the_parity_split_and_domino_peeling(self):
        for lam in self.CASES:
            expected_quotient = two_quotient_by_parity_split(lam)
            expected_core = domino_peeling_core(lam)
            # both parities of padding, odd and even
            for extra in (0, 1, 2, 5):
                cq = core_quotient(lam, len(lam) + extra)
                assert cq.quotient == expected_quotient, (lam, extra)
                assert staircase(cq.core_index) == expected_core, (lam, extra)
                assert type(cq.quotient.first) is type(cq.quotient.second) is Partition

    def test_too_few_rows(self):
        with pytest.raises(ValueError, match=r"^row count 1 below number of parts 2$"):
            core_quotient(Partition((2, 1)), 1)
        with pytest.raises(ValueError, match=r"^row count -1 below number of parts 0$"):
            core_quotient(Partition(), -1)


class TestAbacusCoreMatchesDominoPeeling:
    def test_exhaustive(self):
        for n in range(19):
            for lam in partitions_of(n):
                assert staircase(two_core(lam)) == domino_peeling_core(lam)

    @given(partitions_up_to(30))
    @settings(max_examples=60, deadline=None)
    def test_property(self, lam):
        assert staircase(two_core(lam)) == domino_peeling_core(lam)


class TestDominoOrderIndependence:
    def test_randomized_removal_orders(self):
        rng = random.Random(20240811)

        def random_core(lam):
            while True:
                strips = border_strips(lam, 2)
                if not strips:
                    return len(lam)
                lam = rng.choice(strips).result

        for n in range(0, 11):
            for lam in partitions_of(n):
                expected = two_core(lam)
                for _ in range(100):
                    assert random_core(lam) == expected


class TestEnumeration:
    def test_partition_counts(self):
        counts = [len(list(partitions_of(n))) for n in range(11)]
        assert counts == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]

    # a negative size raises at the call, before any next(), and is not an
    # empty enumeration
    def test_negative_size_has_no_partitions(self):
        with pytest.raises(ValueError, match="size must be nonnegative, got -1"):
            partitions_of(-1)

    def test_one_tuple_per_size(self):
        # built once per size and shared; the size check still runs on each call
        assert type(partitions_of(6)) is tuple
        assert partitions_of(6) is partitions_of(6)
        for _ in range(2):
            with pytest.raises(ValueError, match="size must be nonnegative, got -1"):
                partitions_of(-1)

    def test_negative_size_has_no_bipartitions(self):
        with pytest.raises(ValueError, match="size must be nonnegative, got -1"):
            bipartitions_of(-1)
