import json
import subprocess
import sys
from operator import gt

import pytest

from unicoh import (
    ExactDivisionError,
    IntPolynomial,
    Partition,
    RepMultiset,
    VerificationError,
    bipartitions_of,
    closed_stratum_cohomology,
    coxeter_cohomology,
    coxeter_eigenspace_dim,
    coxeter_hook,
    degree_u,
    eo_stratum_cohomology,
    from_symbol,
    partitions_of,
    stratum_cohomology,
    stratum_term,
    verify_stratum,
)
from unicoh import deligne_lusztig as dl
from unicoh import harish_chandra as hc
from unicoh import unipotent
from unicoh.deligne_lusztig import (
    CohomologyTable,
    _stratum_term_explicit,
    _stratum_term_pieri,
    coxeter_checks,
)
from unicoh.unipotent import symbol, to_symbol

from child_env import child_env
from oracles import (
    hard_lefschetz_failures,
    isotropic_subspace_count,
    label_sort_key,
    lefschetz_number,
    stratum_restriction_failures,
    stratum_term_explicit_by_sort,
)


def labels_as_partitions(reps) -> set[tuple[int, ...]]:
    return {tuple(from_symbol(label)) for label in reps}


class TestCoxeterHooks:
    def test_endpoints(self):
        assert coxeter_hook(1, 0) == (1, 1, 1)
        assert coxeter_hook(1, 2) == (3,)
        assert coxeter_hook(3, 3) == (4, 1, 1, 1)

    def test_range_check(self):
        with pytest.raises(ValueError):
            coxeter_hook(2, 5)

    def test_memo_holds_the_hook(self):
        for k in range(13):
            for a in range(2 * k + 1):
                hook = coxeter_hook(k, a)
                assert type(hook) is Partition
                assert hook == Partition((1 + a,) + (1,) * (2 * k - a))
                assert coxeter_hook(k, a) is hook

    def test_negative_k_is_named(self):
        # checked before the exponent, whose range 0..2k would read 0..-2
        for build in (coxeter_hook, coxeter_eigenspace_dim):
            with pytest.raises(ValueError, match="^k must be nonnegative$"):
                build(-1, 0)

    def test_range_check_with_a_warm_memo(self):
        # the memo stores no exception, so the check runs on every call
        coxeter_hook(2, 4)
        for _ in range(2):
            with pytest.raises(ValueError, match="exponent 5 out of range 0..4"):
                coxeter_hook(2, 5)


class TestIntMemosRejectFloats:
    # the memos are typed and the checks read their integers through
    # operator.index, so a float raises whichever call fills the memo first
    @pytest.mark.parametrize("float_first", [True, False], ids=["float-first", "int-first"])
    @pytest.mark.parametrize(
        "memo, ints",
        [(coxeter_hook, (1, 0)), (dl.index_form_row, (2, 1)), (partitions_of, (3,)), (bipartitions_of, (3,))],
        ids=["coxeter_hook", "index_form_row", "partitions_of", "bipartitions_of"],
    )
    def test_float_raises_in_either_order(self, memo, ints, float_first):
        floats = (float(ints[0]),) + ints[1:]
        memo.cache_clear()
        if float_first:
            with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
                memo(*floats)
        value = memo(*ints)
        with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
            memo(*floats)
        assert memo(*ints) is value


class TestCoxeterCohomology:
    def test_point(self):
        table = coxeter_cohomology(0)
        assert table.degrees() == [0]
        (entry,) = table.entries
        assert entry.frobenius_exponent == 0
        assert labels_as_partitions(entry.constituents) == {(1,)}

    def test_rank_one(self):
        table = coxeter_cohomology(1)
        assert table.degrees() == [1, 2]
        assert labels_as_partitions(table.eigenspace(1, 0)) == {(1, 1, 1)}
        assert labels_as_partitions(table.eigenspace(1, 1)) == {(2, 1)}
        assert labels_as_partitions(table.eigenspace(2, 2)) == {(3,)}

    def test_rank_two(self):
        table = coxeter_cohomology(2)
        assert table.degrees() == [2, 3, 4]
        assert labels_as_partitions(table.degree_constituents(2)) == {(1, 1, 1, 1, 1), (2, 1, 1, 1)}
        assert labels_as_partitions(table.degree_constituents(3)) == {(3, 1, 1), (4, 1)}
        assert labels_as_partitions(table.degree_constituents(4)) == {(5,)}

    def test_support_window(self):
        for k in range(5):
            degrees = coxeter_cohomology(k).degrees()
            assert degrees == list(range(k, 2 * k + 1))

    def test_multiplicity_free_sum(self):
        for k in range(6):
            table = coxeter_cohomology(k)
            combined: dict = {}
            for entry in table.entries:
                for label in entry.constituents:
                    combined[label] = combined.get(label, 0) + 1
            assert all(m == 1 for m in combined.values())


class TestCoxeterEigendim:
    def test_steinberg_eigenspace(self):
        assert coxeter_eigenspace_dim(1, 0) == IntPolynomial.q_power(3)

    def test_top_is_one_dimensional(self):
        for k in range(6):
            assert coxeter_eigenspace_dim(k, 2 * k) == IntPolynomial.one()

    @pytest.mark.parametrize("k", range(0, 9))
    def test_equals_hook_formula_degree(self, k):
        for a in range(2 * k + 1):
            assert coxeter_eigenspace_dim(k, a) == degree_u(coxeter_hook(k, a))

    def test_checks_helper(self):
        assert all(c.passed for c in coxeter_checks(range(7)))

    # an empty check list would pass
    def test_negative_rank_raises(self):
        with pytest.raises(ValueError, match="k must be nonnegative"):
            coxeter_checks(range(-1, 0))

    def test_empty_range_raises(self):
        with pytest.raises(ValueError, match="nonempty range"):
            coxeter_checks(range(0))


class TestStratumTerm:
    def test_point_stratum(self):
        assert stratum_term(0, 0, 0) == RepMultiset([symbol(1, (), ())])

    def test_one_box(self):
        assert stratum_term(1, 0, 0) == RepMultiset(
            [symbol(1, (1,), ()), symbol(1, (), (1,))]
        )

    def test_top_cell_is_trivial_label(self):
        for theta in range(5):
            reps = stratum_term(theta, theta, 2 * theta)
            assert labels_as_partitions(reps) == {(2 * theta + 1,)}

    def test_cuspidal_cell(self):
        assert labels_as_partitions(stratum_term(1, 1, 1)) == {(2, 1)}

    def test_range_errors(self):
        with pytest.raises(ValueError):
            stratum_term(2, 3, 0)
        with pytest.raises(ValueError):
            stratum_term(2, 1, 3)

    @pytest.mark.parametrize("theta", range(0, 16))
    def test_dual_paths_agree_everywhere(self, theta):
        for theta_prime in range(theta + 1):
            for a in range(2 * theta_prime + 1):
                via_pieri = _stratum_term_pieri(theta, theta_prime, a)
                t, pairs = _stratum_term_explicit(theta, theta_prime, a)
                assert via_pieri == (t, pairs)
                # the order comes from the enumeration itself, not from a sort
                assert (t, pairs) == stratum_term_explicit_by_sort(theta, theta_prime, a)
                # strictly descending, so no pair repeats
                assert all(map(gt, pairs, pairs[1:]))

    def test_rank_bookkeeping(self):
        for theta in range(4):
            for theta_prime in range(theta + 1):
                for a in range(2 * theta_prime + 1):
                    for label in stratum_term(theta, theta_prime, a):
                        assert label.rank == 2 * theta + 1
                        assert label.t == (1 if a % 2 == 0 else 2)


class TestEOStratum:
    def test_point(self):
        table = eo_stratum_cohomology(0, 0)
        assert table.degrees() == [0]
        assert labels_as_partitions(table.eigenspace(0, 0)) == {(1,)}

    def test_open_cell_of_theta_one(self):
        table = eo_stratum_cohomology(1, 0)
        assert table.degrees() == [0]
        assert labels_as_partitions(table.eigenspace(0, 0)) == {(3,), (1, 1, 1)}

    def test_coxeter_cell_of_theta_one(self):
        table = eo_stratum_cohomology(1, 1)
        assert labels_as_partitions(table.eigenspace(1, 0)) == {(1, 1, 1)}
        assert labels_as_partitions(table.eigenspace(1, 1)) == {(2, 1)}
        assert labels_as_partitions(table.eigenspace(2, 2)) == {(3,)}

    def test_top_stratum_mirrors_coxeter(self):
        # the densest piece has a trivial GL factor, so its table is the
        # Coxeter table of the same rank
        for theta in range(5):
            eo = eo_stratum_cohomology(theta, theta)
            cox = coxeter_cohomology(theta)
            for entry in cox.entries:
                assert eo.eigenspace(entry.degree, entry.frobenius_exponent) == entry.constituents

    def test_support_window(self):
        for theta in range(5):
            for theta_prime in range(theta + 1):
                degrees = eo_stratum_cohomology(theta, theta_prime).degrees()
                assert degrees == list(range(theta_prime, 2 * theta_prime + 1))


class TestSpectralPage:
    """The first page read column by column through `eo_stratum_cohomology`:
    a cell is one (column theta', degree) pair of a stratum's table."""

    @staticmethod
    def columns(theta: int) -> list[CohomologyTable]:
        return [eo_stratum_cohomology(theta, tp) for tp in range(theta + 1)]

    def test_theta_zero(self):
        (column,) = self.columns(0)
        assert column.degrees() == [0]
        assert len(column.at(0)) == 1

    def test_theta_one_shape(self):
        first, second = self.columns(1)
        assert first.degrees() == [0]
        assert second.degrees() == [1, 2]

    def test_triangular_cell_count(self):
        for theta in range(5):
            cells = sum(len(table.degrees()) for table in self.columns(theta))
            assert cells == sum(tp + 1 for tp in range(theta + 1))

    def test_cells_match_stratum_terms(self):
        theta = 2
        for column, table in enumerate(self.columns(theta)):
            for degree in table.degrees():
                i = degree - column
                expected_exponents = (2 * i,) if degree == 2 * column else (2 * i, 2 * i + 1)
                entries = table.at(degree)
                assert tuple(e.frobenius_exponent for e in entries) == expected_exponents
                for e in entries:
                    assert e.constituents == stratum_term(theta, column, e.frobenius_exponent)


class TestFirstPageOncePerCall:
    @staticmethod
    def count_terms(monkeypatch) -> list:
        calls = []
        original = dl.stratum_term

        def counting(theta, theta_prime, a):
            term = original(theta, theta_prime, a)
            calls.append(((theta_prime, a), term))
            return term

        monkeypatch.setattr(dl, "stratum_term", counting)
        return calls

    @pytest.mark.parametrize("theta", range(0, 6))
    def test_verify_builds_each_cell_once(self, monkeypatch, theta):
        calls = self.count_terms(monkeypatch)
        assert verify_stratum(theta).ok
        assert len(calls) == (theta + 1) ** 2
        assert len({cell for cell, _ in calls}) == len(calls)

    def test_verify_sums_each_cell_dimension_once(self, monkeypatch):
        calls = self.count_terms(monkeypatch)
        summed = []
        original = RepMultiset.dimension_poly

        def counting(self):
            summed.append(id(self))
            return original(self)

        monkeypatch.setattr(RepMultiset, "dimension_poly", counting)
        dl.index_form_row.cache_clear()
        assert verify_stratum(4).ok
        # every cell's dimension comes from its index form, one row of
        # index forms built once per stratum theta' = 0..4
        assert len(calls) == 25
        assert dl.index_form_row.cache_info().misses == 5
        counts = {cell: summed.count(id(term)) for cell, term in calls}
        # no first-page term is summed, except that a one-term chain
        # (exponents 7 and 8 here) passes its term through as the table
        # entry, summed once by the dimension pass that both checks read
        assert all(n == 0 for (_, a), n in counts.items() if a < 7)
        assert counts[4, 7] == counts[4, 8] == 1

    def test_page_is_scoped_to_the_call(self):
        original = dl.stratum_term

        def tampered(theta, theta_prime, a):
            term = original(theta, theta_prime, a)
            if (theta_prime, a) == (2, 1):
                return RepMultiset(term.sorted_labels()[1:])
            return term

        assert verify_stratum(4).ok
        dl.stratum_term = tampered
        try:
            assert not verify_stratum(4).ok
        finally:
            dl.stratum_term = original
        assert verify_stratum(4).ok

    def test_build_failure_fails_every_check(self, monkeypatch):
        original = dl.stratum_term

        def failing(theta, theta_prime, a):
            if (theta_prime, a) == (1, 1):
                raise VerificationError("injected")
            return original(theta, theta_prime, a)

        monkeypatch.setattr(dl, "stratum_term", failing)
        report = verify_stratum(3)
        assert [(c.passed, c.details) for c in report.checks] == [(False, "injected")] * 5

    def test_degree_failure_fails_the_dimension_checks(self, monkeypatch):
        def failing(lam):
            raise ExactDivisionError(f"U degree of {tuple(lam)} not polynomial: injected")

        monkeypatch.setattr(unipotent, "degree_u", failing)
        report = verify_stratum(2)
        failed = [c.name for c in report.checks if not c.passed]
        assert failed == [
            "euler-characteristic-additivity (theta=2)",
            "eigenvalue-alternating-sums (theta=2)",
        ]
        assert all("not polynomial: injected" in c.details for c in report.checks if not c.passed)

    def test_degree_failure_while_building_fails_every_check(self, monkeypatch):
        def failing(theta, theta_prime, a):
            raise ExactDivisionError("injected")

        monkeypatch.setattr(dl, "stratum_term", failing)
        report = verify_stratum(2)
        assert [(c.passed, c.details) for c in report.checks] == [(False, "injected")] * 5

    def test_any_exception_in_a_check_fails_that_check(self, monkeypatch):
        def failing(lam):
            raise TypeError(f"degree of {tuple(lam)}: injected")

        monkeypatch.setattr(unipotent, "degree_u", failing)
        report = verify_stratum(2)
        failed = [c.name for c in report.checks if not c.passed]
        assert failed == [
            "euler-characteristic-additivity (theta=2)",
            "eigenvalue-alternating-sums (theta=2)",
        ]
        assert all(": injected" in c.details for c in report.checks if not c.passed)

    def test_any_exception_while_building_fails_every_check(self, monkeypatch):
        def failing(theta, theta_prime, a):
            raise KeyError("injected")

        monkeypatch.setattr(dl, "stratum_term", failing)
        report = verify_stratum(2)
        assert [(c.passed, c.details) for c in report.checks] == [(False, "'injected'")] * 5

    def test_closed_formula_failure_fails_every_check(self, monkeypatch):
        def failing(theta):
            raise ZeroDivisionError("injected")

        monkeypatch.setattr(dl, "closed_stratum_cohomology", failing)
        report = verify_stratum(2)
        assert [(c.passed, c.details) for c in report.checks] == [(False, "injected")] * 5

    @pytest.mark.parametrize("theta", range(0, 9))
    def test_readers_agree_with_and_without_page(self, theta):
        # the eigenvalue chains and the stratum columns read the same cells
        chains = [dl._eigen_chain(theta, a) for a in range(2 * theta + 1)]
        columns = [eo_stratum_cohomology(theta, tp) for tp in range(theta + 1)]
        for a, chain in enumerate(chains):
            for theta_prime, term in enumerate(chain, start=(a + 1) // 2):
                assert term == stratum_term(theta, theta_prime, a)
                assert columns[theta_prime].eigenspace(theta_prime + a // 2, a) == term

    @pytest.mark.parametrize("theta", range(0, 6))
    def test_stratum_cohomology_builds_each_cell_once(self, monkeypatch, theta):
        calls = self.count_terms(monkeypatch)
        stratum_cohomology(theta)
        assert len(calls) == (theta + 1) ** 2
        assert len({cell for cell, _ in calls}) == len(calls)

    @pytest.mark.parametrize("theta", range(0, 5))
    def test_eo_stratum_builds_each_exponent_once(self, monkeypatch, theta):
        calls = self.count_terms(monkeypatch)
        for theta_prime in range(theta + 1):
            start = len(calls)
            eo_stratum_cohomology(theta, theta_prime)
            cells = [cell for cell, _ in calls[start:]]
            assert cells == [(theta_prime, a) for a in range(2 * theta_prime + 1)]

    # cells (theta', a) of theta = 3 whose exponent chain (theta' from
    # (a + 1) // 2 to 3) has at least two terms: exponents a <= 4
    LONG_CHAIN_CELLS = [(tp, a) for a in range(5) for tp in range((a + 1) // 2, 4)]

    DIMENSION_CHECKS = [
        "euler-characteristic-additivity (theta=3)",
        "eigenvalue-alternating-sums (theta=3)",
    ]

    @pytest.mark.parametrize("cell", LONG_CHAIN_CELLS)
    def test_heavier_cell_fails_the_dimension_checks(self, monkeypatch, cell):
        # one more unit of dimension in the cell's Harish-Chandra index form,
        # which both dimension checks sum with the sign of the cell
        original = dl.stratum_term_dimension

        def heavier(theta, theta_prime, a):
            dim = original(theta, theta_prime, a)
            return dim + IntPolynomial.one() if (theta_prime, a) == cell else dim

        monkeypatch.setattr(dl, "stratum_term_dimension", heavier)
        self.assert_dimension_checks_fail(verify_stratum(3))

    def assert_dimension_checks_fail(self, report):
        # exactly the two dimension checks fail, each on a comparison
        failed = [c for c in report.checks if not c.passed]
        assert [c.name for c in failed] == self.DIMENSION_CHECKS
        assert all(" != " in c.details for c in failed)

    def test_heavier_multisets_fail_the_dimension_checks(self, monkeypatch):
        # the same constituents with one more unit of dimension
        original_dim = RepMultiset.dimension_poly

        def heavier_dim(self):
            return original_dim(self) + IntPolynomial.one()

        class Heavier(RepMultiset):
            __slots__ = ()
            dimension_poly = heavier_dim

        # on first-page terms with a successor: no check sums them
        original = dl.stratum_term

        def heavier(theta, theta_prime, a):
            term = original(theta, theta_prime, a)
            return Heavier(term.counts) if (theta_prime, a) in self.LONG_CHAIN_CELLS else term

        monkeypatch.setattr(dl, "stratum_term", heavier)
        assert verify_stratum(3).ok
        # on every multiset: the table's Euler characteristic and each head
        monkeypatch.setattr(RepMultiset, "dimension_poly", heavier_dim)
        self.assert_dimension_checks_fail(verify_stratum(3))

    def test_index_form_failure_fails_the_dimension_checks(self, monkeypatch):
        # wrong hook lengths for the Coxeter hook of (theta', a) = (1, 0),
        # the one hook the row (theta, theta') = (1, 1) reads:
        # (q + 1)(q^3 + 1) / (q^2 - 1)^2 after cancellation
        original = dl._hooks_flat

        def wrong(lam):
            return [2, 2, 2] if lam == coxeter_hook(1, 0) else original(lam)

        monkeypatch.setattr(dl, "_hooks_flat", wrong)
        message = (
            "index form of (theta=1, theta'=1, a=0) not polynomial: "
            "nonzero remainder 2*q + 2 dividing by q^2 - 1"
        )
        with pytest.raises(ExactDivisionError) as info:
            dl.index_form_row.__wrapped__(1, 1)
        assert str(info.value) == message
        dl.index_form_row.cache_clear()
        try:
            report = verify_stratum(1)
        finally:
            dl.index_form_row.cache_clear()
        failed = [(c.name, c.details) for c in report.checks if not c.passed]
        assert failed == [
            ("euler-characteristic-additivity (theta=1)", message),
            ("eigenvalue-alternating-sums (theta=1)", message),
        ]


class TestStratumCohomology:
    def test_theta_one_table(self):
        table = stratum_cohomology(1)
        assert labels_as_partitions(table.eigenspace(0, 0)) == {(3,)}
        assert labels_as_partitions(table.eigenspace(1, 1)) == {(2, 1)}
        assert labels_as_partitions(table.eigenspace(2, 2)) == {(3,)}

    def test_theta_two_table(self):
        table = stratum_cohomology(2)
        assert labels_as_partitions(table.degree_constituents(0)) == {(5,)}
        assert labels_as_partitions(table.degree_constituents(1)) == {(4, 1)}
        assert labels_as_partitions(table.degree_constituents(2)) == {(5,), (3, 2)}
        assert labels_as_partitions(table.degree_constituents(3)) == {(4, 1)}
        assert labels_as_partitions(table.degree_constituents(4)) == {(5,)}

    def test_bottom_is_trivial_only(self):
        for theta in range(6):
            table = stratum_cohomology(theta)
            assert labels_as_partitions(table.degree_constituents(0)) == {(2 * theta + 1,)}

    def test_two_row_labels_only(self):
        for theta in range(6):
            table = stratum_cohomology(theta)
            for entry in table.entries:
                for label in entry.constituents:
                    assert len(from_symbol(label)) <= 2

    @pytest.mark.parametrize("theta", range(0, 9))
    def test_matches_closed_formula(self, theta):
        computed = stratum_cohomology(theta)
        closed = closed_stratum_cohomology(theta)
        for degree in range(2 * theta + 1):
            for a in range(2 * theta + 1):
                assert computed.eigenspace(degree, a) == closed.eigenspace(degree, a)

    def test_closed_formula_symbol_form(self):
        # even labels are (t=1, (theta-s, s), empty); odd are (t=2, (theta-1-s, s), empty)
        theta = 4
        table = closed_stratum_cohomology(theta)
        for entry in table.entries:
            i, odd = divmod(entry.degree, 2)
            for label in entry.constituents:
                assert label.beta == ()
                if odd:
                    assert label.t == 2
                    assert label.alpha in [
                        Partition((theta - 1 - s, s)) for s in range(min(i, theta - 1 - i) + 1)
                    ]
                else:
                    assert label.t == 1
                    assert label.alpha in [
                        Partition((theta - s, s)) for s in range(min(i, theta - i) + 1)
                    ]


class TestTwoHarishChandraSeries:
    """The abstract's headline, read off the engine's table: every constituent
    of H^*(Y_theta) lies in one of two unipotent Harish-Chandra series.  Even
    degrees hold the principal series (t = 1), odd degrees the series of the
    cuspidal (2,1) of U_3 (t = 2).  `hc_series` recomputes the 2-core from the
    partition, so it does not read the label's stored t.  A label fault that
    this sees also fails the comparison with the closed formula."""

    @pytest.mark.parametrize("theta", range(13))
    def test_even_degrees_principal_odd_degrees_t2(self, theta):
        total = 0
        for entry in stratum_cohomology(theta).entries:
            expected = (2, False, theta - 1) if entry.degree % 2 else (1, True, theta)
            for label, mult in entry.constituents.counts.items():
                series = unipotent.hc_series(from_symbol(label))
                assert series.n == 2 * theta + 1
                assert (series.t, series.principal, series.weyl_rank) == expected
                total += mult
        assert total == (theta + 1) * (theta + 2) // 2


class TestVerifyStratum:
    @pytest.mark.parametrize("theta", range(0, 7))
    def test_all_five_checks_pass(self, theta):
        report = verify_stratum(theta)
        assert len(report.checks) == 5
        assert report.ok, [c.line() for c in report.checks]

    def test_euler_example(self):
        # dim R0_0 - dim R1_0 = (1 + q^3) - q^3 = 1 = dim H^0 at theta 1
        r00 = stratum_term(1, 0, 0).dimension_poly()
        r10 = stratum_term(1, 1, 0).dimension_poly()
        assert r00 - r10 == IntPolynomial.one()

    def test_report_json(self):
        data = verify_stratum(2).to_json()
        assert data["ok"] is True
        assert len(data["checks"]) == 5


class TestRestrictionIdentity:
    @pytest.mark.parametrize("k", range(1, 7))
    def test_holds_with_tate_twist(self, k):
        checks = [c for c in coxeter_checks(range(k, k + 1)) if c.name.startswith("coxeter-restriction ")]
        assert checks, "no checks generated"
        assert all(c.passed for c in checks), [c.line() for c in checks if not c.passed]


class TestCoxeterChecks:
    """The sweep form hands each table down as the next rank's lower table;
    the one-rank form builds its lower table itself.  Both must give the
    same checks, so a lower table that is never updated, or a first one
    off by a rank, shows as a failed or a different check."""

    @pytest.mark.parametrize("top", range(9))
    def test_sweep_equals_one_rank_at_a_time(self, top):
        sweep = coxeter_checks(range(top + 1))
        assert sweep == [c for k in range(top + 1) for c in coxeter_checks(range(k, k + 1))]
        assert all(c.passed for c in sweep), [c.line() for c in sweep if not c.passed]

    def test_steps_other_than_one_raise(self):
        with pytest.raises(ValueError, match="consecutive ranks"):
            coxeter_checks(range(0, 4, 2))


TABLES = {"engine": stratum_cohomology, "closed": closed_stratum_cohomology}


@pytest.mark.parametrize("theta", range(9))
@pytest.mark.parametrize("table", [stratum_cohomology, closed_stratum_cohomology, coxeter_cohomology])
def test_entries_list_labels_in_oracle_order(table, theta):
    for entry in table(theta).entries:
        labels = entry.constituents.sorted_labels()
        assert labels == sorted(labels, key=lambda l: (l.t, label_sort_key(l.bipartition)))
        assert labels == list(entry.constituents)


class TestPointCount:
    """Lefschetz at r = 1 with Frobenius acting on H^i by (-q)**i:
    sum_i q**i * dim H^i(q) is the number of maximal totally isotropic
    subspaces of F_{q^2}^{2theta+1}, as exact polynomials in q.  It sees the
    Frobenius convention and the degree of each eigenspace, which the five
    checks of `verify_stratum` take as given."""

    @pytest.mark.parametrize("method", TABLES)
    @pytest.mark.parametrize("theta", range(21))
    def test_lefschetz_number_counts_isotropic_subspaces(self, theta, method):
        assert lefschetz_number(TABLES[method](theta)) == isotropic_subspace_count(theta)

    @pytest.mark.parametrize("method", TABLES)
    def test_eigenvalue_q_instead_of_minus_q_fails(self, method):
        # Frobenius by q**i gives sum_i (-1)**i q**i dim H^i: it agrees at
        # theta = 0 (H^0 alone) and fails from theta = 1 on (H^1 = (2,1))
        agrees = [
            lefschetz_number(TABLES[method](theta), eigenvalue_sign=1) == isotropic_subspace_count(theta)
            for theta in range(9)
        ]
        assert agrees == [True] + [False] * 8

    def test_counts_at_small_q(self):
        assert [isotropic_subspace_count(theta)(2) for theta in (1, 2, 3)] == [9, 297, 38313]
        assert [isotropic_subspace_count(theta)(3) for theta in (1, 2)] == [28, 6832]


class TestHardLefschetz:
    """Every constituent of H^i, with its multiplicity, occurs in H^(i+2)
    for i < theta (`hard_lefschetz_failures`).  It checks the closed formula
    itself, not only the engine's agreement with it, and the chain
    cancellation of `stratum_cohomology` independently of the five checks."""

    @pytest.mark.parametrize("method", TABLES)
    @pytest.mark.parametrize("theta", range(21))
    def test_lefschetz_map_is_injective(self, theta, method):
        assert hard_lefschetz_failures(TABLES[method](theta), theta) == []

    @pytest.mark.parametrize("method", TABLES)
    def test_reverse_inclusion_fails(self, method):
        # the control: 66 of the 78 pairs (theta, i) with i < theta <= 12
        table = TABLES[method]
        assert sum(len(hard_lefschetz_failures(table(theta), theta, reverse=True)) for theta in range(13)) == 66


class TestStratumRestriction:
    """Restricting H^i(Y_theta) by one box gives H^i(Y_(theta-1)) +
    H^(i-2)(Y_(theta-1)) in every degree: observed, not proven (see
    `stratum_restriction_failures`).  It is the only check that ties
    consecutive theta together."""

    @pytest.mark.parametrize("method", TABLES)
    @pytest.mark.parametrize("theta", range(1, 13))
    def test_restriction_is_the_table_one_down_plus_its_twist(self, theta, method):
        table = TABLES[method]
        assert stratum_restriction_failures(table(theta), table(theta - 1)) == []

    @pytest.mark.parametrize("method", TABLES)
    @pytest.mark.parametrize("shifts", [(0, 1), (1, 2)])
    def test_other_shifts_fail_at_theta_one(self, shifts, method):
        table = TABLES[method]
        assert stratum_restriction_failures(table(1), table(0), shifts)

    def test_cuspidal_label_restricts_to_zero(self):
        assert dl._restrict_one_box(RepMultiset([to_symbol((2, 1))])) == RepMultiset()
        assert dl._restrict_one_box(RepMultiset({to_symbol((3,)): 2})) == RepMultiset({to_symbol((1,)): 2})


class TestGuardsThatRun:
    def test_chain_head_with_nowhere_to_cancel_raises(self):
        # the carry {x} from the middle term meets an empty third term
        x = to_symbol((2, 1))
        chain = [RepMultiset(), RepMultiset([x]), RepMultiset()]
        with pytest.raises(VerificationError, match="has nowhere to cancel in column 3"):
            dl._chain_head(3, 1, chain)

    def test_chain_term_with_a_repeated_label_raises(self, monkeypatch):
        # the middle term of the exponent-1 chain at theta = 3 holds one
        # label twice; the chain is held as sets, so the guard must catch it
        original = dl.stratum_term

        def doubled(theta, theta_prime, a):
            term = original(theta, theta_prime, a)
            if (theta_prime, a) != (2, 1):
                return term
            counts = dict(term.counts)
            counts[term.sorted_labels()[0]] = 2
            return RepMultiset(counts)

        monkeypatch.setattr(dl, "stratum_term", doubled)
        with pytest.raises(VerificationError, match=r"not multiplicity-free .* at theta=3 in column 2"):
            stratum_cohomology(3)

    def test_duality_check_builds_each_degree_once(self, monkeypatch):
        calls = []
        original = dl.CohomologyTable.degree_constituents

        def counted(self, degree):
            calls.append(degree)
            return original(self, degree)

        monkeypatch.setattr(dl.CohomologyTable, "degree_constituents", counted)
        assert verify_stratum(4).ok
        assert calls == list(range(9))

    def test_exception_inside_one_check_fails_only_that_check(self, monkeypatch):
        def injected(self, degree):
            raise ZeroDivisionError("injected")

        monkeypatch.setattr(dl.CohomologyTable, "degree_constituents", injected)
        report = verify_stratum(2)
        assert [(c.name, c.passed, c.details) for c in report.checks] == [
            ("stratum-equals-closed-formula (theta=2)", True, ""),
            ("poincare-duality-symmetry (theta=2)", False, "injected"),
            ("frobenius-exponent-equals-degree (theta=2)", True, ""),
            ("euler-characteristic-additivity (theta=2)", True, ""),
            ("eigenvalue-alternating-sums (theta=2)", True, ""),
        ]


class TestTableSerialization:
    def test_json_round_trip(self):
        data = stratum_cohomology(2).to_json()
        assert data["variety"] == "closed-stratum(theta=2)"
        assert json.loads(json.dumps(data)) == data

    def test_index_stays_out_of_equality_and_json(self):
        table = stratum_cohomology(3)
        fresh = stratum_cohomology(3)
        assert labels_as_partitions(table.eigenspace(2, 2)) == {(7,), (5, 2)}
        assert table.eigenspace(2, 3) == RepMultiset()
        assert table.at(9) == ()
        assert table == fresh and hash(table) == hash(fresh)
        assert table.to_json() == fresh.to_json()

    @pytest.mark.parametrize("theta", range(0, 9))
    def test_every_stratum_table_round_trips(self, theta):
        # the JSON text keeps the whole table, and it is the same text as the
        # closed formula's, which is the table scripts/stratum_tables.py exports
        data = stratum_cohomology(theta).to_json()
        assert json.loads(json.dumps(data)) == data
        assert data == closed_stratum_cohomology(theta).to_json()

    def test_json_shape(self):
        data = coxeter_cohomology(1).to_json()
        for entry in data["entries"]:
            assert set(entry) == {"degree", "frobenius_exponent", "constituents"}
            for constituent in entry["constituents"]:
                assert set(constituent) == {"partition", "symbol", "degree_poly", "multiplicity"}
                assert set(constituent["symbol"]) == {"t", "alpha", "beta"}


class TestMultiplicityFreeGuard:
    def test_doubled_constituents_raise(self, monkeypatch):
        # both paths double every constituent, so they still agree and only
        # the multiplicity-free guard stands between the fault and the page
        def doubled(path):
            def term(theta, theta_prime, a):
                t, pairs = path(theta, theta_prime, a)
                return t, tuple(pair for pair in pairs for _ in range(2))

            return term

        monkeypatch.setattr(dl, "_stratum_term_pieri", doubled(dl._stratum_term_pieri))
        monkeypatch.setattr(dl, "_stratum_term_explicit", doubled(dl._stratum_term_explicit))
        with pytest.raises(VerificationError, match="not multiplicity-free"):
            stratum_term(2, 1, 1)


class TestDualPathGuard:
    """`stratum_term` compares the two paths' (t, pairs) as tuples, so the
    support, the set and the order of the pairs must all agree."""

    def test_other_t_is_a_mismatch(self, monkeypatch):
        original = dl._stratum_term_explicit

        def other_t(theta, theta_prime, a):
            t, pairs = original(theta, theta_prime, a)
            return 3 - t, pairs

        monkeypatch.setattr(dl, "_stratum_term_explicit", other_t)
        with pytest.raises(VerificationError, match="stratum term mismatch"):
            stratum_term(3, 1, 1)

    def test_reversed_pieri_order_is_a_mismatch(self, monkeypatch):
        # the same set of pairs in ascending order: only the order differs
        t, pairs = _stratum_term_pieri(3, 1, 2)
        assert len(pairs) > 1
        original = hc.pieri_induce
        monkeypatch.setattr(hc, "pieri_induce", lambda start, boxes: original(start, boxes)[::-1])
        assert _stratum_term_pieri(3, 1, 2) == (t, pairs[::-1])
        with pytest.raises(VerificationError, match=r"stratum term mismatch .*: pieri only \[\], explicit only \[\]$"):
            stratum_term(3, 1, 2)
        # a cell with one pair reads the same either way
        assert stratum_term(2, 2, 4) == RepMultiset([to_symbol(Partition((5,)))])

    def test_message_names_the_missing_pair(self, monkeypatch):
        original = dl._stratum_term_explicit
        t, pairs = original(3, 1, 0)
        missing = (t,) + pairs[-1]

        def drop_last(theta, theta_prime, a):
            t, pairs = original(theta, theta_prime, a)
            return t, pairs[:-1]

        monkeypatch.setattr(dl, "_stratum_term_explicit", drop_last)
        with pytest.raises(VerificationError) as raised:
            stratum_term(3, 1, 0)
        assert str(raised.value).endswith(f"pieri only [{missing!r}], explicit only []")

    @pytest.mark.parametrize("fault", ["[1:]", "[::-1]"], ids=["one-dropped", "reversed"])
    def test_explicit_pair_fault_raises_under_python_O(self, fault):
        # the comparison of the two paths is no assert, so -O keeps it
        script = (
            "from unicoh import deligne_lusztig as dl\n"
            "from unicoh.errors import VerificationError\n"
            "explicit = dl._stratum_term_explicit\n"
            f"dl._stratum_term_explicit = lambda *cell: (explicit(*cell)[0], explicit(*cell)[1]{fault})\n"
            "try:\n"
            "    dl.stratum_cohomology(3)\n"
            "except VerificationError as exc:\n"
            "    print('raised:', exc)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=child_env(), timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("raised: stratum term mismatch")

    def test_one_label_replaced_after_the_guard_fails_verify(self, monkeypatch):
        # the only labelling step sits after the comparison, so a fault there
        # reaches both paths' labels alike: (5, 2) becomes (4, 2, 1), same t
        # and rank, another generic degree, and absent from the theta = 3 page
        survivor, stranger = to_symbol(Partition((5, 2))), to_symbol(Partition((4, 2, 1)))
        assert survivor.support == stranger.support
        assert degree_u(Partition((5, 2))) != degree_u(Partition((4, 2, 1)))
        original = dl.symbol

        def swapped(t, alpha, beta):
            label = original(t, alpha, beta)
            return stranger if label == survivor else label

        monkeypatch.setattr(dl, "symbol", swapped)
        report = verify_stratum(3)
        # the chain still cancels, so duality and the exponents pass; the
        # closed formula and the label-free index forms catch it
        assert {c.name for c in report.checks if not c.passed} == {
            "stratum-equals-closed-formula (theta=3)",
            "euler-characteristic-additivity (theta=3)",
            "eigenvalue-alternating-sums (theta=3)",
        }


class TestBookkeepingGuard:
    def test_tampered_chain_raises(self):
        # empty out the last chain term: the carry from the middle term has
        # nowhere to cancel and the assembly must fail loudly
        from unicoh import deligne_lusztig as dl

        original = dl.stratum_term

        def tampered(theta, theta_prime, a):
            if (theta, theta_prime, a) == (2, 2, 0):
                return RepMultiset()
            return original(theta, theta_prime, a)

        dl.stratum_term = tampered
        try:
            with pytest.raises(VerificationError):
                dl.stratum_cohomology(2)
        finally:
            dl.stratum_term = original
