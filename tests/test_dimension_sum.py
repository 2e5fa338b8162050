"""The one-pass dimension sum and the memoised symbol -> partition translation.

`RepMultiset.dimension_poly` takes column sums of its labels' degree
coefficients; `dimension_by_reduce` (tests/oracles.py) is the polynomial-
arithmetic form it replaced.  `from_symbol` is memoised per label; the
fault test shows a wrong translation reaches the output once its cache is
cleared.  The Harish-Chandra index identity gives each stratum term's
dimension by a path that shares no code with the label translation;
`verify_stratum` checks against it, so it fails under that same fault.
"""

from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unicoh import (
    IntPolynomial,
    Partition,
    coxeter_cohomology,
    coxeter_hook,
    degree_u,
    partitions_of,
    stratum_term,
    to_symbol,
)
from unicoh import deligne_lusztig as dl
from unicoh import unipotent
from unicoh.cli import main
from unicoh.harish_chandra import RepMultiset
from unicoh.polynomial import linear_combination
from memos import clear_memos
from oracles import (
    dimension_by_reduce,
    direct_index_form,
    euler_sum_over_cells,
    hc_index_dimension,
    hook_formula_degree,
)
from strategies import partitions_up_to


def _cells(theta: int):
    """Every (theta', a) cell of the first page at theta."""
    return [(tp, a) for a in range(2 * theta + 1) for tp in range((a + 1) // 2, theta + 1)]


class TestDimensionSumOracle:
    @pytest.mark.parametrize("theta", range(9))
    def test_every_stratum_term(self, theta):
        for tp, a in _cells(theta):
            term = stratum_term(theta, tp, a)
            assert term.dimension_poly() == dimension_by_reduce(term), (theta, tp, a)

    @pytest.mark.parametrize("k", range(7))
    def test_every_coxeter_entry(self, k):
        for entry in coxeter_cohomology(k).entries:
            ms = entry.constituents
            assert ms.dimension_poly() == dimension_by_reduce(ms), (k, entry.degree)

    @pytest.mark.parametrize("mult", (2, 3))
    def test_multiplicities_above_one(self, mult):
        labels = [to_symbol(lam) for lam in partitions_of(7) if to_symbol(lam).t == 1]
        ms = RepMultiset({label: mult if i % 2 else 1 for i, label in enumerate(labels)})
        assert ms.dimension_poly() == dimension_by_reduce(ms)
        odd, even = RepMultiset(labels[1::2]), RepMultiset(labels[::2])
        assert ms.dimension_poly() == mult * odd.dimension_poly() + even.dimension_poly()

    def test_empty_multiset(self):
        assert RepMultiset().dimension_poly().coeffs == ()
        assert dimension_by_reduce(RepMultiset()).coeffs == ()

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(partitions_up_to(16), st.integers(min_value=1, max_value=3)), max_size=12))
    def test_random_label_multisets(self, drawn):
        # one multiset per cuspidal support (t, n) among the drawn labels
        groups = defaultdict(dict)
        for lam, mult in drawn:
            label = to_symbol(lam)
            group = groups[label.t, label.rank]
            group[label] = group.get(label, 0) + mult
        for counts in groups.values():
            ms = RepMultiset(counts)
            assert ms.dimension_poly() == dimension_by_reduce(ms)


class TestFromSymbolMemo:
    @pytest.mark.parametrize("n", range(15))
    def test_memo_agrees_with_the_translation(self, n):
        for lam in partitions_of(n):
            sym = to_symbol(lam)
            assert unipotent.from_symbol(sym) == unipotent.from_symbol.__wrapped__(sym) == lam


@pytest.fixture
def label_cache():
    """Yield the symbol -> partition cache's clearer, and empty every memo
    after the test, so values computed under an injected fault do not leak
    into later tests."""
    yield unipotent.from_symbol.cache_clear
    clear_memos()


def _stratum_json(capsys) -> str:
    assert main(["stratum", "--theta", "3", "--format", "json"]) == 0
    return capsys.readouterr().out


class TestFromSymbolCacheFault:
    def test_translation_fault_behind_warm_cache_changes_outputs(self, capsys, monkeypatch, label_cache):
        assert dl.verify_stratum(3).ok
        assert unipotent.from_symbol.cache_info().currsize > 0
        clean = _stratum_json(capsys)
        original = unipotent.from_core_quotient
        target = Partition((7,))  # a constituent at theta = 3, and coxeter_hook(3, 6)

        def broken(t, quotient):
            lam = original(t, quotient)
            return lam.transpose() if lam == target else lam

        monkeypatch.setattr(unipotent, "from_core_quotient", broken)
        # every label of theta = 3 is already translated: the fault is not seen yet
        assert _stratum_json(capsys) == clean
        label_cache()
        assert unipotent.from_symbol(to_symbol(target)) == target.transpose()
        faulty = _stratum_json(capsys)
        assert faulty != clean
        # the Coxeter dimension check compares the degree of (7) with its
        # closed form
        assert main(["verify", "--k", "3", "-q"]) == 1


def _index_mismatches(theta: int) -> list[tuple[int, int]]:
    """The (theta', a) cells at theta whose dimension is not
    [G:P] * deg(Coxeter hook of theta' at a)."""
    return [
        (tp, a)
        for tp, a in _cells(theta)
        if stratum_term(theta, tp, a).dimension_poly()
        != hc_index_dimension(theta, tp) * degree_u(coxeter_hook(tp, a))
    ]


class TestHarishChandraIndex:
    @pytest.mark.parametrize("theta", range(11))
    def test_every_cell_is_index_times_hook_degree(self, theta):
        assert _index_mismatches(theta) == []

    def test_wrong_translation_breaks_the_identity(self, monkeypatch, label_cache):
        # the from_core_quotient fault of TestFromSymbolCacheFault
        original = unipotent.from_core_quotient
        target = Partition((7,))

        def broken(t, quotient):
            lam = original(t, quotient)
            return lam.transpose() if lam == target else lam

        monkeypatch.setattr(unipotent, "from_core_quotient", broken)
        label_cache()
        failed = [c.name for c in dl.verify_stratum(3).checks if not c.passed]
        assert failed == _dimension_checks(3)
        assert (3, 6) in _index_mismatches(3)


def _dimension_checks(theta: int) -> list[str]:
    """The names of verify_stratum's two dimension checks at theta."""
    return [
        f"euler-characteristic-additivity (theta={theta})",
        f"eigenvalue-alternating-sums (theta={theta})",
    ]


@pytest.fixture
def cold_caches():
    """Empty every memo before and after the test, so that no value computed
    under an injected fault is read before it or leaks into later tests."""
    clear_memos()
    yield
    clear_memos()


class TestIndexFormSeesLabelFaults:
    """Faults in the label -> degree map fail verify_stratum's Euler and
    alternating-sum checks, which compare the surviving labels' degrees
    with index forms that read no label."""

    def assert_dimension_checks_fail(self, report):
        failed = [c for c in report.checks if not c.passed]
        assert [c.name for c in failed] == _dimension_checks(report.theta)
        assert all(" != " in c.details for c in failed)

    def test_every_u_degree_rescaled(self, monkeypatch, cold_caches):
        original = unipotent.degree_u
        q = IntPolynomial.q_power(1)
        monkeypatch.setattr(unipotent, "degree_u", lambda lam: q * original(lam) + 7)
        self.assert_dimension_checks_fail(dl.verify_stratum(4))

    def test_transposed_translation(self, monkeypatch, cold_caches):
        original = unipotent.from_core_quotient
        target = Partition((7,))

        def broken(t, quotient):
            lam = original(t, quotient)
            return lam.transpose() if lam == target else lam

        monkeypatch.setattr(unipotent, "from_core_quotient", broken)
        self.assert_dimension_checks_fail(dl.verify_stratum(3))


class TestIndexFormOracle:
    """The engine's index form (`stratum_term_dimension`, read from the row
    `index_form_row` builds by one two-term step per exponent) against the
    per-cell form it replaced, the dense oracles and the sum over the cell's
    labels: the slow paths it gets in place of a per-cell guard in
    verify_stratum."""

    # every cell up to theta = 16 adds about 0.6 s to the suite; theta = 17
    # would bring it near 1 s
    @pytest.mark.parametrize("theta", range(17))
    def test_direct_index_form(self, theta):
        for tp, a in _cells(theta):
            assert dl.stratum_term_dimension(theta, tp, a) == direct_index_form(theta, tp, a), (theta, tp, a)

    @pytest.mark.parametrize("theta,tp,a", [(3, 2, -1), (3, 2, 5), (3, 0, -1), (3, 0, 1), (3, -1, 0), (3, 4, 0)])
    def test_out_of_range_cell_raises_before_the_row(self, theta, tp, a):
        # a row read at a = -1 would silently answer its last cell
        dl.index_form_row.cache_clear()
        with pytest.raises(ValueError, match="out of range"):
            dl.stratum_term_dimension(theta, tp, a)
        assert dl.index_form_row.cache_info().currsize == 0

    @pytest.mark.parametrize("theta", range(11))
    def test_dense_index_times_hook_formula(self, theta):
        index = [hc_index_dimension(theta, tp) for tp in range(theta + 1)]
        for tp, a in _cells(theta):
            dense = index[tp] * hook_formula_degree(coxeter_hook(tp, a), "u")
            assert dl.stratum_term_dimension(theta, tp, a) == dense, (theta, tp, a)

    @pytest.mark.parametrize("theta", range(13))
    def test_label_sum(self, theta):
        for tp, a in _cells(theta):
            labels = stratum_term(theta, tp, a).dimension_poly()
            assert dl.stratum_term_dimension(theta, tp, a) == labels, (theta, tp, a)


class TestEulerRegrouping:
    """verify_stratum's Euler check sums (-1)**a * alt(a), with alt(a) the
    alternating sum of index forms along the exponent-a chain; the sum over
    cells with sign (-1)**(theta' + a // 2) is the same polynomial."""

    @staticmethod
    def alternating_sum(theta: int, a: int) -> IntPolynomial:
        return linear_combination(
            ((-1) ** j, dl.stratum_term_dimension(theta, tp, a))
            for j, tp in enumerate(range((a + 1) // 2, theta + 1))
        )

    @pytest.mark.parametrize("theta", range(13))
    def test_regrouped_by_exponent(self, theta):
        regrouped = linear_combination(
            ((-1) ** a, self.alternating_sum(theta, a)) for a in range(2 * theta + 1)
        )
        assert regrouped == euler_sum_over_cells(theta)
        answer = dl.closed_stratum_cohomology(theta).entries
        assert regrouped == linear_combination(((-1) ** e.degree, e.constituents.dimension_poly()) for e in answer)
