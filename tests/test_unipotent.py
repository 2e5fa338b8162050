import json
import subprocess
import sys

import pytest
from hypothesis import given, settings

from unicoh import (
    Bipartition,
    ExactDivisionError,
    IntPolynomial,
    Partition,
    core_quotient,
    cuspidal_partition,
    degree_gl,
    degree_u,
    from_core_quotient,
    from_symbol,
    hc_series,
    partitions_of,
    staircase,
    to_symbol,
    two_core,
    two_quotient,
)
from unicoh import unipotent
from unicoh.deligne_lusztig import coxeter_hook, stratum_cohomology, stratum_term, verify_stratum
from unicoh.harish_chandra import hc_induce
from unicoh.unipotent import SymbolLabel, a_exponent, symbol

from child_env import child_env
from oracles import (
    degree_from_torus_orders,
    diagram_hooks,
    hook_formula_degree,
    syt_count,
    two_quotient_by_parity_split,
)
from strategies import partitions_up_to


class TestDegrees:
    def test_trivial_is_one(self):
        for n in range(1, 8):
            assert degree_gl(Partition((n,))) == IntPolynomial.one()
            assert degree_u(Partition((n,))) == IntPolynomial.one()

    def test_gl_steinberg_rank_two(self):
        assert degree_gl(Partition((1, 1))) == IntPolynomial.q_power(1)

    def test_gl_two_one(self):
        assert degree_gl(Partition((2, 1))) == IntPolynomial((0, 1, 1))  # q^2 + q

    def test_u_steinberg_rank_three(self):
        assert degree_u(Partition((1, 1, 1))) == IntPolynomial.q_power(3)

    def test_u_cuspidal_rank_three(self):
        assert degree_u(Partition((2, 1))) == IntPolynomial((0, -1, 1))  # q(q - 1)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_u_steinberg_general(self, n):
        assert degree_u(Partition((1,) * n)) == IntPolynomial.q_power(n * (n - 1) // 2)

    @pytest.mark.parametrize("n", range(1, 15))
    def test_divisions_exact_everywhere(self, n):
        # constructing the degree raises on any nonzero remainder, and the
        # two-term steps agree with the dense long-division hook formula
        for lam in partitions_of(n):
            assert degree_u(lam) == hook_formula_degree(lam, "u")
            assert degree_gl(lam) == hook_formula_degree(lam, "gl")

    @given(partitions_up_to(24))
    @settings(max_examples=40, deadline=None)
    def test_matches_dense_hook_formula(self, lam):
        assert degree_u(lam) == hook_formula_degree(lam, "u")
        assert degree_gl(lam) == hook_formula_degree(lam, "gl")

    def test_matches_sympy_rational_function(self):
        sympy = pytest.importorskip("sympy")
        q = sympy.Symbol("q")
        for n in range(0, 9):
            for lam in partitions_of(n):
                for sign, degree in ((-1, degree_u), (1, degree_gl)):
                    num = q ** a_exponent(lam) * sympy.Mul(*(q**j - sign**j for j in range(1, n + 1)))
                    den = sympy.Mul(*(q**h - sign**h for h in diagram_hooks(lam)))
                    coeffs = sympy.Poly(sympy.cancel(num / den), q).all_coeffs()[::-1]
                    assert degree(lam) == IntPolynomial(int(c) for c in coeffs)

    def test_ennola_duality(self):
        # deg_U(lam)(q) = +-deg_GL(lam)(-q) (Ennola 1963), both signs occurring
        signs = set()
        for n in range(0, 11):
            for lam in partitions_of(n):
                gl_at_minus_q = [(-1) ** k * c for k, c in enumerate(degree_gl(lam).coeffs)]
                u = list(degree_u(lam).coeffs)
                sign = 1 if u == gl_at_minus_q else -1
                assert u == [sign * c for c in gl_at_minus_q]
                signs.add(sign)
        assert signs == {1, -1}

    def test_gl_degree_at_one_counts_tableaux(self):
        # the q -> 1 limit of the GL degree is the number of standard tableaux
        for n in range(1, 8):
            for lam in partitions_of(n):
                assert degree_gl(lam)(1) == syt_count(lam)

    def test_degree_sums_positive_at_small_q(self):
        for n in range(1, 9):
            for q0 in (2, 3):
                total = sum(degree_u(lam)(q0) for lam in partitions_of(n))
                assert total > 0

    def test_gl_flag_module_decomposition(self):
        # the permutation module on complete flags decomposes with tableau
        # multiplicities: sum of syt(lam) * deg(lam) is the flag count
        q0 = 2
        for n in range(1, 7):
            flags = 1
            for i in range(1, n + 1):
                flags = flags * (q0**i - 1) // (q0 - 1)
            total = sum(syt_count(lam) * degree_gl(lam)(q0) for lam in partitions_of(n))
            assert total == flags

    @pytest.mark.parametrize("wrong_hooks, message", [
        (lambda lam: [2] * lam.size, "nonzero remainder"),  # (2,1): (q+1)(q^3+1) / (q^2-1)^2
        (lambda lam: [lam.size + 5] * lam.size, "below hook factor"),  # quotient of negative degree
    ])
    def test_wrong_hooks_raise(self, monkeypatch, wrong_hooks, message):
        monkeypatch.setattr(unipotent, "_hooks_flat", wrong_hooks)
        for degree in (degree_u, degree_gl):
            with pytest.raises(ExactDivisionError, match=message) as info:
                degree.__wrapped__(Partition((2, 1)))
            assert "(2, 1)" in str(info.value)

    def test_wrong_hooks_messages(self, monkeypatch):
        # the messages name the group and the label, word for word as before
        # the two-term steps moved into polynomial.two_term_ratio
        lam = Partition((2, 1))
        cases = [
            (lambda lam: [2] * lam.size, degree_u,
             "U degree of (2, 1) not polynomial: nonzero remainder 2*q + 2 dividing by q^2 - 1"),
            (lambda lam: [2] * lam.size, degree_gl,
             "GL degree of (2, 1) not polynomial: nonzero remainder -2*q + 2 dividing by q^2 - 1"),
            (lambda lam: [lam.size + 5] * lam.size, degree_u,
             "U degree of (2, 1) not polynomial: degree 6 below hook factor q^8"),
            (lambda lam: [lam.size + 5] * lam.size, degree_gl,
             "GL degree of (2, 1) not polynomial: degree 6 below hook factor q^8"),
        ]
        for wrong_hooks, degree, message in cases:
            monkeypatch.setattr(unipotent, "_hooks_flat", wrong_hooks)
            with pytest.raises(ExactDivisionError) as info:
                degree.__wrapped__(lam)
            assert str(info.value) == message

    def test_wrong_hooks_raise_under_python_O(self):
        script = (
            "from unicoh import ExactDivisionError, Partition, unipotent\n"
            "unipotent._hooks_flat = lambda lam: [2] * lam.size\n"
            "try:\n"
            "    unipotent.degree_u.__wrapped__(Partition((2, 1)))\n"
            "except ExactDivisionError as exc:\n"
            "    print('raised:', exc)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=child_env(), timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("raised: U degree of (2, 1) not polynomial")

    def test_a_exponent(self):
        assert a_exponent(Partition((3, 3, 2, 2, 1))) == 0 * 3 + 1 * 3 + 2 * 2 + 3 * 2 + 4 * 1


class TestDegreesFromTorusOrders:
    """Deligne-Lusztig: each generic degree is a signed sum over the classes
    of S_N of character values times torus indices, computed with no hook,
    no symbol and no library character value."""

    @pytest.mark.parametrize("n", range(11))
    def test_equal_to_degree_u(self, n):
        for lam in partitions_of(n):
            assert degree_from_torus_orders(lam) == degree_u(lam), lam

    def test_control_without_the_sign_fails(self):
        # epsilon = 1 flips the degree of every lam whose Lusztig-Srinivasan sign is -1
        flipped = [
            lam
            for n in range(7)
            for lam in partitions_of(n)
            if degree_from_torus_orders(lam, epsilon=lambda lam: 1) != degree_u(lam)
        ]
        assert len(flipped) == 12


class TestSymbolTranslation:
    def test_worked_example(self):
        sym = to_symbol(Partition((3, 3, 2, 2, 1)))
        assert (sym.t, sym.alpha, sym.beta) == (1, (1,), (2, 2))

    def test_staircases_are_cuspidal_symbols(self):
        for t in range(6):
            sym = to_symbol(staircase(t))
            assert (sym.t, sym.alpha, sym.beta) == (t, (), ())

    def test_from_symbol_worked_example(self):
        assert from_symbol(symbol(1, (1,), (2, 2))) == (3, 3, 2, 2, 1)

    def test_from_symbol_staircase(self):
        for t in range(6):
            assert from_symbol(symbol(t, (), ())) == staircase(t)

    @pytest.mark.parametrize("n", range(0, 13))
    def test_round_trip_exhaustive(self, n):
        for lam in partitions_of(n):
            sym = to_symbol(lam)
            assert sym.rank == n
            assert from_symbol(sym) == lam

    @pytest.mark.parametrize("k", range(0, 9))
    def test_hook_family_parity_swap(self, k):
        # even exponents land in support 1, odd in support 2
        for a in range(2 * k + 1):
            lam = Partition((1 + a,) + (1,) * (2 * k - a))
            sym = to_symbol(lam)
            a_half = a // 2
            if a % 2 == 0:
                assert (sym.t, sym.alpha, sym.beta) == (
                    1,
                    (a_half,) if a_half else (),
                    (1,) * (k - a_half),
                )
            else:
                assert (sym.t, sym.alpha, sym.beta) == (
                    2,
                    (a_half,) if a_half else (),
                    (1,) * (k - a_half - 1),
                )

    def test_symbol_json_round_trip(self):
        sym = symbol(2, (3, 1), (2,))
        assert sym.to_json() == {"t": 2, "alpha": [3, 1], "beta": [2]}
        assert json.loads(json.dumps(sym.to_json())) == sym.to_json()

    def test_rank_equation(self):
        sym = symbol(2, (3, 1), (2,))
        assert sym.rank == 2 * 6 + 3

    def test_negative_t_rejected(self):
        with pytest.raises(ValueError):
            symbol(-1, (), ())


class TestOneBetaSetTranslation:
    """core_quotient reads the 2-core index and the 2-quotient off one beta
    set, and to_symbol takes both from it."""

    @staticmethod
    def check(lam):
        t, quotient = core_quotient(lam)
        assert t == two_core(lam)
        assert quotient == two_quotient(lam) == two_quotient_by_parity_split(lam)
        assert core_quotient(lam, len(lam) + 1) == core_quotient(lam, len(lam) + 2) == (t, quotient)
        first, second = quotient if t % 2 == 0 else quotient[::-1]
        sym = to_symbol(lam)
        assert (sym.t, sym.alpha, sym.beta) == (t, first, second)
        assert sym.rank == lam.size

    @pytest.mark.parametrize("n", range(15))
    def test_every_partition(self, n):
        for lam in partitions_of(n):
            self.check(lam)

    def test_coxeter_hooks(self):
        for k in range(31):
            for a in range(2 * k + 1):
                self.check(coxeter_hook(k, a))

    @pytest.mark.parametrize("t", [30, 31])
    def test_deep_core_round_trip(self, t):
        # no partition above has a 2-core index of 30 or more
        lam = from_core_quotient(t, Bipartition.of((2,), (1, 1)))
        self.check(lam)
        alpha, beta = ((2,), (1, 1)) if t % 2 == 0 else ((1, 1), (2,))
        assert to_symbol(lam) is symbol(t, alpha, beta)
        assert from_symbol(to_symbol(lam)) == lam


class TestStoredRankAndHash:
    """SymbolLabel keeps its rank and hash from construction; nothing else
    about the label may change."""

    @pytest.mark.parametrize("n", range(0, 13))
    def test_stored_values_match_formulas(self, n):
        for lam in partitions_of(n):
            sym = to_symbol(lam)
            t, alpha, beta = sym.t, sym.alpha, sym.beta
            assert sym.rank == 2 * (alpha.size + beta.size) + t * (t + 1) // 2 == n
            assert hash(sym) == hash((t, alpha, beta))
            rebuilt = SymbolLabel(t, Partition(tuple(alpha)), Partition(tuple(beta)))
            assert rebuilt == sym and hash(rebuilt) == hash(sym)

    def test_repr(self):
        assert repr(symbol(1, (2, 1), ())) == "SymbolLabel(t=1, alpha=Partition((2, 1)), beta=Partition(()))"

    def test_to_json(self):
        assert symbol(1, (2, 1), ()).to_json() == {"t": 1, "alpha": [2, 1], "beta": []}
        assert list(symbol(0, (), (1,)).to_json()) == ["t", "alpha", "beta"]

    def test_order_is_t_then_alpha_then_beta(self):
        labels = [to_symbol(lam) for n in range(10) for lam in partitions_of(n)]
        expected = sorted(labels, key=lambda l: (l.t, tuple(l.alpha), tuple(l.beta)))
        assert sorted(reversed(labels)) == expected
        a, b = symbol(1, (2,), ()), symbol(1, (1, 1), (3,))
        assert b < a and a > b and a <= a and not a < a

    @pytest.mark.parametrize("t", [1.0, "1"])
    def test_t_must_be_an_integer(self, t):
        with pytest.raises(TypeError):
            SymbolLabel(t, (2,), ())

    def test_t_is_stored_as_a_plain_int(self):
        sym = SymbolLabel(True, (2,), ())
        assert type(sym.t) is int and type(sym.rank) is int
        assert sym == symbol(1, (2,), ()) and sym.to_json() == {"t": 1, "alpha": [2], "beta": []}

    def test_rank_is_not_a_constructor_argument(self):
        with pytest.raises(TypeError):
            SymbolLabel(0, Partition(), Partition(), 0)

    @pytest.mark.parametrize(
        "alpha, beta, message",
        [
            ((1, 2), (0, 3), "parts must be weakly decreasing, got (1, 2)"),
            ((), (0, 3), "parts must be positive, got 0 in (0, 3)"),
        ],
    )
    def test_parts_must_be_partitions(self, alpha, beta, message):
        with pytest.raises(ValueError) as info:
            SymbolLabel(1, alpha, beta)
        assert str(info.value) == message

    def test_parts_are_stored_as_partitions(self):
        sym = SymbolLabel(1, (2, 1, 0), [1])
        assert type(sym.alpha) is type(sym.beta) is Partition
        assert sym == symbol(1, (2, 1), (1,)) and sym.rank == 9


class TestSymbolMemo:
    """`symbol` builds each label once per process; what it returns must be
    the label the constructor would build."""

    def test_memo_matches_the_constructor(self):
        # every label of U_{2 theta + 1} for theta <= 8: the same (alpha, beta)
        # occurs with t = 1 at one rank and t = 2 two ranks up
        for theta in range(9):
            for lam in partitions_of(2 * theta + 1):
                t, (q0, q1) = core_quotient(lam)
                built = SymbolLabel(t, q0, q1) if t % 2 == 0 else SymbolLabel(t, q1, q0)
                memo = symbol(built.t, built.alpha, built.beta)
                assert memo == built and hash(memo) == hash(built) and memo.rank == built.rank
                assert symbol(built.t, tuple(built.alpha), tuple(built.beta)) is memo
                assert to_symbol(lam) is memo

    def test_second_page_is_all_hits(self):
        stratum_cohomology(12)
        before = symbol.cache_info()
        stratum_cohomology(12)
        after = symbol.cache_info()
        assert after.misses == before.misses and after.hits > before.hits

    # the first four cells keep their ids; then every cell (theta', a) of
    # every theta <= 8
    CELLS = [(6, 0, 0), (6, 3, 3), (6, 4, 8), (12, 5, 6)]
    CELLS += sorted(
        {
            (theta, theta_prime, a)
            for theta in range(9)
            for theta_prime in range(theta + 1)
            for a in range(2 * theta_prime + 1)
        }
        - set(CELLS)
    )

    @pytest.mark.parametrize("cell", CELLS)
    def test_each_label_is_looked_up_once(self, cell):
        # the two paths compare bipartitions, so the memo sees the start label
        # once and each pair of the term once, after the comparison
        theta, theta_prime, a = cell
        before = symbol.cache_info()
        term = stratum_term(*cell)
        after = symbol.cache_info()
        assert (after.hits + after.misses) - (before.hits + before.misses) == len(term) + 1
        assert term == hc_induce(to_symbol(coxeter_hook(theta_prime, a)), (theta - theta_prime,))


class TestToSymbolMemo:
    """`to_symbol` translates each partition once per process and returns
    the `symbol` memo's label."""

    @pytest.fixture
    def cleared_after(self):
        yield
        unipotent._to_symbol.cache_clear()

    def test_list_and_padded_tuple_find_the_partition(self):
        lam = Partition((4, 2, 2, 1))
        sym = to_symbol(lam)
        assert to_symbol([4, 2, 2, 1]) is sym
        assert to_symbol((4, 2, 2, 1, 0, 0)) is sym
        assert sym is symbol(sym.t, sym.alpha, sym.beta)

    def test_clearing_the_label_memo_alone_is_enough(self):
        lam = Partition((3, 1))
        to_symbol(lam)
        symbol.cache_clear()
        t, (q0, q1) = core_quotient(lam)
        alpha, beta = (q0, q1) if t % 2 == 0 else (q1, q0)
        assert to_symbol(lam) is symbol(t, alpha, beta)

    def test_second_page_adds_no_miss(self):
        stratum_cohomology(12)
        before = unipotent._to_symbol.cache_info()
        stratum_cohomology(12)
        after = unipotent._to_symbol.cache_info()
        assert after.misses == before.misses and after.hits > before.hits

    def test_translation_fault_behind_warm_memo(self, monkeypatch, cleared_after):
        assert verify_stratum(4).ok
        clean = stratum_cohomology(4)
        original = unipotent.core_quotient

        def swapped(lam, rows=None):
            t, (q0, q1) = original(lam, rows)
            return t, Bipartition(q1, q0)

        monkeypatch.setattr(unipotent, "core_quotient", swapped)
        # every hook and closed-formula label of theta = 4 is already
        # translated: the fault is not seen yet
        assert stratum_cohomology(4) == clean
        assert verify_stratum(4).ok
        unipotent._to_symbol.cache_clear()
        assert verify_stratum(4).ok is False


class TestSeries:
    def test_worked_example_principal(self):
        series = hc_series(Partition((3, 3, 2, 2, 1)))
        assert series.t == 1
        assert series.principal
        assert not series.cuspidal
        assert series.weyl_rank == 5

    def test_staircase_is_cuspidal(self):
        for t in range(1, 6):
            series = hc_series(staircase(t))
            assert series.t == t
            assert series.cuspidal

    def test_two_row_odd_labels_in_support_two(self):
        # (2 theta - 2s, 2s + 1) lies in the t = 2 series
        for theta in range(2, 6):
            for s in range((theta - 1) // 2 + 1):
                lam = Partition((2 * theta - 2 * s, 2 * s + 1))
                assert hc_series(lam).t == 2

    def test_series_partition(self):
        # series of fixed t at rank n are exactly the labels with that 2-core
        n = 9
        for lam in partitions_of(n):
            series = hc_series(lam)
            assert series.t == two_core(lam)
            assert series.principal == (series.t == n % 2)


class TestCuspidal:
    def test_triangular_ranks(self):
        assert cuspidal_partition(3) == (2, 1)
        assert cuspidal_partition(6) == (3, 2, 1)
        assert cuspidal_partition(0) == ()

    def test_missing(self):
        for n in (2, 4, 5, 7, 8, 9):
            assert cuspidal_partition(n) is None

    def test_consistency_with_quotient(self):
        # a cuspidal label has empty 2-quotient
        for n in (1, 3, 6, 10):
            lam = cuspidal_partition(n)
            assert two_quotient(lam) == Bipartition.of((), ())
