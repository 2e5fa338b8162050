"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; every numeric comparison is exact (integers and integer polynomial
coefficients), and the stated runtime budgets are asserted.
"""

import time
from math import factorial
from operator import gt

from unicoh import (
    Bipartition,
    IntPolynomial,
    Partition,
    beta_set,
    bipartitions_of,
    character_table_sym,
    character_table_typeb,
    chi_sym,
    chi_typeb,
    closed_stratum_cohomology,
    core_quotient,
    coxeter_eigenspace_dim,
    coxeter_hook,
    degree_u,
    from_core_quotient,
    from_symbol,
    hook_lengths,
    partitions_of,
    pieri_induce,
    induction_multiplicity_oracle,
    signed_class_sizes,
    stratum_cohomology,
    to_symbol,
    two_core,
    two_quotient,
    typeb_class_size,
    verify_stratum,
)
from unicoh.deligne_lusztig import (
    _stratum_term_explicit,
    _stratum_term_pieri,
    coxeter_checks,
)


class Budget:
    def __init__(self, seconds: float):
        self.cap = seconds
        self.start = time.monotonic()

    def check(self):
        elapsed = time.monotonic() - self.start
        assert elapsed < self.cap, f"runtime {elapsed:.2f}s exceeded budget {self.cap}s"
        return elapsed


def report(number: int, text: str, elapsed: float):
    print(f"ACCEPTANCE {number:2d} PASS ({elapsed:6.3f}s): {text}")


def test_criterion_01_symmetric_character_value():
    budget = Budget(1.0)
    value = chi_sym(Partition((3, 3, 2, 2, 1)), Partition((4, 4, 3)))
    assert value == -2
    report(1, "chi_(3,3,2,2,1)(4,4,3) = -2", budget.check())


def test_criterion_02_typeb_character_value():
    budget = Budget(1.0)
    value = chi_typeb(Bipartition.of((3, 1, 1), (4, 2)), Bipartition.of((4,), (5, 2)))
    assert value == -1
    intermediate = chi_typeb(Bipartition.of((3, 1, 1), ()), Bipartition.of((), (5,)))
    assert intermediate == 1
    report(2, "chi_((3,1,1),(4,2))((4),(5,2)) = -1 with intermediate 1", budget.check())


def test_criterion_03_beta_set_core_quotient_translation():
    budget = Budget(5.0)
    lam = Partition((3, 3, 2, 2, 1))
    assert beta_set(lam, 5) == (7, 6, 4, 3, 1)
    assert two_core(lam) == 1
    assert two_quotient(lam) == Bipartition.of((2, 2), (1,))
    sym = to_symbol(lam)
    assert (sym.t, tuple(sym.alpha), tuple(sym.beta)) == (1, (1,), (2, 2))
    assert from_symbol(sym) == lam
    cq = core_quotient(lam)
    assert from_core_quotient(cq.core_index, cq.quotient) == lam
    report(3, "beta set (7,6,4,3,1), core 1, quotient ((2,2),(1)), labels round-trip", budget.check())


def test_criterion_04_hooks_and_steinberg_degree():
    budget = Budget(5.0)
    assert hook_lengths(Partition((3, 3, 2, 2, 1))) == (
        (7, 5, 2),
        (6, 4, 1),
        (4, 2),
        (3, 1),
        (1,),
    )
    assert degree_u(Partition((1, 1, 1))) == IntPolynomial.q_power(3)
    report(4, "hook table matches figure; deg_U(1,1,1) = q^3 symbolically", budget.check())


def test_criterion_05_orthogonality_and_class_sizes():
    budget = Budget(120.0)
    for n in range(1, 9):
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
    for a in range(1, 6):
        table = character_table_typeb(a)
        order = table.group_order
        assert order == 2**a * factorial(a)
        for i in range(len(table.labels)):
            for j in range(i, len(table.labels)):
                inner = sum(
                    size * table.values[i][k] * table.values[j][k]
                    for k, size in enumerate(table.class_sizes)
                )
                assert inner == (order if i == j else 0)
    for a in range(0, 5):
        brute = signed_class_sizes(a)
        for klass in bipartitions_of(a):
            assert typeb_class_size(klass) == brute.get(klass, 0)
    report(5, "orthogonality exact for S_n (n<=8), W_a (a<=5); brute-force class sizes (a<=4)", budget.check())


def test_criterion_06_coxeter_eigendimension_identity():
    budget = Budget(60.0)
    for k in range(0, 9):
        for a in range(0, 2 * k + 1):
            assert coxeter_eigenspace_dim(k, a) == degree_u(coxeter_hook(k, a))
    report(6, "eigenspace dimension = hook-formula degree for all k<=8", budget.check())


def test_criterion_07_pieri_matches_reciprocity_oracle():
    budget = Budget(60.0)
    for a in range(0, 5):
        for r in range(a + 1):
            s = a - r
            for phi in bipartitions_of(r):
                induced = pieri_induce(phi, s)
                assert len(induced) == len(set(induced))
                for chi in bipartitions_of(a):
                    expected = 1 if chi in induced else 0
                    got = induction_multiplicity_oracle(
                        r, s, phi, Partition((s,) if s else ()), chi
                    )
                    assert got == expected, (r, s, phi, chi)
    report(7, "Pieri induction = Frobenius-reciprocity oracle for all a<=4", budget.check())


def test_criterion_08_dual_path_stratum_terms():
    budget = Budget(60.0)
    pairs = 0
    for theta in range(0, 7):
        for theta_prime in range(theta + 1):
            for a in range(2 * theta_prime + 1):
                t, induced = _stratum_term_pieri(theta, theta_prime, a)
                assert (t, induced) == _stratum_term_explicit(theta, theta_prime, a), (theta, theta_prime, a)
                # descending with no repeat, the order stratum_term compares in
                assert all(map(gt, induced, induced[1:])), (theta, theta_prime, a)
                pairs += 1
    report(8, f"Pieri path = explicit enumeration on {pairs} stratum terms (theta<=6)", budget.check())


def test_criterion_09_stratum_equals_closed_formula():
    budget = Budget(60.0)
    for theta in range(0, 9):
        computed = stratum_cohomology(theta)
        closed = closed_stratum_cohomology(theta)
        degrees = computed.degrees()
        assert degrees == list(range(0, 2 * theta + 1))
        for degree in degrees:
            for a in range(2 * theta + 1):
                assert computed.eigenspace(degree, a) == closed.eigenspace(degree, a)
        for entry in computed.entries:
            assert entry.frobenius_exponent == entry.degree
            assert entry.constituents.is_multiplicity_free()
        for degree in degrees:
            assert computed.degree_constituents(degree) == computed.degree_constituents(
                2 * theta - degree
            )
    report(9, "spectral = closed formula with duality and exponents for theta<=8", budget.check())


def test_criterion_10_euler_and_alternating_sums():
    budget = Budget(120.0)
    for theta in range(0, 7):
        verification = verify_stratum(theta)
        names = {c.name.split(" ")[0]: c for c in verification.checks}
        assert names["euler-characteristic-additivity"].passed
        assert names["eigenvalue-alternating-sums"].passed
    report(10, "Euler additivity and eigenvalue-wise sums exact in q for theta<=6", budget.check())


def test_criterion_11_restriction_identity():
    budget = Budget(60.0)
    total = 0
    for k in range(1, 7):
        checks = [c for c in coxeter_checks(range(k, k + 1)) if c.name.startswith("coxeter-restriction ")]
        assert all(c.passed for c in checks), [c.line() for c in checks if not c.passed]
        total += len(checks)
    report(11, f"restriction identity with Tate twist holds in {total} cases (k<=6)", budget.check())


def test_criterion_12_core_quotient_bijection():
    budget = Budget(60.0)
    cases = 0
    for n in range(0, 13):
        for lam in partitions_of(n):
            cq = core_quotient(lam)
            assert from_core_quotient(cq.core_index, cq.quotient) == lam
            t = cq.core_index
            assert n == t * (t + 1) // 2 + 2 * cq.quotient.size
            cases += 1
    report(12, f"core/quotient bijection round-trips on all {cases} partitions of n<=12", budget.check())
