"""Cohomology tables of Coxeter varieties and closed Bruhat-Tits strata.

The closed stratum of type 2*theta + 1 carries an action of U_{2theta+1}(q);
its cohomology is assembled from the Ekedahl-Oort stratification, whose
pieces induce Coxeter-variety cohomology from Levi subgroups.  Frobenius
acts on an eigenspace by (-q)**a; everywhere only the exponent a is stored,
so the whole computation stays symbolic in q.  (The geometric statements
hold for q equal to the base prime; the combinatorics is uniform in q.)
One unit of Tate twist shifts the exponent by 2.

Every table keeps multisets of irreducible unipotent labels; the spectral
sequence is not modelled as maps but as exact multiset bookkeeping along
each Frobenius eigenvalue, with guards that fail loudly if the cancellation
pattern is not the expected one.
"""

from __future__ import annotations

from collections import Counter
from functools import cache, partial
from itertools import starmap
from typing import NamedTuple

from .errors import VerificationError
from . import harish_chandra as hc
from .harish_chandra import RepMultiset
from .partitions import Partition
from .polynomial import IntPolynomial, linear_combination, prod, q_minus_sign, two_term_ratio, two_term_steps
from .unipotent import SymbolLabel, _hooks_flat, a_exponent, from_symbol, symbol, symbol_degree, to_symbol


# -- tables ----------------------------------------------------------------


class CohomologyEntry(NamedTuple):
    """One Frobenius eigenspace: cohomological degree, exponent a of (-q)**a,
    and the multiset of irreducible constituents."""

    degree: int
    frobenius_exponent: int
    constituents: RepMultiset


class CohomologyTable(NamedTuple):
    """A variety name and its Frobenius eigenspaces, one entry each.

    The lookups scan `entries`, in which the engine never repeats a
    (degree, exponent) pair; `eigenspace` answers with the first match.
    """

    variety: str
    entries: tuple[CohomologyEntry, ...]

    def degrees(self) -> list[int]:
        return sorted({e.degree for e in self.entries})

    def at(self, degree: int) -> tuple[CohomologyEntry, ...]:
        return tuple(e for e in self.entries if e.degree == degree)

    def eigenspace(self, degree: int, exponent: int) -> RepMultiset:
        for e in self.entries:
            if e.degree == degree and e.frobenius_exponent == exponent:
                return e.constituents
        return RepMultiset()

    def degree_constituents(self, degree: int) -> Counter[SymbolLabel]:
        """All constituents in one degree, across eigenvalues (so possibly
        across cuspidal supports), as a plain multiplicity map."""
        out: Counter[SymbolLabel] = Counter()
        for e in self.at(degree):
            out.update(e.constituents.counts)
        return out

    def to_json(self) -> dict:
        return {
            "variety": self.variety,
            "entries": [
                {
                    "degree": e.degree,
                    "frobenius_exponent": e.frobenius_exponent,
                    "constituents": [
                        {
                            "partition": list(from_symbol(label)),
                            "symbol": label.to_json(),
                            "degree_poly": symbol_degree(label).to_json(),
                            "multiplicity": e.constituents.multiplicity(label),
                        }
                        for label in e.constituents.sorted_labels()
                    ],
                }
                for e in self.entries
            ],
        }


# -- Coxeter varieties ------------------------------------------------------


def _check_exponent(k: int, a: int) -> None:
    if k < 0:
        raise ValueError("k must be nonnegative")
    if not 0 <= a <= 2 * k:
        raise ValueError(f"exponent {a} out of range 0..{2 * k}")


@cache
def coxeter_hook(k: int, a: int) -> Partition:
    """Hook partition (1 + a, 1**(2k - a)) of 2k + 1 attached to eigenvalue exponent a.

    Memoised on the two integers, so each stratum cell and index-form row
    reads one built and checked Partition.  It reads no label, like
    `index_form_row`.  `k` and `a` must already be `int`s, as for `symbol`:
    the memo keys 1.0 and 1 as one entry.  The memo stores no exception, so
    an out-of-range `a` raises on every call.
    """
    _check_exponent(k, a)
    return Partition((1 + a,) + (1,) * (2 * k - a))


def coxeter_cohomology(k: int) -> CohomologyTable:
    """Cohomology of the Coxeter variety for U_{2k+1}(q).

    The top Ekedahl-Oort stratum theta' = theta = k, whose Levi is the whole group:
    the entries of `eo_stratum_cohomology(k, k)`, each label checked by `stratum_term`.
    Supported in degrees k..2k; degree k+i carries the labels of exponents
    2i and 2i+1, the top degree 2k the trivial label with exponent 2k.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    return CohomologyTable(f"coxeter(k={k})", eo_stratum_cohomology(k, k).entries)


def coxeter_eigenspace_dim(k: int, a: int) -> IntPolynomial:
    """Dimension of the (-q)**a eigenspace of the Coxeter variety cohomology,
    as the exact polynomial q**((2k-a)(2k+1-a)/2) * prod_{j=1}^{2k-a}
    (q**(a+j) - (-1)**(a+j)) / (q**j - (-1)**j).

    Dense products and one long division on purpose: this is the side of
    the coxeter-eigenspace-dimension check that shares no code with the
    generic degrees it is compared against."""
    _check_exponent(k, a)
    m = 2 * k - a
    num = IntPolynomial.q_power(m * (m + 1) // 2) * prod(q_minus_sign(a + j) for j in range(1, m + 1))
    den = prod(q_minus_sign(j) for j in range(1, m + 1))
    return num.exact_div(den)


# -- Ekedahl-Oort pieces -----------------------------------------------------


def _check_stratum_args(theta: int, theta_prime: int) -> None:
    if theta < 0:
        raise ValueError("theta must be nonnegative")
    if not 0 <= theta_prime <= theta:
        raise ValueError(f"theta_prime {theta_prime} out of range 0..{theta}")


def _stratum_term_pieri(theta: int, theta_prime: int, a: int) -> tuple[int, tuple]:
    """Induce the exponent-a Coxeter label of U_{2theta_prime+1} tensored with the
    trivial GL_{theta-theta_prime}(q^2) label up to U_{2theta+1}(q), as its t
    and the `pieri_induce` output: plain (alpha, beta) tuples of Partitions."""
    start = to_symbol(coxeter_hook(theta_prime, a))
    return start.t, hc.pieri_induce(start.bipartition, theta - theta_prime)


def _stratum_term_explicit(theta: int, theta_prime: int, a: int) -> tuple[int, tuple]:
    """Direct enumeration of the same (t, pairs), independent of the Pieri code.

    For a = 2i (+1) the start label is alpha = (i), beta = (1**c).  Of the n added
    boxes, alpha = (f, s) with i <= f, s <= min(i, f, n + i - f) takes f + s - i and
    beta the other e: (e + 1, 1**(c - 1)), then (e, 1**c) if e > 0; (e) if c = 0.
    As f and s descend, the pairs come in descending tuple order with no sort."""
    i, odd = divmod(a, 2)
    n, column = theta - theta_prime, theta_prime - i - odd
    tail, ones = (1,) * (column - 1), (1,) * column
    pairs = []
    for f in range(i + n, i - 1, -1):
        for s in range(min(i, f, n + i - f), -1, -1):
            e = n + i - f - s
            alpha = (f, s) if s else (f,) if f else ()
            if column:
                pairs.append((alpha, (e + 1,) + tail))
            if e or not column:
                pairs.append((alpha, (e,) + ones if e else ()))
    return 2 if odd else 1, tuple(pairs)


def stratum_term(theta: int, theta_prime: int, a: int) -> RepMultiset:
    """Eigenvalue-exponent-a summand contributed by the Ekedahl-Oort stratum
    of type 2*theta_prime + 1 inside the closed stratum of type 2*theta + 1.

    Computed twice as (t, pairs), by Pieri induction and direct enumeration,
    each pair a plain (alpha, beta) tuple, compared as tuples (hashing
    nothing, and checking the order of `pieri_induce`), then labelled once.
    A mismatch, or a repeated constituent, raises VerificationError.
    """
    _check_stratum_args(theta, theta_prime)
    _check_exponent(theta_prime, a)
    via_pieri = _stratum_term_pieri(theta, theta_prime, a)
    explicit = _stratum_term_explicit(theta, theta_prime, a)
    if via_pieri != explicit:
        pieri, enum = [{(t, tuple(x), tuple(y)) for x, y in pairs} for t, pairs in (via_pieri, explicit)]
        raise VerificationError(
            f"stratum term mismatch at (theta={theta}, theta'={theta_prime}, a={a}): "
            f"pieri only {sorted(pieri - enum)}, explicit only {sorted(enum - pieri)}"
        )
    t, pairs = via_pieri
    term = RepMultiset(list(starmap(partial(symbol, t), pairs)))
    if not term.is_multiplicity_free():
        raise VerificationError(
            f"stratum term not multiplicity-free at (theta={theta}, theta'={theta_prime}, a={a})"
        )
    return term


@cache
def index_form_row(theta: int, theta_prime: int) -> tuple[IntPolynomial, ...]:
    """The Harish-Chandra index forms of stratum row (theta, theta'), by a = 0..2theta'.

    The cell (theta, theta', a) is R_L^G(rho) for G = U_{2theta+1}(q), the
    Levi L = U_{2theta'+1}(q) x GL_{theta-theta'}(q^2) and rho the Coxeter
    hook label tensored with the trivial one, so its dimension is
    [G:P] * deg(rho) (Carter, Finite Groups of Lie Type, 1985):
    q**a(hook) * prod_{j<=2theta+1} (q**j - (-1)**j) over the hook factors
    of coxeter_hook(theta', a) and the GL factors q**(2j) - 1, j <= theta - theta'.

    The a = 0 entry is that one `two_term_ratio`.  The hook of a has the
    hook lengths {2theta'+1} u {1..a} u {1..m} with m = 2theta' - a, and
    a(hook) = m(m+1)/2, so a -> a+1 multiplies the ratio without its q-power
    by q**m - (-1)**m and divides it by q**(a+1) - (-1)**(a+1): one
    `two_term_steps` per cell, which raises if a division is not exact.

    Memoised on the two integers: it reads no first-page label, so it
    cannot hold a value computed from a faulty label.
    """
    _check_stratum_args(theta, theta_prime)
    top = 2 * theta_prime
    hook = coxeter_hook(theta_prime, 0)
    gl_factors = [2 * j for j in range(1, theta - theta_prime + 1)]
    shift = a_exponent(hook)
    first = two_term_ratio(
        range(1, 2 * theta + 2), _hooks_flat(hook) + gl_factors, -1, shift,
        f"index form of (theta={theta}, theta'={theta_prime}, a=0)",
    )
    row = [first]
    coeffs = list(first.coeffs[shift:])
    for a in range(1, top + 1):
        m = top - a
        coeffs = two_term_steps(
            coeffs, (m + 1,), (a,), -1, f"index form of (theta={theta}, theta'={theta_prime}, a={a})"
        )
        row.append(IntPolynomial([0] * (m * (m + 1) // 2) + coeffs))
    return tuple(row)


def stratum_term_dimension(theta: int, theta_prime: int, a: int) -> IntPolynomial:
    """Dimension of stratum_term(theta, theta_prime, a) as a Harish-Chandra
    index form, read from `index_form_row(theta, theta_prime)` once the
    arguments are checked."""
    _check_stratum_args(theta, theta_prime)
    _check_exponent(theta_prime, a)
    return index_form_row(theta, theta_prime)[a]


def eo_stratum_cohomology(theta: int, theta_prime: int) -> CohomologyTable:
    """Cohomology of one Ekedahl-Oort stratum, supported in degrees
    theta_prime..2*theta_prime with two eigenspaces per degree below the top."""
    _check_stratum_args(theta, theta_prime)
    entries = tuple(
        CohomologyEntry(theta_prime + a // 2, a, stratum_term(theta, theta_prime, a))
        for a in range(2 * theta_prime + 1)
    )
    return CohomologyTable(f"eo-stratum(theta={theta}, theta'={theta_prime})", entries)


# -- the closed stratum ------------------------------------------------------


def _chain_strata(theta: int, a: int) -> range:
    """The strata theta' <= theta whose first-page terms carry eigenvalue
    exponent a, in increasing order: those with a <= 2 * theta'."""
    return range((a + 1) // 2, theta + 1)


def _eigen_chain(theta: int, a: int) -> list[RepMultiset]:
    """The first-page terms carrying eigenvalue exponent a, by increasing
    stratum index theta'; the term of stratum theta' sits in degree
    theta' + a // 2."""
    return [stratum_term(theta, tp, a) for tp in _chain_strata(theta, a)]


def _chain_head(theta: int, a: int, chain: list[RepMultiset]) -> RepMultiset:
    """Surviving part of the leading chain term.

    The head is the leading term minus its overlap with the next one; after
    that, leftovers must cancel pairwise down the chain and nothing may
    remain at the end, otherwise the bookkeeping is inconsistent.

    Every term must be multiplicity-free, as `stratum_term` guarantees, so
    the chain is held as sets of labels, whose C-level steps reuse the
    stored hashes.  A one-term chain returns its term; a longer one builds
    its head as one RepMultiset at the end.
    """
    for column, term in zip(_chain_strata(theta, a), chain):
        if not term.is_multiplicity_free():
            raise VerificationError(
                f"chain term not multiplicity-free for exponent {a} at theta={theta} "
                f"in column {column}: {term!r}"
            )
    if len(chain) == 1:
        return chain[0]
    first = set(chain[0].counts)
    carry = set(chain[1].counts)
    head = first - carry
    carry -= first
    for j in range(2, len(chain)):
        term = set(chain[j].counts)
        if not carry <= term:
            raise VerificationError(
                f"exactness failure for exponent {a} at theta={theta}: "
                f"{RepMultiset(dict.fromkeys(carry - term, 1))!r} has nowhere to cancel "
                f"in column {_chain_strata(theta, a)[j]}"
            )
        term -= carry
        carry = term
    if carry:
        raise VerificationError(
            f"exactness failure for exponent {a} at theta={theta}: "
            f"uncancelled tail {RepMultiset(dict.fromkeys(carry, 1))!r}"
        )
    return RepMultiset(dict.fromkeys(head, 1))


def stratum_cohomology(theta: int) -> CohomologyTable:
    """Cohomology of the closed stratum, assembled from the first page.

    For each exponent a the surviving constituents are those of the leading
    chain term not shared with its successor; they sit in degree a, so
    Frobenius acts by (-q)**degree throughout.  Each exponent chain is built
    when its turn comes and dropped before the next, so the whole page is
    never held at once.
    """
    if theta < 0:
        raise ValueError("theta must be nonnegative")
    entries = tuple(
        CohomologyEntry(a, a, _chain_head(theta, a, _eigen_chain(theta, a))) for a in range(2 * theta + 1)
    )
    return CohomologyTable(variety=f"closed-stratum(theta={theta})", entries=entries)


def closed_stratum_cohomology(theta: int) -> CohomologyTable:
    """The closed formula for the same table, independent of the spectral engine.

    Degree 2i + j (j = 0 or 1) carries the two-row labels
    (2*theta+1-j-2s, 2s+j) for 0 <= s <= min(i, theta-j-i): degree 2i the
    labels (2*theta+1-2s, 2s) for s <= min(i, theta-i), degree 2i+1 the
    labels (2*theta-2s, 2s+1) for s <= min(i, theta-1-i).
    """
    if theta < 0:
        raise ValueError("theta must be nonnegative")
    entries = []
    for degree in range(2 * theta + 1):
        i, j = divmod(degree, 2)
        labels = [
            to_symbol(Partition((2 * theta + 1 - j - 2 * s, 2 * s + j)))
            for s in range(min(i, theta - j - i) + 1)
        ]
        entries.append(
            CohomologyEntry(degree=degree, frobenius_exponent=degree, constituents=RepMultiset(labels))
        )
    return CohomologyTable(variety=f"closed-stratum(theta={theta})", entries=tuple(entries))


# -- verification -------------------------------------------------------------


class CheckResult(NamedTuple):
    name: str
    passed: bool
    details: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        suffix = f": {self.details}" if (self.details and not self.passed) else ""
        return f"{status} {self.name}{suffix}"

    def to_json(self) -> dict:
        return {"name": self.name, "passed": self.passed, "details": self.details}


class StratumVerification(NamedTuple):
    theta: int
    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {"theta": self.theta, "ok": self.ok, "checks": [c.to_json() for c in self.checks]}


def verify_stratum(theta: int) -> StratumVerification:
    """Run the five closed-stratum consistency checks at one theta.

    (1) spectral assembly equals the closed formula, (2) duality symmetry of
    constituents between degrees i and 2*theta - i, (3) Frobenius exponent
    equals the degree, (4) Euler characteristics add up over the strata,
    (5) per-exponent alternating dimension sums telescope to the answer.
    All dimension identities are exact polynomial identities in q.  Each call
    builds the table once, by `stratum_cohomology` (one `stratum_term` call
    per cell, one eigenvalue chain held at a time).

    One dimension pass feeds (4) and (5).  It sums the generic degrees of
    each table entry once, and for each exponent a it takes once the
    alternating sum alt(a) of the cells' Harish-Chandra index forms along
    the chain (`stratum_term_dimension`, which reads no first-page label).
    (5) compares alt(a) with the (a, a) entry.  (4) compares the entries'
    signed total with the sum of (-1)**a * alt(a), which is the sum over
    cells with sign (-1)**(theta' + a // 2), regrouped.  So neither (3) nor
    (4) can fail on its own: (3) restates how `stratum_cohomology` builds
    the table, and (4) is the signed total of (5).  The report still lists
    five checks.

    Stratum terms, chains and tables are not kept between calls.  Any
    exception while building the table or the closed formula fails all five
    checks with its message as details; one raised in the dimension pass
    fails (4) and (5); one raised inside a check fails only that check.
    """
    if theta < 0:
        raise ValueError("theta must be nonnegative")
    checks: list[CheckResult] = []
    prefix = f"(theta={theta})"
    build_failure: list[str] = []
    try:
        closed = closed_stratum_cohomology(theta)
        table = stratum_cohomology(theta)
    except Exception as exc:
        build_failure = [str(exc)]

    dimension_failure = build_failure
    if not build_failure:
        try:
            entry_dims = [e.constituents.dimension_poly() for e in table.entries]
            alts = [
                linear_combination(
                    ((-1) ** j, stratum_term_dimension(theta, tp, a))
                    for j, tp in enumerate(_chain_strata(theta, a))
                )
                for a in range(2 * theta + 1)
            ]
        except Exception as exc:
            dimension_failure = [str(exc)]

    def run(name, failure, body):
        try:
            failures = failure or body()
        except Exception as exc:
            failures = [str(exc)]
        checks.append(CheckResult(f"{name} {prefix}", not failures, "; ".join(failures)))

    def equality_check():
        keys = {(e.degree, e.frobenius_exponent) for t in (table, closed) for e in t.entries}
        return [
            f"H^{degree} exponent {a}: {table.eigenspace(degree, a)!r} != "
            f"{closed.eigenspace(degree, a)!r}"
            for degree, a in sorted(keys)
            if table.eigenspace(degree, a) != closed.eigenspace(degree, a)
        ]

    def duality_check():
        by_degree = [table.degree_constituents(d) for d in range(2 * theta + 1)]
        return [f"H^{d}" for d, reps in enumerate(by_degree) if reps != by_degree[2 * theta - d]]

    def exponent_check():
        return [
            f"degree {e.degree} carries exponent {e.frobenius_exponent}"
            for e in table.entries
            if e.frobenius_exponent != e.degree
        ]

    def euler_check():
        lhs = linear_combination(((-1) ** (e.degree % 2), dim) for e, dim in zip(table.entries, entry_dims))
        rhs = linear_combination(((-1) ** a, alt) for a, alt in enumerate(alts))
        if lhs != rhs:
            return [f"stratum {lhs} != sum over pieces {rhs}"]
        return []

    def alternating_sum_check():
        heads: dict[tuple[int, int], IntPolynomial] = {}
        for e, dim in zip(table.entries, entry_dims):
            heads.setdefault((e.degree, e.frobenius_exponent), dim)
        failures = []
        for a, alt in enumerate(alts):
            target = heads.get((a, a), IntPolynomial.zero())
            if alt != target:
                failures.append(f"exponent {a}: {alt} != {target}")
        return failures

    run("stratum-equals-closed-formula", build_failure, equality_check)
    run("poincare-duality-symmetry", build_failure, duality_check)
    run("frobenius-exponent-equals-degree", build_failure, exponent_check)
    run("euler-characteristic-additivity", dimension_failure, euler_check)
    run("eigenvalue-alternating-sums", dimension_failure, alternating_sum_check)

    return StratumVerification(theta=theta, checks=tuple(checks))


def _restrict_one_box(reps: RepMultiset) -> RepMultiset:
    """Harish-Chandra restriction by one box: each label goes through
    `pieri_restrict(label.bipartition, 1)` keeping its t, with multiplicity;
    a cuspidal label (empty bipartition) restricts to zero."""
    restricted: Counter[SymbolLabel] = Counter()
    for label, mult in reps.counts.items():
        if label.bipartition.size == 0:
            continue
        for bip in hc.pieri_restrict(label.bipartition, 1):
            restricted[symbol(label.t, *bip)] += mult
    return RepMultiset(restricted)


def coxeter_checks(ks: range) -> list[CheckResult]:
    """The Coxeter-table checks of each rank k in `ks`, in order.

    Rank k first gives one eigenspace-dimension check per entry: the closed
    formula `coxeter_eigenspace_dim` must equal the entry's dimension_poly().
    For k >= 1 it then gives the label-level restriction identity between
    ranks k and k - 1: removing one box from an eigenspace label of the
    rank-k table must reproduce the same-exponent eigenspace one rank down
    plus the Tate twist (exponent shift by 2) of the eigenspace two
    exponents down.

    Each table is built once and handed to the next rank as its lower
    table; the table below ks[0] is built only when ks[0] >= 1.  An empty
    range, or one whose step is not 1, raises ValueError, and so does a
    negative rank (through `coxeter_cohomology`): an empty check list
    would pass.
    """
    if not ks or ks.step != 1:
        raise ValueError(f"needs a nonempty range of consecutive ranks, not {ks!r}")
    lower = coxeter_cohomology(ks[0] - 1) if ks[0] >= 1 else None
    checks = []
    for k in ks:
        upper = coxeter_cohomology(k)
        for entry in upper.entries:
            a = entry.frobenius_exponent
            closed_form = coxeter_eigenspace_dim(k, a)
            hook_form = entry.constituents.dimension_poly()
            checks.append(
                CheckResult(
                    f"coxeter-eigenspace-dimension (k={k}, exponent={a})",
                    closed_form == hook_form,
                    f"{closed_form} != {hook_form}" if closed_form != hook_form else "",
                )
            )
        if k >= 1:
            for entry in upper.entries:
                a = entry.frobenius_exponent
                i = entry.degree - k
                lhs = _restrict_one_box(entry.constituents)
                rhs = lower.eigenspace(k - 1 + i, a).union(lower.eigenspace(k - 2 + i, a - 2))
                checks.append(
                    CheckResult(
                        f"coxeter-restriction (k={k}, degree={entry.degree}, exponent={a})",
                        lhs == rhs,
                        f"{lhs!r} != {rhs!r}" if lhs != rhs else "",
                    )
                )
        lower = upper
    return checks
