"""Independent brute-force oracles used by the test suite.

Most of what is here recomputes quantities from first principles (geometric
strip walking, tableau enumeration, permutation signs) without touching
the library's beta-set or recursion code paths, so agreement is meaningful.
The rest are slower library algorithms kept after a faster one replaced
them: the dense hook formula, domino peeling for 2-cores, the
horizontal-strip recursions without pruning, the per-part check of a
partition's parts, a multiset's dimension summed one polynomial at a time,
the scalar type-B Murnaghan-Nakayama recursion (`chi_typeb_by_recursion`)
that the per-class columns replaced, the per-cell index form
(`direct_index_form`) that the row steps of `index_form_row` replaced, and
the Euler sum over the first-page cells (`euler_sum_over_cells`) that
verify_stratum's sum by exponent replaced, and the stratum cell enumeration
that sorts its rows (`stratum_term_explicit_by_sort`), which the enumeration
straight in label order replaced.  `hc_index_dimension` is the
Harish-Chandra index [G:P] of a stratum term's parabolic, from dense
products.  `hc_induce_by_pieri_counter` repeats Harish-Chandra induction
as plain iterated Pieri steps counted in a Counter, and
`two_quotient_by_parity_split` reads the 2-quotient off its definition
without the library's beta-set code.  `label_sort_key` states the label
order as a recursive key, against which the library's plain descending
tuple order is checked.  `q_minus_one` is the GL factor q**j - 1 of the
dense degree and index products, and `compose` multiplies two signed
permutations for the conjugation-invariance test of `signed_cycle_type`.
Two identities come from outside the engine and tie whole tables together:
the Lefschetz point count at r = 1 (`lefschetz_number` against
`isotropic_subspace_count`) and the one-box restriction from one theta to
the next (`stratum_restriction_failures`).
"""

from collections import Counter
from functools import cache, reduce
from itertools import permutations

from unicoh import Bipartition, IntPolynomial, Partition, border_strips, pieri_induce
from unicoh.deligne_lusztig import CohomologyTable, _restrict_one_box, coxeter_hook, stratum_term_dimension
from unicoh.polynomial import linear_combination, prod, q_minus_sign, two_term_ratio
from unicoh.unipotent import SymbolLabel, _hooks_flat, a_exponent, symbol_degree


def q_minus_one(j: int) -> IntPolynomial:
    """q**j - 1, the factor attached to general linear groups."""
    return IntPolynomial.q_power(j) - IntPolynomial.one()


def compose(f: tuple[int, ...], g: tuple[int, ...]) -> tuple[int, ...]:
    """(f * g)(j) = f(g(j)) for signed permutations written as in
    `signed_permutations`: f[i] is the image of i + 1."""

    def apply(h: tuple[int, ...], j: int) -> int:
        return h[j - 1] if j > 0 else -h[-j - 1]

    return tuple(apply(f, apply(g, j)) for j in range(1, len(f) + 1))


def partition_parts_by_loop(parts) -> tuple[int, ...]:
    """The parts the Partition constructor keeps, checked one part at a time:
    trailing zeros trimmed, then every part positive and no part above the
    one before it; ValueError names the first part that breaks a rule."""
    parts = tuple(int(p) for p in parts)
    while parts and parts[-1] == 0:
        parts = parts[:-1]
    for i, p in enumerate(parts):
        if p <= 0:
            raise ValueError(f"parts must be positive, got {p} in {parts}")
        if i and parts[i - 1] < p:
            raise ValueError(f"parts must be weakly decreasing, got {parts}")
    return parts


def subpartitions_of_size(lam: Partition, size: int):
    """All partitions mu contained in lam with |mu| = size."""

    def gen(i, remaining, prev):
        if i == len(lam):
            if remaining == 0:
                yield ()
            return
        hi = min(lam[i], prev, remaining)
        for v in range(hi, -1, -1):
            for rest in gen(i + 1, remaining - v, v):
                yield (v,) + rest

    for raw in gen(0, size, size + 1):
        yield Partition(raw)


def skew_cells(lam: Partition, mu: Partition) -> frozenset:
    mu_padded = tuple(mu) + (0,) * (len(lam) - len(mu))
    return frozenset(
        (i, j) for i in range(len(lam)) for j in range(mu_padded[i], lam[i])
    )


def is_border_strip(cells: frozenset) -> bool:
    """Connected through edges and containing no 2x2 square."""
    if not cells:
        return False
    for (i, j) in cells:
        if {(i, j), (i + 1, j), (i, j + 1), (i + 1, j + 1)} <= cells:
            return False
    seen = set()
    stack = [next(iter(cells))]
    while stack:
        c = stack.pop()
        if c in seen:
            continue
        seen.add(c)
        i, j = c
        for nb in ((i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1)):
            if nb in cells and nb not in seen:
                stack.append(nb)
    return seen == set(cells)


def geometric_border_strips(lam: Partition, size: int):
    """All (result, height) pairs from walking the diagram directly."""
    out = []
    for mu in subpartitions_of_size(lam, lam.size - size):
        cells = skew_cells(lam, mu)
        if is_border_strip(cells):
            rows = {i for (i, j) in cells}
            out.append((mu, max(rows) - min(rows)))
    return sorted(out)


@cache
def syt_count(lam: Partition) -> int:
    """Number of standard Young tableaux, by exhaustive corner removal."""
    lam = Partition(lam)
    if not lam:
        return 1
    total = 0
    for i in range(len(lam)):
        if i + 1 < len(lam) and lam[i] == lam[i + 1]:
            continue
        total += syt_count(Partition(lam[:i] + (lam[i] - 1,) + lam[i + 1 :]))
    return total


def diagram_hooks(lam: Partition) -> list[int]:
    """Hook length of every box, arm + leg + 1, read off the diagram."""
    columns = [sum(1 for row in lam if row > j) for j in range(lam[0] if lam else 0)]
    return [lam[i] - j + columns[j] - i - 1 for i in range(len(lam)) for j in range(lam[i])]


def hook_formula_degree(lam: Partition, group: str) -> IntPolynomial:
    """Generic degree of U_n(q) (group "u") or GL_n(q) (group "gl") by the
    dense hook formula: expand numerator and denominator, one long division."""
    factor = q_minus_sign if group == "u" else q_minus_one
    a = sum(i * part for i, part in enumerate(lam))
    num = IntPolynomial.q_power(a) * prod(factor(j) for j in range(1, lam.size + 1))
    return num.exact_div(prod(factor(h) for h in diagram_hooks(lam)))


def dimension_by_reduce(multiset) -> IntPolynomial:
    """Sum of generic degrees over a RepMultiset by polynomial arithmetic:
    each degree scaled by its multiplicity, then added to a running total."""
    return reduce(
        lambda acc, item: acc + item[1] * symbol_degree(item[0]),
        multiset.counts.items(),
        IntPolynomial.zero(),
    )


def permutation_of_cycle_type(nu: Partition) -> tuple[int, ...]:
    """Some permutation of {0..n-1} with the given cycle type, as an image tuple."""
    image = []
    start = 0
    for length in nu:
        image.extend(list(range(start + 1, start + length)) + [start])
        start += length
    return tuple(image)


def permutation_sign(image: tuple[int, ...]) -> int:
    inversions = sum(
        1
        for i in range(len(image))
        for j in range(i + 1, len(image))
        if image[i] > image[j]
    )
    return -1 if inversions % 2 else 1


def sym_class_size_bruteforce(nu: Partition) -> int:
    """Count permutations of S_n with the given cycle type, one by one."""
    n = nu.size

    def cycle_type(image):
        seen = [False] * n
        lengths = []
        for s in range(n):
            if seen[s]:
                continue
            ln, j = 0, s
            while not seen[j]:
                seen[j] = True
                ln += 1
                j = image[j]
            lengths.append(ln)
        return tuple(sorted(lengths, reverse=True))

    target = tuple(nu)
    return sum(1 for image in permutations(range(n)) if cycle_type(image) == target)


def two_quotient_by_parity_split(lam: Partition) -> Bipartition:
    """2-quotient by its definition: the beta values lambda_i + r - i at
    r = len(lam) rows, split by parity and halved; each half read back as a
    partition; the halves ordered by the parity of r."""
    rows = len(lam)
    values = [part + rows - 1 - i for i, part in enumerate(lam)]
    runners = []
    for parity in (0, 1):
        halves = [v // 2 for v in values if v % 2 == parity]
        runners.append(Partition([h - (len(halves) - 1 - i) for i, h in enumerate(halves)]))
    even, odd = runners
    return Bipartition(even, odd) if rows % 2 else Bipartition(odd, even)


def domino_peeling_core(lam: Partition) -> Partition:
    """2-core by removing the first removable domino until none is left."""
    lam = Partition(lam)
    while True:
        strips = border_strips(lam, 2)
        if not strips:
            return lam
        lam = strips[0].result


def unpruned_add_strips(lam: Partition, boxes: int) -> list[Partition]:
    """Horizontal strips added to lam, by trying every value each row allows."""
    padded = tuple(lam) + (0,)
    out = []

    def build(i, remaining, upper, prefix):
        if i == len(padded):
            if remaining == 0:
                out.append(Partition(prefix))
            return
        low = padded[i]
        for val in range(min(upper, low + remaining), low - 1, -1):
            build(i + 1, remaining - (val - low), low, prefix + [val])

    build(0, boxes, (lam[0] if lam else 0) + boxes, [])
    return out


def unpruned_remove_strips(lam: Partition, boxes: int) -> list[Partition]:
    """Horizontal strips deleted from lam, by trying every value each row allows."""
    if boxes > lam.size:
        return []
    padded = tuple(lam) + (0,)
    out = []

    def build(i, remaining, prefix):
        if i == len(lam):
            if remaining == 0:
                out.append(Partition(prefix))
            return
        for val in range(padded[i], max(padded[i + 1], padded[i] - remaining) - 1, -1):
            build(i + 1, remaining - (padded[i] - val), prefix + [val])

    build(0, boxes, [])
    return out


def label_sort_key(label):
    """Documented total order: descending lexicographic on part sequences,
    first component major for bipartitions.  The terminator sentinel makes
    (1,1) precede (1), so (n) comes first and (1**n) last.
    """
    if isinstance(label, Bipartition):
        return (label_sort_key(label.first), label_sort_key(label.second))
    return tuple(-p for p in label) + (1,)


def pieri_by_nested_strips(start: Bipartition, boxes: int, strips) -> tuple[Bipartition, ...]:
    """Pieri constituents with the second component's strips enumerated
    afresh for every first component, sorted like the library's result."""
    results = [
        Bipartition(first, second)
        for d in range(boxes + 1)
        for first in strips(start.first, d)
        for second in strips(start.second, boxes - d)
    ]
    return tuple(sorted(results, key=label_sort_key))


def stratum_term_explicit_by_sort(theta: int, theta_prime: int, a: int) -> tuple[int, tuple]:
    """The direct enumeration of a stratum cell as (t, pairs), by rows of
    (alpha, betas) put in order by one sort.

    For exponent a = 2i (+1), the start label is a one-row alpha (i) and a
    one-column beta; splitting the added boxes as d to the alpha side gives
    alpha = (i + d - s, s) with 0 <= s <= min(d, i), and the column side
    either keeps its length (bottom box added) or loses one row.
    """
    i, odd = divmod(a, 2)
    column = theta_prime - i - odd
    rows = []
    for d in range(theta - theta_prime + 1):
        e = theta - theta_prime - d
        betas = [(e + 1,) + (1,) * (column - 1)] if column else [(e,) if e else ()]
        if column and e:
            betas.append((e,) + (1,) * column)
        rows.append(((i + d,) if i + d else (), betas))
        rows += [((i + d - s, s), betas) for s in range(1, min(d, i) + 1)]
    rows.sort(reverse=True)
    return 2 if odd else 1, tuple([(alpha, beta) for alpha, betas in rows for beta in betas])


def hc_induce_by_pieri_counter(unitary: SymbolLabel, gl_ranks: tuple[int, ...]) -> Counter:
    """Harish-Chandra induction of `unitary` through GL blocks of the given
    ranks: every block, rank zero too, is one `pieri_induce` of every
    bipartition so far, and the multiplicities add up in a Counter."""
    current = Counter({unitary.bipartition: 1})
    for a in gl_ranks:
        step: Counter = Counter()
        for bip, mult in current.items():
            for out in pieri_induce(bip, a):
                step[out] += mult
        current = step
    return Counter({SymbolLabel(unitary.t, *bip): mult for bip, mult in current.items()})


@cache
def chi_typeb_by_recursion(label: Bipartition, klass: Bipartition) -> int:
    """W_a character value by the scalar Murnaghan-Nakayama recursion: peel
    the last part x of gamma with epsilon = 1, or of theta with epsilon = -1
    once gamma is exhausted, one (label, class) pair at a time; a strip taken
    from beta picks up an extra factor epsilon."""
    (alpha, beta), (gamma, theta) = label, klass
    if alpha.size + beta.size != gamma.size + theta.size:
        raise ValueError(f"size mismatch between label {label} and class {klass}")
    if not gamma and not theta:
        return 1
    if gamma:
        eps, x = 1, gamma[-1]
        rest = Bipartition(Partition(gamma[:-1]), theta)
    else:
        eps, x = -1, theta[-1]
        rest = Bipartition(gamma, Partition(theta[:-1]))
    total = 0
    for strip in border_strips(alpha, x):
        total += (-1) ** strip.height * chi_typeb_by_recursion(Bipartition(strip.result, beta), rest)
    for strip in border_strips(beta, x):
        total += (-1) ** strip.height * eps * chi_typeb_by_recursion(Bipartition(alpha, strip.result), rest)
    return total


def hc_index_dimension(theta: int, theta_prime: int) -> IntPolynomial:
    """[G:P] = |G|_p' / |L|_p' for G = U_{2theta+1}(q) and the Levi
    L = U_{2theta'+1}(q) x GL_{theta-theta'}(q^2): expand both products
    densely, then one exact division."""

    def unitary_order(n):
        return prod(q_minus_sign(j) for j in range(1, n + 1))

    levi = unitary_order(2 * theta_prime + 1) * prod(
        q_minus_one(2 * j) for j in range(1, theta - theta_prime + 1)
    )
    return unitary_order(2 * theta + 1).exact_div(levi)


def direct_index_form(theta: int, theta_prime: int, a: int) -> IntPolynomial:
    """The index form [G:P] * deg(Coxeter hook) of one stratum cell, as one
    `two_term_ratio` over its own hook lengths and GL factors: no row, no
    step from the neighbouring exponent."""
    hook = coxeter_hook(theta_prime, a)
    gl_factors = [2 * j for j in range(1, theta - theta_prime + 1)]
    return two_term_ratio(
        range(1, 2 * theta + 2), _hooks_flat(hook) + gl_factors, -1, a_exponent(hook),
        f"index form of (theta={theta}, theta'={theta_prime}, a={a})",
    )


def euler_sum_over_cells(theta: int) -> IntPolynomial:
    """The Euler characteristic of the first page at theta: every cell's
    index form with the sign (-1)**(theta' + a // 2) of its degree
    theta' + a // 2, summed cell by cell."""
    return linear_combination(
        ((-1) ** (tp + a // 2), stratum_term_dimension(theta, tp, a))
        for a in range(2 * theta + 1)
        for tp in range((a + 1) // 2, theta + 1)
    )


def isotropic_subspace_count(theta: int) -> IntPolynomial:
    """prod_{i=1}^{theta} (q**(2i+1) + 1): the number of maximal totally
    isotropic subspaces of the Hermitian space F_{q^2}^{2theta+1} (Taylor,
    The Geometry of the Classical Groups, 1992).  They are the F_{q^2}-points
    of Y_theta = {U : dim U = theta + 1, U^perp in U}: a rational U has a
    rational totally isotropic U^perp of dimension theta, and U = (U^perp)^perp."""
    return prod(IntPolynomial.q_power(2 * i + 1) + 1 for i in range(1, theta + 1))


def lefschetz_number(table: CohomologyTable, eigenvalue_sign: int = -1) -> IntPolynomial:
    """The Lefschetz number at r = 1: the sum over eigenspaces of
    (-1)**degree * (eigenvalue_sign * q)**a * dim, with Frobenius acting on
    the exponent-a eigenspace by (eigenvalue_sign * q)**a.  The engine's
    convention is (-q)**a with a = degree, so the sum is
    sum_i q**i * dim H^i(q), which must equal `isotropic_subspace_count`."""
    return linear_combination(
        (
            (-1) ** e.degree * eigenvalue_sign**e.frobenius_exponent,
            IntPolynomial.q_power(e.frobenius_exponent) * e.constituents.dimension_poly(),
        )
        for e in table.entries
    )


def stratum_restriction_failures(upper: CohomologyTable, lower: CohomologyTable, shifts=(0, 2)) -> list[int]:
    """The degrees i at which restricting H^i(upper) by one box
    (`_restrict_one_box`, entry by entry) differs from the sum of
    H^(i - s)(lower) over the shifts s; a degree outside a table is empty.

    With upper = Y_theta, lower = Y_(theta-1) and the shifts (0, 2) this is
    observed, not proven: no reference here states it.  It reads like the
    cohomology of a P^1-bundle over Y_(theta-1), H*(P^1) = 1 + L giving the
    shifts 0 and 2.
    """
    failures = []
    for i in range(max(upper.degrees(), default=-1) + 1):
        restricted = Counter()
        for e in upper.at(i):
            restricted.update(_restrict_one_box(e.constituents).counts)
        expected = Counter()
        for s in shifts:
            expected.update(lower.degree_constituents(i - s))
        if restricted != expected:
            failures.append(i)
    return failures


def hard_lefschetz_failures(table: CohomologyTable, theta: int, reverse: bool = False) -> list[int]:
    """The degrees i < theta at which some constituent of H^i, counted with
    its multiplicity, is missing from H^(i+2); with `reverse`, some
    constituent of H^(i+2) missing from H^i.

    Y_theta is smooth and projective of dimension theta (Vollaard-Wedhorn),
    and cup product with an ample class commutes with the group, so by hard
    Lefschetz L: H^i -> H^(i+2) is an injective map of representations for
    i < theta (Deligne, Weil II): without `reverse` the list must be empty.
    """
    failures = []
    for i in range(theta):
        low, high = table.degree_constituents(i), table.degree_constituents(i + 2)
        if (high - low) if reverse else (low - high):
            failures.append(i)
    return failures
