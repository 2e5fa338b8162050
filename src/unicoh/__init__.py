"""Exact combinatorics of unipotent representations of finite unitary groups,
and cohomology tables of closed Bruhat-Tits strata.

All arithmetic is exact: characters are arbitrary-precision integers and
dimensions are integer polynomials in q.
"""

from .errors import ExactDivisionError, RankCapError, VerificationError
from .partitions import (
    Bipartition,
    BorderStrip,
    CoreQuotient,
    Partition,
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
from .polynomial import IntPolynomial
from .weyl_characters import (
    CharacterTable,
    character_table_sym,
    character_table_typeb,
    chi_sym,
    chi_typeb,
    signed_class_sizes,
    sym_class_size,
    typeb_class_size,
)
from .unipotent import (
    HCSeries,
    SymbolLabel,
    cuspidal_partition,
    degree_gl,
    degree_u,
    from_symbol,
    hc_series,
    to_symbol,
)
from .harish_chandra import (
    RepMultiset,
    hc_induce,
    induction_multiplicity_oracle,
    pieri_induce,
    pieri_restrict,
)
from .deligne_lusztig import (
    CohomologyEntry,
    CohomologyTable,
    StratumVerification,
    closed_stratum_cohomology,
    coxeter_cohomology,
    coxeter_eigenspace_dim,
    coxeter_hook,
    eo_stratum_cohomology,
    stratum_cohomology,
    stratum_term,
    verify_stratum,
)

__version__ = "0.1.0"
