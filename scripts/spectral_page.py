#!/usr/bin/env python3
"""Print the triangular first page of the stratification spectral sequence.

Each column is one Ekedahl-Oort stratum; a cell lists the constituents per
Frobenius exponent, so the pairwise cancellations down each eigenvalue row
can be read off directly.  Example:

    python scripts/spectral_page.py --theta 3 --dims
"""

import argparse
import sys

from unicoh import eo_stratum_cohomology, from_symbol
from unicoh.cli import guard_stdout


def print_page(theta: int, columns, dims: bool) -> int:
    print(f"first page, theta = {theta} (columns = strata, rows = total degree)")
    for degree in range(2 * theta, -1, -1):
        chunks = []
        for column, table in enumerate(columns):
            parts = []
            for entry in table.at(degree):
                labels = " + ".join(str(list(from_symbol(l))) for l in entry.constituents)
                piece = f"(-q)^{entry.frobenius_exponent}: {labels}"
                if dims:
                    piece += f" [dim {entry.constituents.dimension_poly()}]"
                parts.append(piece)
            if parts:
                chunks.append(f"col {column} | " + " ; ".join(parts))
        print(f"  degree {degree}:")
        for chunk in chunks:
            print(f"    {chunk}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--theta", type=int, default=2)
    parser.add_argument("--dims", action="store_true", help="also print dimension polynomials")
    args = parser.parse_args()
    theta = args.theta
    if theta < 0:
        parser.error("--theta must be nonnegative")

    # every column is built before the first line, so a faulty stratum term raises here
    columns = [eo_stratum_cohomology(theta, tp) for tp in range(theta + 1)]
    return guard_stdout(lambda: print_page(theta, columns, args.dims))


if __name__ == "__main__":
    sys.exit(main())
