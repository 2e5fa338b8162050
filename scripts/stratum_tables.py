#!/usr/bin/env python3
"""Recompute closed-stratum cohomology tables over a range of theta.

For each theta, verify_stratum assembles the table through the spectral
bookkeeping and checks it against the closed formula, eigenspace by
eigenspace; the table it has proven equal is then exported with symbol
labels and exact dimension polynomials.  Example:

    python scripts/stratum_tables.py --max-theta 6 --out tables.json
"""

import argparse
import json
import sys

from unicoh import closed_stratum_cohomology, verify_stratum


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-theta", type=int, default=6)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    if args.max_theta < 0:
        parser.error("--max-theta must be nonnegative")

    documents = []
    for theta in range(args.max_theta + 1):
        report = verify_stratum(theta)
        if not report.ok:
            for check in report.checks:
                print(check.line(), file=sys.stderr)
            return 1
        table = closed_stratum_cohomology(theta)
        documents.append(table.to_json())
        dims = [str(entry.constituents.dimension_poly()) for entry in table.entries]
        print(f"theta={theta}: degrees 0..{2 * theta}, dims {dims}")

    if args.out:
        try:
            with open(args.out, "w") as fh:
                json.dump(documents, fh, indent=2)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc.strerror or exc}", file=sys.stderr)
            return 2
        print(f"wrote {len(documents)} tables to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
