#!/usr/bin/env python3
"""Recompute closed-stratum cohomology tables over a range of theta.

For each theta, verify_stratum assembles the table through the spectral
bookkeeping and checks it against the closed formula, eigenspace by
eigenspace; the table it has proven equal is then exported with symbol
labels and exact dimension polynomials.  Example:

    python scripts/stratum_tables.py --max-theta 6 --out tables.json
"""

import argparse
import errno
import json
import os
import sys

from unicoh import closed_stratum_cohomology, verify_stratum
from unicoh.cli import guard_stdout


def unwritable_reason(path: str) -> str | None:
    """Why opening `path` for writing would fail, found without creating it,
    so a bad --out fails before any table is built."""
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.exists(parent):
        return os.strerror(errno.ENOENT)
    if not os.path.isdir(parent):
        return os.strerror(errno.ENOTDIR)
    if not os.access(parent, os.W_OK | os.X_OK):
        return os.strerror(errno.EACCES)
    if os.path.isdir(path):
        return os.strerror(errno.EISDIR)
    return None


def cannot_write(path: str, reason: str) -> int:
    print(f"error: cannot write {path}: {reason}", file=sys.stderr)
    return 2


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-theta", type=int, default=6)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    if args.max_theta < 0:
        parser.error("--max-theta must be nonnegative")
    reason = args.out and unwritable_reason(args.out)
    if reason:
        return cannot_write(args.out, reason)

    return guard_stdout(lambda: export(args.max_theta, args.out))


def export(max_theta: int, out: str | None) -> int:
    """Verify and print each theta up to max_theta, then write the tables to
    `out` if given."""
    documents = []
    for theta in range(max_theta + 1):
        report = verify_stratum(theta)
        if not report.ok:
            for check in report.checks:
                print(check.line(), file=sys.stderr)
            return 1
        table = closed_stratum_cohomology(theta)
        documents.append(table.to_json())
        dims = [str(entry.constituents.dimension_poly()) for entry in table.entries]
        print(f"theta={theta}: degrees 0..{2 * theta}, dims {dims}")

    if out:
        try:
            with open(out, "w") as fh:
                json.dump(documents, fh, indent=2)
        except OSError as exc:
            return cannot_write(out, exc.strerror or exc)
        print(f"wrote {len(documents)} tables to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
