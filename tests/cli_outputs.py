"""The pinned outputs of the `unicoh` CLI, one row each.

A row is `<exit status> <sha256 of stdout> <argv...>`: `unicoh <argv...>`
must exit with that status and print exactly the bytes with that digest.
Blank lines and lines that start with `#` are not rows.  A malformed row,
or a second row for the same argv, is an error.

Run as a script, it runs every row of the given files in a fresh
`python -O -m unicoh.cli` with `PYTHONPATH=src`, prints the argv of each
mismatch and exits 1 if any row fails:

    python tests/cli_outputs.py tests/golden/cli_outputs.txt tests/golden/cli_outputs_deep.txt
"""

import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

SRC = Path(__file__).resolve().parents[1] / "src"
GOLDEN = Path(__file__).resolve().parent / "golden"
ROW = re.compile(r"(\d+) ([0-9a-f]{64})((?: \S+)+)")


class Row(NamedTuple):
    status: int
    digest: str
    argv: tuple[str, ...]


def rows(path: Path | str) -> list[Row]:
    """The rows of one file, in file order."""
    found: dict[tuple[str, ...], Row] = {}
    for number, line in enumerate(Path(path).read_text().splitlines(), 1):
        if not line or line.startswith("#"):
            continue
        match = ROW.fullmatch(line)
        if match is None:
            raise ValueError(f"{path}:{number}: not a row: {line!r}")
        row = Row(int(match[1]), match[2], tuple(match[3].split()))
        if row.argv in found:
            raise ValueError(f"{path}:{number}: second row for {' '.join(row.argv)}")
        found[row.argv] = row
    return list(found.values())


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main(paths: list[str]) -> int:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    every = [row for path in paths for row in rows(path)]
    failed = 0
    for row in every:
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "unicoh.cli", *row.argv], capture_output=True, env=env
        )
        if (proc.returncode, sha256(proc.stdout)) != (row.status, row.digest):
            failed += 1
            print(f"MISMATCH {' '.join(row.argv)}: exit {proc.returncode}, sha256 {sha256(proc.stdout)}")
    print(f"{len(every) - failed}/{len(every)} rows match")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
