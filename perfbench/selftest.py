#!/usr/bin/env python3
"""Show that the benchmark's correctness gate fails when a fault is injected.

    python3 perfbench/selftest.py

Makes two short runs of perfbench/run.py, each with a fault injected by
perfbench/child.py, never by editing the package:

- verify-cold, with the stratum term at (theta'=2, a=1) missing one
  constituent during one operation;
- stratum-deep, with one label of one result corrupted.

Each must report failed > 0, correct = false and a non-zero exit, and the
failed operations must not appear among the timed samples.  Exit status 0
when both faults are caught.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
CASES = (("verify-cold", "stratum-term"), ("stratum-deep", "label"))
SEED = 7


def main() -> int:
    caught_all = True
    for workload, fault in CASES:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(SEED),
             "--seconds", "1", "--inject", fault],
            capture_output=True, text=True, timeout=600,
        )
        lines = proc.stdout.strip().splitlines()
        if not lines:
            print(f"{workload}: no result (exit {proc.returncode}): {proc.stderr.strip()[-300:]}")
            return 1
        result = json.loads(lines[-1])
        record = json.loads((BENCH / "out" / f"{workload}-seed{SEED}-trace0.json").read_text())
        timed = len(record["op_s_samples"])
        ratio = result["failed"] / result["attempted"]
        caught = (result["failed"] > 0 and not result["correct"] and proc.returncode != 0
                  and timed == result["attempted"] - result["failed"])
        print(f"{workload} with the {fault} fault: attempted {result['attempted']}, "
              f"failed {result['failed']}, failed_ratio {ratio:.3f}, timed {timed} -> "
              f"{'caught' if caught else 'NOT CAUGHT'}")
        caught_all &= caught
    return 0 if caught_all else 1


if __name__ == "__main__":
    sys.exit(main())
