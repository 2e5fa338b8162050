"""Reference loop that measures how fast the host runs Python at this moment.

On a shared host the speed of one CPU drifts by tens of percent over seconds
to minutes, and both wall and CPU time follow it.  Every timed sample is
therefore paired with runs of this fixed loop on the same CPU, one just
before and one just after the sample, and reported in calibrated seconds:
``raw * REF_NOMINAL_S / mean(reference before, reference after)``.  On a host
running at nominal speed the two agree.

The loop imports no unicoh code, and it runs with the cyclic garbage
collector off, so that its time does not depend on what the calling process
keeps alive (the verify-warm worker runs it next to the package's caches);
a change to the package cannot move it.
It mixes the kinds of work the package spends its time on: partitions as
tuples and their hook lengths, dense integer polynomial products, dict
updates keyed by tuples, sorting and big-integer arithmetic.
"""

from __future__ import annotations

import gc
import time

# About the median reference_s() between benchmark operations on a 2-vCPU Intel
# Xeon (2.0 GHz nominal) with CPython 3.11; the quartiles were 0.13 and 0.20 s.
REF_NOMINAL_S = 0.15


def _partitions(n: int, cap: int):
    if n == 0:
        yield ()
        return
    for k in range(min(n, cap), 0, -1):
        for rest in _partitions(n - k, k):
            yield (k,) + rest


def _combinatorics() -> None:
    for lam in _partitions(17, 17):
        conj = [sum(1 for p in lam if p > j) for j in range(lam[0])]
        sorted((lam[i] - j + conj[j] - i - 1 for i in range(len(lam)) for j in range(lam[i])),
               reverse=True)
    poly = [1]
    for j in range(1, 60):
        factor = [0] * j + [1]
        factor[0] = -1 if j % 2 == 0 else 1
        out = [0] * (len(poly) + len(factor) - 1)
        for i, a in enumerate(poly):
            if a:
                for k, b in enumerate(factor):
                    if b:
                        out[i + k] += a * b
        poly = out


def _containers() -> None:
    counts: dict = {}
    acc = 0
    for i in range(120000):
        key = (i & 255, i >> 13)
        counts[key] = counts.get(key, 0) + 1
        acc += (i * 1234567890123456789) >> 7
    sorted(counts.items(), reverse=True)
    for j in range(40000):
        tuple(x for x in range(j % 7))


def reference_s() -> float:
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        _combinatorics()
        _containers()
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


def calibrate(raw_s: float, reference: float) -> float:
    return raw_s * REF_NOMINAL_S / reference
