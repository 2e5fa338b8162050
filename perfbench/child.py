"""One benchmark process: a cold operation in a fresh interpreter, or a warm worker.

perfbench/run.py starts this script with ``PYTHONPATH`` pointing at the
checkout's ``src/``.  The modes are:

  cli -- ARGV...          run the ``unicoh`` CLI in-process on ARGV
  stratum                 time ``stratum_cohomology(STRATUM_THETA)``, then check it
  warm --seconds S        run ``verify_stratum(VERIFY_THETA)`` once, then time it
                          repeatedly for S seconds and at least WARM_MIN_OPS times

Cold modes first check that every ``functools.cache`` table in the package is
empty.  The last line of stderr is a JSON envelope prefixed with
``PERFBENCH``; in ``cli`` mode stdout carries the CLI's own output.
Faults (``--perturb-term``, ``--corrupt-entry``) are injected from here,
never by editing the package, so that the benchmark's gate can be shown to fail.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time

import calib
from unicoh import deligne_lusztig, unipotent, weyl_characters
from unicoh.deligne_lusztig import CohomologyEntry, CohomologyTable
from unicoh.harish_chandra import RepMultiset
from unicoh.unipotent import SymbolLabel

READY = time.monotonic()

CACHES = {
    "degree_u": unipotent.degree_u,
    "degree_gl": unipotent.degree_gl,
    "chi_sym": weyl_characters.chi_sym,
    "chi_typeb": weyl_characters.chi_typeb,
}
ENVELOPE = "PERFBENCH "

VERIFY_THETA = 10     # as in verify-cold's CLI arguments in run.py
STRATUM_THETA = 22
WARM_MIN_OPS = 2      # so that a traced worker always has untraced and traced operations
PERTURBED_TERM = (2, 1)  # (theta', a) of the stratum term --perturb-term breaks


def cache_sizes() -> dict[str, int]:
    return {name: fn.cache_info().currsize for name, fn in CACHES.items()}


def maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def emit(envelope: dict) -> None:
    sys.stdout.flush()
    print(ENVELOPE + json.dumps(envelope), file=sys.stderr, flush=True)


def sha256_json(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def table_digest(table: CohomologyTable) -> str:
    """Digest of each entry's degree, exponent and sorted labels."""
    return sha256_json([
        [e.degree, e.frobenius_exponent,
         [[l.t, list(l.alpha), list(l.beta), m] for l, m in sorted(e.constituents.counts.items())]]
        for e in table.entries
    ])


def perturb_stratum_term() -> None:
    """Drop one constituent from the stratum term at PERTURBED_TERM."""
    original = deligne_lusztig.stratum_term

    def broken(theta, tp, exponent):
        term = original(theta, tp, exponent)
        if (tp, exponent) == PERTURBED_TERM:
            counts = dict(term.counts)
            first = term.sorted_labels()[0]
            counts[first] -= 1
            if not counts[first]:
                del counts[first]
            return RepMultiset(counts)
        return term

    deligne_lusztig.stratum_term = broken


def corrupt_label(table: CohomologyTable, start: int) -> CohomologyTable:
    """Swap alpha and beta of one label, in the first entry at or after index
    ``start`` (modulo the number of entries) that has a label with alpha != beta."""
    entries = list(table.entries)
    for k in range(len(entries)):
        i = (start + k) % len(entries)
        counts = dict(entries[i].constituents.counts)
        for label in sorted(counts):
            if label.alpha != label.beta:
                swapped = SymbolLabel(label.t, label.beta, label.alpha)
                mult = counts.pop(label)
                counts[swapped] = counts.get(swapped, 0) + mult
                e = entries[i]
                entries[i] = CohomologyEntry(e.degree, e.frobenius_exponent, RepMultiset(counts))
                return CohomologyTable(table.variety, tuple(entries))
    raise RuntimeError("no label to corrupt")


def make_tracer(path: str | None):
    if path is None:
        return None
    from tracer import Tracer

    return Tracer()


def finish_trace(tracer, path: str | None) -> float:
    """Write spans; return the seconds the write took."""
    if tracer is None:
        return 0.0
    started = time.perf_counter()
    tracer.write(path)
    return time.perf_counter() - started


def caches_empty() -> bool:
    """Cold-state guard: report and refuse to run if any cache holds entries."""
    sizes = cache_sizes()
    if any(sizes.values()):
        emit({"ready": READY, "cache_ok": False, "caches_before": sizes})
    return not any(sizes.values())


def run_cli(args) -> int:
    if not caches_empty():
        return 3
    import unicoh.cli

    if args.perturb_term:
        perturb_stratum_term()
    tracer = make_tracer(args.trace)
    if tracer:
        tracer.install()
        tracer.begin_op()
    status = unicoh.cli.main(args.argv)
    sys.stdout.flush()
    if tracer:
        tracer.end_op()
        tracer.uninstall()
    write_s = finish_trace(tracer, args.trace)
    emit({"ready": READY, "cache_ok": True, "caches_after": cache_sizes(),
          "maxrss_kb": maxrss_kb(), "write_s": write_s})
    return status


def run_stratum(args) -> int:
    if not caches_empty():
        return 3
    tracer = make_tracer(args.trace)
    if tracer:
        tracer.install()
        tracer.begin_op()
    started = time.perf_counter()
    table = deligne_lusztig.stratum_cohomology(STRATUM_THETA)
    op_s = time.perf_counter() - started
    if tracer:
        tracer.end_op()
        tracer.uninstall()
    if args.corrupt_entry is not None:
        table = corrupt_label(table, args.corrupt_entry)
    digest = table_digest(table)
    matches = table == deligne_lusztig.closed_stratum_cohomology(STRATUM_THETA)
    write_s = finish_trace(tracer, args.trace)
    emit({"ready": READY, "cache_ok": True, "op_s": op_s, "digest": digest,
          "matches_closed": matches, "caches_after": cache_sizes(),
          "maxrss_kb": maxrss_kb(), "write_s": write_s})
    return 0


def run_warm(args) -> int:
    deligne_lusztig.verify_stratum(VERIFY_THETA)
    ready = time.monotonic()
    tracer = make_tracer(args.trace)
    degree_u = CACHES["degree_u"]
    ops = []
    deadline = ready + args.seconds
    while time.monotonic() < deadline or len(ops) < WARM_MIN_OPS:
        traced = tracer is not None and len(ops) % 2 == 1
        if traced:
            tracer.install()
            tracer.begin_op()
        ref_s = calib.reference_s()
        before = degree_u.cache_info()
        error = None
        started = time.perf_counter()
        try:
            report = deligne_lusztig.verify_stratum(VERIFY_THETA)
        except Exception as exc:  # an engine failure is a failed operation, not a crash
            error = repr(exc)
        op_s = time.perf_counter() - started
        after = degree_u.cache_info()
        if traced:
            tracer.end_op()
            tracer.uninstall()
        hits, misses = after.hits - before.hits, after.misses - before.misses
        ops.append({
            "op_s": op_s,
            "ref_s": ref_s,
            "traced": traced,
            "error": error,
            "digest": None if error else sha256_json(report.to_json()),
            "degree_u_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "caches_after": cache_sizes(),
        })
    end_ref_s = calib.reference_s()
    write_s = finish_trace(tracer, args.trace)
    emit({"ready": ready, "ops": ops, "end_ref_s": end_ref_s, "maxrss_kb": maxrss_kb(),
          "write_s": write_s})
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in ("cli", "stratum", "warm"):
        p = sub.add_parser(mode)
        p.add_argument("--trace", metavar="PATH", default=None, help="write spans here")
        if mode == "cli":
            p.add_argument("--perturb-term", action="store_true",
                           help="drop one constituent of the stratum term at PERTURBED_TERM")
            p.add_argument("argv", nargs=argparse.REMAINDER)
        if mode == "stratum":
            p.add_argument("--corrupt-entry", type=int, metavar="INDEX",
                           help="corrupt one label, from entry INDEX modulo the entry count on")
        if mode == "warm":
            p.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args()
    if mode_argv := getattr(args, "argv", None):
        args.argv = mode_argv[1:] if mode_argv[0] == "--" else mode_argv
    return {"cli": run_cli, "stratum": run_stratum, "warm": run_warm}[args.mode](args)


if __name__ == "__main__":
    sys.exit(main())
