#!/usr/bin/env python3
"""Benchmark runner for unicoh.

    python3 perfbench/run.py --workload verify-cold --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20      # every workload in turn
    python3 perfbench/run.py --workload stratum-deep --inject label   # gate must fail

Each workload is a closed loop: one operation at a time, at most one child
process alive, until ``--seconds`` have passed (and at least MIN_OPS
operations ran).  Every output is checked against the golden digests in
``golden.json``; an operation that exits non-zero, raises or differs from its
digest counts as failed and is never timed as a success.

With ``--trace 0`` the result reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced operations and reports the
per-layer metrics of ``tracer.py`` instead.  The report goes to stdout, and
its last line is one JSON object ``{correct, attempted, failed, metrics}``.
A record with the environment and every raw sample is written to
``perfbench/out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import subprocess
import sys
import time
from math import ceil
from pathlib import Path
from statistics import median

import calib
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
CHILD = str(BENCH / "child.py")
PY = sys.executable
ENVELOPE = "PERFBENCH "

WORKLOADS = {
    "verify-cold": "fresh `unicoh verify --theta 10` per op, caches empty: generic degrees in polynomial dominate",
    "verify-warm": "verify_stratum(10) in a process that already ran it: degree cache at 100%, stratum bookkeeping dominates",
    "stratum-deep": "stratum_cohomology(22) in a fresh child: Pieri induction and border strips, no generic degrees",
    "char-tables": "fresh `unicoh table --group b --a 7` per op: the only workload that exercises weyl_characters",
}
CLI_ARGV = {
    "verify-cold": ["verify", "--theta", "10", "--max-theta", "10", "-q", "--format", "json"],
    "char-tables": ["table", "--group", "b", "--a", "7", "--max-a", "7", "-q", "--format", "json"],
}
INJECTIONS = {"stratum-term": "verify-cold", "label": "stratum-deep"}

MIN_OPS = 3          # operations per run, however short --seconds is
SETUP_PROBES = 7     # fresh `import unicoh.cli` timings per cold CLI run
WARM_WORKERS = 3     # long-lived verify-warm processes per run, each set up once
OP_TIMEOUT = 120.0   # seconds before a child is killed and its operation failed

NPROC = len(os.sched_getaffinity(0))
PINNED_CPU = min(os.sched_getaffinity(0))

GOLDEN = json.loads((BENCH / "golden.json").read_text())


class Run:
    """Samples and verdicts of one workload run."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, inject: str | None):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.rng = random.Random(seed)
        self.fault_op = self.rng.randrange(MIN_OPS) if inject else None
        self.ops: list[dict] = []
        self.setup: list[float] = []      # calibrated seconds
        self.setup_raw: list[float] = []  # wall seconds
        self.layer_ops: list[dict] = []
        self.invalid: list[str] = []
        self.spans_path = OUT / f"spans-{workload}-seed{seed}.json"

    def indices(self):
        """Operation indices of the closed loop: run until the deadline and MIN_OPS."""
        deadline = time.monotonic() + self.seconds
        i = 0
        while time.monotonic() < deadline or i < MIN_OPS:
            yield i
            i += 1

    def traced(self, i: int) -> bool:
        return self.trace and i % 2 == 1

    def record(self, ok: bool, op_s: float | None, traced: bool, error: str | None = None,
               ref_s: float | None = None, **extra) -> None:
        """Add one operation; ref_s is the reference loop time taken just before it."""
        self.ops.append(dict(ok=ok, op_s=op_s, ref_s=ref_s, traced=traced, error=error, **extra))

    def calibrate(self, start: int, end_ref_s: float) -> None:
        """Calibrate ops[start:], timed back to back: each is scaled by the mean of
        the reference runs just before and just after it (the next one's, or
        end_ref_s for the last).  A set-up sample stored on an op is scaled the same way."""
        ops = self.ops[start:]
        after = [o["ref_s"] for o in ops[1:]] + [end_ref_s]
        for op, ref_after in zip(ops, after):
            op["ref_pair_s"] = (op["ref_s"] + ref_after) / 2
            op["cal_s"] = calib.calibrate(op["op_s"], op["ref_pair_s"]) if op["ok"] else None
            if op.get("setup_s") is not None:
                self.add_setup(op["setup_s"], op["ref_pair_s"])

    def add_setup(self, raw_s: float, ref_s: float) -> None:
        self.setup_raw.append(raw_s)
        self.setup.append(calib.calibrate(raw_s, ref_s))

    def add_layers(self, per_op: list[dict], op_indices: list[int], **extra) -> None:
        """Add the tracer's counters of the traced operations at op_indices,
        keeping those of the operations that passed the gate."""
        for counters, i in zip(per_op, op_indices):
            if self.ops[i]["ok"]:
                self.layer_ops.append(dict(counters, op_index=i, op_s=self.ops[i]["op_s"], **extra))

    def calibrated_layers(self) -> list[dict]:
        """layer_ops with every time (a key ending in "_s") in calibrated seconds,
        scaled by the reference runs around its operation; call after calibrate."""
        out = []
        for layer in self.layer_ops:
            ref_s = self.ops[layer["op_index"]]["ref_pair_s"]
            out.append({k: calib.calibrate(v, ref_s) if k.endswith("_s") else v
                        for k, v in layer.items()})
        return out

    def load_spans(self) -> list[dict]:
        dump = json.loads(self.spans_path.read_text())
        return tracer.summarize(dump)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


ENV = child_env()


def spawn(argv: list[str], timeout: float = OP_TIMEOUT):
    """Run a child to completion; return (wall seconds, start time, process).
    The child is killed and reaped if it outlives the timeout."""
    started = time.monotonic()
    proc = subprocess.run(argv, capture_output=True, env=ENV, cwd=ROOT, timeout=timeout)
    return time.monotonic() - started, started, proc


def envelope(proc) -> dict | None:
    for line in reversed(proc.stderr.decode(errors="replace").splitlines()):
        if line.startswith(ENVELOPE):
            return json.loads(line[len(ENVELOPE):])
    return None


def failure(proc, what: str) -> str:
    tail = proc.stderr.decode(errors="replace").strip().splitlines()[-1:] or [""]
    return f"{what} (exit {proc.returncode}): {tail[0][:200]}"


def import_probe(module: str) -> float:
    wall, _, proc = spawn([PY, "-c", f"import {module}"])
    if proc.returncode:
        raise SystemExit(failure(proc, f"cannot import {module} from {SRC}"))
    return wall


# -- workloads -----------------------------------------------------------------


def cli_workload(run: Run) -> None:
    import_probe("unicoh.cli")  # compiles bytecode once; not a sample
    refs, probes = [calib.reference_s()], []
    for _ in range(SETUP_PROBES):
        probes.append(import_probe("unicoh.cli"))
        refs.append(calib.reference_s())
    for raw_s, before, after in zip(probes, refs, refs[1:]):
        run.add_setup(raw_s, (before + after) / 2)
    golden = GOLDEN[run.workload]
    for i in run.indices():
        traced = run.traced(i)
        argv = [PY, CHILD, "cli"]
        if traced:
            argv += ["--trace", str(run.spans_path)]
        if i == run.fault_op:
            argv.append("--perturb-term")
        ref_s = calib.reference_s()
        try:
            wall, _, proc = spawn(argv + ["--", *CLI_ARGV[run.workload]])
        except subprocess.TimeoutExpired:
            run.record(False, None, traced, "timeout", ref_s)
            continue
        env = envelope(proc)
        if env is not None and not env["cache_ok"]:
            run.invalid.append(f"op {i}: caches not empty before the operation: {env['caches_before']}")
        digest = hashlib.sha256(proc.stdout).hexdigest()
        ok = proc.returncode == 0 and env is not None and env["cache_ok"] and digest == golden
        if not ok:
            run.record(False, None, traced, failure(proc, f"output digest {digest[:12]}"), ref_s)
            continue
        op_s = wall - env["write_s"]
        run.record(True, op_s, traced, None, ref_s, rss_kb=env["maxrss_kb"], caches_after=env["caches_after"])
        if traced:
            run.add_layers(run.load_spans(), [len(run.ops) - 1], **{"cli.output_bytes": len(proc.stdout)})
    run.calibrate(0, calib.reference_s())


def stratum_workload(run: Run) -> None:
    import_probe("unicoh")
    golden = GOLDEN[run.workload]
    for i in run.indices():
        traced = run.traced(i)
        argv = [PY, CHILD, "stratum"]
        if traced:
            argv += ["--trace", str(run.spans_path)]
        if i == run.fault_op:
            argv += ["--corrupt-entry", str(run.rng.randrange(1 << 16))]
        ref_s = calib.reference_s()
        try:
            _, started, proc = spawn(argv)
        except subprocess.TimeoutExpired:
            run.record(False, None, traced, "timeout", ref_s)
            continue
        env = envelope(proc)
        setup_s = None if env is None else env["ready"] - started
        if env is not None and not env["cache_ok"]:
            run.invalid.append(f"op {i}: caches not empty before the operation: {env['caches_before']}")
        ok = (proc.returncode == 0 and env is not None and env["cache_ok"]
              and env["matches_closed"] and env["digest"] == golden)
        if not ok:
            what = "result" if env is None or not env["cache_ok"] else (
                f"closed-formula match {env['matches_closed']}, digest {env['digest'][:12]}")
            run.record(False, None, traced, failure(proc, what), ref_s, setup_s=setup_s)
            continue
        run.record(True, env["op_s"], traced, None, ref_s, setup_s=setup_s,
                   rss_kb=env["maxrss_kb"], caches_after=env["caches_after"])
        if traced:
            run.add_layers(run.load_spans(), [len(run.ops) - 1])
    run.calibrate(0, calib.reference_s())


def warm_workload(run: Run) -> None:
    import_probe("unicoh")
    golden = GOLDEN[run.workload]
    share = run.seconds / WARM_WORKERS
    for _ in range(WARM_WORKERS):
        argv = [PY, CHILD, "warm", "--seconds", repr(share)]
        if run.trace:
            argv += ["--trace", str(run.spans_path)]
        ref_s = calib.reference_s()
        try:
            _, started, proc = spawn(argv, timeout=OP_TIMEOUT + share)
        except subprocess.TimeoutExpired:
            run.record(False, None, False, "worker timeout", ref_s)
            continue
        env = envelope(proc)
        if proc.returncode or env is None:
            run.record(False, None, False, failure(proc, "worker"), ref_s)
            continue
        # The worker's set-up sits between this reference run and its first one.
        run.add_setup(env["ready"] - started, (ref_s + env["ops"][0]["ref_s"]) / 2)
        first, traced = len(run.ops), []
        for op in env["ops"]:
            if op["degree_u_hit_ratio"] != 1.0:
                run.invalid.append(f"degree_u hit ratio {op['degree_u_hit_ratio']} in a warm operation")
            ok = op["error"] is None and op["digest"] == golden
            run.record(ok, op["op_s"] if ok else None, op["traced"], op["error"], op["ref_s"],
                       rss_kb=env["maxrss_kb"], caches_after=op["caches_after"])
            if op["traced"]:
                traced.append(len(run.ops) - 1)
        run.calibrate(first, env["end_ref_s"])
        if run.trace:
            run.add_layers(run.load_spans(), traced)


RUNNERS = {
    "verify-cold": cli_workload,
    "char-tables": cli_workload,
    "stratum-deep": stratum_workload,
    "verify-warm": warm_workload,
}


# -- metrics and report --------------------------------------------------------


def tail_percentile(samples: list[float]) -> tuple[float, float] | None:
    """Highest of p99.9/p99/p95/p90/p75/p50 with at least ten samples beyond it."""
    n = len(samples)
    for p in (99.9, 99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            return p, sorted(samples)[ceil(p / 100 * n) - 1]
    return None


def op_samples(run: Run, key: str, traced: bool = False) -> list[float]:
    return [o[key] for o in run.ops if o["ok"] and o["traced"] == traced]


def end_to_end(run: Run) -> dict[str, dict]:
    times = op_samples(run, "cal_s")
    rss = [o["rss_kb"] for o in run.ops if o["ok"]]
    attempted = len(run.ops)
    failed = sum(not o["ok"] for o in run.ops)
    return {
        "op_s.p50": {"value": median(times) if times else None, "unit": "s"},
        "setup_s": {"value": median(run.setup) if run.setup else None, "unit": "s"},
        "peak_rss_mb": {"value": median(rss) / 1024 if rss else None, "unit": "MiB"},
        "ok_ratio": {"value": (attempted - failed) / attempted, "unit": "ratio"},
    }


def per_layer(run: Run) -> dict[str, dict]:
    layers = run.calibrated_layers()
    values = tracer.layer_metrics(layers)
    untraced, traced = op_samples(run, "cal_s"), op_samples(run, "cal_s", traced=True)
    values["trace_overhead_ratio"] = median(traced) / median(untraced) if traced and untraced else None
    values["unattributed_s"] = median(o["op_s"] - o["root_s"] for o in layers) if layers else None
    units = dict(tracer.METRICS)
    return {name: {"value": values[name], "unit": units[name]} for name, _ in tracer.METRICS}


def git_rev() -> str | None:
    """HEAD of the checkout; None when the checkout is not a git repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "unicoh").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def fmt(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def run_workload(workload: str, seed: int, seconds: float, trace: bool, inject: str | None) -> dict:
    load_start = os.getloadavg()[0]
    OUT.mkdir(exist_ok=True)
    run = Run(workload, seed, seconds, trace, inject)
    RUNNERS[workload](run)
    load_end = os.getloadavg()[0]

    attempted = len(run.ops)
    failed = sum(not o["ok"] for o in run.ops)
    metrics = per_layer(run) if trace else end_to_end(run)
    correct = attempted > 0 and failed == 0 and not run.invalid
    load_flagged = max(load_start, load_end) > NPROC
    raw_times = op_samples(run, "op_s")
    record = {
        "workload": workload, "why": WORKLOADS[workload], "seed": seed, "seconds": seconds,
        "trace": trace, "inject": inject, "fault_op": run.fault_op,
        "git_rev": git_rev(), "source_sha256": source_digest(),
        "python": platform.python_version(), "nproc": NPROC, "pinned_cpu": PINNED_CPU,
        "ref_nominal_s": calib.REF_NOMINAL_S,
        "loadavg_1m_start": load_start, "loadavg_1m_end": load_end, "load_flagged": load_flagged,
        "correct": correct, "attempted": attempted, "failed": failed, "invalid": run.invalid,
        "metrics": metrics, "op_s_samples": raw_times, "op_cal_s_samples": op_samples(run, "cal_s"),
        "setup_s_samples": run.setup_raw, "setup_cal_s_samples": run.setup,
        "ops": run.ops, "layer_ops": run.layer_ops,
    }
    record_path = OUT / f"{workload}-seed{seed}-trace{int(trace)}.json"
    record_path.write_text(json.dumps(record, indent=1))

    print(f"workload {workload} (seed {seed}, {seconds:g} s, trace {int(trace)}): {WORKLOADS[workload]}")
    print(f"  python {record['python']}, nproc {NPROC}, git {record['git_rev'] or 'n/a'}, "
          f"load {load_start:.2f} -> {load_end:.2f}")
    if load_flagged:
        print(f"  WARNING: 1-minute load average above nproc ({NPROC}); figures may be inflated")
        print(f"warning: {workload}: load average above nproc", file=sys.stderr)
    print(f"  operations: attempted {attempted}, failed {failed}, "
          f"failed_ratio {failed / attempted if attempted else 0:.4g} ratio")
    for reason in run.invalid:
        print(f"  INVALID: {reason}")
    for op in run.ops:
        if not op["ok"]:
            print(f"  failed op: {op['error']}")
    if not trace:
        tail = tail_percentile(raw_times)
        tail_text = f"p{tail[0]:g} {tail[1]:.4f} s" if tail else "no percentile above p50 has ten samples beyond it"
        print(f"  wall (uncalibrated): op_s.p50 {fmt(median(raw_times) if raw_times else None)} s, "
              f"setup_s {fmt(median(run.setup_raw) if run.setup_raw else None)} s; "
              f"op samples n={len(raw_times)}, {tail_text}")
        print(f"  calibrated (x {calib.REF_NOMINAL_S} s / mean reference loop time just before and after each sample):")
    width = max(len(n) for n in metrics)
    for name, m in metrics.items():
        print(f"  {name:<{width}}  {fmt(m['value'])} {m['unit']}")
    if trace:
        layers = {l: metrics[f"{l}.self_s"]["value"] or 0.0 for l in tracer.LAYERS}
        top = max(layers, key=layers.get)
        print(f"  layer with the most self time: {top} ({layers[top]:.4f} s per op)")
    print(f"  record: {record_path.relative_to(ROOT)}")
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result), flush=True)
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject", choices=sorted(INJECTIONS),
                        help="inject a fault to show that the correctness gate fails")
    args = parser.parse_args(argv)
    # One CPU for the runner and its children, so each reference loop runs
    # where the sample it calibrates runs.
    os.sched_setaffinity(0, {PINNED_CPU})
    if args.inject and INJECTIONS[args.inject] != args.workload:
        parser.error(f"--inject {args.inject} applies to --workload {INJECTIONS[args.inject]}")
    if not (SRC / "unicoh" / "__init__.py").is_file():
        print(f"error: no unicoh sources under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [run_workload(n, args.seed, args.seconds, bool(args.trace), args.inject) for n in names]
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
