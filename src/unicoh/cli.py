"""Command-line front end: batch computation, verification runs, table export.

Partitions are written as comma-separated descending integers (empty string
for the empty partition), bipartitions as two partitions separated by a
slash, e.g. ``3,1,1/4,2``.  Each subcommand handler ``cmd_*(args)`` reads the
parsed arguments, computes its result and returns one `Document`, which builds
only the output form that is printed.  Exit status: 0 on success, 2 on
bad arguments or an exceeded ``--max-*`` cap, 1 when a verification run
reports a failure or any other exception is raised inside a handler or while
formatting its output.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
from math import factorial
from typing import Callable, NamedTuple

from . import deligne_lusztig as dl
from . import harish_chandra as hc
from . import weyl_characters as wc
from .errors import VerificationError
from .partitions import (
    Bipartition,
    Partition,
    bipartitions_of,
    core_quotient,
    from_core_quotient,
    staircase,
)
from .unipotent import (
    SymbolLabel,
    cuspidal_partition,
    degree_gl,
    degree_u,
    from_symbol,
    hc_series,
    to_symbol,
)


# default soft caps, each raised with --max-<name>
CAPS = {"n": 8, "a": 5, "theta": 8, "k": 8}

# 128 + SIGPIPE: stdout was closed before the output was written
BROKEN_PIPE_STATUS = 141

# largest Weyl-group rank of the character and induction cross-checks in `verify`
FOUNDATION_RANK = 3

# deepest theta and k of the plain `verify` sweep unless --max-theta/--max-k
# gives another depth
SWEEP_DEPTH = 6


class CliError(Exception):
    """Bad arguments (exit status 2)."""


def parse_partition(text: str) -> Partition:
    text = text.strip()
    if text in ("", "0", "[]"):
        return Partition()
    try:
        parts = [int(x) for x in text.split(",") if x.strip() != ""]
        return Partition(parts)
    except ValueError as exc:
        raise CliError(f"malformed partition {text!r}: {exc}") from exc


def parse_bipartition(text: str) -> Bipartition:
    if "/" not in text:
        raise CliError(f"malformed bipartition {text!r}: expected 'first/second'")
    first, _, second = text.partition("/")
    return Bipartition(parse_partition(first), parse_partition(second))


NONNEGATIVE_FLAGS = ("theta", "k", "a", "n", "t", "add", "remove", *(f"max-{name}" for name in CAPS))


def check_nonnegative(args: argparse.Namespace) -> None:
    """Reject a negative value for any of the integer flags a subcommand takes."""
    for name in NONNEGATIVE_FLAGS:
        value = getattr(args, name.replace("-", "_"), None)
        if value is not None and value < 0:
            raise CliError(f"--{name} must be nonnegative, got {value}")


def _compact(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _fmt_labels(reps: hc.RepMultiset) -> str:
    pieces = []
    for label in reps.sorted_labels():
        m = reps.multiplicity(label)
        body = _compact(from_symbol(label))
        pieces.append(body if m == 1 else f"{m}*{body}")
    return " + ".join(pieces) if pieces else "0"


class Document(NamedTuple):
    """One result, held as how to build each form: zero-argument callables for
    the pretty text, the JSON object and the optional CSV rows, plus the exit
    status.  `render` builds only the form it is asked for."""

    text: Callable[[], str]
    payload: Callable[[], object]
    rows: Callable[[], list[list]] | None = None
    status: int = 0

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return json.dumps(self.payload(), indent=2)
        if fmt == "csv":
            rows = self.rows() if self.rows is not None else [[self.text()]]
            buf = io.StringIO()
            csv.writer(buf).writerows(rows)
            return buf.getvalue().rstrip("\n")
        return self.text()


def _check_cap(args, name: str, value: int, what: str) -> None:
    """Enforce the soft cap --max-<name>, warning when it is raised above CAPS[name]."""
    flag, cap = f"--max-{name}", getattr(args, f"max_{name}", CAPS[name])
    if value > cap:
        raise CliError(
            f"{what} {value} exceeds the cap {cap}; raise it with {flag} if you accept the runtime"
        )
    if cap > CAPS[name] and not args.quiet:
        print(
            f"warning: {flag} raised above the default {CAPS[name]}; expect longer runtimes",
            file=sys.stderr,
        )


def _reject_unread(args, *flags: str, when: str) -> None:
    """Exit 2 on a flag that this run would otherwise ignore without a word."""
    for flag in flags:
        if getattr(args, flag.replace("-", "_"), None) is not None:
            raise CliError(f"--{flag} is not read {when}; drop it")


# -- subcommand handlers -----------------------------------------------------


def cmd_char_sym(args) -> Document:
    lam, klass = parse_partition(args.lam), parse_partition(args.klass)
    if lam.size != klass.size:
        raise CliError(f"|lambda| = {lam.size} but |class| = {klass.size}")
    value = wc.chi_sym(lam, klass)
    return Document(
        text=lambda: str(value),
        payload=lambda: {"lambda": lam, "class": klass, "value": str(value)},
    )


def cmd_char_b(args) -> Document:
    label, klass = parse_bipartition(args.label), parse_bipartition(args.klass)
    if label.size != klass.size:
        raise CliError(f"|label| = {label.size} but |class| = {klass.size}")
    value = wc.chi_typeb(label, klass)
    return Document(
        text=lambda: str(value),
        payload=lambda: {"label": label, "class": klass, "value": str(value)},
    )


def cmd_table(args) -> Document:
    if args.group == "sym":
        if args.n is None:
            raise CliError("--n is required for --group sym")
        _reject_unread(args, "a", "max-a", when="with --group sym")
        _check_cap(args, "n", args.n, "symmetric rank")
        table = wc.character_table_sym(args.n)
    else:
        if args.a is None:
            raise CliError("--a is required for --group b")
        _reject_unread(args, "n", "max-n", when="with --group b")
        _check_cap(args, "a", args.a, "type-B rank")
        table = wc.character_table_typeb(args.a)

    def text() -> str:
        lines = [f"character table {table.group} (order {table.group_order})"]
        lines.append("classes:     " + "  ".join(_compact(c) for c in table.classes))
        lines.append("class sizes: " + "  ".join(str(s) for s in table.class_sizes))
        for label, row in zip(table.labels, table.values):
            lines.append(f"{_compact(label)}: " + "  ".join(str(v) for v in row))
        return "\n".join(lines)

    def rows() -> list[list]:
        out: list[list] = [["label"] + [_compact(c) for c in table.classes]]
        out.append(["class_size"] + [str(s) for s in table.class_sizes])
        for label, row in zip(table.labels, table.values):
            out.append([_compact(label)] + [str(v) for v in row])
        return out

    return Document(text=text, payload=table.to_json, rows=rows)


def cmd_degree(args) -> Document:
    lam = parse_partition(args.lam)
    poly = degree_u(lam) if args.group == "u" else degree_gl(lam)
    value = poly(args.at) if args.at is not None else None

    def text() -> str:
        shown = str(poly)
        return shown if value is None else f"{shown}\nat q={args.at}: {value}"

    def payload() -> dict:
        shown = {"group": args.group, "partition": lam, "degree": poly.to_json()}
        if value is not None:
            shown["at"] = {"q": args.at, "value": str(value)}
        return shown

    return Document(text=text, payload=payload)


def cmd_two_core(args) -> Document:
    lam = parse_partition(args.lam)
    cq = core_quotient(lam)
    return Document(
        text=lambda: f"core t={cq.core_index}, core partition {_compact(staircase(cq.core_index))}",
        payload=lambda: {"lambda": lam, "t": cq.core_index, "core": staircase(cq.core_index)},
    )


def cmd_two_quotient(args) -> Document:
    lam = parse_partition(args.lam)
    cq = core_quotient(lam)
    return Document(
        text=lambda: f"core t={cq.core_index}, quotient {_compact(cq.quotient)}",
        payload=lambda: {"lambda": lam, "t": cq.core_index, "quotient": cq.quotient},
    )


def cmd_reconstruct(args) -> Document:
    quotient = parse_bipartition(args.quotient)
    lam = from_core_quotient(args.t, quotient)
    return Document(
        text=lambda: _compact(lam),
        payload=lambda: {"t": args.t, "quotient": quotient, "lambda": lam},
    )


def cmd_label(args) -> Document:
    if args.lam is not None:
        _reject_unread(args, "t", "alpha", "beta", when="with --lambda")
        lam = parse_partition(args.lam)
        sym = to_symbol(lam)
        return Document(
            text=lambda: f"symbol t={sym.t}, alpha {_compact(sym.alpha)}, beta {_compact(sym.beta)}",
            payload=lambda: {"partition": lam, "symbol": sym.to_json()},
        )
    if args.t is None or args.alpha is None or args.beta is None:
        raise CliError("provide either --lambda, or all of --t, --alpha, --beta")
    sym = SymbolLabel(args.t, parse_partition(args.alpha), parse_partition(args.beta))
    lam = from_symbol(sym)
    return Document(
        text=lambda: _compact(lam),
        payload=lambda: {"symbol": sym.to_json(), "partition": lam},
    )


def cmd_series(args) -> Document:
    lam = parse_partition(args.lam)
    series = hc_series(lam)
    cuspidal = cuspidal_partition(series.n)
    return Document(
        text=lambda: (
            f"t={series.t}, n={series.n}, weyl rank a={series.weyl_rank}, "
            f"principal={series.principal}, cuspidal={series.cuspidal}"
        ),
        payload=lambda: {
            "lambda": lam,
            "t": series.t,
            "n": series.n,
            "weyl_rank": series.weyl_rank,
            "principal": series.principal,
            "cuspidal": series.cuspidal,
            "ambient_cuspidal_label": cuspidal,
        },
    )


def cmd_pieri(args) -> Document:
    label = parse_bipartition(args.label)
    if (args.add is None) == (args.remove is None):
        raise CliError("exactly one of --add or --remove is required")
    if args.add is not None:
        outs = hc.pieri_induce(label, args.add)
        op = {"add": args.add}
    else:
        if args.remove > label.size:
            raise CliError(f"cannot remove {args.remove} boxes from a bipartition of {label.size}")
        outs = hc.pieri_restrict(label, args.remove)
        op = {"remove": args.remove}
    return Document(
        text=lambda: "\n".join(_compact(b) for b in outs),
        payload=lambda: {"label": label, **op, "result": outs},
        rows=lambda: [[_compact(b)] for b in outs],
    )


def cmd_induce(args) -> Document:
    sym = SymbolLabel(args.t, parse_partition(args.alpha), parse_partition(args.beta))
    try:
        gl_ranks = tuple(int(x) for x in args.gl.split(",") if x.strip() != "")
    except ValueError as exc:
        raise CliError(f"malformed GL ranks {args.gl!r}: {exc}") from exc
    if any(r < 0 for r in gl_ranks):
        raise CliError("GL ranks must be nonnegative")
    result = hc.hc_induce(sym, gl_ranks)
    n = sym.rank + 2 * sum(gl_ranks)
    return Document(
        text=lambda: f"U_{n}(q) constituents: {_fmt_labels(result)}",
        payload=lambda: {
            "levi": {"unitary_rank": sym.rank, "gl_ranks": gl_ranks},
            "label": sym.to_json(),
            "n": n,
            "result": result.to_json(),
        },
        rows=lambda: [
            [out.t, _compact(out.alpha), _compact(out.beta), result.multiplicity(out)]
            for out in result.sorted_labels()
        ],
    )


def _cohomology_document(table: dl.CohomologyTable) -> Document:
    def text() -> str:
        lines = [f"variety: {table.variety}"]
        for entry in table.entries:
            shown = _fmt_labels(entry.constituents)
            lines.append(f"H^{entry.degree}  (-q)^{entry.frobenius_exponent}  {shown}")
        return "\n".join(lines)

    def rows() -> list[list]:
        out: list[list] = [["degree", "frobenius_exponent", "constituents"]]
        for entry in table.entries:
            out.append([entry.degree, entry.frobenius_exponent, _fmt_labels(entry.constituents)])
        return out

    return Document(text=text, payload=table.to_json, rows=rows)


def cmd_coxeter(args) -> Document:
    _check_cap(args, "k", args.k, "Coxeter rank k")
    return _cohomology_document(dl.coxeter_cohomology(args.k))


def cmd_stratum(args) -> Document:
    _check_cap(args, "theta", args.theta, "theta")
    if args.method == "closed":
        table = dl.closed_stratum_cohomology(args.theta)
    else:
        table = dl.stratum_cohomology(args.theta)
    return _cohomology_document(table)


def _foundation_checks() -> list[dl.CheckResult]:
    """Cross-checks of the character and induction layers at small rank."""
    checks: list[dl.CheckResult] = []

    for n in range(1, FOUNDATION_RANK + 2):
        ok = wc.character_table_sym(n).is_orthogonal(factorial(n))
        checks.append(dl.CheckResult(f"character-orthogonality (S_{n})", ok))

    for a in range(1, FOUNDATION_RANK + 1):
        ok = wc.character_table_typeb(a).is_orthogonal(2**a * factorial(a))
        checks.append(dl.CheckResult(f"character-orthogonality (W_{a})", ok))

    for a in range(FOUNDATION_RANK + 1):
        brute = wc.signed_class_sizes(a)
        bad = any(wc.typeb_class_size(k) != brute.get(k, 0) for k in bipartitions_of(a))
        checks.append(dl.CheckResult(f"class-sizes-vs-brute-force (W_{a})", not bad))

    bad_pairs = []
    for a in range(FOUNDATION_RANK + 1):
        for r in range(a + 1):
            s = a - r
            for phi in bipartitions_of(r):
                outs = hc.pieri_induce(phi, s)
                for chi in bipartitions_of(a):
                    expected = outs.count(chi)
                    try:
                        got = hc.induction_multiplicity_oracle(
                            r, s, phi, Partition((s,) if s else ()), chi
                        )
                    except ArithmeticError as exc:
                        bad_pairs.append(f"r={r},s={s}: {exc}")
                        continue
                    if expected != got:
                        bad_pairs.append(f"r={r},s={s},{phi}->{chi}")
    checks.append(
        dl.CheckResult(
            f"pieri-vs-reciprocity-oracle (rank<={FOUNDATION_RANK})",
            not bad_pairs,
            "; ".join(bad_pairs[:5]),
        )
    )
    return checks


def cmd_verify(args) -> Document:
    checks: list[dl.CheckResult] = []
    if args.theta is not None or args.k is not None:
        for name, other in (("theta", "k"), ("k", "theta")):
            if getattr(args, name) is None:
                _reject_unread(args, f"max-{name}", when=f"when verify is given --{other} alone")
    if args.theta is not None:
        _check_cap(args, "theta", args.theta, "theta")
        checks.extend(dl.verify_stratum(args.theta).checks)
    if args.k is not None:
        _check_cap(args, "k", args.k, "k")
        checks.extend(dl.coxeter_checks(range(args.k, args.k + 1)))
    if args.theta is None and args.k is None:
        depth = {name: getattr(args, f"max_{name}", SWEEP_DEPTH) for name in ("theta", "k")}
        for name, cap in depth.items():
            _check_cap(args, name, cap, name)
        checks.extend(_foundation_checks())
        checks.extend(dl.coxeter_checks(range(depth["k"] + 1)))
        for theta in range(depth["theta"] + 1):
            checks.extend(dl.verify_stratum(theta).checks)

    ok = all(c.passed for c in checks)
    summary = f"{'OK' if ok else 'FAILED'}: {sum(c.passed for c in checks)}/{len(checks)} checks passed"
    return Document(
        text=lambda: "\n".join([*(c.line() for c in checks), summary]),
        payload=lambda: {"ok": ok, "checks": [c.to_json() for c in checks]},
        rows=lambda: [["status", "check"]] + [["PASS" if c.passed else "FAIL", c.name] for c in checks],
        status=0 if ok else 1,
    )


# -- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unicoh",
        description="Exact unipotent combinatorics of finite unitary groups "
        "and cohomology of closed Bruhat-Tits strata.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("table", "json", "csv"), default="table")
    common.add_argument("--out", metavar="PATH", default=None, help="write output to a file")
    common.add_argument("-q", "--quiet", action="store_true")
    common.add_argument("-v", "--verbose", action="store_true")

    sub = parser.add_subparsers(dest="command", required=True)

    def add_caps(p: argparse.ArgumentParser, *names: str) -> None:
        for name in names:
            # absent unless given: the verify sweep tells an explicit cap from the default
            p.add_argument(f"--max-{name}", type=int, default=argparse.SUPPRESS)

    p = sub.add_parser("char-sym", parents=[common], help="symmetric group character value")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--class", dest="klass", required=True)
    p.set_defaults(handler=cmd_char_sym)

    p = sub.add_parser("char-b", parents=[common], help="hyperoctahedral character value")
    p.add_argument("--label", required=True, help="bipartition alpha/beta")
    p.add_argument("--class", dest="klass", required=True, help="bipartition gamma/theta")
    p.set_defaults(handler=cmd_char_b)

    p = sub.add_parser("table", parents=[common], help="full character table")
    p.add_argument("--group", choices=("sym", "b"), required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--a", type=int, default=None)
    add_caps(p, "n", "a")
    p.set_defaults(handler=cmd_table)

    p = sub.add_parser("degree", parents=[common], help="generic degree polynomial")
    p.add_argument("--group", choices=("gl", "u"), default="u")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--at", type=int, default=None, help="also evaluate at this prime power")
    p.set_defaults(handler=cmd_degree)

    p = sub.add_parser("two-core", parents=[common], help="2-core staircase index")
    p.add_argument("--lambda", dest="lam", required=True)
    p.set_defaults(handler=cmd_two_core)

    p = sub.add_parser("two-quotient", parents=[common], help="2-core and 2-quotient")
    p.add_argument("--lambda", dest="lam", required=True)
    p.set_defaults(handler=cmd_two_quotient)

    p = sub.add_parser("reconstruct", parents=[common], help="partition from core and quotient")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--quotient", required=True, help="bipartition first/second")
    p.set_defaults(handler=cmd_reconstruct)

    p = sub.add_parser("label", parents=[common], help="translate partition <-> symbol labels")
    p.add_argument("--lambda", dest="lam", default=None)
    p.add_argument("--t", type=int, default=None)
    p.add_argument("--alpha", default=None)
    p.add_argument("--beta", default=None)
    p.set_defaults(handler=cmd_label)

    p = sub.add_parser("series", parents=[common], help="Harish-Chandra series membership")
    p.add_argument("--lambda", dest="lam", required=True)
    p.set_defaults(handler=cmd_series)

    p = sub.add_parser("pieri", parents=[common], help="Pieri induction or restriction")
    p.add_argument("--label", required=True, help="bipartition alpha/beta")
    p.add_argument("--add", type=int, default=None)
    p.add_argument("--remove", type=int, default=None)
    p.set_defaults(handler=cmd_pieri)

    p = sub.add_parser("induce", parents=[common], help="Harish-Chandra induction to U_n(q)")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("--gl", default="", help="comma-separated GL block ranks (one-row labels)")
    p.set_defaults(handler=cmd_induce)

    p = sub.add_parser("coxeter", parents=[common], help="Coxeter variety cohomology table")
    p.add_argument("--k", type=int, required=True)
    add_caps(p, "k")
    p.set_defaults(handler=cmd_coxeter)

    p = sub.add_parser("stratum", parents=[common], help="closed stratum cohomology table")
    p.add_argument("--theta", type=int, required=True)
    p.add_argument("--method", choices=("spectral", "closed"), default="spectral")
    add_caps(p, "theta")
    p.set_defaults(handler=cmd_stratum)

    p = sub.add_parser("verify", parents=[common], help="consistency verification run")
    p.add_argument("--theta", type=int, default=None, help="verify one closed stratum")
    p.add_argument("--k", type=int, default=None, help="verify one Coxeter rank")
    add_caps(p, "theta", "k")
    p.set_defaults(handler=cmd_verify)

    return parser


def guard_stdout(body: Callable[[], int]) -> int:
    """Run `body`, which prints to stdout and returns an exit status, and
    flush stdout.  If the reader closes the pipe early (`unicoh ... | head`),
    point stdout at devnull, so the flush at interpreter exit cannot raise
    again, and return BROKEN_PIPE_STATUS, as a shell reports a process
    killed by SIGPIPE."""
    try:
        status = body()
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return BROKEN_PIPE_STATUS
    return status


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    started = time.monotonic()
    try:
        check_nonnegative(args)
        doc = args.handler(args)
        computed = time.monotonic() - started
        # inside the try, so a formatting fault is reported like any other
        rendered = doc.render(args.format)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        # arguments were validated above, so any other exception is the library's fault
        print(f"internal failure: {exc}", file=sys.stderr)
        return 1
    if args.verbose and not args.quiet:
        print(f"computed in {computed:.3f}s", file=sys.stderr)

    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(rendered + "\n")
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc.strerror or exc}", file=sys.stderr)
            return 2
        if not args.quiet:
            print(f"wrote {args.out}", file=sys.stderr)
        return doc.status

    def write() -> int:
        print(rendered)
        return doc.status

    return guard_stdout(write)


if __name__ == "__main__":
    sys.exit(main())
