"""Span tracer that wraps unicoh functions from outside the package.

``Tracer.install`` rebinds a timing wrapper in every ``unicoh.*`` module
namespace that holds a traced function (``harish_chandra`` imports
``symbol_degree`` by name, for example), and on the owning class for methods,
including aliases such as ``__rmul__ = __mul__``.  ``uninstall`` puts the
originals back.  Spans stay in memory as ``[name, start, end, parent, op]``
rows until ``write`` dumps them; ``summarize`` turns a dump into per-operation
metrics.
"""

from __future__ import annotations

import json
import sys
import time
from statistics import median

# (module, attribute path, span name).  Span names are "<layer>.<function>".
TRACED = (
    ("polynomial", "IntPolynomial.__mul__", "polynomial.IntPolynomial.mul"),
    ("polynomial", "IntPolynomial.__add__", "polynomial.IntPolynomial.add"),
    ("polynomial", "IntPolynomial.divmod", "polynomial.IntPolynomial.divmod"),
    ("unipotent", "degree_u", "unipotent.degree_u"),
    ("unipotent", "to_symbol", "unipotent.to_symbol"),
    ("unipotent", "from_symbol", "unipotent.from_symbol"),
    ("unipotent", "symbol_degree", "unipotent.symbol_degree"),
    ("deligne_lusztig", "stratum_term", "deligne_lusztig.stratum_term"),
    ("deligne_lusztig", "stratum_cohomology", "deligne_lusztig.stratum_cohomology"),
    ("deligne_lusztig", "eo_stratum_cohomology", "deligne_lusztig.eo_stratum_cohomology"),
    ("deligne_lusztig", "CohomologyTable.eigenspace", "deligne_lusztig.CohomologyTable.eigenspace"),
    ("deligne_lusztig", "verify_stratum", "deligne_lusztig.verify_stratum"),
    ("harish_chandra", "pieri_induce", "harish_chandra.pieri_induce"),
    ("harish_chandra", "hc_induce", "harish_chandra.hc_induce"),
    ("harish_chandra", "RepMultiset.dimension_poly", "harish_chandra.RepMultiset.dimension_poly"),
    ("partitions", "border_strips", "partitions.border_strips"),
    ("partitions", "two_quotient", "partitions.two_quotient"),
    ("partitions", "from_core_quotient", "partitions.from_core_quotient"),
    ("partitions", "hook_lengths", "partitions.hook_lengths"),
    ("weyl_characters", "chi_typeb", "weyl_characters.chi_typeb"),
    ("weyl_characters", "chi_sym", "weyl_characters.chi_sym"),
    ("weyl_characters", "character_table_typeb", "weyl_characters.character_table_typeb"),
    ("cli", "main", "cli.main"),
    ("cli", "Document.render", "cli.Document.render"),
)

# Recursive or cached functions: only the outermost call gets a span, and
# hit/miss counts come from cache_info().
CACHED = ("unipotent.degree_u", "weyl_characters.chi_typeb", "weyl_characters.chi_sym")

LAYERS = ("partitions", "polynomial", "weyl_characters", "unipotent", "harish_chandra",
          "deligne_lusztig", "cli")

# Per-layer metrics reported by a traced run; every traced run reports all of them.
METRICS = (
    ("polynomial.IntPolynomial.mul.calls", "count"),
    ("polynomial.IntPolynomial.mul.self_s", "s"),
    ("polynomial.IntPolynomial.mul.coeff_products", "count"),
    ("polynomial.IntPolynomial.divmod.calls", "count"),
    ("polynomial.IntPolynomial.divmod.self_s", "s"),
    ("polynomial.IntPolynomial.add.calls", "count"),
    ("polynomial.IntPolynomial.add.self_s", "s"),
    ("unipotent.degree_u.calls", "count"),
    ("unipotent.degree_u.misses", "count"),
    ("unipotent.degree_u.hit_ratio", "ratio"),
    ("unipotent.degree_u.self_s", "s"),
    ("unipotent.to_symbol.calls", "count"),
    ("unipotent.to_symbol.self_s", "s"),
    ("unipotent.from_symbol.calls", "count"),
    ("unipotent.from_symbol.self_s", "s"),
    ("unipotent.symbol_degree.calls", "count"),
    ("deligne_lusztig.stratum_term.calls", "count"),
    ("deligne_lusztig.stratum_term.self_s", "s"),
    ("deligne_lusztig.stratum_term.useful_ratio", "ratio"),
    ("deligne_lusztig.stratum_cohomology.calls", "count"),
    ("deligne_lusztig.stratum_cohomology.self_s", "s"),
    ("deligne_lusztig.eo_stratum_cohomology.calls", "count"),
    ("deligne_lusztig.CohomologyTable.eigenspace.calls", "count"),
    ("deligne_lusztig.CohomologyTable.eigenspace.self_s", "s"),
    ("deligne_lusztig.verify_stratum.self_s", "s"),
    ("deligne_lusztig.checks_failed", "count"),
    ("harish_chandra.pieri_induce.calls", "count"),
    ("harish_chandra.pieri_induce.self_s", "s"),
    ("harish_chandra.pieri_induce.outputs", "count"),
    ("harish_chandra.hc_induce.calls", "count"),
    ("harish_chandra.hc_induce.self_s", "s"),
    ("harish_chandra.RepMultiset.dimension_poly.calls", "count"),
    ("harish_chandra.RepMultiset.dimension_poly.self_s", "s"),
    ("partitions.border_strips.calls", "count"),
    ("partitions.border_strips.self_s", "s"),
    ("partitions.two_quotient.calls", "count"),
    ("partitions.two_quotient.self_s", "s"),
    ("partitions.from_core_quotient.calls", "count"),
    ("partitions.from_core_quotient.self_s", "s"),
    ("partitions.hook_lengths.calls", "count"),
    ("weyl_characters.chi_typeb.misses", "count"),
    ("weyl_characters.chi_typeb.hit_ratio", "ratio"),
    ("weyl_characters.chi_sym.misses", "count"),
    ("weyl_characters.character_table_typeb.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("cli.Document.render.self_s", "s"),
    ("cli.output_bytes", "bytes"),
) + tuple((f"{layer}.self_s", "s") for layer in LAYERS) + (
    ("trace_overhead_ratio", "ratio"),
    ("unattributed_s", "s"),
)


def _mul_products(args, result) -> int:
    a, b = args
    other = len(b.coeffs) if hasattr(b, "coeffs") else int(b != 0)
    return len(a.coeffs) * other


def _checks_failed(args, result) -> int:
    return sum(not c.passed for c in result.checks)


# span name -> (counter, function of (args, result) giving the amount to add)
EXTRAS = {
    "polynomial.IntPolynomial.mul": ("polynomial.IntPolynomial.mul.coeff_products", _mul_products),
    "harish_chandra.pieri_induce": ("harish_chandra.pieri_induce.outputs", lambda a, r: len(r)),
    "deligne_lusztig.verify_stratum": ("deligne_lusztig.checks_failed", _checks_failed),
}


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []
        self.ops: list[dict] = []
        self._stack = [-1]
        self._op = -1
        self._counters: dict = {}
        self._distinct_terms: set = set()
        self._cache_fns: dict = {}
        self._cache_start: dict = {}
        self._patches: list[tuple] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        if not self._patches:
            self._patches = self._plan()
        for target, attr, _, wrapper in self._patches:
            setattr(target, attr, wrapper)

    def uninstall(self) -> None:
        for target, attr, original, _ in self._patches:
            setattr(target, attr, original)

    def _plan(self) -> list[tuple]:
        holders = [m for n, m in list(sys.modules.items())
                   if (n == "unicoh" or n.startswith("unicoh.")) and m is not None]
        patches = []
        for module_name, path, name in TRACED:
            module = sys.modules.get(f"unicoh.{module_name}")
            if module is None:
                continue
            owner, *attrs = [module] + path.split(".")
            for attr in attrs[:-1]:
                owner = getattr(owner, attr)
            original = vars(owner)[attrs[-1]]
            if name in CACHED:
                self._cache_fns[name] = original
            wrapper = self._wrapper(name, original)
            targets = [owner] if isinstance(owner, type) else holders
            for target in targets:
                for attr, value in list(vars(target).items()):
                    if value is original:
                        patches.append((target, attr, original, wrapper))
        return patches

    def _wrapper(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        extra = EXTRAS.get(name)
        outermost_only = name in CACHED
        distinct = self._distinct_terms if name == "deligne_lusztig.stratum_term" else None
        depth = [0]

        def wrapper(*args, **kwargs):
            if outermost_only and depth[0]:
                return fn(*args, **kwargs)
            index = len(spans)
            row = [name_id, 0.0, 0.0, stack[-1], self._op]
            spans.append(row)
            stack.append(index)
            depth[0] += 1
            row[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                row[2] = clock()
                depth[0] -= 1
                stack.pop()
            if extra is not None:
                key, amount = extra
                self._counters[key] = self._counters.get(key, 0) + amount(args, result)
            if distinct is not None:
                distinct.add(args)
            return result

        return wrapper

    # -- operations ---------------------------------------------------------

    def begin_op(self) -> None:
        self._op = len(self.ops)
        self._counters = {}
        self._distinct_terms.clear()
        self._cache_start = {n: f.cache_info() for n, f in self._cache_fns.items()}

    def end_op(self) -> None:
        counters = dict(self._counters)
        counters["deligne_lusztig.stratum_term.distinct"] = len(self._distinct_terms)
        for name, fn in self._cache_fns.items():
            before, after = self._cache_start[name], fn.cache_info()
            hits, misses = after.hits - before.hits, after.misses - before.misses
            counters[f"{name}.misses"] = misses
            counters[f"{name}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        self.ops.append(counters)
        self._op = -1

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": self.spans, "ops": self.ops}, fh,
                      separators=(",", ":"))


def summarize(dump: dict) -> list[dict]:
    """Per-operation metrics from one tracer dump: calls and self time per span
    name, self time per layer, counters, and time covered by root spans."""
    names = dump["names"]
    spans = dump["spans"]
    child_time = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    per_op = [dict(counters, root_s=0.0) for counters in dump["ops"]]
    for index, (name_id, start, end, parent, op) in enumerate(spans):
        if op < 0:
            continue
        out = per_op[op]
        name = names[name_id]
        self_s = (end - start) - child_time[index]
        out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
        out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + self_s
        layer = name.split(".", 1)[0]
        out[f"{layer}.self_s"] = out.get(f"{layer}.self_s", 0.0) + self_s
        if parent < 0:
            out["root_s"] += end - start
    for out in per_op:
        calls = out.get("deligne_lusztig.stratum_term.calls", 0)
        distinct = out.pop("deligne_lusztig.stratum_term.distinct", 0)
        out["deligne_lusztig.stratum_term.useful_ratio"] = distinct / calls if calls else 0.0
    return per_op


def layer_metrics(per_op: list[dict]) -> dict[str, float]:
    """Median over traced operations of every per-layer metric (0 where a
    workload never reaches the function)."""
    return {
        name: median(op.get(name, 0) for op in per_op) if per_op else 0.0
        for name, _ in METRICS
        if name not in ("trace_overhead_ratio", "unattributed_s")
    }
