"""Outside-in span recorder for the traced benchmark run.

The recorder wraps the public entry points of each densepairs layer from
the outside: module-level functions are replaced in every densepairs
module that binds them (``from .formulas import dnf_clauses`` makes a
second binding in ``qe``, ``decomposition`` and ``coding``), and methods
are replaced on their class.  Nothing under ``src/`` changes.

Spans live in memory as parallel arrays (name, start, end, parent, op id)
and are written out once, after the traced phase.  A function that is
already open on the span stack (recursion, or one layer function calling
another with the same span name) gets no second span: its time belongs
to the outermost call, so ``calls`` counts outermost entries.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import pkgutil
from array import array
from collections import defaultdict
from time import perf_counter

ROOT = "bench.op"

# (span name, module, attribute): module-level functions, patched wherever bound.
FUNCTIONS = [
    ("parser.parse", "parser", "parse"),
    ("formulas.dnf_clauses", "formulas", "dnf_clauses"),
    ("formulas.simplify", "formulas", "simplify"),
    ("formulas.substitute", "formulas", "substitute"),
    ("qe.qe", "qe", "qe"),
    # the per-clause eliminators, shared by qe() and eliminate_exists_*()
    ("qe.eliminate", "qe", "_eliminate_home_clause"),
    ("qe.eliminate", "qe", "_eliminate_quotient_clause"),
    ("evaluate.eval_formula", "evaluate", "eval_formula"),
    ("oracles.oracle", "oracles", "oracle_exists_home"),
    ("oracles.oracle", "oracles", "oracle_exists_quotient"),
    ("decomposition.decompose", "decomposition", "decompose"),
    ("measure.measure", "measure", "measure"),
    ("measure.bucket_partition", "measure", "bucket_partition"),
    ("coding.code_unary_set", "coding", "code_unary_set"),
    ("coding.code_function", "coding", "code_function"),
]

# (span name, module, class, method): methods, patched on the class.
METHODS = [
    ("model.sign", "model", "ModelElement", "sign"),
    ("decomposition.contains", "decomposition", "Decomposition", "contains"),
    ("terms.evaluate", "terms", "HomeTerm", "evaluate"),
    ("terms.evaluate", "terms", "QuotientTerm", "evaluate"),
    ("coding.value_at", "coding", "FunctionCode", "value_at"),
]

# span names in report order
LAYER_SPANS = list(dict.fromkeys(name for name, *_ in FUNCTIONS + METHODS))


def _after_dnf(rec: "SpanRecorder", args, result) -> None:
    n = len(result)
    rec.counters["formulas.dnf_clauses.clauses_out"] += n
    rec.maxima["formulas.dnf_clauses.max_clauses_out"] = max(
        rec.maxima["formulas.dnf_clauses.max_clauses_out"], n
    )


def _after_oracle(rec: "SpanRecorder", args, result) -> None:
    rec.counters["oracles.oracle.witnesses"] += bool(result[0])


def _after_decompose(rec: "SpanRecorder", args, result) -> None:
    rec.counters["decomposition.pieces_out"] += len(result.pieces)


AFTER = {
    "formulas.dnf_clauses": _after_dnf,
    "oracles.oracle": _after_oracle,
    "decomposition.decompose": _after_decompose,
}


class SpanRecorder:
    """Spans and counters of one traced phase; recording only while ``on``."""

    def __init__(self) -> None:
        self.on = False
        self.op = -1
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("l")
        self.op_id = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._open: set[str] = set()
        self.counters: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self._undo: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.start)

    def _intern(self, name: str) -> int:
        got = self._name_ids.get(name)
        if got is None:
            got = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return got

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name_id.append(self._intern(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op_id.append(self.op)
        self.end.append(0.0)
        self._stack.append(idx)
        self._open.add(name)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int, name: str) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()
        self._open.discard(name)

    def wrap(self, name: str, fn):
        rec = self
        after = AFTER.get(name)

        def traced(*args, **kwargs):
            if not rec.on or name in rec._open:
                return fn(*args, **kwargs)
            idx = rec.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.close(idx, name)
            if after is not None:
                after(rec, args, result)
            return result

        return functools.wraps(fn)(traced)

    def _count_enclosure(self, fn):
        rec = self

        def counted(element, bits):
            if rec.on:
                rec.counters["model.enclosure.calls"] += 1
                if bits > rec.maxima["model.enclosure.max_bits"]:
                    rec.maxima["model.enclosure.max_bits"] = bits
            return fn(element, bits)

        return functools.wraps(fn)(counted)

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, callers=()) -> None:
        """Patch every layer entry point, in densepairs and in the ``callers``
        modules (the benchmark's own); ``uninstall`` restores them."""
        package = importlib.import_module("densepairs")
        modules = [package, *callers] + [
            importlib.import_module(f"densepairs.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
        ]
        for name, module_name, attr in FUNCTIONS:
            # densepairs.qe is the function re-exported by __init__, so the
            # module is looked up by its full name, never as an attribute
            original = getattr(importlib.import_module(f"densepairs.{module_name}"), attr)
            traced = self.wrap(name, original)
            for module in modules:
                for bound, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, bound, traced)
        for name, module_name, cls_name, method in METHODS:
            cls = getattr(importlib.import_module(f"densepairs.{module_name}"), cls_name)
            self._set(cls, method, self.wrap(name, vars(cls)[method]))
        model = importlib.import_module("densepairs.model")
        self._set(
            model.ModelElement,
            "enclosure",
            self._count_enclosure(vars(model.ModelElement)["enclosure"]),
        )

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def run_op(self, op_index: int, fn):
        """Run one benchmark op under a root span and return its result."""
        self.op = op_index
        self.on = True
        idx = self.open(ROOT)
        try:
            return fn()
        finally:
            self.close(idx, ROOT)
            self.on = False

    def write(self, path) -> None:
        """All spans as gzip-compressed TSV, times relative to the first span."""
        t0 = self.start[0] if len(self) else 0.0
        with gzip.open(path, "wt", encoding="ascii") as out:
            out.write("id\tparent\top\tname\tstart_s\tend_s\n")
            for i in range(len(self)):
                out.write(
                    f"{i}\t{self.parent[i]}\t{self.op_id[i]}\t{self.names[self.name_id[i]]}"
                    f"\t{self.start[i] - t0:.9f}\t{self.end[i] - t0:.9f}\n"
                )


def self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the part of it its child spans cover.

    Children are clipped to the parent's interval and overlapping children
    are counted once, so the result never goes below zero.
    """
    children: dict[int, list[int]] = defaultdict(list)
    for i, p in enumerate(parents):
        if p >= 0:
            children[p].append(i)
    out = []
    for i in range(len(starts)):
        s, e = starts[i], ends[i]
        covered = 0.0
        reach = s
        for lo, hi in sorted((starts[c], ends[c]) for c in children.get(i, ())):
            lo, hi = max(lo, reach), min(hi, e)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((e - s) - covered)
    return out


def layer_totals(rec: SpanRecorder) -> dict[str, dict[str, float]]:
    """Calls, summed self time and summed inclusive time per span name.

    A name is never open twice at once, so its inclusive times never overlap.
    """
    selfs = self_times(rec.start, rec.end, rec.parent)
    totals: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0}
    )
    for i, own in enumerate(selfs):
        entry = totals[rec.names[rec.name_id[i]]]
        entry["calls"] += 1
        entry["self_s"] += own
        entry["total_s"] += rec.end[i] - rec.start[i]
    return dict(totals)
