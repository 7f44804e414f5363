"""Per-layer tracing of heightzero, installed from outside the package.

The layers are heightzero's modules. `Tracer.install` wraps every function a
module exports (its `__all__`, or its public functions when it has none) and
every public method of its public classes, and patches each wrapper into every
heightzero namespace that imported the original (`reports.field_from_values`
is the same object as `fields.field_from_values`).

A wrapped call records a span (name, start, end, parent span, task) when it
enters a layer from another one, or when it is one of `NAMED`, the functions
reported on their own. A call that stays inside its layer is only counted:
its time already belongs to the enclosing span of that layer, so per-layer
self time is the same either way and the span count stays small. Element
arithmetic (the methods of `CycElt` and `FiniteGroup`) is counted and never
spanned: a span would cost more than the operation, so its time is charged to
the span that asked for it (group products in Dixon's class constants count
as chartab time). sympy's irreducibility tests are
counted as well, so a change of the residue-field search stays visible.

Spans are kept in memory; `write` saves them when the pass ends.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import time
from array import array

LAYERS = ("groups", "chartab", "blocks", "fields", "reports", "cyclotomic", "modular", "cli")

# reported name -> span name, for the functions that get metrics of their own
NAMED = {
    "fields.field_from_values": "fields.field_from_values",
    "blocks.block_partition": "blocks.block_partition",
    "chartab.check_orthogonality": "chartab.CharacterTable.check_orthogonality",
    "chartab.table_from_json": "chartab.table_from_json",
    "chartab.dixon_table": "chartab.dixon_table",
    "chartab.metacyclic_table": "chartab.metacyclic_table",
    "groups.conjugacy_classes": "groups.conjugacy_classes",
}
# named functions that every workload reaches; the others run on only some
# workloads, and a time that is zero on every run is reported by count alone
TIMED = (
    "fields.field_from_values",
    "blocks.block_partition",
    "chartab.dixon_table",
    "groups.conjugacy_classes",
)

COUNTED_CLASSES = ("CycElt", "FiniteGroup")
# CycElt methods counted under cyclotomic.<name>.calls; __radd__ is __add__
CYCELT_COUNTERS = {
    "galois": "galois",
    "__add__": "add",
    "__radd__": "add",
    "__mul__": "mul",
    "__rmul__": "mul",
}
IRREDUCIBILITY_TESTS = ("gf_irred_p_rabin", "gf_irred_p_ben_or")


def residue_degree(exponent, p):
    """f of the residue field GF(p^f) a table of this exponent reduces into:
    the multiplicative order of p modulo the p'-part e' of the exponent."""
    eprime = exponent
    while eprime % p == 0:
        eprime //= p
    f, acc = 1, p % eprime if eprime > 1 else 1
    while acc != 1:
        acc = acc * p % eprime
        f += 1
    return f


def _public(module):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [
            k
            for k, v in vars(module).items()
            if not k.startswith("_") and getattr(v, "__module__", None) == module.__name__
        ]
    return [(k, getattr(module, k)) for k in names]


class Tracer:
    def __init__(self):
        self.names = []  # name id -> qualified name
        self.layer_of = []  # name id -> layer
        self.counts = []  # name id -> calls
        self.span_name = array("q")
        self.span_parent = array("q")
        self.span_task = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self.stack = []  # open span indices
        self.stack_layer = []
        self.task = -1
        self.residue_fields = set()  # distinct (p, f)

    def _register(self, name, layer):
        self.names.append(name)
        self.layer_of.append(layer)
        self.counts.append(0)
        return len(self.names) - 1

    def _counted(self, name, layer, fn):
        nid = self._register(name, layer)
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[nid] += 1
            return fn(*args, **kwargs)

        return functools.wraps(fn)(wrapper)

    def _spanned(self, name, layer, fn):
        nid = self._register(name, layer)
        always = name in NAMED.values()
        counts, stack, stack_layer = self.counts, self.stack, self.stack_layer
        names, parents, tasks = self.span_name, self.span_parent, self.span_task
        starts, ends = self.span_start, self.span_end
        clock = time.perf_counter_ns
        tracer = self

        def wrapper(*args, **kwargs):
            counts[nid] += 1
            if not always and stack_layer and stack_layer[-1] == layer:
                return fn(*args, **kwargs)
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            tasks.append(tracer.task)
            ends.append(0)
            stack.append(i)
            stack_layer.append(layer)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
                stack_layer.pop()

        return functools.wraps(fn)(wrapper)

    def _observe_residue_field(self, fn):
        # f is derived from the table, not read from blocks' internals
        seen = self.residue_fields

        def block_partition(table, p, *args, **kwargs):
            seen.add((p, residue_degree(table.classes.exponent, p)))
            return fn(table, p, *args, **kwargs)

        return functools.wraps(fn)(block_partition)

    def _wrap_class(self, layer, cls):
        count_only = cls.__name__ in COUNTED_CLASSES
        for attr, fn in list(vars(cls).items()):
            if not inspect.isfunction(fn):
                continue
            if cls.__name__ == "CycElt" and attr in CYCELT_COUNTERS:
                name = f"{layer}.{CYCELT_COUNTERS[attr]}"
            elif attr.startswith("_"):
                continue
            else:
                name = f"{layer}.{cls.__name__}.{attr}"
            make = self._counted if count_only else self._spanned
            setattr(cls, attr, make(name, layer, fn))

    def install(self):
        """Wrap every layer's public surface; call once per process, before
        the first task."""
        from sympy.polys import galoistools

        modules = [importlib.import_module(f"heightzero.{layer}") for layer in LAYERS]
        for layer, module in zip(LAYERS, modules):
            for attr, obj in _public(module):
                if isinstance(obj, type):
                    if not issubclass(obj, BaseException):
                        self._wrap_class(layer, obj)
                    continue
                target = obj
                if f"{layer}.{attr}" == "blocks.block_partition":
                    target = self._observe_residue_field(obj)
                wrapped = self._spanned(f"{layer}.{attr}", layer, target)
                for mod in modules:
                    for k, v in list(vars(mod).items()):
                        if v is obj:
                            setattr(mod, k, wrapped)
        # gf_irreducible_p calls these by global name or via _irred_methods
        for attr in IRREDUCIBILITY_TESTS:
            original = getattr(galoistools, attr)
            wrapped = self._counted(f"sympy.{attr}", "sympy", original)
            setattr(galoistools, attr, wrapped)
            for method, fn in list(galoistools._irred_methods.items()):
                if fn is original:
                    galoistools._irred_methods[method] = wrapped

    def metrics(self, seconds):
        """Per-layer metrics of everything traced so far, as name -> (value,
        unit); `seconds(t0, t1)` converts a raw perf_counter interval."""
        n = len(self.span_start)
        dur = [seconds(self.span_start[i] / 1e9, self.span_end[i] / 1e9) for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            if self.span_parent[i] >= 0:
                child[self.span_parent[i]] += dur[i]
        self_s = dict.fromkeys(LAYERS, 0.0)
        outer_s = dict.fromkeys(NAMED.values(), 0.0)
        for i in range(n):
            nid = self.span_name[i]
            self_s[self.layer_of[nid]] += dur[i] - child[i]
            name = self.names[nid]
            if name in outer_s and not self._inside(i, nid):
                outer_s[name] += dur[i]
        calls = dict.fromkeys(LAYERS, 0)
        by_name = {}
        for nid, name in enumerate(self.names):
            by_name[name] = by_name.get(name, 0) + self.counts[nid]
            if self.layer_of[nid] in calls:
                calls[self.layer_of[nid]] += self.counts[nid]

        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (self_s[layer], "s")
            out[f"{layer}.calls"] = (calls[layer], "count")
        for metric, name in NAMED.items():
            if metric in TIMED:
                out[f"{metric}.s"] = (outer_s[name], "s")
            out[f"{metric}.calls"] = (by_name[name], "count")
        for op in sorted(set(CYCELT_COUNTERS.values())):
            out[f"cyclotomic.{op}.calls"] = (by_name[f"cyclotomic.{op}"], "count")
        degrees = [f for _, f in self.residue_fields]
        out["blocks.residue_degree_max"] = (max(degrees, default=0), "degree")
        out["blocks.residue_fields"] = (len(self.residue_fields), "count")
        tests = sum(by_name[f"sympy.{t}"] for t in IRREDUCIBILITY_TESTS)
        out["blocks.irreducibility_tests"] = (tests, "count")
        out["trace.spans"] = (n, "count")
        return out

    def _inside(self, i, nid):
        """Whether span i runs inside another span of the same name."""
        p = self.span_parent[i]
        while p >= 0:
            if self.span_name[p] == nid:
                return True
            p = self.span_parent[p]
        return False

    def write(self, path):
        """Save the spans as gzipped TSV: name, start_ns, end_ns, parent, task."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\ttask\n")
            for i in range(len(self.span_start)):
                fh.write(
                    f"{self.names[self.span_name[i]]}\t{self.span_start[i]}\t"
                    f"{self.span_end[i]}\t{self.span_parent[i]}\t{self.span_task[i]}\n"
                )
