"""Spans around calls into each leavitt layer, recorded from outside the program.

``Tracer.install`` replaces every binding of each traced function, in every
``leavitt.*`` module namespace, with a wrapper that records a span: name,
start, end, parent span and op id.  Spans are kept in flat arrays while the
run lasts, written out with ``dump`` when it ends, and turned into per-layer
metrics by ``layer_metrics``.  ``uninstall`` restores every original binding.

Traced: the public functions of each layer module, the cross-module helper
``ideals._graded_prime_flags``, and the methods in ``METHODS``.  Leaf helpers
called hundreds of thousands of times per op (``SKIP``) stay unwrapped;
their time lands in the caller's self time, which keeps the overhead bounded.
"""

from __future__ import annotations

import array
import functools
import importlib
import inspect
import json
import sys
from time import thread_time as clock  # the clock the worker times ops with
from typing import Callable, Dict, List

LAYERS = ("cli", "serialize", "theorems", "ideals", "lattice", "graphs", "laurent")
EXTRA = {"ideals": ("_graded_prime_flags",)}
SKIP = {"graphs.is_finite", "lattice.is_hereditary", "lattice.is_saturated"}
METHODS = {
    "lattice": ("PairLattice", ("__init__", "meet", "join")),
    "laurent": ("LaurentPoly", ("__mul__", "__pow__")),
}
OP = "op"  # the span around one whole op; its self time is the uncovered remainder

# Result sizes and argument keys recorded for the per-layer ratios.
SIZES: Dict[str, Callable] = {
    "lattice.enumerate_hs": lambda args, out: len(out),
    "lattice.PairLattice.__init__": lambda args, out: len(args[2]),
}
KEYS: Dict[str, Callable] = {
    "lattice.quotient": lambda op, args: (op, id(args[0]), args[1]),
    "laurent.factor": lambda op, args: args[0],
}


class Tracer:
    def __init__(self):
        self.names: List[str] = [OP]
        self.name = array.array("i")
        self.parent = array.array("i")
        self.op = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.sizes: Dict[str, int] = {k: 0 for k in SIZES}
        self.keys: Dict[str, set] = {k: set() for k in KEYS}
        self.current_op = -1  # spans are recorded only inside an op
        self._stack: List[int] = []
        self._patches: List[tuple] = []

    # -- recording

    def _open(self, nid: int) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.current_op)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(clock())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = clock()
        self._stack.pop()

    def run_op(self, op_id: int, fn: Callable):
        """Call fn inside an op span."""
        self.current_op = op_id
        i = self._open(0)
        try:
            return fn()
        finally:
            self._close(i)
            self.current_op = -1

    def _wrap(self, name: str, fn: Callable) -> Callable:
        nid = len(self.names)
        self.names.append(name)
        size, key = SIZES.get(name), KEYS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.current_op < 0:
                return fn(*args, **kwargs)
            i = tracer._open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(i)
            if size is not None:
                tracer.sizes[name] += size(args, out)
            if key is not None:
                tracer.keys[name].add(key(tracer.current_op, args))
            return out

        traced.perfbench_traced = True
        return traced

    # -- patching

    def _plan(self) -> List[tuple]:
        """(target, attribute, original, wrapper) for every binding the tracer replaces."""
        plan = []
        wrappers: Dict[int, Callable] = {}  # id(original) -> wrapper
        for layer in LAYERS:
            mod = importlib.import_module(f"leavitt.{layer}")
            for attr, obj in sorted(vars(mod).items()):
                if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                if (attr.startswith("_") and attr not in EXTRA.get(layer, ())) or f"{layer}.{attr}" in SKIP:
                    continue
                wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
            if layer in METHODS:
                cls_name, methods = METHODS[layer]
                cls = getattr(mod, cls_name)
                for meth in methods:
                    orig = cls.__dict__[meth]
                    plan.append((cls, meth, orig, self._wrap(f"{layer}.{cls_name}.{meth}", orig)))
        for n, mod in sorted(sys.modules.items()):
            if n == "leavitt" or n.startswith("leavitt."):
                for attr, obj in vars(mod).items():
                    if inspect.isfunction(obj) and id(obj) in wrappers:
                        plan.append((mod, attr, obj, wrappers[id(obj)]))
        return plan

    def install(self) -> None:
        if not self._patches:
            self._patches = self._plan()
        for target, attr, _, wrapper in self._patches:
            setattr(target, attr, wrapper)

    def uninstall(self) -> None:
        for target, attr, orig, _ in reversed(self._patches):
            setattr(target, attr, orig)

    # -- output

    def dump(self, path: str) -> None:
        """Write the spans (binary arrays) and their name table (JSON) next to it."""
        with open(path + ".bin", "wb") as handle:
            for arr in (self.name, self.parent, self.op, self.start, self.end):
                arr.tofile(handle)
        meta = {
            "names": self.names,
            "count": len(self.name),
            "sizes": self.sizes,
            "distinct": {k: len(v) for k, v in self.keys.items()},
        }
        with open(path + ".json", "w", encoding="utf-8") as handle:
            json.dump(meta, handle)


def traced_bindings() -> List[str]:
    """Every ``leavitt`` binding that currently holds a tracer wrapper."""
    found = []
    for n, mod in sorted(sys.modules.items()):
        if n == "leavitt" or n.startswith("leavitt."):
            for attr, obj in vars(mod).items():
                if getattr(obj, "perfbench_traced", False):
                    found.append(f"{n}.{attr}")
                if inspect.isclass(obj):
                    methods = [m for m, f in vars(obj).items() if getattr(f, "perfbench_traced", False)]
                    found.extend(f"{n}.{attr}.{m}" for m in methods)
    return found


def load(path: str) -> dict:
    with open(path + ".json", encoding="utf-8") as handle:
        meta = json.load(handle)
    n = meta["count"]
    with open(path + ".bin", "rb") as handle:
        for field, code in (("name", "i"), ("parent", "i"), ("op", "i"), ("start", "d"), ("end", "d")):
            arr = array.array(code)
            arr.fromfile(handle, n)
            meta[field] = arr
    return meta


def self_times(spans: dict) -> Dict[str, dict]:
    """Per span name: calls, total time, self time, and calls made from enumerate_hs."""
    n = spans["count"]
    names = spans["names"]
    name, parent, start, end = spans["name"], spans["parent"], spans["start"], spans["end"]
    dur = [end[i] - start[i] for i in range(n)]
    child = [0.0] * n
    for i in range(n):
        if parent[i] >= 0:
            child[parent[i]] += dur[i]
    out = {nm: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "under_enumerate_hs": 0} for nm in names}
    hs_id = names.index("lattice.enumerate_hs") if "lattice.enumerate_hs" in names else -2
    for i in range(n):
        row = out[names[name[i]]]
        row["calls"] += 1
        row["total_s"] += dur[i]
        row["self_s"] += dur[i] - child[i]
        if parent[i] >= 0 and name[parent[i]] == hs_id:
            row["under_enumerate_hs"] += 1
    return out


def layer_metrics(spans: dict, ops: int, untraced_s: float) -> Dict[str, tuple]:
    """The per-layer metrics, as ``{name: (value, unit)}``, for ``ops`` traced ops."""
    st = self_times(spans)
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "under_enumerate_hs": 0}
    sizes, distinct = spans["sizes"], spans["distinct"]

    def row(name: str) -> dict:
        return st.get(name, empty)

    def calls(name: str) -> tuple:
        return row(name)["calls"], "count"

    def self_s(name: str) -> tuple:
        return row(name)["self_s"], "s"

    def ratio(a: float, b: float, unit: str = "ratio") -> tuple:
        return (a / b if b else 0.0), unit

    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, r in st.items():
        if name != OP:
            layer_self[name.split(".")[0]] += r["self_s"]
    op_s = row(OP)["total_s"]
    closure = "lattice.hereditary_saturated_closure"
    m: Dict[str, tuple] = {f"{layer}.self_s": (layer_self[layer], "s") for layer in LAYERS}
    m.update(
        {
            "lattice.enumerate_hs.calls_per_op": ratio(calls("lattice.enumerate_hs")[0], ops, "calls/op"),
            "lattice.hs_closure.calls": calls(closure),
            "lattice.hs_closure.per_hs": ratio(row(closure)["under_enumerate_hs"], sizes["lattice.enumerate_hs"]),
            "lattice.pair_lattice_init.self_s": self_s("lattice.PairLattice.__init__"),
            "lattice.pairs_built": (sizes["lattice.PairLattice.__init__"], "count"),
            "lattice.meet.calls": calls("lattice.PairLattice.meet"),
            "lattice.quotient.calls": calls("lattice.quotient"),
            "lattice.quotient.repeat_ratio": ratio(calls("lattice.quotient")[0], distinct["lattice.quotient"]),
            "lattice.breaking_vertices.calls": calls("lattice.breaking_vertices"),
            "ideals.prime_flags.self_s": self_s("ideals._graded_prime_flags"),
            "ideals.prime_flags.calls": calls("ideals._graded_prime_flags"),
            "ideals.make.calls": calls("ideals.make"),
            "ideals.contains.calls": calls("ideals.contains"),
            "laurent.factor.calls": calls("laurent.factor"),
            "laurent.factor.self_s": self_s("laurent.factor"),
            "laurent.factor.repeat_ratio": ratio(calls("laurent.factor")[0], distinct["laurent.factor"]),
            "laurent.poly_lcm.self_s": self_s("laurent.poly_lcm"),
            "laurent.poly_gcd.calls": calls("laurent.poly_gcd"),
            "laurent.divides.calls": calls("laurent.divides"),
            "laurent.mul.calls": calls("laurent.LaurentPoly.__mul__"),
            "graphs.exitless_cycles.calls": calls("graphs.exitless_cycles"),
            "graphs.downward_directed.calls": calls("graphs.downward_directed"),
            "graphs.condition_K.calls_per_op": ratio(calls("graphs.condition_K")[0], ops, "calls/op"),
            "theorems.quotient_exitless_cycles.calls": calls("theorems.quotient_exitless_cycles"),
            "serialize.load_graph.calls": calls("serialize.load_graph"),
            "trace.op_s": (op_s, "s"),
            "trace.uncovered_frac": ratio(row(OP)["self_s"], op_s, "fraction"),
            "trace.overhead_frac": ratio(op_s - untraced_s, untraced_s, "fraction"),
        }
    )
    return m
