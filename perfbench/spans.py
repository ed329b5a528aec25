"""Spans around the public functions of the perpetuants package.

`Recorder.install` wraps every public function that a layer module defines,
plus `Poly.__mul__`, `Poly.__add__`/`__radd__` and `Poly.scale`, and puts the
wrapper at every binding site of the original: the defining module, every
other layer module that imported the name with `from .x import y`, and the
package namespace.  A call that bypassed its wrapper would show up as self
time of its caller, so each site matters.

Each wrapped call records one span (name, start, end, parent span, operation
id) in flat arrays.  `summary` turns the spans into per-layer call counts and
self times; a span's self time is its duration minus the durations of its
direct children.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from contextlib import contextmanager

LAYERS = ("polycore", "linalg", "symfunc", "umbral", "basis", "perpetua", "binforms", "cli")

# span name -> the Poly attributes bound to one function
POLY_METHODS = {
    "polycore.Poly.mul": ("__mul__",),
    "polycore.Poly.add": ("__add__", "__radd__"),
    "polycore.Poly.scale": ("scale",),
}

OP = "bench.op"  # one benchmark operation; its self time is unattributed
SIZING = "trace.sizing"  # computing sizes of layer inputs and outputs


def _max_bits(rows):
    bits = 0
    for row in rows:
        for x in row:
            b = max(abs(x.numerator).bit_length(), x.denominator.bit_length())
            if b > bits:
                bits = b
    return bits


def _count_terms(args, result, acc):
    acc["out_terms"] = acc.get("out_terms", 0) + len(result)


def _count_polys(args, result, acc):
    acc["out_polys"] = acc.get("out_polys", 0) + len(result)


def _matrix_size(args, result, acc):
    matrix = args[0]
    acc["cells"] = acc.get("cells", 0) + len(matrix) * (len(matrix[0]) if matrix else 0)
    acc["max_bits"] = max(acc.get("max_bits", 0), _max_bits(matrix))


def _alpha_bits(args, result, acc):
    acc["max_bits"] = max(acc.get("max_bits", 0), _max_bits(result.entries))


# span name -> (sizer, whether it is costly enough to get its own span)
SIZERS = {
    "polycore.Poly.mul": (_count_terms, False),
    "perpetua.decomposable_span": (_count_polys, False),
    "linalg.bareiss_echelon": (_matrix_size, True),
    "symfunc.transition_alpha": (_alpha_bits, True),
}


class Recorder:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self):
        self.names = []
        self.name_ids = {}
        self.starts = array("d")
        self.ends = array("d")
        self.kinds = array("l")
        self.parents = array("l")
        self.ops = array("l")
        self.current = -1
        self.op_id = -1
        self.sizes = {}
        self.caches = {}
        self._patches = []

    def _name_id(self, name):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def _open(self, nid):
        i = len(self.kinds)
        self.kinds.append(nid)
        self.parents.append(self.current)
        self.ops.append(self.op_id)
        self.ends.append(0.0)
        self.current = i
        self.starts.append(time.perf_counter())
        return i

    def _close(self, i):
        self.ends[i] = time.perf_counter()
        self.current = self.parents[i]

    def wrap(self, fn, name):
        nid = self._name_id(name)
        sizer, costly = SIZERS.get(name, (None, False))
        acc = self.sizes.setdefault(name, {})
        sizing = self._name_id(SIZING)
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = rec._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec._close(i)
            if sizer is not None:
                if costly:
                    j = rec._open(sizing)
                    sizer(args, result, acc)
                    rec._close(j)
                else:
                    sizer(args, result, acc)
            return result

        wrapper.span_name = name
        return wrapper

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, package):
        """Wrap the layers of `package` at every binding site."""
        modules = [importlib.import_module(f"{package.__name__}.{m}") for m in LAYERS]
        sites = [package] + modules
        for short, module in zip(LAYERS, modules):
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                name = f"{short}.{attr}"
                wrapper = self.wrap(obj, name)
                if hasattr(obj, "cache_info"):
                    self.caches[name] = obj
                for site in sites:
                    for site_attr, bound in list(vars(site).items()):
                        if bound is obj:
                            self._patch(site, site_attr, wrapper)
        poly = modules[0].Poly
        for name, attrs in POLY_METHODS.items():
            wrapper = self.wrap(vars(poly)[attrs[0]], name)
            for attr in attrs:
                self._patch(poly, attr, wrapper)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def operation(self):
        """One benchmark operation: a root span with a fresh operation id."""
        self.op_id += 1
        i = self._open(self._name_id(OP))
        try:
            yield
        finally:
            self._close(i)

    def summary(self):
        """{span name: {"calls", "self_s", size stats..., "hits", "misses"}}."""
        n = len(self.kinds)
        child = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        out = {name: {"calls": 0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            entry = out[self.names[self.kinds[i]]]
            entry["calls"] += 1
            entry["self_s"] += self.ends[i] - self.starts[i] - child[i]
        for name, acc in self.sizes.items():
            out[name].update(acc)
        for name, cached in self.caches.items():
            info = cached.cache_info()
            out[name].update(hits=info.hits, misses=info.misses)
        return out
