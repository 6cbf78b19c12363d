"""In-memory span tracer that wraps multifinsler functions from outside the package.

A span is one call of a wrapped function: its name, start, end, the span that
was open when it began (its parent) and the benchmark item it belongs to.
Spans are kept in flat arrays while the run lasts and written out at its end.
Self time is a span's duration minus the durations of its direct children;
in one thread children nest inside their parent, so that is the part of the
parent's interval the children do not cover.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
import time
from array import array

LAYERS = ("expr", "riemann", "finsler", "connection", "dim2", "measure",
          "geodesic", "config", "suites", "cli")

# Public methods wrapped in addition to the cross-module imports.
METHODS = (
    ("finsler", "MultiMetricSpace", "metric_values"),
    ("finsler", "MultiMetricSpace", "metric_derivatives"),
    ("riemann", "MetricField", "value"),
    ("riemann", "MetricField", "derivative"),
    ("riemann", "MetricField", "second_derivative"),
    ("riemann", "MetricField", "spd_value"),
)

# Module-level functions wrapped although no other module imports them: the
# command-line entry point and its report writers.
EXTRA_FUNCTIONS = (("cli", "main"), ("cli", "dumps_stable"), ("cli", "emit"))

# Constructors counted without a span: tangent samples set the base of
# riemann.spd_per_sample.
COUNTED = (("finsler", "TangentSample", "__init__"),)

NO_PARENT = -1


def self_times(starts, ends, parents):
    """Per-span self time: duration minus the summed durations of direct children."""
    out = [e - s for s, e in zip(starts, ends)]
    for i, p in enumerate(parents):
        if p != NO_PARENT:
            out[p] -= ends[i] - starts[i]
    return out


def package_modules():
    return {name.split(".", 1)[1]: mod for name, mod in sys.modules.items()
            if name.startswith("multifinsler.") and mod is not None}


def discover_targets():
    """(layer, qualname, owner, attribute) for every function the tracer wraps.

    A target is a function that one multifinsler module imports from another,
    one of METHODS, or one of EXTRA_FUNCTIONS; targets missing from the
    package are skipped.
    """
    mods = package_modules()
    found = {}
    for mod in mods.values():
        for value in vars(mod).values():
            if not inspect.isfunction(value) or value.__module__ == mod.__name__:
                continue
            owner_name = value.__module__.split(".", 1)[-1]
            if value.__module__.startswith("multifinsler.") and owner_name in LAYERS:
                found[(owner_name, value.__name__)] = (mods[owner_name], value.__name__)
    for layer, fname in EXTRA_FUNCTIONS:
        if layer in mods and inspect.isfunction(getattr(mods[layer], fname, None)):
            found[(layer, fname)] = (mods[layer], fname)
    for layer, cls_name, meth in METHODS:
        cls = getattr(mods.get(layer), cls_name, None)
        if cls is not None and inspect.isfunction(cls.__dict__.get(meth)):
            found[(layer, f"{cls_name}.{meth}")] = (cls, meth)
    return [(layer, qual, owner, attr) for (layer, qual), (owner, attr) in sorted(found.items())]


class Tracer:
    """Records spans for the wrapped functions while installed."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.span_name = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.items = array("l")
        self.item = 0
        self._stack = [NO_PARENT]
        self._patches = []  # (holder, attribute, original)
        self.counters: dict[str, float] = {}
        self.hooks = {}  # qualified name -> fn(args, kwargs, result)

    def _intern(self, name: str) -> int:
        if name not in self.name_id:
            self.name_id[name] = len(self.names)
            self.names.append(name)
        return self.name_id[name]

    def span(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called name."""
        return self._wrap(name, fn)(*args, **kwargs)

    def _wrap(self, name: str, fn):
        tracer = self
        sid = self._intern(name)
        hook = self.hooks.get(name)
        starts, ends, parents, items, span_name, stack = (
            self.starts, self.ends, self.parents, self.items, self.span_name, self._stack)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            span_name.append(sid)
            parents.append(stack[-1])
            items.append(tracer.item)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return wrapper

    def install(self):
        """Replace every target, in every module namespace that binds it, by its wrapper."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        mods = package_modules()
        mods[""] = sys.modules["multifinsler"]
        for layer, qual, owner, attr in discover_targets():
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            wrapper = self._wrap(f"{layer}.{qual}", original)
            if isinstance(owner, type):
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for mod in mods.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)
        for layer, cls_name, meth in COUNTED:
            cls = getattr(mods.get(layer), cls_name, None)
            if cls is not None and meth in cls.__dict__:
                original = cls.__dict__[meth]
                self._patches.append((cls, meth, original))
                setattr(cls, meth, self._counting(f"{layer}.{cls_name}", original))

    def _counting(self, key: str, fn):
        counters = self.counters

        def wrapper(*args, **kwargs):
            counters[key] = counters.get(key, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def uninstall(self):
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches = []

    def count(self, key: str, amount: float = 1.0):
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def summary(self):
        """Per span name: (calls, inclusive seconds, self seconds)."""
        own = self_times(self.starts, self.ends, self.parents)
        out = {}
        for i, sid in enumerate(self.span_name):
            calls, incl, selft = out.get(self.names[sid], (0, 0.0, 0.0))
            out[self.names[sid]] = (calls + 1, incl + self.ends[i] - self.starts[i], selft + own[i])
        return out

    def write(self, path):
        """Write the spans, gzip-compressed and tab-separated.

        The header line lists the span names; each later line is one span:
        name index, start and end in ns from the first start, parent, item.
        """
        t0 = self.starts[0] if len(self.starts) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("\t".join(self.names) + "\n")
            fh.writelines(
                f"{sid}\t{round((s - t0) * 1e9)}\t{round((e - t0) * 1e9)}\t{p}\t{item}\n"
                for sid, s, e, p, item in zip(self.span_name, self.starts, self.ends,
                                               self.parents, self.items))
