"""Spans around every public function of the six fengrao layers.

``Tracer.install`` replaces each public function of a layer module with
a timing wrapper, both on the defining module and on every other
``fengrao.*`` module attribute bound to the same object (``cli.divisors``,
``distances.divisors``, the package re-exports).  Generator functions
are timed per ``next()``, so a search that streams its results charges
each step to the layer that produced it.

Spans (name, start, end, parent) are kept in flat arrays and written out
once, at the end.  A span's self time is its duration minus the
durations of its direct children; calls are synchronous and generator
steps nest inside their consumer's step, so children never overlap.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from math import comb
from pathlib import Path

LAYERS = ("semigroup", "divisors", "amenable", "distances", "interval", "cli")

# per-layer metric -> (kind, target), target a function or a whole layer:
#   self_ms  self time     calls   spans      yields  items a generator produced
#   extra    a counter that OBSERVERS derive from arguments and results
METRICS = {
    "amenable.enumerate_ms": ("self_ms", "amenable.enumerate_amenable"),
    "amenable.sets": ("yields", "amenable.enumerate_amenable"),
    "amenable.dedup_ms": ("self_ms", "amenable.shadow_representatives"),
    "amenable.shadows": ("yields", "amenable.shadow_representatives"),
    "distances.self_ms": ("self_ms", "distances"),
    "distances.minimize_ms": ("self_ms", "distances.feng_rao_distance"),
    "distances.searches": ("calls", "distances.feng_rao_distance"),
    "distances.brute_ms": ("self_ms", "distances.brute_force_distance"),
    "distances.brute_subsets": ("extra", "distances.brute_force_distance"),
    "semigroup.self_ms": ("self_ms", "semigroup"),
    "semigroup.constructions": ("calls", "semigroup.from_generators"),
    "divisors.self_ms": ("self_ms", "divisors"),
    "divisors.calls": ("calls", "divisors"),
    "divisors.elements": ("extra", "divisors"),
    "interval.self_ms": ("self_ms", "interval"),
    "interval.calls": ("calls", "interval"),
    "cli.self_ms": ("self_ms", "cli"),
}


def _brute_subsets(signature: inspect.Signature, args, kwargs, result) -> int:
    """C(rho_r, r-1): the subsets brute force scanned for this call."""
    bound = signature.bind(*args, **kwargs).arguments
    r = bound["r"]
    return comb(bound["sgp"].rho(r), r - 1)


def _divisor_elements(signature: inspect.Signature, args, kwargs, result) -> int:
    return len(result.elements) if hasattr(result, "elements") else 0


# counters derived from a call's arguments and result: function or layer -> fn
OBSERVERS = {
    "distances.brute_force_distance": _brute_subsets,
    "divisors": _divisor_elements,
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.yields: dict[str, int] = {}
        self.extra: dict[str, int] = {}

    # ------------------------------------------------------------ wrapping

    def _open(self, nid: int) -> int:
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self.stack[-1])
        self.span_end.append(0.0)
        self.stack.append(idx)
        self.span_start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        observe = OBSERVERS.get(name) or OBSERVERS.get(name.split(".")[0])
        signature = inspect.signature(fn) if observe else None
        open_, close = self._open, self._close

        if inspect.isgeneratorfunction(fn):
            self.yields[name] = 0
            yields = self.yields

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                try:
                    while True:
                        idx = open_(nid)
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                        finally:
                            close(idx)
                        yields[name] += 1
                        yield item
                finally:
                    it.close()

            return gen_wrapper

        extra = self.extra
        counter = name if name in OBSERVERS else name.split(".")[0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = open_(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if observe is not None:
                extra[counter] = extra.get(counter, 0) + observe(signature, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap the public functions of every layer module that exists."""
        package = [m for n, m in list(sys.modules.items())
                   if (n == "fengrao" or n.startswith("fengrao.")) and m is not None]
        for layer in LAYERS:
            module = sys.modules.get(f"fengrao.{layer}")
            if module is None:
                continue
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_") or isinstance(obj, type) or not callable(obj)
                        or getattr(obj, "__module__", None) != module.__name__):
                    continue
                wrapped = self.wrap(f"{layer}.{attr}", obj)
                for mod in package:
                    for key, value in list(vars(mod).items()):
                        if value is obj:
                            setattr(mod, key, wrapped)

    # ------------------------------------------------------------ results

    def per_function(self) -> dict[str, dict]:
        """calls and self_ms of every wrapped function.

        A generator's calls are its spans: one per next(), the last empty.
        """
        n = len(self.span_start)
        starts, ends, parents, names = self.span_start, self.span_end, self.span_parent, self.span_name
        child = [0.0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        out = {name: {"calls": 0, "self_ms": 0.0} for name in self.names}
        for i in range(n):
            entry = out[self.names[names[i]]]
            entry["calls"] += 1
            entry["self_ms"] += (ends[i] - starts[i] - child[i]) * 1000.0
        return out

    def metrics(self) -> tuple[dict[str, float], list[str]]:
        """The per-layer metrics, and the names of those that are absent."""
        funcs = self.per_function()
        values: dict[str, float] = {}
        absent: list[str] = []
        for metric, (kind, target) in METRICS.items():
            members = [v for k, v in funcs.items() if k == target or k.startswith(target + ".")]
            if not members:
                absent.append(metric)
            elif kind == "yields":
                values[metric] = self.yields[target]
            elif kind == "extra":
                values[metric] = self.extra.get(target, 0)
            else:
                field = "self_ms" if kind.endswith("_ms") else "calls"
                values[metric] = sum(v[field] for v in members)
        return values, absent

    def write_spans(self, path: Path) -> None:
        """Binary spans: a JSON header line, then name, parent, start, end arrays."""
        header = {"names": self.names, "count": len(self.span_start),
                  "arrays": ["name:i", "parent:i", "start:d", "end:d"]}
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(fh)
