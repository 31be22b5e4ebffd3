"""Boundary spans for the traced benchmark pass.

A :class:`Tracer` replaces, while it is installed, every public function of
the library's layer modules with a timing wrapper, but only where another
module (or the benchmark) binds the name: calls a module makes to its own
functions stay unwrapped, so a layer's self time is not split by its own
helpers. Modules bound as a whole (``from . import tables``) are replaced by
a copy whose public functions are wrapped. ``cli`` is traced through
``cli.main``.

The exceptions are the functions in ``INSIDE``: their metrics are about work
repeated inside their own module (``contact_identity_residuals`` recomputing
``h_tensor``, ``constraint_residuals`` computing ``christoffel`` twice), so
they are wrapped in the defining module as well. A span nested in a span of
the same layer adds to that layer's self time exactly what it removes from
its parent, so layer self times are unchanged by this; layer call counts
only count spans entered from another layer.

Aggregates are kept as the calls happen. Spans are kept in memory as packed
integers and written out by :meth:`Tracer.write` when the run ends.
"""

from __future__ import annotations

import array
import functools
import gzip
import itertools
import json
import sys
import threading
import types
from collections import defaultdict
from time import perf_counter_ns

import numpy as np

PACKAGE = "epscontact"
LAYERS = ("liealg", "exterior", "curvature", "contact", "einstein", "tables",
          "product6d", "cauchy", "oracle")
ALL_LAYERS = LAYERS + ("cli",)
INSIDE = {
    "curvature": ("levi_civita", "riemann_ricci"),
    "contact": ("characteristic_endo", "h_tensor", "contact_frame"),
    "einstein": ("fit_eta_einstein",),
    "cauchy": ("christoffel",),
}
SPAN_FIELDS = ("id", "parent", "trace", "name", "site", "start_ns", "end_ns", "failed")


def _array_bytes(value) -> int:
    """Bytes of the arrays in a value, one level into dataclasses and tuples."""
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, (tuple, list)):
        return sum(_array_bytes(v) for v in value)
    fields = getattr(value, "__dataclass_fields__", None)
    if fields:
        return sum(_array_bytes(getattr(value, f)) for f in fields
                   if isinstance(getattr(value, f), (np.ndarray, tuple)))
    return 0


def _cauchy_bytes(args, kwargs, result) -> int:
    return _array_bytes(args) + _array_bytes(tuple(kwargs.values())) + _array_bytes(result)


# per-call quantities summed per function: hits returned by a scan, and the
# array bytes (computed from shapes, not measured) entering and leaving the
# finite-difference layer
MEASURES = {"einstein.scan_family": lambda args, kwargs, result: len(result)}
LAYER_MEASURES = {"cauchy": _cauchy_bytes}


class Tracer:
    """Installs boundary wrappers into the loaded ``epscontact`` modules and
    the given benchmark modules, and aggregates what they record."""

    def __init__(self, bench_modules=()):
        self.bench_modules = list(bench_modules)
        self.fn_stats = defaultdict(lambda: [0, 0, 0])      # calls, ns, measure
        self.layer_stats = defaultdict(lambda: [0, 0, 0])   # entries, self ns, failed
        self.edges = defaultdict(int)                       # (parent, name) -> calls
        self.spans = array.array("q")
        self.names: list = []
        self._name_ids: dict = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        mods = {n: m for n, m in sys.modules.items()
                if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))}
        layer_mods = {f"{PACKAGE}.{layer}": layer for layer in LAYERS}
        public = {}
        for modname, layer in layer_mods.items():
            for fname, obj in vars(mods[modname]).items():
                if (not fname.startswith("_") and callable(obj)
                        and not isinstance(obj, type)
                        and getattr(obj, "__module__", None) == modname):
                    public[id(obj)] = (layer, fname, obj)
        cli_main = mods[f"{PACKAGE}.cli"].main
        public[id(cli_main)] = ("cli", "main", cli_main)

        sites = [(n.rsplit(".", 1)[-1], m) for n, m in mods.items() if n != PACKAGE]
        sites += [("bench", m) for m in self.bench_modules]
        for site, mod in sites:
            for name, obj in list(vars(mod).items()):
                hit = public.get(id(obj))
                if hit is not None:
                    layer, fname, fn = hit
                    if layer == site and fname not in INSIDE.get(layer, ()):
                        continue
                    self._patch(mod, name, self._wrap(layer, fname, fn, site))
                elif isinstance(obj, types.ModuleType) and obj.__name__ in layer_mods:
                    self._patch(mod, name, self._proxy(obj, layer_mods[obj.__name__], site))

    def uninstall(self) -> None:
        for mod, name, original in reversed(self._patches):
            setattr(mod, name, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _patch(self, mod, name, value) -> None:
        self._patches.append((mod, name, getattr(mod, name)))
        setattr(mod, name, value)

    def _proxy(self, module, layer: str, site: str):
        proxy = types.ModuleType(module.__name__)
        proxy.__dict__.update(vars(module))
        for fname, obj in vars(module).items():
            if (not fname.startswith("_") and callable(obj) and not isinstance(obj, type)
                    and getattr(obj, "__module__", None) == module.__name__):
                setattr(proxy, fname, self._wrap(layer, fname, obj, site))
        return proxy

    # -- recording ----------------------------------------------------------

    def _intern(self, text: str) -> int:
        if text not in self._name_ids:
            self._name_ids[text] = len(self.names)
            self.names.append(text)
        return self._name_ids[text]

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, layer: str, fname: str, fn, site: str):
        name = f"{layer}.{fname}"
        measure = MEASURES.get(name) or LAYER_MEASURES.get(layer)
        name_i, site_i = self._intern(name), self._intern(site)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            sid = next(tracer._ids)
            # frame: id, child ns, layer, name, trace id
            frame = [sid, 0, layer, name, parent[4] if parent else sid]
            stack.append(frame)
            failed = True
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                if parent is not None:
                    parent[1] += t1 - t0
                extra = measure(args, kwargs, result) if measure and not failed else 0
                tracer._record(frame, parent, name_i, site_i, t0, t1, failed, extra)

        return traced

    def _record(self, frame, parent, name_i, site_i, t0, t1, failed, extra) -> None:
        sid, child_ns, layer, name, trace = frame
        with self._lock:
            fs = self.fn_stats[name]
            fs[0] += 1
            fs[1] += t1 - t0
            fs[2] += extra
            ls = self.layer_stats[layer]
            ls[1] += t1 - t0 - child_ns
            if parent is None or parent[2] != layer:
                ls[0] += 1
                ls[2] += failed
            self.edges[(parent[3] if parent else None, name)] += 1
            self.spans.extend((sid, parent[0] if parent else 0, trace, name_i, site_i,
                               t0, t1, int(failed)))

    # -- results ------------------------------------------------------------

    def edge(self, parent: str, name: str) -> int:
        return self.edges.get((parent, name), 0)

    def calls(self, name: str) -> int:
        return self.fn_stats[name][0] if name in self.fn_stats else 0

    def us_per_call(self, name: str) -> float:
        calls, ns, _ = self.fn_stats.get(name, (0, 0, 0))
        return ns / calls / 1e3 if calls else 0.0

    def measure(self, name_prefix: str) -> int:
        return sum(s[2] for n, s in self.fn_stats.items() if n.startswith(name_prefix))

    def layer_metrics(self) -> dict:
        """calls (entries from another layer), self_s, self_share and failed
        (entries that raised) for every layer, cli included."""
        total = sum(self.layer_stats[layer][1] for layer in ALL_LAYERS) or 1
        out = {}
        for layer in ALL_LAYERS:
            entries, self_ns, failed = self.layer_stats[layer]
            out[f"{layer}.calls"] = entries
            out[f"{layer}.self_s"] = self_ns / 1e9
            out[f"{layer}.self_share"] = self_ns / total
            out[f"{layer}.failed"] = failed
        return out

    def write(self, path, **header) -> int:
        """Write the spans as gzipped JSON lines after a header line naming
        the fields (plus ``header``); returns the number of spans written."""
        width = len(SPAN_FIELDS)
        n = len(self.spans) // width
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps({"fields": SPAN_FIELDS, "clock": "perf_counter_ns",
                                 **header}) + "\n")
            for k in range(n):
                row = self.spans[k * width:(k + 1) * width].tolist()
                row[3] = self.names[row[3]]
                row[4] = self.names[row[4]]
                row[7] = bool(row[7])
                fh.write(json.dumps(row) + "\n")
        return n
