"""Spans around the calls into each layer of ``elliptic_sl2``, installed from
outside the package.

A layer is one package module.  ``install`` replaces every public function of
a layer, and every function a module imports from another layer, by a wrapper
in each namespace where callers look the name up (a ``from .x import y``
binding lives in the caller's module).  A wrapper opens a span only when the
call crosses into its layer from another layer or from the benchmark; calls
inside one layer are counted but add no span, so a layer's self time is its
spans' time minus the spans of the layers it calls.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import Counter

import numpy as np

LAYERS = ("series", "elliptic", "liealg", "deform", "hopf", "autos", "rewrite", "cli")

# Functions whose inclusive time is reported on its own, whichever layer calls them.
TIMED = {
    "series.TruncatedSeries.revert": "series.revert_ms",
    "elliptic.jacobi_numeric": "elliptic.numeric_ms",
    "elliptic.complete_K": "elliptic.numeric_ms",
}

# TruncatedSeries methods treated as the series layer's public surface.
SERIES_METHODS = ("compose", "revert", "pow_rational", "deriv", "eval", "truncated",
                  "__add__", "__radd__", "__neg__", "__sub__", "__rsub__",
                  "__mul__", "__rmul__")
SERIES_CLASSMETHODS = ("constant", "identity")

MAX_SPANS = 20_000   # spans kept for the trace file; the aggregates cover every call


class Tracer:
    """Collects spans (op, id, parent, layer, name, start, end) in memory and
    folds them into per-layer counts and self times as they close."""

    def __init__(self):
        self.active = False
        self.op = -1
        self.op_kind = ""
        self.stack = []          # open spans: [id, layer, start, child_seconds]
        self.spans = []
        self.dropped = 0
        self.next_id = 0
        self.calls = Counter()   # every wrapped call, per layer
        self.fn_calls = Counter()
        self.self_s = Counter()
        self.timed_s = Counter()
        self.hopf_max_dim = 0

    # -- spans ----------------------------------------------------------------

    def _open(self, layer):
        span_id = self.next_id
        self.next_id += 1
        self.stack.append([span_id, layer, time.perf_counter(), 0.0])

    def _close(self, name):
        span_id, layer, start, child = self.stack.pop()
        end = time.perf_counter()
        dur = end - start
        self.self_s[layer] += dur - child
        parent = self.stack[-1][0] if self.stack else -1
        if self.stack:
            self.stack[-1][3] += dur
        if len(self.spans) < MAX_SPANS:
            self.spans.append((self.op, span_id, parent, layer, name, start, end))
        else:
            self.dropped += 1

    def begin_op(self, kind):
        """Open the root span of one operation; layer spans nest under it."""
        self.op += 1
        self.op_kind = kind
        self.active = True
        self._open("op")

    def end_op(self):
        self._close(self.op_kind)
        self.active = False

    # -- wrappers -------------------------------------------------------------

    def wrap(self, layer, name, fn):
        metric = TIMED.get(name)
        hopf_dims = layer == "hopf"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            self.calls[layer] += 1
            self.fn_calls[name] += 1
            stack = self.stack
            in_hopf = hopf_dims or stack[-1][1] == "hopf"
            start = time.perf_counter() if metric else 0.0
            if stack[-1][1] == layer:
                result = fn(*args, **kwargs)
            else:
                self._open(layer)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._close(name)
            if metric:
                self.timed_s[metric] += time.perf_counter() - start
            if in_hopf:
                self.hopf_max_dim = max(self.hopf_max_dim, _max_dim(args), _max_dim(result))
            return result

        return traced


def _max_dim(obj):
    """Largest square-matrix dimension in a call's arguments or result."""
    if isinstance(obj, np.ndarray):
        return obj.shape[0] if obj.ndim == 2 else 0
    if isinstance(obj, (tuple, list)):
        return max((_max_dim(o) for o in obj), default=0)
    dx = getattr(obj, "DX", None)
    return dx.shape[0] if isinstance(dx, np.ndarray) else 0


def _public_functions(mod, layer):
    """The functions a layer lists in ``__all__``; for the CLI, ``main``."""
    own = {}
    for name in getattr(mod, "__all__", ()):
        obj = getattr(mod, name)
        if inspect.isfunction(obj):
            own[name] = obj
    if layer == "cli":
        own["main"] = mod.main
    return own


def install(tracer):
    """Wrap the layers of the imported package in place."""
    mods = {layer: importlib.import_module(f"elliptic_sl2.{layer}") for layer in LAYERS}
    package = importlib.import_module("elliptic_sl2")
    public = {}    # id(function) -> wrapper, installed in every namespace
    private = {}   # id(helper) -> (home module, wrapper), installed outside home
    for layer, mod in mods.items():
        for name, fn in _public_functions(mod, layer).items():
            public[id(fn)] = tracer.wrap(layer, f"{layer}.{name}", fn)
    # Private helpers a module imports from another layer (deform._asn in hopf).
    for layer, mod in mods.items():
        for name, obj in vars(mod).items():
            if id(obj) in public or not callable(obj) or inspect.isclass(obj):
                continue
            src = getattr(obj, "__module__", "") or ""
            home = src.rsplit(".", 1)[-1]
            if src.startswith("elliptic_sl2.") and home in mods and home != layer:
                private[id(obj)] = (mods[home], tracer.wrap(home, f"{home}.{name}", obj))
    for mod in (package, *mods.values()):
        for name, obj in list(vars(mod).items()):
            w = public.get(id(obj))
            if w is None and id(obj) in private and private[id(obj)][0] is not mod:
                w = private[id(obj)][1]
            if w is not None:
                setattr(mod, name, w)
    cls = mods["series"].TruncatedSeries
    for name in SERIES_METHODS:
        setattr(cls, name, tracer.wrap("series", f"series.TruncatedSeries.{name}",
                                       vars(cls)[name]))
    for name in SERIES_CLASSMETHODS:
        fn = vars(cls)[name].__func__
        setattr(cls, name, classmethod(tracer.wrap("series", f"series.TruncatedSeries.{name}", fn)))


def write_spans(tracer, path):
    """One JSON object per line: op, id, parent, layer, name, start_s, end_s."""
    with open(path, "w", encoding="utf-8") as fh:
        for op, span_id, parent, layer, name, start, end in tracer.spans:
            fh.write(json.dumps({"op": op, "id": span_id, "parent": parent, "layer": layer,
                                 "name": name, "start_s": start, "end_s": end}) + "\n")
