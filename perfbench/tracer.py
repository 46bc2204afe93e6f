"""Per-layer tracing from outside the program.

Each listed function is replaced, in every `paracr` module and class that
holds it by name (including aliases such as `Poly.__rmul__`), by a wrapper
that records a span: layer, parent span, start and end.  Spans are kept in
memory, in flat integer arrays, and written out when the run ends.  A
layer's self time is its span's duration minus the time of its direct child
spans.
"""

from __future__ import annotations

import array
import inspect
import sys
import time

# (layer name, module, attribute path); "Poly.__mul__" names a method
LAYERS = (
    ("poly.mul", "poly", "Poly.__mul__"),
    ("poly.add", "poly", "Poly.__add__"),
    ("poly.substitute", "poly", "Poly.substitute"),
    ("series.implicit_solve", "series", "implicit_solve"),
    ("series.reciprocal", "series", "reciprocal"),
    ("series.ode_solve", "series", "ode_solve"),
    ("series.reverse_univariate", "series", "reverse_univariate"),
    ("linalg.rref", "linalg", "rref"),
    ("cmoperator.operator_matrix", "cmoperator", "operator_matrix"),
    ("cmoperator.decompose", "cmoperator", "decompose"),
    ("cmoperator.analyze", "cmoperator", "analyze"),
    ("surfaces.apply_map", "surfaces", "apply_map"),
    ("surfaces.invert_pair", "surfaces", "invert_pair"),
    ("surfaces.compose", "surfaces", "PointMap.compose"),
    ("surfaces.preliminary_reduce", "surfaces", "preliminary_reduce"),
    ("regnorm.normalize_jet", "regnorm", "normalize_jet"),
    ("regnorm.geometric_normalize", "regnorm", "geometric_normalize"),
    ("singnorm.prelim_reduce_singular", "singnorm", "prelim_reduce_singular"),
    ("singnorm.normalize_singular_jet", "singnorm", "normalize_singular_jet"),
    ("singnorm.finite_type", "singnorm", "finite_type"),
    ("odebridge.ode_to_surface", "odebridge", "ode_to_surface"),
    ("odebridge.eliminate_initial_conditions", "odebridge",
     "eliminate_initial_conditions"),
    ("odebridge.surface_to_ode", "odebridge", "surface_to_ode"),
    ("autodetect.isotropy_report", "autodetect", "isotropy_report"),
    ("cli.main", "cli", "main"),
    ("cli.parse_poly", "cli", "parse_poly"),
    ("cli.emit", "cli", "emit"),
)

COUNTS = ("poly.mul.terms_out", "poly.substitute.terms_out",
          "linalg.rref.cells", "cmoperator.operator_matrix.distinct")


def _model_key(model):
    if model is None:
        return None
    return (model.order, tuple(sorted(model.terms.items())))


class Tracer:
    """Installs the wrappers on `install` and removes them on `remove`."""

    def __init__(self):
        self.names = [name for name, _, _ in LAYERS]
        n = len(self.names)
        self.calls = [0] * n
        self.incl_ns = [0] * n
        self.self_ns = [0] * n
        self.counts = {c: 0 for c in COUNTS}
        self.matrix_keys: set = set()
        # spans: layer id, parent span index (-1 at the top), start, end
        self.span_layer = array.array("q")
        self.span_parent = array.array("q")
        self.span_start = array.array("q")
        self.span_end = array.array("q")
        self._stack: list = []  # [span index, child time]
        self._undo: list = []

    def _wrap(self, layer: int, fn, count=None):
        stack = self._stack
        clock = time.perf_counter_ns
        calls, incl, selft = self.calls, self.incl_ns, self.self_ns
        sl, sp, ss, se = (self.span_layer, self.span_parent,
                          self.span_start, self.span_end)

        def traced(*args, **kwargs):
            index = len(sl)
            sl.append(layer)
            sp.append(stack[-1][0] if stack else -1)
            ss.append(0)
            se.append(0)
            frame = [index, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                ss[index] = start
                se[index] = end
                took = end - start
                calls[layer] += 1
                incl[layer] += took
                selft[layer] += took - frame[1]
                if stack:
                    stack[-1][1] += took
            if count is not None:
                count(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _counter(self, name: str, fn):
        counts = self.counts
        if name == "poly.mul":
            def count(args, kwargs, result):
                counts["poly.mul.terms_out"] += len(result.terms)
        elif name == "poly.substitute":
            def count(args, kwargs, result):
                counts["poly.substitute.terms_out"] += len(result.terms)
        elif name == "linalg.rref":
            def count(args, kwargs, result):
                m = args[0]
                counts["linalg.rref.cells"] += len(m) * (len(m[0]) if m else 0)
        elif name == "cmoperator.operator_matrix":
            keys = self.matrix_keys
            signature = inspect.signature(fn)

            def count(args, kwargs, result):
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                a = bound.arguments
                keys.add((a["ell"], a["grading"].weights, _model_key(a["model"]),
                          tuple(a["component_order"])))
        else:
            count = None
        return count

    def install(self):
        modules = [m for n, m in sys.modules.items()
                   if n == "paracr" or n.startswith("paracr.")]
        for layer, (name, modname, path) in enumerate(LAYERS):
            mod = sys.modules[f"paracr.{modname}"]
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(mod, owner_name) if owner_name else mod
            orig = getattr(owner, attr)
            wrapper = self._wrap(layer, orig, self._counter(name, orig))
            holders = [owner] if owner_name else modules
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is orig:
                        setattr(holder, key, wrapper)
                        self._undo.append((holder, key, orig))

    def remove(self):
        for holder, key, orig in reversed(self._undo):
            setattr(holder, key, orig)
        self._undo.clear()

    def metrics(self, ops: int) -> dict:
        out = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = (self.calls[i] / ops, "calls/op")
            out[f"{name}.self_s"] = (self.self_ns[i] / 1e9 / ops, "s/op")
            out[f"{name}.incl_s"] = (self.incl_ns[i] / 1e9 / ops, "s/op")
        units = {"poly.mul.terms_out": "terms/op",
                 "poly.substitute.terms_out": "terms/op",
                 "linalg.rref.cells": "cells/op"}
        for name, unit in units.items():
            out[name] = (self.counts[name] / ops, unit)
        out["cmoperator.operator_matrix.distinct"] = (len(self.matrix_keys) / ops,
                                                      "keys/op")
        return out

    def spans(self) -> dict:
        """Spans with times in ns from the first span's start."""
        base = self.span_start[0] if self.span_start else 0
        return {"layers": self.names,
                "layer": self.span_layer.tolist(),
                "parent": self.span_parent.tolist(),
                "start_ns": [t - base for t in self.span_start],
                "end_ns": [t - base for t in self.span_end]}
