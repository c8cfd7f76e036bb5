"""Per-layer spans for the traced benchmark run, recorded from outside the package.

The layers are the modules of blochframes.  Every public function a layer
defines, and the methods listed in METHODS, is replaced by a wrapper that opens
a span around the call.  The modules import each other's names directly
(``from .minimize import minimize_wcan``), so each wrapper is bound under every
name in every blochframes module that refers to the original object.

A span's self time is its duration minus the time covered by its child spans.
Spans are kept in memory and written out when the run ends.

Two boundaries are counted but not timed, so that tracing does not distort the
work it measures:

* single-point ``PauliCoefficients.node_values`` calls (the minimizer's
  refinement makes about 30k of them per threshold solve); their time stays in
  the enclosing span, and the refinement phase is timed from the first such
  call to the end of its ``minimize_wcan`` span;
* the contraction helpers in CONTRACTIONS, whose operation counts are computed
  from the tensor shapes they receive.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
import types
from collections import defaultdict

LAYERS = ("cli", "states", "operators", "frames", "representations", "harmonics", "minimize", "separability")

# The CLI layer is traced at its entry point only, so argument parsing and
# JSON handling all count as cli.main self time.
ONLY = {"cli": ("main",)}

METHODS = {
    "frames": {"Frame": ("dual_pauli_matrix",)},
    "states": {"ProductEnsemble": ("mixture",)},
    "representations": {
        "CoefficientTable": ("write_csv",),
        "PauliCoefficients": ("node_values",),
    },
    "harmonics": {"SphCoefficients": ("node_values",)},
}

# helper name -> the axis of each factor that the helper contracts away
CONTRACTIONS = {"representations": {"_mode_contract": 1, "_assemble_product": 0}}

POINT_EVALS = "representations.PauliCoefficients.node_values"
MINIMIZE = "minimize.minimize_wcan"
THRESHOLD = "minimize.threshold_search"
WRITE_CSV = "representations.CoefficientTable.write_csv"
ROOT = "bench.request"


class _Span:
    __slots__ = ("name", "span_id", "parent_id", "start", "child", "first_point")

    def __init__(self, name, span_id, parent_id, start):
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = start
        self.child = 0.0
        self.first_point = None


class Tracer:
    """Collects spans and counters while ``active``; a no-op otherwise."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.active = False
        self.request_id = 0
        self.spans = []  # (request, span, parent, name, start, end)
        self._next_id = 1
        self._stack = []
        self._patches = []
        self.reset()

    def reset(self) -> None:
        """Start a fresh set of per-name statistics (spans are kept)."""
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(float)

    # --- recording ----------------------------------------------------------

    def call(self, name, fn, *args, **kwargs):
        if not self.active:
            return fn(*args, **kwargs)
        parent = self._stack[-1] if self._stack else None
        span = _Span(name, self._next_id, parent.span_id if parent else 0, self.clock())
        self._next_id += 1
        self._stack.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            end = self.clock()
            self._stack.pop()
            duration = end - span.start
            self.calls[name] += 1
            self.total[name] += duration
            self.self_time[name] += duration - span.child
            if parent is not None:
                parent.child += duration
            if span.first_point is not None:
                self.counts["refine_s"] += end - span.first_point
            self.spans.append((self.request_id, span.span_id, span.parent_id, name, span.start, end))

    def point_eval(self) -> None:
        """Count one untimed single-point evaluation of the expansion function."""
        self.calls[POINT_EVALS] += 1
        top = self._stack[-1] if self._stack else None
        if top is not None and top.name == MINIMIZE:
            self.counts["refine_evals"] += 1
            if top.first_point is None:
                top.first_point = self.clock()

    def parent_name(self):
        return self._stack[-1].name if self._stack else None

    # --- installation -------------------------------------------------------

    def install(self, package) -> None:
        """Wrap the traced names of every layer module of `package`."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == package.__name__ or name.startswith(package.__name__ + ".")]
        for layer in LAYERS:
            module = sys.modules[f"{package.__name__}.{layer}"]
            for attr in _public_functions(module, ONLY.get(layer)):
                self._rebind(modules, getattr(module, attr), self._span_wrapper(f"{layer}.{attr}", getattr(module, attr)))
            for attr, axis in CONTRACTIONS.get(layer, {}).items():
                original = getattr(module, attr, None)
                if original is not None:
                    self._rebind(modules, original, self._flop_wrapper(original, axis))
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(module, cls_name, None)
                for meth in methods:
                    original = vars(cls).get(meth) if cls is not None else None
                    if isinstance(original, types.FunctionType):
                        name = f"{layer}.{cls_name}.{meth}"
                        wrapper = self._span_wrapper(name, original)
                        if name == POINT_EVALS:
                            wrapper = self._node_values_wrapper(original, wrapper)
                        setattr(cls, meth, wrapper)
                        self._patches.append((cls, meth, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _rebind(self, modules, original, wrapper) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._patches.append((module, attr, original))

    def _span_wrapper(self, name, fn):
        tracer = self
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.active and hook is not None:
                return hook(tracer, name, fn, args, kwargs)
            return tracer.call(name, fn, *args, **kwargs)

        return wrapper

    def _node_values_wrapper(self, fn, timed):
        tracer = self

        @functools.wraps(fn)
        def wrapper(coeffs, nodes_per_qubit, *args, **kwargs):
            if not tracer.active:
                return fn(coeffs, nodes_per_qubit, *args, **kwargs)
            # a grid scan has at least 6 points on every sphere, so one node
            # on the first sphere marks a single-point evaluation
            if len(nodes_per_qubit[0]) == 1:
                tracer.point_eval()
                return fn(coeffs, nodes_per_qubit, *args, **kwargs)
            if tracer.parent_name() == MINIMIZE:
                sizes = [len(nodes) for nodes in nodes_per_qubit]
                tracer.counts["scans"] += 1
                tracer.counts["scan_points"] += math.prod(sizes)
                tracer.counts["scan_grid_per_sphere"] += sum(sizes) / len(sizes)
            return timed(coeffs, nodes_per_qubit, *args, **kwargs)

        return wrapper

    def _flop_wrapper(self, fn, axis):
        tracer = self

        @functools.wraps(fn)
        def wrapper(tensor, factors, *args, **kwargs):
            if tracer.active:
                tracer.counts["contract_flops"] += _contraction_flops(tensor, factors, axis)
            return fn(tensor, factors, *args, **kwargs)

        return wrapper

    # --- output -------------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for request, span, parent, name, start, end in self.spans:
                fh.write(json.dumps({"request": request, "span": span, "parent": parent,
                                     "name": name, "start": start, "end": end}) + "\n")


def _public_functions(module, only=None):
    names = only if only is not None else sorted(vars(module))
    out = []
    for attr in names:
        value = getattr(module, attr, None)
        if (not attr.startswith("_") and isinstance(value, types.FunctionType)
                and value.__module__ == module.__name__):
            out.append(attr)
    return out


def _contraction_flops(tensor, factors, axis: int) -> int:
    """Operation count (2 per multiply-add) of contracting the tensor's leading
    axis with `axis` of each factor in turn, computed from the shapes."""
    size = int(tensor.size)
    flops = 0
    for factor in factors:
        consumed = factor.shape[axis]
        produced = factor.size // consumed
        flops += 2 * size * produced
        size = size // consumed * produced
    return flops


def _minimize_hook(tracer, name, fn, args, kwargs):
    if tracer.parent_name() == THRESHOLD:
        tracer.counts["bisect_steps"] += 1
    return tracer.call(name, fn, *args, **kwargs)


def _write_csv_hook(tracer, name, fn, args, kwargs):
    table = args[0]
    stream = args[1] if len(args) > 1 else kwargs.get("stream")
    start = _tell(stream)
    result = tracer.call(name, fn, *args, **kwargs)
    end = _tell(stream)
    tracer.counts["rows_written"] += table.weights.size
    if start is not None and end is not None:
        tracer.counts["bytes_written"] += end - start
    return result


def _tell(stream):
    try:
        return stream.tell()
    except (AttributeError, OSError, ValueError):
        return None


_HOOKS = {
    MINIMIZE: _minimize_hook,
    WRITE_CSV: _write_csv_hook,
}
