"""Span tracer that wraps the package's public functions from the outside.

``Tracer.install`` replaces every public function and every public method of
the traced modules with a wrapper that records a span (kind, parent, start,
end, work) while the tracer is active, and rebinds each module-level name that
pointed at an original function, so calls that go through ``from .x import f``
aliases are traced too. Nothing in the package is edited; ``uninstall``
restores the originals.

The benchmark opens a root span around each timed call (``region``), so the
self time of the root spans is the part of the timed wall that no package
function covers: per module self times plus that remainder add up to the
timed wall exactly.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
from time import perf_counter

import numpy as np

# layers whose calls are traced; config and cli run only during set-up
TRACED_MODULES = ("numerics", "oracle", "models", "training", "uq",
                  "baselines", "metrics", "sampler", "data", "reporting")

BENCH = "bench"  # module name of the root spans opened by the benchmark


def _layer_dims(model):
    return [w.shape for w in model.weights]


def _rows(a) -> int:
    return a.shape[0] if np.ndim(a) == 2 else 1


def _gemm_work(rows, shapes, grads=False):
    """(rows, flops, bytes) of the GEMMs one pass over ``shapes`` runs.

    Computed from layer shapes, not measured. A forward or tangent pass runs
    one (rows x in) @ (in x out) product per layer. A backward pass runs the
    weight-gradient product for every layer and the input-gradient product
    for every layer but the first. Bytes count each float64 operand read
    once and each result written once.
    """
    flops = 0
    nbytes = 0
    for i, (out, inp) in enumerate(shapes):
        products = (2 if i > 0 else 1) if grads else 1
        flops += products * 2 * rows * out * inp
        nbytes += products * 8 * (rows * inp + out * inp + rows * out)
    return rows, flops, nbytes


def _forward_work(args, kwargs):
    return _gemm_work(_rows(args[1]), _layer_dims(args[0]))


def _backward_work(args, kwargs):
    return _gemm_work(_rows(args[2]), _layer_dims(args[0]), grads=True)


def _tangent_work(args, kwargs):
    return _gemm_work(_rows(args[2]), _layer_dims(args[0]))


def _euler_work(args, kwargs):
    steps = kwargs.get("steps", args[2] if len(args) > 2 else 0)
    return int(steps), 0, 0


def _file_bytes(args, kwargs):
    try:
        return os.path.getsize(args[0]), 0, 0
    except OSError:
        return 0, 0, 0


# work hooks run after the call returns; keyed by (module, qualname)
WORK_HOOKS = {
    ("models", "MlpVelocity.forward_cache"): _forward_work,
    ("models", "MlpVelocity.backward"): _backward_work,
    ("models", "MlpVelocity.tangent"): _tangent_work,
    ("sampler", "euler_generate"): _euler_work,
    ("reporting", "write_csv"): _file_bytes,
    ("reporting", "write_pgm"): _file_bytes,
}


class Tracer:
    """Records nested spans of the wrapped calls made while ``active``."""

    def __init__(self):
        self.kinds = [(BENCH, "timed")]  # kind id -> (module, qualname)
        self.spans = []  # (kind, parent, t0, t1, work or None)
        self.stack = []
        self.active = False
        self._patches = []  # (owner, attribute, original value)

    # ---- installation ------------------------------------------------------

    def _kind(self, module, qualname) -> int:
        self.kinds.append((module, qualname))
        return len(self.kinds) - 1

    def _wrap(self, fn, module):
        kind = self._kind(module, fn.__qualname__)
        hook = WORK_HOOKS.get((module, fn.__qualname__))
        spans, stack = self.spans, self.stack
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                work = hook(args, kwargs) if hook is not None else None
                spans[idx] = (kind, parent, t0, t1, work)

        return wrapper

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, package: str = "flowvar") -> None:
        wrapped = {}  # id(original function) -> (original, wrapper)
        for name in TRACED_MODULES:
            mod = importlib.import_module(f"{package}.{name}")
            for public in getattr(mod, "__all__", ()):
                obj = getattr(mod, public, None)
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = (obj, self._wrap(obj, name))
                elif inspect.isclass(obj):
                    self._wrap_class(obj, name)
        for modname, mod in list(sys.modules.items()):
            if modname != package and not modname.startswith(package + "."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(mod, attr, hit[1])

    def _wrap_class(self, cls, module):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__call__":
                continue
            if isinstance(raw, staticmethod):
                self._set(cls, attr, staticmethod(self._wrap(raw.__func__, module)))
            elif inspect.isfunction(raw):
                self._set(cls, attr, self._wrap(raw, module))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # ---- root spans ----------------------------------------------------------

    def region(self, fn, *args, **kwargs):
        """Call ``fn`` inside an active root span; returns its result."""
        idx = len(self.spans)
        self.spans.append(None)
        self.stack.append(idx)
        self.active = True
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            self.active = False
            self.stack.pop()
            self.spans[idx] = (0, -1, t0, t1, None)

    # ---- aggregation -----------------------------------------------------------

    def summary(self):
        """Per (module, qualname): calls, self seconds, summed work tuple."""
        child = [0.0] * len(self.spans)
        for kind, parent, t0, t1, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = {}
        for i, (kind, parent, t0, t1, work) in enumerate(self.spans):
            key = self.kinds[kind]
            entry = out.setdefault(key, [0, 0.0, [0, 0, 0]])
            entry[0] += 1
            entry[1] += (t1 - t0) - child[i]
            if work is not None:
                for j in range(3):
                    entry[2][j] += work[j]
        return out
